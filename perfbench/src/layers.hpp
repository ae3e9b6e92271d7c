#pragma once

/// \file layers.hpp
/// The traced run's per-layer numbers and how they are printed.

#include "bench.hpp"

namespace perfbench {

/// In-process layers, timed around public calls (measure_layers).
/// Times marked "per 1M shots" are normalized to one million shots.
struct LayerResults {
  double parse_s = 0;          ///< parse_circuit, median
  double init_pass_s = 0;      ///< DefaultSymPhaseCompiler constructor
  double compile_s = 0;        ///< CompiledSampler::compile
  double symbols = 0;          ///< num_symbols()
  double expr_nnz = 0;         ///< expression_nnz()
  double noise_s = 0;          ///< generate_shard_block + B, per 1M shots
  double b_rows = 0;           ///< used-symbol B rows
  double multiply_s = 0;       ///< multiply_word_range, per 1M shots
  double m_nnz = 0;            ///< nnz of the sampled M
  double decomp_ratio = 0;     ///< (noise + multiply) / undecomposed call
  double propagate_s = 0;      ///< FrameSimulator::sample_shard_block
  double frames_build_s = 0;   ///< FrameSimulator constructor
  double fill_s = 0;           ///< ShardBlockFn time at nproc, per 1M shots
  double deliver_s = 0;        ///< sink consume time at nproc, per 1M shots
  double parallel_eff = 0;
  double scaling_2t = 0;
  double scaling_nproc = 0;
  double serialize_s = 0;      ///< WriterSink::consume (b8), per 1M shots
  double bytes_per_shot = 0;
  double writer_scaling_nproc = 0;
  double unattributed_frac = 0;
  double overhead_frac = 0;    ///< traced vs untraced stream wall time
};

/// Served layers, read from the server's own stage summaries and
/// counters over the wire.
struct ServiceLayers {
  double queue_ms = 0;
  double compile_ms = 0;
  double execute_ms = 0;
  double emit_ms = 0;
  double bulk_execute_ms = 0;
  double bulk_emit_ms = 0;
  double fused_frac = 0;
  double compiles = 0;
  double net_outside_ms = 0;
  double http_outside_ms = 0;
};

/// The in-process task the traced run decomposes layer by layer.
struct LayerTask {
  TaskShape shape;
  /// Deliver into a b8 WriterSink (the CLI and server serialize) rather
  /// than the popcount sink.
  bool serialize = false;
  /// Fail the run unless spans cover at least 90% of the traced
  /// phases' wall time (the in-process workloads' acceptance rule).
  bool require_attribution = false;
};

/// Times every public layer call on `task` within about `budget_s`
/// seconds (plus one compile pass per layer), checks the noise+multiply
/// decomposition bit for bit, and attributes the traced phases' wall
/// time to spans.
LayerResults measure_layers(const Options& opt, const LayerTask& task,
                            double budget_s, Report& report, Tracer& tracer);

/// Adds every per-layer metric, in BENCHMARK.json order.
void report_layers(Report& report, const LayerResults& layers,
                   const ServiceLayers& service);

}  // namespace perfbench
