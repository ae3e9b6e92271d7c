#include "layers.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>

#include "api/sample_stream.hpp"
#include "bitvec/sparse_bit_matrix.hpp"
#include "circuit/parser.hpp"
#include "common/parallel.hpp"
#include "core/symphase.hpp"
#include "sampler/frame_simulator.hpp"
#include "sampler/symbol_value_sampler.hpp"
#include "symbolic/symphase_compiler.hpp"

namespace perfbench {

namespace {

using symphase::BitMatrix;
using symphase::CompiledSampler;
using symphase::kSampleShardBits;

std::atomic<std::uint64_t> g_next_run{1};

/// The production ShardBlockFn of a session's SymPhase backend.
struct Producer {
  const CompiledSampler& cs;
  bool detect;

  std::size_t bits() const {
    return detect ? cs.num_detectors() + cs.num_observables()
                  : cs.num_measurements();
  }
  std::size_t detectors() const { return detect ? cs.num_detectors() : SIZE_MAX; }
  void fill(std::size_t shard, std::size_t shots, std::uint64_t seed,
            BitMatrix& block) const {
    if (detect) {
      cs.sample_detection_shard_block(shard, shots, seed, block);
    } else {
      cs.sample_shard_block(shard, shots, seed, block);
    }
  }
};

enum class SinkKind { kPopcount, kWriter };

/// Wraps a sink, timing each consume() as an `emit` span (with a
/// `serialize` child when the inner sink is the b8 writer).
class TimedSink final : public symphase::SampleSink {
 public:
  TimedSink(symphase::SampleSink& inner, Tracer& tracer, std::uint64_t parent,
            std::uint64_t run, bool serializes)
      : inner_(inner),
        tracer_(tracer),
        parent_(parent),
        run_(run),
        serializes_(serializes) {}

  void begin(const symphase::SampleStreamInfo& info) override {
    inner_.begin(info);
  }
  void consume(const symphase::SampleChunk& chunk) override {
    const std::uint64_t a = now_ns();
    inner_.consume(chunk);
    const std::uint64_t z = now_ns();
    const std::uint64_t emit = tracer_.record("emit", a, z, parent_, run_);
    if (serializes_) {
      tracer_.record("serialize", a, z, emit, run_);
    }
    emit_ns += z - a;
  }
  void end() override { inner_.end(); }

  std::uint64_t emit_ns = 0;

 private:
  symphase::SampleSink& inner_;
  Tracer& tracer_;
  std::uint64_t parent_;
  std::uint64_t run_;
  bool serializes_;
};

struct StreamStats {
  double wall_s = 0;
  double fill_s = 0;
  double deliver_s = 0;
  std::uint64_t shots = 0;
  std::uint64_t bytes = 0;

  double rate() const { return wall_s > 0 ? static_cast<double>(shots) / wall_s : 0; }
};

/// Root spans of traced stream calls that ran on more than one thread:
/// the engine's window set-up and barriers between their fills are
/// unattributed, which the residual reports.
std::vector<std::uint64_t> g_parallel_roots;

/// One stream_sample_blocks() call; traced (fill/emit spans under a
/// `stream` root) when `tracer` is non-null.
void stream_once(const Producer& p, std::size_t shots, std::uint64_t seed,
                 std::size_t threads, SinkKind kind, Tracer* tracer,
                 StreamStats& acc) {
  symphase::StreamSpec spec;
  spec.bits_per_shot = p.bits();
  spec.num_detectors = p.detectors();
  spec.num_shots = shots;
  spec.num_threads = threads;
  PopcountSink pop;
  CountingBuf buf;
  std::ostream out(&buf);
  symphase::WriterSink writer(out, symphase::SampleFormat::kB8);
  symphase::SampleSink& inner =
      kind == SinkKind::kPopcount ? static_cast<symphase::SampleSink&>(pop)
                                  : writer;
  const std::uint64_t t0 = now_ns();
  if (tracer == nullptr) {
    symphase::stream_sample_blocks(
        spec,
        [&](std::size_t, std::size_t shard, BitMatrix& block) {
          p.fill(shard, shots, seed, block);
        },
        inner);
  } else {
    const std::uint64_t run = g_next_run++;
    const std::uint64_t root = tracer->begin("stream", 0, run);
    if (threads > 1) {
      g_parallel_roots.push_back(root);
    }
    std::atomic<std::uint64_t> fill_ns{0};
    TimedSink timed(inner, *tracer, root, run, kind == SinkKind::kWriter);
    symphase::stream_sample_blocks(
        spec,
        [&](std::size_t, std::size_t shard, BitMatrix& block) {
          const std::uint64_t a = now_ns();
          p.fill(shard, shots, seed, block);
          const std::uint64_t z = now_ns();
          tracer->record("fill", a, z, root, run);
          fill_ns += z - a;
        },
        timed);
    tracer->end(root);
    acc.fill_s += static_cast<double>(fill_ns.load()) / 1e9;
    acc.deliver_s += static_cast<double>(timed.emit_ns) / 1e9;
  }
  acc.wall_s += static_cast<double>(now_ns() - t0) / 1e9;
  acc.shots += shots;
  acc.bytes += buf.bytes();
}

/// Shots per stream call so that one call takes about `target_s`.
std::size_t calibrate(const Producer& p, SinkKind kind, std::size_t threads,
                      double target_s) {
  StreamStats probe;
  const std::size_t first = kSampleShardBits * threads;
  stream_once(p, first, 1, threads, kind, nullptr, probe);
  const double shards = probe.rate() * target_s / kSampleShardBits;
  const std::size_t n = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::llround(shards)), threads, 256);
  return n * kSampleShardBits;
}

/// Repeats `body` (timed as span `name` under `parent`) at least
/// `min_reps` times and while `budget_s` lasts; returns the median.
template <typename F>
double timed_median(Tracer& tracer, const char* name, std::uint64_t parent,
                    double budget_s, int min_reps, int max_reps, F&& body) {
  std::vector<double> times;
  const Clock::time_point start = Clock::now();
  while (static_cast<int>(times.size()) < min_reps ||
         (seconds_since(start) < budget_s &&
          static_cast<int>(times.size()) < max_reps)) {
    const std::uint64_t a = now_ns();
    body();
    const std::uint64_t z = now_ns();
    tracer.record(name, a, z, parent, 0);
    times.push_back(static_cast<double>(z - a) / 1e9);
  }
  return median(times);
}

double per_million(double seconds, std::uint64_t shots) {
  return shots == 0 ? 0 : seconds / static_cast<double>(shots) * 1e6;
}

}  // namespace

LayerResults measure_layers(const Options& opt, const LayerTask& task,
                            double budget_s, Report& report, Tracer& tracer) {
  LayerResults r;
  const bool detect =
      task.shape.target == symphase::SampleTarget::kDetectionEvents;
  const std::uint64_t seed = mix_seed(opt.seed, 0x1a7e);
  const std::size_t first_span = tracer.spans().size();

  // --- circuit / symbolic: parse, Initialization pass, full compile, and
  // the frame baseline's reference pass.
  symphase::Circuit circuit;
  std::unique_ptr<CompiledSampler> cs;
  std::unique_ptr<symphase::FrameSimulator> frames;
  {
    const ScopedSpan setup(tracer, "setup", 0, g_next_run++);
    const double share = 0.05 * budget_s;
    r.parse_s = timed_median(tracer, "parse", setup.id(), share, 3, 20, [&] {
      circuit = symphase::parse_circuit(task.shape.text);
    });
    r.init_pass_s =
        timed_median(tracer, "init_pass", setup.id(), share, 1, 5, [&] {
          const symphase::DefaultSymPhaseCompiler compiler(circuit);
        });
    r.compile_s =
        timed_median(tracer, "build_compiled", setup.id(), share, 1, 5, [&] {
          cs = std::make_unique<CompiledSampler>(
              CompiledSampler::compile(circuit));
        });
    r.frames_build_s =
        timed_median(tracer, "build_frames", setup.id(), share, 1, 5, [&] {
          frames = std::make_unique<symphase::FrameSimulator>(circuit, 0);
        });
  }
  r.symbols = static_cast<double>(cs->num_symbols());
  r.expr_nnz = static_cast<double>(cs->expression_nnz());
  const Producer producer{*cs, detect};

  // --- sampler: the undecomposed shard call against its noise (B fill)
  // + multiply (M·B) decomposition, rebuilt from the public pieces.
  {
    std::vector<symphase::MeasurementExpression> joint;
    if (detect) {
      joint = cs->detector_expressions();
      joint.insert(joint.end(), cs->observable_expressions().begin(),
                   cs->observable_expressions().end());
    } else {
      joint = cs->expressions();
    }
    std::vector<std::uint32_t> used;
    for (const auto& e : joint) {
      used.insert(used.end(), e.symbols.begin(), e.symbols.end());
    }
    std::sort(used.begin(), used.end());
    used.erase(std::unique(used.begin(), used.end()), used.end());
    const symphase::SymbolValueSampler values(cs->symbols(), used);
    symphase::SparseBitMatrix m(joint.size(), values.num_rows());
    for (std::size_t k = 0; k < joint.size(); ++k) {
      std::vector<std::uint32_t> rows;
      for (const std::uint32_t s : joint[k].symbols) {
        rows.push_back(values.row_of(s));
      }
      m.set_row(k, std::move(rows));
    }
    r.b_rows = static_cast<double>(values.num_rows());
    r.m_nnz = static_cast<double>(m.nnz());

    const std::size_t shots = kSampleShardBits * 1024;
    BitMatrix decomposed(producer.bits(), kSampleShardBits);
    BitMatrix reference(producer.bits(), kSampleShardBits);
    std::uint64_t noise_ns = 0, multiply_ns = 0, reference_ns = 0;
    std::size_t shards = 0, mismatched = 0;
    const Clock::time_point start = Clock::now();
    while (shards < 1024 &&
           (shards < 4 || seconds_since(start) < 0.15 * budget_s)) {
      const std::size_t shard = shards++;
      // One root per shard, so the comparison below stays outside it.
      std::optional<ScopedSpan> root(std::in_place, tracer, "decompose", 0,
                                     g_next_run++);
      const auto run_decomposed = [&] {
        const ScopedSpan fill(tracer, "fill", root->id(), shard + 1);
        const std::uint64_t a = now_ns();
        BitMatrix b(values.num_rows(), kSampleShardBits);
        values.generate_shard_block(shard, shots, seed, b);
        const std::uint64_t mid = now_ns();
        decomposed.clear_all();
        m.multiply_word_range(b, decomposed, 0, symphase::kSampleShardWords);
        const std::uint64_t z = now_ns();
        tracer.record("noise", a, mid, fill.id(), shard + 1);
        tracer.record("multiply", mid, z, fill.id(), shard + 1);
        noise_ns += mid - a;
        multiply_ns += z - mid;
      };
      const auto run_reference = [&] {
        const ScopedSpan fill(tracer, "fill", root->id(), shard + 1);
        const std::uint64_t a = now_ns();
        producer.fill(shard, shots, seed, reference);
        reference_ns += now_ns() - a;
      };
      // Alternate the order so cache warmth favours neither side.
      if (shard % 2 == 0) {
        run_decomposed();
        run_reference();
      } else {
        run_reference();
        run_decomposed();
      }
      root.reset();
      for (std::size_t row = 0; row < producer.bits(); ++row) {
        if (!std::equal(decomposed.row(row),
                        decomposed.row(row) + symphase::kSampleShardWords,
                        reference.row(row))) {
          ++mismatched;
          break;
        }
      }
    }
    const std::uint64_t sampled = shards * kSampleShardBits;
    r.noise_s = per_million(static_cast<double>(noise_ns) / 1e9, sampled);
    r.multiply_s = per_million(static_cast<double>(multiply_ns) / 1e9, sampled);
    r.decomp_ratio = static_cast<double>(noise_ns + multiply_ns) /
                     static_cast<double>(std::max<std::uint64_t>(reference_ns, 1));
    report.check("noise+multiply decomposition bit-identical to the shard call",
                 mismatched == 0,
                 std::to_string(mismatched) + " of " + std::to_string(shards) +
                     " shards differ");
  }

  // --- sampler: frame propagation, the paper's baseline, at 1 thread.
  {
    BitMatrix block(frames->num_measurements(), kSampleShardBits);
    std::uint64_t propagate_ns = 0;
    std::size_t shards = 0;
    const ScopedSpan root(tracer, "frames", 0, g_next_run++);
    const Clock::time_point start = Clock::now();
    while (shards < 1024 &&
           (shards < 1 || seconds_since(start) < 0.08 * budget_s)) {
      const ScopedSpan fill(tracer, "fill", root.id(), shards + 1);
      const std::uint64_t a = now_ns();
      frames->sample_shard_block(shards, kSampleShardBits * 1024, seed, block);
      const std::uint64_t z = now_ns();
      tracer.record("propagate", a, z, fill.id(), shards + 1);
      propagate_ns += z - a;
      ++shards;
    }
    r.propagate_s = per_million(static_cast<double>(propagate_ns) / 1e9,
                                shards * kSampleShardBits);
  }

  // --- api: the engine at nproc threads with the workload's own sink.
  // Untraced and traced calls alternate on the same seed; the tracing
  // overhead is the median of the paired time ratios, which cancels
  // drift in how much CPU the host leaves us.
  const SinkKind own_sink = task.serialize ? SinkKind::kWriter
                                           : SinkKind::kPopcount;
  {
    const std::size_t shots = calibrate(producer, own_sink, opt.nproc, 0.03);
    StreamStats plain, traced;
    std::vector<double> ratios;
    const Clock::time_point start = Clock::now();
    for (std::uint64_t call = 0;
         call < 2 || seconds_since(start) < 0.4 * budget_s; ++call) {
      const double plain_before = plain.wall_s;
      const double traced_before = traced.wall_s;
      const bool traced_first = call % 2 == 1;
      for (int side = 0; side < 2; ++side) {
        const bool trace_it = (side == 0) == traced_first;
        stream_once(producer, shots, mix_seed(seed, call), opt.nproc,
                    own_sink, trace_it ? &tracer : nullptr,
                    trace_it ? traced : plain);
      }
      ratios.push_back((traced.wall_s - traced_before) /
                       (plain.wall_s - plain_before));
    }
    r.fill_s = per_million(traced.fill_s, traced.shots);
    r.deliver_s = per_million(traced.deliver_s, traced.shots);
    const double wall = per_million(traced.wall_s, traced.shots);
    r.parallel_eff =
        r.fill_s / (static_cast<double>(opt.nproc) * (wall - r.deliver_s));
    r.overhead_frac = median(ratios) - 1.0;
  }

  // --- api: thread scaling at 1, 2 and nproc threads, no serialization.
  {
    const std::size_t shots =
        calibrate(producer, SinkKind::kPopcount, opt.nproc, 0.03);
    const std::size_t counts[3] = {1, 2, opt.nproc};
    StreamStats at[3];
    const Clock::time_point start = Clock::now();
    for (std::uint64_t round = 0;
         round == 0 || seconds_since(start) < 0.2 * budget_s; ++round) {
      for (int i = 0; i < 3; ++i) {
        stream_once(producer, shots, mix_seed(seed, 1000 + round), counts[i],
                    SinkKind::kPopcount, &tracer, at[i]);
      }
    }
    r.scaling_2t = at[1].rate() / at[0].rate();
    r.scaling_nproc = at[2].rate() / at[0].rate();
  }

  // --- writer: b8 serialization of the same records, 1 and nproc threads.
  {
    const std::size_t shots = calibrate(producer, SinkKind::kWriter, 1, 0.03);
    StreamStats one, many;
    const Clock::time_point start = Clock::now();
    for (std::uint64_t round = 0;
         round == 0 || seconds_since(start) < 0.17 * budget_s; ++round) {
      stream_once(producer, shots, mix_seed(seed, 2000 + round), 1,
                  SinkKind::kWriter, &tracer, one);
      stream_once(producer, shots, mix_seed(seed, 2000 + round), opt.nproc,
                  SinkKind::kWriter, &tracer, many);
    }
    r.serialize_s = per_million(one.deliver_s, one.shots);
    r.bytes_per_shot =
        static_cast<double>(one.bytes) / static_cast<double>(one.shots);
    r.writer_scaling_nproc = many.rate() / one.rate();
  }

  // --- attribution: how much of each traced phase's wall time its child
  // spans cover.
  const std::vector<SpanRecord> all = tracer.spans();
  std::map<std::uint64_t, std::vector<std::pair<std::uint64_t, std::uint64_t>>>
      children;
  for (std::size_t i = first_span; i < all.size(); ++i) {
    if (all[i].parent != 0) {
      children[all[i].parent].emplace_back(all[i].start_ns, all[i].end_ns);
    }
  }
  // [0]: every traced phase; [1]: the single-threaded ones, i.e. the
  // path the in-process workloads' measurement loops take.
  double wall[2] = {0, 0}, covered[2] = {0, 0};
  for (std::size_t i = first_span; i < all.size(); ++i) {
    const SpanRecord& s = all[i];
    if (s.parent == 0) {
      const double dur = static_cast<double>(s.end_ns - s.start_ns);
      const double cov = static_cast<double>(
          covered_ns(children[s.id], s.start_ns, s.end_ns));
      const bool serial =
          std::find(g_parallel_roots.begin(), g_parallel_roots.end(), s.id) ==
          g_parallel_roots.end();
      for (int k = 0; k < (serial ? 2 : 1); ++k) {
        wall[k] += dur;
        covered[k] += cov;
      }
    }
  }
  r.unattributed_frac = wall[0] > 0 ? 1.0 - covered[0] / wall[0] : 1.0;
  const double serial_frac = wall[1] > 0 ? covered[1] / wall[1] : 0.0;
  std::ostringstream line;
  line << "traced in-process phases: " << wall[0] / 1e9 << " s, "
       << 100.0 * (1.0 - r.unattributed_frac)
       << "% inside named spans; single-threaded phases: " << wall[1] / 1e9
       << " s, " << 100.0 * serial_frac << "%";
  report.note(line.str());
  if (task.require_attribution) {
    report.check("traced run attributes >= 90% of the 1-thread workload path",
                 serial_frac >= 0.90, line.str());
  }
  return r;
}

void report_layers(Report& report, const LayerResults& l,
                   const ServiceLayers& s) {
  report.metric("circuit.parse_s", l.parse_s, "s");
  report.metric("symbolic.init_pass_s", l.init_pass_s, "s");
  report.metric("symbolic.compile_s", l.compile_s, "s");
  report.metric("symbolic.symbols", l.symbols, "count");
  report.metric("symbolic.expr_nnz", l.expr_nnz, "count");
  report.metric("sampler.noise_s", l.noise_s, "s/Mshot");
  report.metric("sampler.b_rows", l.b_rows, "count");
  report.metric("sampler.multiply_s", l.multiply_s, "s/Mshot");
  report.metric("sampler.m_nnz", l.m_nnz, "count");
  report.metric("sampler.decomp_ratio", l.decomp_ratio, "ratio");
  report.metric("sampler.propagate_s", l.propagate_s, "s/Mshot");
  report.metric("sampler.frames_build_s", l.frames_build_s, "s");
  report.metric("api.fill_s", l.fill_s, "s/Mshot");
  report.metric("api.deliver_s", l.deliver_s, "s/Mshot");
  report.metric("api.parallel_eff", l.parallel_eff, "ratio");
  report.metric("api.scaling_2t", l.scaling_2t, "ratio");
  report.metric("api.scaling_nproc", l.scaling_nproc, "ratio");
  report.metric("writer.serialize_s", l.serialize_s, "s/Mshot");
  report.metric("writer.bytes_per_shot", l.bytes_per_shot, "count");
  report.metric("writer.scaling_nproc", l.writer_scaling_nproc, "ratio");
  report.metric("service.queue_ms", s.queue_ms, "ms");
  report.metric("service.compile_ms", s.compile_ms, "ms");
  report.metric("service.execute_ms", s.execute_ms, "ms");
  report.metric("service.emit_ms", s.emit_ms, "ms");
  report.metric("service.bulk_execute_ms", s.bulk_execute_ms, "ms");
  report.metric("service.bulk_emit_ms", s.bulk_emit_ms, "ms");
  report.metric("service.fused_frac", s.fused_frac, "ratio");
  report.metric("service.compiles", s.compiles, "count");
  report.metric("net.outside_ms", s.net_outside_ms, "ms");
  report.metric("http.outside_ms", s.http_outside_ms, "ms");
  report.metric("trace.unattributed_frac", l.unattributed_frac, "ratio");
  report.metric("trace.overhead_frac", l.overhead_frac, "ratio");
}

}  // namespace perfbench
