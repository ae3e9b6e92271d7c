#pragma once

/// \file clifford_gates.hpp
/// The unitary gates' conjugation rules, each declared once.
///
/// A Clifford gate U maps every generator row P to U P U†: new X/Z bits
/// on the qubits U acts on, and possibly a flipped sign (Aaronson &
/// Gottesman 2004, arXiv:quant-ph/0406196; the paper's Init-C step). A
/// rule below is that map on *lanes*: a lane holds the same column bit of
/// one or more rows, so one rule serves every layout's word type. A rule
/// names the lanes it reads and writes, out of X_a, Z_a, X_b, Z_b and the
/// sign (the constant phase column s_0). It writes only lanes it reads,
/// and only XORs into the sign, so a traversal may hand it a zero sign and
/// apply what comes out as a flip.
///
/// Each layout owns only its traversal, `apply_gate<Rule>(a, b)`, which
/// hands the rule the lines of the columns it names and touches no other
/// column:
///   - RowMajorTableau: one bit per generator row (bit 0 of a `Word`);
///   - ColMajorTableau: one `Word` of each column array;
///   - BlockedTableau: one `WideWord` per tile-row, after orienting only
///     the tile-columns the rule names;
///   - FrameSimulator: one `WideWord` of each frame row, with the sign
///     lane dead (Pauli frames carry no sign, so X, Y and Z do nothing).
/// `apply_unitary` is the one dispatch from a GateType to its rule.

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>

#include "circuit/gate.hpp"
#include "common/check.hpp"

namespace symphase {

namespace clifford {

/// Lane masks: X and Z of the first qubit (a), of the second (b), and the
/// sign. Bit k of a mask is lane k of a traversal step.
inline constexpr unsigned kXa = 1u << 0;
inline constexpr unsigned kZa = 1u << 1;
inline constexpr unsigned kXb = 1u << 2;
inline constexpr unsigned kZb = 1u << 3;
inline constexpr std::size_t kSignLane = 4;
inline constexpr unsigned kSign = 1u << kSignLane;
inline constexpr std::size_t kLanes = 5;
inline constexpr unsigned kAllLanes = (1u << kLanes) - 1;

/// The lanes a rule reads and writes; a rule touching lanes of b is a
/// two-qubit rule.
template <unsigned Reads, unsigned Writes>
struct Lanes {
  static constexpr unsigned kReads = Reads;
  static constexpr unsigned kWrites = Writes;
  static constexpr bool kTwoQubit = ((Reads | Writes) & (kXb | kZb)) != 0;
};

inline constexpr unsigned kXZSign = kXa | kZa | kSign;
inline constexpr unsigned kPair = kXa | kZa | kXb | kZb;

struct I : Lanes<0, 0> {
  template <typename L>
  static void apply(L&, L&, L&) {}
};

struct X : Lanes<kZa | kSign, kSign> {
  template <typename L>
  static void apply(L&, L& z, L& sign) {
    sign ^= z;
  }
};

struct Y : Lanes<kXZSign, kSign> {
  template <typename L>
  static void apply(L& x, L& z, L& sign) {
    sign ^= x ^ z;
  }
};

struct Z : Lanes<kXa | kSign, kSign> {
  template <typename L>
  static void apply(L& x, L&, L& sign) {
    sign ^= x;
  }
};

struct H : Lanes<kXZSign, kXZSign> {
  template <typename L>
  static void apply(L& x, L& z, L& sign) {
    sign ^= x & z;
    std::swap(x, z);
  }
};

struct S : Lanes<kXZSign, kZa | kSign> {
  template <typename L>
  static void apply(L& x, L& z, L& sign) {
    sign ^= x & z;
    z ^= x;
  }
};

struct S_DAG : Lanes<kXZSign, kZa | kSign> {
  template <typename L>
  static void apply(L& x, L& z, L& sign) {
    sign ^= x & ~z;
    z ^= x;
  }
};

struct SQRT_X : Lanes<kXZSign, kXa | kSign> {
  template <typename L>
  static void apply(L& x, L& z, L& sign) {
    sign ^= ~x & z;
    x ^= z;
  }
};

struct SQRT_X_DAG : Lanes<kXZSign, kXa | kSign> {
  template <typename L>
  static void apply(L& x, L& z, L& sign) {
    sign ^= x & z;
    x ^= z;
  }
};

struct H_YZ : Lanes<kXZSign, kXa | kSign> {
  template <typename L>
  static void apply(L& x, L& z, L& sign) {
    sign ^= x & ~z;
    x ^= z;
  }
};

/// a is the control, b the target.
struct CNOT : Lanes<kPair | kSign, kZa | kXb | kSign> {
  template <typename L>
  static void apply(L& xa, L& za, L& xb, L& zb, L& sign) {
    sign ^= xa & zb & ~(xb ^ za);
    xb ^= xa;
    za ^= zb;
  }
};

struct CZ : Lanes<kPair | kSign, kZa | kZb | kSign> {
  template <typename L>
  static void apply(L& xa, L& za, L& xb, L& zb, L& sign) {
    sign ^= xa & xb & (za ^ zb);
    za ^= xb;
    zb ^= xa;
  }
};

struct SWAP : Lanes<kPair, kPair> {
  template <typename L>
  static void apply(L& xa, L& za, L& xb, L& zb, L&) {
    std::swap(xa, xb);
    std::swap(za, zb);
  }
};

/// Calls f(k) for every lane k set in Mask, in lane order.
template <unsigned Mask, typename F>
inline void for_each_lane(F&& f) {
  [&]<std::size_t... k>(std::index_sequence<k...>) {
    (((Mask & (1u << k)) != 0 ? f(k) : void()), ...);
  }(std::make_index_sequence<kLanes>{});
}

/// Runs Rule on lanes v[0..kLanes), indexed by lane (a one-qubit rule
/// sees X_a, Z_a and the sign).
template <typename Rule, typename L>
inline void apply_to_lanes(L (&v)[kLanes]) {
  if constexpr (Rule::kTwoQubit) {
    Rule::apply(v[0], v[1], v[2], v[3], v[4]);
  } else {
    Rule::apply(v[0], v[1], v[4]);
  }
}

/// One traversal step: loads the lanes Rule reads (`load(k)` returns lane
/// k's line), runs the rule, and stores the lanes it writes
/// (`store(k, value)`). Lanes outside `Live` are neither loaded nor
/// stored; they read as zero and what the rule writes to them is lost.
template <typename Rule, unsigned Live = kAllLanes, typename Load,
          typename Store>
inline void step(Load&& load, Store&& store) {
  using Lane = decltype(load(std::size_t{0}));
  Lane v[kLanes]{};
  for_each_lane<Rule::kReads & Live>([&](std::size_t k) { v[k] = load(k); });
  apply_to_lanes<Rule>(v);
  for_each_lane<Rule::kWrites & Live>(
      [&](std::size_t k) { store(k, v[k]); });
}

}  // namespace clifford

/// Applies unitary gate `type` to each of `targets` (each pair, for a
/// two-qubit gate; the first of a pair is CNOT's control) through
/// `layout`'s traversal. Throws for a non-unitary type or a bad target.
template <typename Layout>
void apply_unitary(Layout& layout, GateType type,
                   std::span<const std::uint32_t> targets) {
  const auto apply = [&]<typename Rule>(Rule) {
    constexpr std::size_t arity = Rule::kTwoQubit ? 2 : 1;
    SYMPHASE_CHECK(targets.size() % arity == 0);
    for (std::size_t i = 0; i < targets.size(); i += arity) {
      const std::size_t a = targets[i];
      const std::size_t b = targets[i + arity - 1];
      SYMPHASE_CHECK(a < layout.num_qubits() && b < layout.num_qubits() &&
                     (arity == 1 || a != b));
      layout.template apply_gate<Rule>(a, b);
    }
  };
  switch (type) {
    case GateType::I:
      return apply(clifford::I{});
    case GateType::X:
      return apply(clifford::X{});
    case GateType::Y:
      return apply(clifford::Y{});
    case GateType::Z:
      return apply(clifford::Z{});
    case GateType::H:
      return apply(clifford::H{});
    case GateType::S:
      return apply(clifford::S{});
    case GateType::S_DAG:
      return apply(clifford::S_DAG{});
    case GateType::SQRT_X:
      return apply(clifford::SQRT_X{});
    case GateType::SQRT_X_DAG:
      return apply(clifford::SQRT_X_DAG{});
    case GateType::H_YZ:
      return apply(clifford::H_YZ{});
    case GateType::CNOT:
      return apply(clifford::CNOT{});
    case GateType::CZ:
      return apply(clifford::CZ{});
    case GateType::SWAP:
      return apply(clifford::SWAP{});
    default:
      SYMPHASE_CHECK_MSG(false, gate_name(type) << " is not a unitary gate");
  }
}

/// Applies unitary gate `type` to qubit a, or to the pair (a, b) for a
/// two-qubit gate.
template <typename Layout>
void apply_unitary(Layout& layout, GateType type, std::uint32_t a,
                   std::uint32_t b = 0) {
  const std::uint32_t targets[2] = {a, b};
  apply_unitary(layout, type, std::span(targets, gate_arity(type)));
}

}  // namespace symphase
