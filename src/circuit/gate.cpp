#include "circuit/gate.hpp"

#include <array>
#include <unordered_map>

#include "common/check.hpp"

namespace symphase {

namespace {

constexpr std::array<GateInfo, 27> kGateTable{{
    {GateType::I, "I", GateKind::kUnitary1, false, {}},
    {GateType::X, "X", GateKind::kUnitary1, false, {}},
    {GateType::Y, "Y", GateKind::kUnitary1, false, {}},
    {GateType::Z, "Z", GateKind::kUnitary1, false, {}},
    {GateType::H, "H", GateKind::kUnitary1, false, {}},
    {GateType::S, "S", GateKind::kUnitary1, false, {}},
    {GateType::S_DAG, "S_DAG", GateKind::kUnitary1, false, {}},
    {GateType::SQRT_X, "SQRT_X", GateKind::kUnitary1, false, {}},
    {GateType::SQRT_X_DAG, "SQRT_X_DAG", GateKind::kUnitary1, false, {}},
    {GateType::H_YZ, "H_YZ", GateKind::kUnitary1, false, {}},
    {GateType::CNOT, "CNOT", GateKind::kUnitary2, false, {}},
    {GateType::CZ, "CZ", GateKind::kUnitary2, false, {}},
    {GateType::SWAP, "SWAP", GateKind::kUnitary2, false, {}},
    {GateType::M, "M", GateKind::kMeasure, false, {}},
    {GateType::MR, "MR", GateKind::kMeasure, false, {}},
    {GateType::R, "R", GateKind::kReset, false, {}},
    // Y^s = X^s Z^s up to global phase: one symbol flips both.
    {GateType::X_ERROR, "X_ERROR", GateKind::kNoise1, true, {1, {kFlipXa}}},
    {GateType::Y_ERROR, "Y_ERROR", GateKind::kNoise1, true,
     {1, {kFlipXa | kFlipZa}}},
    {GateType::Z_ERROR, "Z_ERROR", GateKind::kNoise1, true, {1, {kFlipZa}}},
    // X^{s1} Z^{s2}: the 3 non-identity patterns at p/3 each.
    {GateType::DEPOLARIZE1, "DEPOLARIZE1", GateKind::kNoise1, true,
     {2, {kFlipXa, kFlipZa}}},
    // X^{s1} Z^{s2} (x) X^{s3} Z^{s4}: the 15 non-identity patterns at
    // p/15 each.
    {GateType::DEPOLARIZE2, "DEPOLARIZE2", GateKind::kNoise2, true,
     {4, {kFlipXa, kFlipZa, kFlipXb, kFlipZb}}},
    {GateType::COND_X, "COND_X", GateKind::kControlled, false, {}},
    {GateType::COND_Y, "COND_Y", GateKind::kControlled, false, {}},
    {GateType::COND_Z, "COND_Z", GateKind::kControlled, false, {}},
    {GateType::DETECTOR, "DETECTOR", GateKind::kDetector, false, {}},
    {GateType::OBSERVABLE_INCLUDE, "OBSERVABLE_INCLUDE",
     GateKind::kDetector, true, {}},
    {GateType::TICK, "TICK", GateKind::kAnnotation, false, {}},
}};

const std::unordered_map<std::string_view, GateType>& name_map() {
  static const auto* map = [] {
    auto* m = new std::unordered_map<std::string_view, GateType>();
    for (const auto& info : kGateTable) {
      m->emplace(info.name, info.type);
    }
    // Aliases accepted by the parser.
    m->emplace("CX", GateType::CNOT);
    m->emplace("ZCX", GateType::CNOT);
    m->emplace("ZCZ", GateType::CZ);
    m->emplace("MZ", GateType::M);
    m->emplace("MRZ", GateType::MR);
    m->emplace("RZ", GateType::R);
    m->emplace("SQRT_Z", GateType::S);
    m->emplace("SQRT_Z_DAG", GateType::S_DAG);
    return m;
  }();
  return *map;
}

}  // namespace

const GateInfo& gate_info(GateType type) {
  const auto index = static_cast<std::size_t>(type);
  SYMPHASE_ASSERT(index < kGateTable.size());
  SYMPHASE_ASSERT(kGateTable[index].type == type);
  return kGateTable[index];
}

std::optional<GateType> gate_type_from_name(std::string_view name) {
  const auto& map = name_map();
  const auto it = map.find(name);
  if (it == map.end()) {
    return std::nullopt;
  }
  return it->second;
}

}  // namespace symphase
