#include "pauli/pauli_string.hpp"

#include <sstream>

#include "tableau/row_kernels.hpp"

namespace symphase {

PauliString PauliString::from_string(std::string_view text) {
  int phase = 0;
  std::size_t pos = 0;
  if (pos < text.size() && (text[pos] == '+' || text[pos] == '-')) {
    if (text[pos] == '-') {
      phase = 2;
    }
    ++pos;
  }
  if (pos < text.size() && text[pos] == 'i') {
    phase = (phase + 1) % 4;
    ++pos;
  }
  PauliString result(text.size() - pos);
  for (std::size_t q = 0; pos < text.size(); ++pos, ++q) {
    result.set_pauli(q, pauli_from_char(text[pos]));
  }
  result.set_phase_exponent(phase);
  return result;
}

PauliString PauliString::single(std::size_t n, std::size_t qubit,
                                SinglePauli p) {
  SYMPHASE_CHECK(qubit < n);
  PauliString result(n);
  result.set_pauli(qubit, p);
  return result;
}

PauliString PauliString::random(std::size_t n, Rng& rng) {
  PauliString result(n);
  for (std::size_t w = 0; w < result.x_.word_count(); ++w) {
    result.x_.words()[w] = rng.next_word();
    result.z_.words()[w] = rng.next_word();
  }
  if (result.x_.word_count() > 0) {
    const Word tail = tail_mask(n);
    result.x_.words()[result.x_.word_count() - 1] &= tail;
    result.z_.words()[result.z_.word_count() - 1] &= tail;
  }
  return result;
}

std::size_t PauliString::weight() const {
  std::size_t total = 0;
  for (std::size_t w = 0; w < x_.word_count(); ++w) {
    total += static_cast<std::size_t>(
        popcount(x_.words()[w] | z_.words()[w]));
  }
  return total;
}

bool PauliString::commutes_with(const PauliString& other) const {
  SYMPHASE_CHECK(num_qubits() == other.num_qubits());
  // Symplectic form: anticommute iff parity(x1·z2 ^ z1·x2) is odd.
  Word acc = 0;
  for (std::size_t w = 0; w < x_.word_count(); ++w) {
    acc ^= (x_.words()[w] & other.z_.words()[w]) ^
           (z_.words()[w] & other.x_.words()[w]);
  }
  return !parity(acc);
}

int pauli_mul_i_exponent(const PauliString& lhs, const PauliString& rhs) {
  SYMPHASE_CHECK(lhs.num_qubits() == rhs.num_qubits());
  // The tableau rowsum's exponent rule, word by word.
  PhaseTally tally;
  for (std::size_t w = 0; w < lhs.x_bits().word_count(); ++w) {
    tally.accumulate(lhs.x_bits().words()[w], lhs.z_bits().words()[w],
                     rhs.x_bits().words()[w], rhs.z_bits().words()[w]);
  }
  return tally.i_exponent_mod4();
}

PauliString& PauliString::operator*=(const PauliString& rhs) {
  SYMPHASE_CHECK(num_qubits() == rhs.num_qubits());
  const int extra = pauli_mul_i_exponent(*this, rhs);
  phase_ = (phase_ + rhs.phase_ + extra) % 4;
  x_ ^= rhs.x_;
  z_ ^= rhs.z_;
  return *this;
}

std::string PauliString::to_string() const {
  std::ostringstream oss;
  switch (phase_) {
    case 0:
      oss << '+';
      break;
    case 1:
      oss << "+i";
      break;
    case 2:
      oss << '-';
      break;
    case 3:
      oss << "-i";
      break;
    default:
      break;
  }
  for (std::size_t q = 0; q < num_qubits(); ++q) {
    const SinglePauli p = pauli_at(q);
    oss << (p == SinglePauli::I ? '_' : pauli_char(p));
  }
  return oss.str();
}

}  // namespace symphase
