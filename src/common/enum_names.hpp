#pragma once

/// \file enum_names.hpp
/// A wire enum's names, declared once: enumerator i is called names[i],
/// and both directions of the mapping read that one table.

#include <array>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>

namespace symphase {

template <typename Enum, std::size_t N>
struct EnumNames {
  /// What the enum names, for the parse error ("sample format").
  std::string_view what;
  std::array<std::string_view, N> names;

  constexpr std::string_view name(Enum value) const {
    return names[static_cast<std::size_t>(value)];
  }

  /// Throws std::invalid_argument "unknown <what> '<name>' (<a>|<b>|...)".
  Enum from_name(std::string_view name) const {
    for (std::size_t i = 0; i < N; ++i) {
      if (names[i] == name) {
        return static_cast<Enum>(i);
      }
    }
    std::string message =
        "unknown " + std::string(what) + " '" + std::string(name) + "' (";
    for (std::size_t i = 0; i < N; ++i) {
      message += i == 0 ? "" : "|";
      message += names[i];
    }
    throw std::invalid_argument(message + ")");
  }
};

}  // namespace symphase
