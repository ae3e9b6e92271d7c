#pragma once

/// \file check.hpp
/// Error-handling primitives used across the library.
///
/// Two tiers, following the usual contract/recoverable split:
///  - SYMPHASE_CHECK: always-on validation of *caller-supplied* data
///    (circuit text, qubit indices, sizes). Throws std::invalid_argument.
///    SYMPHASE_CHECK_MSG's message is its detail alone, written for the
///    user who supplied the input; a bare SYMPHASE_CHECK has no detail,
///    so it names the failed condition and where it is.
///  - SYMPHASE_ASSERT: internal invariants. Compiled out in NDEBUG builds
///    except where a function documents otherwise.

#include <sstream>
#include <stdexcept>
#include <string>

namespace symphase {

/// The "what failed, where" message of a check or assert with no detail.
inline std::string format_check_message(const char* expr, const char* file,
                                        int line) {
  std::ostringstream oss;
  oss << "check failed: " << expr << " (" << file << ":" << line << ")";
  return oss.str();
}

[[noreturn]] inline void throw_check_failure(const char* expr, const char* file,
                                             int line) {
  throw std::invalid_argument(format_check_message(expr, file, line));
}

[[noreturn]] inline void throw_assert_failure(const char* expr,
                                              const char* file, int line) {
  throw std::logic_error(format_check_message(expr, file, line));
}

}  // namespace symphase

/// Always-on precondition check on user-facing input. Throws
/// std::invalid_argument with location info on failure.
#define SYMPHASE_CHECK(cond)                                          \
  do {                                                                \
    if (!(cond)) {                                                    \
      ::symphase::throw_check_failure(#cond, __FILE__, __LINE__);     \
    }                                                                 \
  } while (false)

/// Always-on precondition check whose std::invalid_argument carries the
/// formatted detail `msg` alone.
#define SYMPHASE_CHECK_MSG(cond, msg)                                 \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::ostringstream symphase_oss_;                               \
      symphase_oss_ << msg;                                           \
      throw std::invalid_argument(symphase_oss_.str());               \
    }                                                                 \
  } while (false)

/// Internal invariant; active in debug builds only.
#ifdef NDEBUG
#define SYMPHASE_ASSERT(cond) \
  do {                        \
  } while (false)
#else
#define SYMPHASE_ASSERT(cond)                                         \
  do {                                                                \
    if (!(cond)) {                                                    \
      ::symphase::throw_assert_failure(#cond, __FILE__, __LINE__);    \
    }                                                                 \
  } while (false)
#endif
