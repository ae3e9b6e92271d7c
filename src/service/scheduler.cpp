#include "service/scheduler.hpp"

#include <stdexcept>
#include <string>

namespace symphase {

RequestPriority priority_from_name(std::string_view name) {
  if (name == "high") {
    return RequestPriority::kHigh;
  }
  if (name == "normal") {
    return RequestPriority::kNormal;
  }
  if (name == "low") {
    return RequestPriority::kLow;
  }
  throw std::invalid_argument("unknown priority '" + std::string(name) +
                              "' (high|normal|low)");
}

}  // namespace symphase
