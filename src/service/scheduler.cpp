#include "service/scheduler.hpp"

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
  SYMPHASE_CHECK_MSG(false,
                     "unknown priority '" << name << "' (high|normal|low)");
  return RequestPriority::kNormal;
}

}  // namespace symphase
