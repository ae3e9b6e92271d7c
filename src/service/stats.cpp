#include "service/stats.hpp"

#include <sstream>

namespace symphase {

std::string ServiceStats::to_line() const {
  std::ostringstream oss;
  const char* separator = "";
  for (const StatRow& row : kServiceStatRows) {
    oss << separator << row.key << '=' << this->*row.field;
    separator = " ";
  }
  oss << '\n';
  return oss.str();
}

std::string ServiceStats::to_json() const {
  std::ostringstream oss;
  std::ostringstream served;
  const char* separator = "{\"";
  const char* served_separator = "\"";
  for (const StatRow& row : kServiceStatRows) {
    if (row.label_name == "priority") {
      served << served_separator << row.label_value << "\":"
             << this->*row.field;
      served_separator = ",\"";
      continue;
    }
    oss << separator << row.key << "\":" << this->*row.field;
    separator = ",\"";
    if (row.key == "shots_in_flight") {
      // Always zero: cross-request shot fusion is gone, but perfbench's
      // traced runs still require this key in `stats json=1`.
      oss << ",\"fused_requests\":0";
    }
  }
  oss << ",\"served\":{" << served.str() << "}}\n";
  return oss.str();
}

}  // namespace symphase
