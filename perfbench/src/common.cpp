#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <thread>

namespace perfbench {

std::size_t Options::threads() const {
  return std::max(1u, std::thread::hardware_concurrency());
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0.0) return v[lo];
  return v[lo] + (v[lo + 1] - v[lo]) * frac;
}

double peak_rss_mb_self() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

void Report::fail(const std::string& why) {
  correct_ = false;
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", why.c_str());
}

void Report::note(const std::string& line) {
  std::printf("perfbench: %s\n", line.c_str());
  std::fflush(stdout);
}

std::string Report::to_json() const {
  std::ostringstream o;
  o << "{\"correct\": " << (correct() ? "true" : "false")
    << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
    << ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    // %.17g keeps every digit the measurement has; JSON has no inf/nan.
    if (std::isfinite(m.value)) {
      std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    } else {
      std::snprintf(buf, sizeof(buf), "%s", "null");
    }
    o << (i ? ", " : "") << '"' << m.name << "\": {\"value\": " << buf
      << ", \"unit\": \"" << m.unit << "\"}";
  }
  o << "}}";
  return o.str();
}

}  // namespace perfbench
