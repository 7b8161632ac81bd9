#pragma once
// Shared plumbing of the perfbench workloads: command-line options, clocks
// and order statistics, the peak-memory probe, and the Report every
// workload fills and main() prints as the final JSON line.

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The parsed command line.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  std::string daemon_bin;  ///< merlin_d built from the same tree
  std::string work_dir;    ///< private scratch inside the checkout

  /// Worker threads and connections: the machine's core count.
  [[nodiscard]] std::size_t threads() const;
};

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample;
/// 0 for an empty one.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Peak resident set (VmHWM) of this process, MiB.
[[nodiscard]] double peak_rss_mb_self();

/// 64-bit FNV-1a over bytes, chainable through `h`.
[[nodiscard]] std::uint64_t fnv1a(const void* data, std::size_t n,
                                  std::uint64_t h = 0xcbf29ce484222325ULL);
template <typename T>
[[nodiscard]] std::uint64_t fnv1a_pod(const T& v, std::uint64_t h) {
  return fnv1a(&v, sizeof(v), h);
}

/// What one run reports.  Every failed check goes through fail(), which
/// logs the reason to stderr and turns `correct` false.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// One attempted operation that succeeded (ok) or failed.
  void attempt(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  void fail(const std::string& why);
  /// An informational line (input digest, deterministic counts) printed
  /// to stdout ahead of the result.
  void note(const std::string& line);

  [[nodiscard]] bool correct() const { return correct_ && failed_ == 0; }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  /// The final line: {"correct", "attempted", "failed", "metrics"}.
  [[nodiscard]] std::string to_json() const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
};

/// The workloads.  Each fills `rep` with every metric of its mode
/// (end-to-end when opt.trace is false, per-layer when true).
void run_big_net(const Options& opt, Report& rep);
void run_many_nets(const Options& opt, Report& rep);

}  // namespace perfbench
