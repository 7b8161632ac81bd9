#pragma once
// Span bookkeeping for the traced run.
//
// BenchTrace holds the benchmark's own spans: one around every call into a
// layer's public entry point (BatchRunner::run / run_nets,
// ServeClient::submit_net), each with its parent, kept in memory and
// written out as a Chrome trace when the run ends.
//
// SpanTable rolls the engine spans of in-process ObsSink rings up per name
// into count, total and self time, where a span's self time is its
// duration minus the part of it its children cover (parents are found from
// the per-net close order and nesting depth).

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/sink.h"

namespace perfbench {

[[nodiscard]] std::uint64_t now_ns();

struct BenchSpan {
  std::string name;
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index into the trace, -1 for a root
  std::uint64_t arg = 0;
};

class BenchTrace {
 public:
  /// Thread-safe; returns the new span's index.
  std::int64_t add(const std::string& name, std::uint64_t begin_ns,
                   std::uint64_t end_ns, std::int64_t parent = -1,
                   std::uint64_t arg = 0);
  /// Sets a span's end once its children are known.
  void close(std::int64_t id, std::uint64_t end_ns);
  [[nodiscard]] std::vector<BenchSpan> spans() const;
  /// Chrome trace-event JSON (loadable in Perfetto).
  void write_json(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<BenchSpan> spans_;
};

/// Per-name totals of a set of spans, milliseconds.
struct SpanStat {
  std::uint64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

class SpanTable {
 public:
  /// Raw engine spans of one ObsSink ring.  Net-attributed spans get self
  /// times from their children; scheduling spans (batch.reduce, pool.*)
  /// have none.
  void add_engine_spans(const std::vector<merlin::SpanRecord>& spans);

  [[nodiscard]] SpanStat get(const std::string& name) const;
  /// Sum of the self times of every net-attributed span — equals the
  /// summed batch.net durations when the parent links are right.
  [[nodiscard]] double net_self_ms_sum() const { return net_self_ms_; }

 private:
  std::map<std::string, SpanStat> by_name_;
  double net_self_ms_ = 0.0;
};

}  // namespace perfbench
