#pragma once
// Schema-versioned JSON export of an ObsSink, plus the minimal parser used
// to validate it (tests round-trip the export; merlin_cli re-parses before
// writing --stats-json output).  No third-party JSON dependency on purpose.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/registry.h"
#include "obs/sink.h"

namespace merlin {

/// Schema identity of the export.  Bump kStatsSchemaVersion on any breaking
/// change to the JSON layout and document the migration in
/// docs/OBSERVABILITY.md.
///
/// v2: the `runtime` section gained span-tracer rollups (`spans`,
/// `span_count`, `spans_dropped`) — quarantined there because span wall
/// times are scheduling facts, like everything else in `runtime`.
///
/// v3: new top-level `cache` section (a deterministic rollup of the
/// sub-problem cache counters/gauges: lookups, hit/shared-hit/miss counts,
/// publish totals and shared-store size), plus the new cache_* names in
/// `counters`/`gauges` themselves.
///
/// v4: new top-level `request` section identifying which request produced
/// the document — always present; one-shot CLI runs emit the zero request
/// with source "cli", merlin_d stamps the job id, the submitting client and
/// the admission-queue wait (docs/SERVING.md).  v3 consumers that never
/// look at unknown keys parse v4 documents unchanged.
///
/// v5: new top-level `serve` section — the daemon's survivability rollup
/// (admission/rejection totals, overload state, deadline expiries, snapshot
/// saves/loads; docs/SERVING.md).  Always present; one-shot CLI runs emit
/// the zero section with enabled 0.  Like `runtime` and `request`, its
/// values are wall-clock/serving facts and never join any identity
/// comparison.  Plus the serve_* names in `counters`.  v4 readers that
/// ignore unknown top-level keys parse v5 documents unchanged.
///
/// v6: `latency_us` gained `p999` and a compact `hist` bucket array
/// (run-length pairs `[count, run]` over LatencyHistogram slots; see
/// docs/OBSERVABILITY.md §"Lifetime telemetry"), and its percentiles are
/// now histogram-bucket lower bounds rather than exact order statistics
/// (quantization error <= 1/32 per magnitude).  New always-present
/// top-level `lifetime` section — merlin_d's process-lifetime registry
/// (jobs, lifetime counters/gauges, stage and per-phase histograms,
/// window ring); one-shot CLI runs emit `{"enabled": 0}`.  v5 readers
/// that ignore unknown keys and treat percentiles as approximations
/// parse v6 documents unchanged.
///
/// v7: the top-level `phases` section is gone; wall time is reported per
/// span name only.  `runtime.spans` reads the sink's exact span totals (any
/// run with a sink, traced or not), and `lifetime.phases` became
/// `lifetime.spans` (name mapping in docs/OBSERVABILITY.md).
///
/// v8: the counters `arena_nodes_compacted` and `arena_compactions` and the
/// span `merlin.compact` are gone with the arena compaction they measured.
/// v7 readers that look names up and default a missing one to 0 parse v8
/// documents unchanged.
inline constexpr const char* kStatsSchemaName = "merlin.stats";
inline constexpr int kStatsSchemaVersion = 8;

/// Scheduling-dependent run facts.  Kept in a separate "runtime" JSON
/// section so the deterministic sections (counters/gauges/layers/nets) can
/// be diffed across thread counts.
struct RuntimeInfo {
  std::size_t threads = 1;
  std::uint64_t steals = 0;
  double wall_ms = 0.0;
  std::vector<std::uint64_t> worker_tasks;  ///< tasks executed per worker
};

/// Identity of the request a stats document describes (the v4 `request`
/// section).  The defaults describe a one-shot CLI run; merlin_d fills in
/// the job id it assigned at admission, the client connection that submitted
/// it, and the queue wait — wall-clock, hence quarantined alongside
/// `runtime` rather than the deterministic sections.
struct RequestInfo {
  std::uint64_t id = 0;         ///< daemon-assigned job id (0 = one-shot run)
  const char* source = "cli";   ///< "cli" or "serve"
  std::uint64_t client = 0;     ///< submitting connection id (serve only)
  double queue_ms = 0.0;        ///< admission-queue wait (serve only)
};

/// Daemon survivability facts for the v5 `serve` section.  The totals are
/// cumulative over the daemon's lifetime at the moment the document was
/// produced; queue_depth/ewma_ms/overloaded are that moment's load state.
/// One-shot CLI runs leave the defaults (enabled 0).
struct ServeInfo {
  std::uint8_t enabled = 0;        ///< 1 when a daemon produced the document
  std::uint64_t jobs_admitted = 0;
  std::uint64_t jobs_rejected = 0;       ///< queue_full + draining + overloaded
  std::uint64_t overload_rejections = 0; ///< the err.overloaded subset
  std::uint64_t deadline_expired = 0;    ///< jobs whose deadline died in queue
  std::uint64_t shed_tightened = 0;      ///< jobs run with shed-tightened budgets
  std::uint64_t reply_failures = 0;      ///< reply sends that failed (EPIPE &c)
  std::uint64_t snapshot_saves = 0;
  std::uint64_t snapshot_loads = 0;      ///< successful warm restores (0 or 1)
  std::uint64_t queue_depth = 0;         ///< at this job's dispatch
  double ewma_ms = 0.0;                  ///< recent mean job wall time
  std::uint8_t overloaded = 0;           ///< shedding thresholds crossed
};

/// Render the sink (plus optional runtime/request/serve/lifetime facts)
/// as a JSON document: schema/version, request, counters, gauges,
/// layers, nets (trace rows), latency_us percentiles over the trace wall
/// times, cache, serve, lifetime, runtime.  `lifetime` may be null (the
/// one-shot shape: `"lifetime": {"enabled": 0}`).
[[nodiscard]] std::string stats_to_json(const ObsSink& sink,
                                        const RuntimeInfo& rt = {},
                                        const RequestInfo& req = {},
                                        const ServeInfo& serve = {},
                                        const LifetimeSnapshot* lifetime = nullptr);

/// Render a registry snapshot (plus the serve rollup) in the Prometheus
/// text exposition format — what `req.metrics` returns alongside the JSON
/// and what the CI serve job format-checks.  Histograms surface as
/// quantile summaries (merlin_<name>{quantile="..."} plus _count/_sum).
[[nodiscard]] std::string stats_to_prometheus(const LifetimeSnapshot& lifetime,
                                              const ServeInfo& serve);

// -- minimal JSON value / parser -------------------------------------------

/// A tiny JSON document model: just enough to round-trip stats_to_json.
/// Numbers are stored as double (stats values are counters and timings,
/// all exactly representable well past any realistic magnitude here).
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;  // ordered: deterministic dumps

  [[nodiscard]] bool is_object() const { return kind == Kind::kObject; }
  [[nodiscard]] bool is_array() const { return kind == Kind::kArray; }
  [[nodiscard]] bool is_number() const { return kind == Kind::kNumber; }
  [[nodiscard]] bool has(const std::string& key) const {
    return kind == Kind::kObject && object.count(key) != 0;
  }
  /// Object member access; throws std::out_of_range on missing key.
  [[nodiscard]] const JsonValue& at(const std::string& key) const {
    return object.at(key);
  }
};

/// Parse a JSON document.  Throws std::invalid_argument on malformed input
/// (including trailing garbage).  Supports the full JSON grammar minus
/// \uXXXX escapes (which the exporter never emits).
[[nodiscard]] JsonValue json_parse(std::string_view text);

/// Reconstruct a LatencyHistogram from an exported histogram object (one
/// carrying a `hist` run-length bucket array, e.g. `latency_us` or any
/// `lifetime` histogram).  The rebuilt bucket counts — and therefore every
/// quantile — match the exporter's exactly; sum/max are not part of the
/// bucket array (read the object's own `max` key).  Throws
/// std::invalid_argument on a malformed `hist` member.
[[nodiscard]] LatencyHistogram hist_from_json(const JsonValue& hist_obj);

}  // namespace merlin
