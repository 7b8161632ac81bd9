// The span tracer's contracts (docs/OBSERVABILITY.md, "Tracing"):
//
//   * structure determinism — the net-attributed spans' (net_id, seq, name,
//     depth, arg) tuples are identical across thread counts and repeated
//     runs; only timestamps and the scheduling spans (pool idle/steal,
//     batch reduce) may differ;
//   * nesting mirrors the engines — a batch net span encloses the flow
//     span, which encloses MERLIN iterations, which enclose
//     BUBBLE_CONSTRUCT, which encloses its DP layers;
//   * the Perfetto export is valid Chrome trace-event JSON (validated with
//     the bundled parser) with one thread track per pool worker;
//   * a disarmed ring (the default) records nothing, and the MERLIN_OBS=OFF
//     build compiles TraceSpan out entirely;
//   * span totals close over the engine counters — one bubble.construct
//     per bubble_run, one merlin.iteration per merlin_iteration, ... — and
//     match the armed ring's per-name counts whenever it dropped nothing.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "buflib/library.h"
#include "flow/batch.h"
#include "flow/circuit.h"
#include "flow/flows.h"
#include "net/generator.h"
#include "obs/json.h"
#include "obs/sink.h"
#include "obs/trace.h"

namespace merlin {
namespace {

FlowConfig fast_cfg() {
  FlowConfig cfg;
  cfg.candidates.policy = CandidatePolicy::kReducedHanan;
  cfg.candidates.budget_factor = 1.5;
  cfg.candidates.max_candidates = 12;
  cfg.merlin.bubble.alpha = 3;
  cfg.merlin.bubble.inner_prune.max_solutions = 3;
  cfg.merlin.bubble.group_prune.max_solutions = 4;
  cfg.merlin.bubble.buffer_stride = 4;
  cfg.merlin.max_iterations = 2;
  cfg.engine_prune.max_solutions = 4;
  return cfg;
}

Circuit test_circuit(std::uint64_t seed) {
  CircuitSpec spec;
  spec.name = "trace" + std::to_string(seed);
  spec.n_gates = 20;
  spec.n_primary_inputs = 4;
  spec.max_fanout = 7;
  spec.seed = seed;
  return make_random_circuit(spec, make_standard_library());
}

BatchResult run_traced_batch(const Circuit& ckt, const BufferLibrary& lib,
                             std::size_t threads, ObsSink* sink,
                             FlowKind flow = FlowKind::kFlow3) {
  BatchOptions opts;
  opts.threads = threads;
  opts.flow = flow;
  opts.scaled_config = false;
  opts.config = fast_cfg();
  opts.obs = sink;
  return BatchRunner(lib, opts).run(ckt);
}

/// The deterministic structure of a sink's net-attributed spans, in the
/// aggregate's (net_id, seq) order.  Scheduling spans are excluded by the
/// determinism contract; timestamps and worker ids are dropped.
using SpanShape =
    std::tuple<std::uint32_t, std::uint32_t, SpanName, std::uint16_t,
               std::uint64_t>;
std::vector<SpanShape> net_span_shapes(const ObsSink& sink) {
  std::vector<SpanShape> out;
  for (const SpanRecord& r : sink.spans().snapshot())
    if (!r.scheduling())
      out.emplace_back(r.net_id, r.seq, r.name, r.depth, r.arg);
  return out;
}

TEST(Trace, NetSpanStructureIsThreadCountInvariantAndRepeatable) {
  if (!kObsEnabled) GTEST_SKIP() << "built with MERLIN_OBS=OFF";
  const BufferLibrary lib = make_standard_library();
  const Circuit ckt = test_circuit(42);
  ObsSink s1, s4, s8, s4again;
  for (ObsSink* s : {&s1, &s4, &s8, &s4again})
    s->set_span_capacity(ObsSink::kDefaultSpanCapacity);
  run_traced_batch(ckt, lib, 1, &s1);
  run_traced_batch(ckt, lib, 4, &s4);
  run_traced_batch(ckt, lib, 8, &s8);
  run_traced_batch(ckt, lib, 4, &s4again);

  const std::vector<SpanShape> shape1 = net_span_shapes(s1);
  ASSERT_FALSE(shape1.empty());
  EXPECT_EQ(shape1, net_span_shapes(s4)) << "1-vs-4-thread span structure";
  EXPECT_EQ(shape1, net_span_shapes(s8)) << "1-vs-8-thread span structure";
  EXPECT_EQ(net_span_shapes(s4), net_span_shapes(s4again))
      << "same run repeated";

  // The aggregate order is (net_id, seq) ascending — a pure function of the
  // workload, independent of which worker ran which net.
  for (std::size_t i = 1; i < shape1.size(); ++i) {
    const auto key = [](const SpanShape& s) {
      return std::make_pair(std::get<0>(s), std::get<1>(s));
    };
    EXPECT_LT(key(shape1[i - 1]), key(shape1[i])) << "at " << i;
  }
}

TEST(Trace, NestingMirrorsTheEngineStack) {
  if (!kObsEnabled) GTEST_SKIP() << "built with MERLIN_OBS=OFF";
  const BufferLibrary lib = make_standard_library();
  NetSpec spec;
  spec.n_sinks = 7;
  spec.seed = 3;
  const Net net = make_random_net(spec, lib);
  ObsSink sink;
  sink.set_span_capacity(1 << 16);
  sink.begin_net(0);
  FlowConfig cfg = fast_cfg();
  cfg.obs = &sink;
  run_flow3(net, lib, cfg);

  const std::vector<SpanRecord> spans = sink.spans().snapshot();
  ASSERT_FALSE(spans.empty());
  std::uint16_t search_d = 0xFFFF, iter_d = 0xFFFF, bubble_d = 0xFFFF,
                layer_d = 0xFFFF;
  std::set<std::uint32_t> seqs;
  for (const SpanRecord& r : spans) {
    EXPECT_EQ(r.net_id, 0u);
    EXPECT_LE(r.begin_ns, r.end_ns);
    EXPECT_TRUE(seqs.insert(r.seq).second) << "seq " << r.seq << " reused";
    switch (r.name) {
      case SpanName::kFlowSearch: search_d = r.depth; break;
      case SpanName::kMerlinIteration: iter_d = r.depth; break;
      case SpanName::kBubbleConstruct: bubble_d = r.depth; break;
      case SpanName::kBubbleLayer:
        layer_d = r.depth;
        EXPECT_GE(r.arg, 2u);  // the DP loop runs L = 2..n
        break;
      default: break;
    }
  }
  // Figure 14's stack: flow.search > merlin.iteration > bubble.construct >
  // bubble.layer, each one level deeper.
  ASSERT_NE(search_d, 0xFFFF);
  ASSERT_NE(iter_d, 0xFFFF);
  ASSERT_NE(bubble_d, 0xFFFF);
  ASSERT_NE(layer_d, 0xFFFF);
  EXPECT_EQ(search_d, 0u);
  EXPECT_EQ(iter_d, search_d + 1);
  EXPECT_GT(bubble_d, iter_d);
  EXPECT_EQ(layer_d, bubble_d + 1);
}

TEST(Trace, ExportIsParserValidChromeTraceJsonWithOneTrackPerWorker) {
  if (!kObsEnabled) GTEST_SKIP() << "built with MERLIN_OBS=OFF";
  const BufferLibrary lib = make_standard_library();
  const Circuit ckt = test_circuit(7);
  ObsSink sink;
  sink.set_span_capacity(ObsSink::kDefaultSpanCapacity);
  run_traced_batch(ckt, lib, 3, &sink);

  const std::string json = trace_to_json(sink);
  const JsonValue doc = json_parse(json);
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.at("displayTimeUnit").string, "ms");
  const JsonValue& events = doc.at("traceEvents");
  ASSERT_TRUE(events.is_array());
  ASSERT_FALSE(events.array.empty());

  std::set<double> meta_tids, event_tids;
  std::size_t complete = 0, instant = 0;
  for (const JsonValue& e : events.array) {
    const std::string& ph = e.at("ph").string;
    EXPECT_EQ(e.at("pid").number, 1.0);
    if (ph == "M") {
      if (e.at("name").string == "thread_name")
        meta_tids.insert(e.at("tid").number);
      continue;
    }
    event_tids.insert(e.at("tid").number);
    ASSERT_TRUE(e.has("ts"));
    EXPECT_GE(e.at("ts").number, 0.0) << "timestamps normalized to run start";
    if (ph == "X") {
      ++complete;
      EXPECT_GE(e.at("dur").number, 0.0);
    } else {
      ASSERT_EQ(ph, "i");
      ++instant;
    }
  }
  EXPECT_GT(complete, 0u);
  // Every tid that carries events has a thread_name track, one per worker.
  for (double tid : event_tids) EXPECT_TRUE(meta_tids.count(tid)) << tid;

  // An empty sink still exports a valid (empty-timeline) document.
  ObsSink empty;
  const JsonValue empty_doc = json_parse(trace_to_json(empty));
  EXPECT_TRUE(empty_doc.at("traceEvents").is_array());
}

TEST(Trace, SummariesRollUpPerName) {
  ObsSink sink;
  sink.set_span_capacity(16);
  SpanRecord r;
  r.net_id = 1;
  r.name = SpanName::kBubbleLayer;
  r.begin_ns = 100;
  r.end_ns = 250;
  sink.record_span(r);
  r.begin_ns = 300;
  r.end_ns = 350;
  sink.record_span(r);
  r.name = SpanName::kBatchNet;
  r.begin_ns = 90;
  r.end_ns = 400;
  sink.record_span(r);

  const std::vector<SpanSummary> sums = summarize_spans(sink);
  ASSERT_EQ(sums.size(), 2u);
  // Enum order: batch.net before bubble.layer.
  EXPECT_EQ(sums[0].name, SpanName::kBatchNet);
  EXPECT_EQ(sums[0].count, 1u);
  EXPECT_EQ(sums[0].total_ns, 310u);
  EXPECT_EQ(sums[1].name, SpanName::kBubbleLayer);
  EXPECT_EQ(sums[1].count, 2u);
  EXPECT_EQ(sums[1].total_ns, 200u);
}

TEST(Trace, DisarmedSinkAndNullSinkRecordNothing) {
  ObsSink disarmed;  // span capacity 0: tracing off even with obs on
  {
    TraceSpan outer(&disarmed, SpanName::kPtreeDp);
    TraceSpan inner(&disarmed, SpanName::kBubbleLayer, 2);
  }
  EXPECT_EQ(disarmed.spans().size(), 0u);
  { TraceSpan t(nullptr, SpanName::kPtreeDp); }  // null sink: no-op

  ObsSink armed;
  armed.set_span_capacity(8);
  { TraceSpan t(&armed, SpanName::kPtreeDp, 5); }
  if (kObsEnabled) {
    ASSERT_EQ(armed.spans().size(), 1u);
    const SpanRecord rec = armed.spans().snapshot()[0];
    EXPECT_EQ(rec.name, SpanName::kPtreeDp);
    EXPECT_EQ(rec.arg, 5u);
    EXPECT_EQ(rec.depth, 0u);
    EXPECT_LE(rec.begin_ns, rec.end_ns);
  } else {
    EXPECT_EQ(armed.spans().size(), 0u);  // compiled out under MERLIN_OBS=OFF
  }
}

TEST(Trace, EverySpanNameIsUniqueAndDotted) {
  std::set<std::string> seen;
  for (std::size_t i = 0; i < kSpanNameCount; ++i) {
    const std::string n = span_name(static_cast<SpanName>(i));
    EXPECT_TRUE(seen.insert(n).second) << "duplicate span name " << n;
    // subsystem.what: exactly one dot, lowercase elsewhere.
    EXPECT_EQ(std::count(n.begin(), n.end(), '.'), 1) << n;
    for (char c : n)
      EXPECT_TRUE((c >= 'a' && c <= 'z') || c == '.' || c == '_') << n;
  }
}

TEST(Trace, StatsJsonQuarantinesSpanRollupsInRuntime) {
  if (!kObsEnabled) GTEST_SKIP() << "built with MERLIN_OBS=OFF";
  ObsSink sink;
  sink.set_span_capacity(4);
  SpanRecord r;
  r.net_id = 0;
  r.name = SpanName::kPtreeDp;
  r.begin_ns = 10;
  r.end_ns = 30;
  for (int i = 0; i < 6; ++i) sink.record_span(r);  // overflow: 2 dropped

  const JsonValue doc = json_parse(stats_to_json(sink));
  EXPECT_EQ(doc.at("schema_version").number, kStatsSchemaVersion);
  EXPECT_FALSE(doc.has("phases"));
  const JsonValue& rt = doc.at("runtime");
  EXPECT_EQ(rt.at("span_count").number, 4.0);
  EXPECT_EQ(rt.at("spans_dropped").number, 2.0);
  ASSERT_EQ(rt.at("spans").array.size(), 1u);
  // The rollup comes from the span totals, so it counts the dropped spans
  // too: exact, not limited to what the ring kept.
  EXPECT_EQ(rt.at("spans").array[0].at("name").string, "ptree.dp");
  EXPECT_EQ(rt.at("spans").array[0].at("count").number, 6.0);
  EXPECT_EQ(rt.at("spans").array[0].at("total_ns").number, 120.0);
}

/// Span count per name as exported in a stats document's runtime.spans
/// (0 when the name is absent).
std::uint64_t exported_span_count(const JsonValue& doc, const char* name) {
  for (const JsonValue& s : doc.at("runtime").at("spans").array)
    if (s.at("name").string == name)
      return static_cast<std::uint64_t>(s.at("count").number);
  return 0;
}

/// Spans the batch engine records outside any net: the reduce, pool
/// scheduling and daemon request spans.
bool scheduling_name(SpanName n) {
  return n == SpanName::kBatchReduce || n == SpanName::kPoolIdle ||
         n == SpanName::kPoolSteal || n == SpanName::kServeQueue ||
         n == SpanName::kServeRequest;
}

TEST(Trace, SpanTotalsCloseOverEngineCountersInStatsOnlyRuns) {
  if (!kObsEnabled) GTEST_SKIP() << "built with MERLIN_OBS=OFF";
  const BufferLibrary lib = make_standard_library();
  const Circuit ckt = test_circuit(7);
  for (const FlowKind flow :
       {FlowKind::kFlow1, FlowKind::kFlow2, FlowKind::kFlow3}) {
    SCOPED_TRACE("flow " + std::to_string(static_cast<int>(flow)));
    // Stats-only runs: a sink attached, its ring disarmed.
    ObsSink s1, s4;
    run_traced_batch(ckt, lib, 1, &s1, flow);
    run_traced_batch(ckt, lib, 4, &s4, flow);
    ASSERT_FALSE(s1.spans_armed());
    EXPECT_EQ(s1.spans().size(), 0u);

    // Each engine invocation is one span of its name, in the export too.
    const JsonValue doc = json_parse(stats_to_json(s1));
    const JsonValue& c = doc.at("counters");
    const std::pair<const char*, const char*> closure[] = {
        {"bubble.construct", "bubble_runs"},
        {"merlin.iteration", "merlin_iterations"},
        {"ptree.dp", "ptree_runs"},
        {"lttree.dp", "lttree_runs"},
        {"vangin.dp", "vangin_runs"},
    };
    for (const auto& [span, counter] : closure)
      EXPECT_EQ(exported_span_count(doc, span),
                static_cast<std::uint64_t>(c.at(counter).number))
          << span << " vs " << counter;
    EXPECT_GT(exported_span_count(doc, "batch.net"), 0u);

    // The armed run's per-name counts of net-attributed records, from a
    // ring large enough that it dropped nothing.
    ObsSink armed;
    armed.set_span_capacity(ObsSink::kDefaultSpanCapacity);
    run_traced_batch(ckt, lib, 4, &armed, flow);
    ASSERT_EQ(armed.spans().dropped(), 0u);
    std::array<std::uint64_t, kSpanNameCount> ring_counts{};
    for (const SpanRecord& r : armed.spans().snapshot())
      if (!r.scheduling()) ++ring_counts[static_cast<std::size_t>(r.name)];

    for (std::size_t i = 0; i < kSpanNameCount; ++i) {
      const auto n = static_cast<SpanName>(i);
      if (scheduling_name(n)) continue;
      EXPECT_EQ(s1.span_total(n).count, s4.span_total(n).count)
          << span_name(n) << ": 1-vs-4-thread span count";
      EXPECT_EQ(s1.span_total(n).count, ring_counts[i])
          << span_name(n) << ": totals vs armed ring";
      EXPECT_EQ(armed.span_total(n).count, ring_counts[i]) << span_name(n);
    }
  }
}

}  // namespace
}  // namespace merlin
