// Unit tests: routing trees, provenance replay, the independent evaluator
// (against hand-computed Elmore numbers), structure analysis, and the
// slew-aware evaluation extension.

#include <gtest/gtest.h>

#include <cmath>

#include "buflib/library.h"
#include "tree/evaluate.h"
#include "tree/routing_tree.h"
#include "tree/validate.h"

namespace merlin {
namespace {

// A two-sink net with easy numbers: source at origin, sinks on the axes.
Net simple_net() {
  Net net;
  net.name = std::string("t");  // GCC 12 -O3 misflags = "t" (-Wrestrict)
  net.source = {0, 0};
  net.wire = WireModel{0.1, 0.2};
  net.driver.delay = DelayParams{50.0, 1.0, 0.0, 0.0};  // 50 + 1*C ps
  net.sinks.push_back(Sink{{100, 0}, 10.0, 1000.0});
  net.sinks.push_back(Sink{{0, 200}, 20.0, 900.0});
  return net;
}

TEST(RoutingTree, BuildAndAccounting) {
  const Net net = simple_net();
  RoutingTree t;
  const auto root = t.add_node(NodeKind::kSource, net.source, -1, 0);
  t.add_node(NodeKind::kSink, {100, 0}, 0, root);
  t.add_node(NodeKind::kSink, {0, 200}, 1, root);
  EXPECT_EQ(t.size(), 3u);
  EXPECT_DOUBLE_EQ(t.total_wirelength(), 300.0);
  EXPECT_EQ(t.buffer_count(), 0u);
  EXPECT_EQ(t.sink_order(), Order({0, 1}));
}

TEST(RoutingTree, SinkOrderRespectsChildOrder) {
  RoutingTree t;
  const auto root = t.add_node(NodeKind::kSource, {0, 0}, -1, 0);
  const auto st = t.add_node(NodeKind::kSteiner, {1, 0}, -1, root);
  t.add_node(NodeKind::kSink, {2, 0}, 2, st);
  t.add_node(NodeKind::kSink, {3, 0}, 0, st);
  t.add_node(NodeKind::kSink, {4, 0}, 1, root);
  EXPECT_EQ(t.sink_order(), Order({2, 0, 1}));
}

TEST(Evaluate, HandComputedTwoSinkStar) {
  const Net net = simple_net();
  const BufferLibrary lib = make_tiny_library();
  RoutingTree t;
  const auto root = t.add_node(NodeKind::kSource, net.source, -1, 0);
  t.add_node(NodeKind::kSink, {100, 0}, 0, root);
  t.add_node(NodeKind::kSink, {0, 200}, 1, root);
  const EvalResult ev = evaluate_tree(net, t, lib);

  // Branch 0: len 100 -> R 10, Cw 20; Elmore = 10*(10+10)*1e-3 = 0.2 ps.
  // Branch 1: len 200 -> R 20, Cw 40; Elmore = 20*(20+20)*1e-3 = 0.8 ps.
  EXPECT_NEAR(ev.root_load, (20 + 10) + (40 + 20), 1e-9);
  EXPECT_NEAR(ev.root_req_time, std::min(1000 - 0.2, 900 - 0.8), 1e-9);
  EXPECT_NEAR(ev.driver_delay, 50 + 90, 1e-9);
  EXPECT_NEAR(ev.driver_req_time, 899.2 - 140, 1e-9);
  EXPECT_NEAR(ev.table_delay(net), 1000 - 759.2, 1e-9);
}

TEST(Evaluate, BufferDecouplesDownstreamLoad) {
  const Net net = simple_net();
  const BufferLibrary lib = make_tiny_library();
  RoutingTree t;
  const auto root = t.add_node(NodeKind::kSource, net.source, -1, 0);
  const auto buf = t.add_node(NodeKind::kBuffer, net.source, 0, root);
  t.add_node(NodeKind::kSink, {100, 0}, 0, buf);
  t.add_node(NodeKind::kSink, {0, 200}, 1, buf);
  const EvalResult ev = evaluate_tree(net, t, lib);
  EXPECT_NEAR(ev.root_load, lib[0].input_cap, 1e-9);
  EXPECT_EQ(ev.buffer_count, 1u);
  EXPECT_DOUBLE_EQ(ev.buffer_area, lib[0].area);
  // Required time loses the buffer delay into the 90 fF downstream load.
  const double downstream_rt = std::min(1000 - 0.2, 900 - 0.8);
  EXPECT_NEAR(ev.root_req_time, downstream_rt - lib[0].delay_ps(90.0), 1e-9);
}

TEST(Provenance, ReplayBuildsEquivalentTree) {
  const Net net = simple_net();
  // source -> wire to (50,0) -> buffer -> merge(sink0, sink1)
  SolutionArena arena;
  SolNodeId s0 = arena.make_sink({50, 0}, 0);
  SolNodeId s1 = arena.make_sink({50, 0}, 1);
  SolNodeId m = arena.make_merge({50, 0}, s0, s1);
  SolNodeId b = arena.make_buffer({50, 0}, 1, m);
  SolNodeId w = arena.make_wire({0, 0}, b);
  const RoutingTree t = build_routing_tree(net, arena, w);

  ASSERT_EQ(t.size(), 5u);  // source, steiner, buffer, 2 sinks
  EXPECT_EQ(t.node(0).kind, NodeKind::kSource);
  EXPECT_EQ(t.buffer_count(), 1u);
  EXPECT_EQ(t.sink_order(), Order({0, 1}));
  // Wirelength: 50 (trunk) + 50 (to s0 at 100,0) + 50+200 (to s1 at 0,200).
  EXPECT_DOUBLE_EQ(t.total_wirelength(), 350.0);
}

TEST(Provenance, RootMustSitAtSource) {
  const Net net = simple_net();
  SolutionArena arena;
  SolNodeId s0 = arena.make_sink({50, 0}, 0);
  EXPECT_THROW(build_routing_tree(net, arena, s0), std::invalid_argument);
  EXPECT_THROW(build_routing_tree(net, arena, kNullSol), std::invalid_argument);
}

TEST(Provenance, SinkOrderExtraction) {
  SolutionArena arena;
  SolNodeId s0 = arena.make_sink({0, 0}, 2);
  SolNodeId s1 = arena.make_sink({0, 0}, 0);
  SolNodeId s2 = arena.make_sink({0, 0}, 1);
  SolNodeId m1 = arena.make_merge({0, 0}, s0, s1);
  SolNodeId m2 = arena.make_merge({0, 0}, m1, s2);
  EXPECT_EQ(provenance_sink_order(arena, m2, 3), Order({2, 0, 1}));
}

TEST(Validate, WellFormedAndStructure) {
  const Net net = simple_net();
  RoutingTree t;
  const auto root = t.add_node(NodeKind::kSource, net.source, -1, 0);
  const auto buf = t.add_node(NodeKind::kBuffer, {10, 0}, 0, root);
  t.add_node(NodeKind::kSink, {100, 0}, 0, buf);
  t.add_node(NodeKind::kSink, {0, 200}, 1, root);
  const TreeStructure st = analyze_structure(net, t);
  EXPECT_TRUE(st.well_formed);
  EXPECT_EQ(st.buffer_count, 1u);
  EXPECT_EQ(st.max_fanout, 2u);          // source: {buffer, sink1}
  EXPECT_EQ(st.max_buffer_children, 1u);
  EXPECT_EQ(st.chain_depth, 1u);
  EXPECT_TRUE(is_ca_tree(net, t, 2));
  EXPECT_FALSE(is_ca_tree(net, t, 1));
}

TEST(Validate, DetectsMissingAndDuplicateSinks) {
  const Net net = simple_net();
  RoutingTree t;
  const auto root = t.add_node(NodeKind::kSource, net.source, -1, 0);
  t.add_node(NodeKind::kSink, {100, 0}, 0, root);
  EXPECT_FALSE(analyze_structure(net, t).well_formed);  // sink 1 missing
  t.add_node(NodeKind::kSink, {100, 0}, 0, root);
  EXPECT_FALSE(analyze_structure(net, t).well_formed);  // sink 0 twice
}

TEST(Evaluate, SinkPathDelaysMatchRootSummary) {
  const Net net = simple_net();
  const BufferLibrary lib = make_tiny_library();
  RoutingTree t;
  const auto root = t.add_node(NodeKind::kSource, net.source, -1, 0);
  t.add_node(NodeKind::kSink, {100, 0}, 0, root);
  t.add_node(NodeKind::kSink, {0, 200}, 1, root);
  const EvalResult ev = evaluate_tree(net, t, lib);
  const auto d = sink_path_delays(net, t, lib);
  ASSERT_EQ(d.size(), 2u);
  // driver_req_time = min_i (req_i - delay_i) must agree.
  const double q = std::min(net.sinks[0].req_time - d[0], net.sinks[1].req_time - d[1]);
  EXPECT_NEAR(q, ev.driver_req_time, 1e-9);
}

TEST(Evaluate, SlewAwarePropagation) {
  const Net net = simple_net();
  const BufferLibrary lib = make_tiny_library();
  RoutingTree t;
  const auto root = t.add_node(NodeKind::kSource, net.source, -1, 0);
  t.add_node(NodeKind::kSink, {100, 0}, 0, root);
  t.add_node(NodeKind::kSink, {0, 200}, 1, root);
  const SlewAwareResult r = evaluate_tree_slew_aware(net, t, lib);
  EXPECT_GT(r.worst_arrival, 0.0);
  EXPECT_GT(r.max_sink_slew, 0.0);
  // Slack is consistent with arrivals and the sinks' required times.
  EXPECT_LE(r.worst_slack, net.max_req_time() - r.worst_arrival + 1e-9);
}

TEST(Evaluate, SlewDegradesOverLongWire) {
  Net net = simple_net();
  net.sinks[0].pos = {4000, 0};  // very long unbuffered wire
  const BufferLibrary lib = make_tiny_library();
  RoutingTree t;
  const auto root = t.add_node(NodeKind::kSource, net.source, -1, 0);
  t.add_node(NodeKind::kSink, {4000, 0}, 0, root);
  t.add_node(NodeKind::kSink, {0, 200}, 1, root);
  const SlewAwareResult r = evaluate_tree_slew_aware(net, t, lib, 40.0);
  EXPECT_GT(r.max_sink_slew, 40.0);  // wire RMS degradation
}

TEST(Evaluate, RejectsEmptyTree) {
  const Net net = simple_net();
  const BufferLibrary lib = make_tiny_library();
  const RoutingTree empty;
  EXPECT_THROW(evaluate_tree(net, empty, lib), std::invalid_argument);
  EXPECT_THROW(sink_path_delays(net, empty, lib), std::invalid_argument);
}

}  // namespace
}  // namespace merlin
