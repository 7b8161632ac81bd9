// Unit + property tests for SolutionArena: handle validity, slab growth
// with stable references, overlay import (exactly the reachable sub-DAG is
// copied, Lemma-7 sharing preserved through the remap), and the push-order
// permutation property of Pareto pruning (the survivor *set* of prune() is
// independent of insertion order).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "curve/arena.h"
#include "curve/curve.h"
#include "net/rng.h"

namespace merlin {
namespace {

TEST(Arena, HandlesAreDenseAndValid) {
  SolutionArena arena;
  EXPECT_TRUE(arena.empty());
  const SolNodeId a = arena.make_sink({1, 2}, 5);
  const SolNodeId b = arena.make_wire({3, 4}, a, 2.0);
  const SolNodeId c = arena.make_merge({5, 6}, a, b);
  const SolNodeId d = arena.make_buffer({7, 8}, 3, c);
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(c, 2u);
  EXPECT_EQ(d, 3u);
  EXPECT_EQ(arena.size(), 4u);

  EXPECT_EQ(arena[a].kind, StepKind::kSink);
  EXPECT_EQ(arena[a].idx, 5);
  EXPECT_EQ(arena[a].at, (Point{1, 2}));
  EXPECT_EQ(arena[b].kind, StepKind::kWire);
  EXPECT_DOUBLE_EQ(arena[b].wire_width, 2.0);
  EXPECT_EQ(arena[b].a, a);
  EXPECT_EQ(arena[c].kind, StepKind::kMerge);
  EXPECT_EQ(arena[c].a, a);
  EXPECT_EQ(arena[c].b, b);
  EXPECT_EQ(arena[d].kind, StepKind::kBuffer);
  EXPECT_EQ(arena[d].idx, 3);

  EXPECT_TRUE(arena.contains(d));
  EXPECT_FALSE(arena.contains(4));
  EXPECT_FALSE(arena.contains(kNullSol));
}

TEST(Arena, AtThrowsOnNullAndStaleHandles) {
  SolutionArena arena;
  const SolNodeId a = arena.make_sink({0, 0}, 0);
  EXPECT_NO_THROW(static_cast<void>(arena.at(a)));
  EXPECT_THROW(static_cast<void>(arena.at(kNullSol)), std::invalid_argument);
  // Never handed out:
  EXPECT_THROW(static_cast<void>(arena.at(1)), std::invalid_argument);
  arena.reset();
  // Stale after reset:
  EXPECT_THROW(static_cast<void>(arena.at(a)), std::invalid_argument);
}

TEST(Arena, SlabGrowthKeepsReferencesStable) {
  SolutionArena arena;
  // Fill past several slab boundaries; the reference taken early must stay
  // valid (slabs are never reallocated).
  const SolNodeId first = arena.make_sink({42, 43}, 7);
  const SolNode* ref = &arena[first];
  const std::size_t n = 3 * SolutionArena::kSlabSize + 5;
  for (std::size_t i = 1; i < n; ++i)
    arena.make_sink({static_cast<std::int32_t>(i), 0},
                    static_cast<std::int32_t>(i));
  EXPECT_EQ(arena.size(), n);
  EXPECT_EQ(&arena[first], ref);
  EXPECT_EQ(ref->at, (Point{42, 43}));
  // Cross-slab ids still address the right nodes.
  const SolNodeId mid = static_cast<SolNodeId>(SolutionArena::kSlabSize + 17);
  EXPECT_EQ(arena[mid].idx, static_cast<std::int32_t>(mid));
}

TEST(Arena, ResetKeepsCapacityAndCountsStats) {
  SolutionArena arena;
  for (int i = 0; i < 100; ++i) arena.make_sink({i, 0}, i);
  const std::size_t reserved = arena.stats().reserved_bytes;
  EXPECT_GT(reserved, 0u);
  arena.reset();
  EXPECT_TRUE(arena.empty());
  const auto st = arena.stats();
  EXPECT_EQ(st.reserved_bytes, reserved);  // slabs retained
  EXPECT_EQ(st.live_nodes, 0u);
  EXPECT_EQ(st.nodes_allocated, 100u);     // lifetime counter survives reset
  EXPECT_EQ(st.peak_nodes, 100u);
  EXPECT_EQ(st.resets, 1u);
}

TEST(Arena, OverlayImportKeepsSharingAndBaseLinks) {
  // A base arena with two nodes, frozen while an overlay numbered from its
  // end builds on top of it (the BUBBLE_CONSTRUCT lane pattern).
  SolutionArena base;
  const SolNodeId b0 = base.make_sink({0, 0}, 0);
  const SolNodeId b1 = base.make_sink({5, 0}, 1);
  SolutionArena overlay;
  overlay.reset(base.end_id());
  EXPECT_EQ(overlay.first_id(), 2u);
  const SolNodeId dead = overlay.make_wire({9, 9}, b0);
  const SolNodeId w = overlay.make_wire({1, 0}, b0);
  const SolNodeId shared = overlay.make_buffer({1, 0}, 2, w);
  const SolNodeId m = overlay.make_merge({1, 0}, shared, b1);
  const SolNodeId top = overlay.make_wire({2, 0}, shared);
  EXPECT_EQ(dead, 2u);
  EXPECT_TRUE(overlay.contains(m));
  EXPECT_FALSE(overlay.contains(b1));
  EXPECT_EQ(overlay[m].b, b1);  // links into the base, never copied

  const std::uint64_t allocated = base.stats().nodes_allocated;
  const std::vector<SolNodeId> roots{m, top, b1, kNullSol};
  const std::vector<SolNodeId> remap =
      base.import(overlay, overlay.first_id(), overlay.end_id(), roots);
  ASSERT_EQ(remap.size(), 5u);
  EXPECT_EQ(remap[dead - 2], kNullSol);  // unreachable: not imported
  EXPECT_EQ(base.size(), 6u);            // 2 base + w, shared, m, top
  // Ascending-id copy: children first, and the shared buffer once.
  EXPECT_EQ(remap[w - 2], 2u);
  EXPECT_EQ(remap[shared - 2], 3u);
  EXPECT_EQ(base[remap[shared - 2]].a, remap[w - 2]);
  EXPECT_EQ(base[remap[m - 2]].a, remap[shared - 2]);
  EXPECT_EQ(base[remap[m - 2]].b, b1);
  EXPECT_EQ(base[remap[top - 2]].a, remap[shared - 2]);
  EXPECT_EQ(base[remap[w - 2]].a, b0);
  // The overlay's five creations count once; the four copies do not.
  EXPECT_EQ(base.stats().nodes_allocated, allocated + 5);

  SolutionCurve c;
  for (const SolNodeId id : {m, b1}) {
    Solution sol;
    sol.node = id;
    c.push(sol);
  }
  c.remap_nodes(remap, overlay.first_id());
  EXPECT_EQ(c[0].node, remap[m - 2]);
  EXPECT_EQ(c[1].node, b1);  // below the range: kept

  // A range outside the overlay throws.
  EXPECT_THROW((void)base.import(overlay, 0, overlay.end_id(), roots),
               std::invalid_argument);
}

TEST(Arena, OverlaysAreStableAcrossResetsAndMoves) {
  SolutionArena arena;
  SolutionArena& lane1 = arena.overlay(1);
  SolutionArena& lane0 = arena.overlay(0);
  EXPECT_NE(&lane0, &lane1);
  lane1.reset(7);
  (void)lane1.make_sink({0, 0}, 0);
  arena.reset();  // the run arena's reset leaves its overlays alone
  EXPECT_EQ(&arena.overlay(1), &lane1);
  EXPECT_EQ(lane1.size(), 1u);
  SolutionArena moved = std::move(arena);
  EXPECT_EQ(&moved.overlay(1), &lane1);  // moved with their owner
  EXPECT_EQ(lane1.first_id(), 7u);
}

TEST(Prune, SurvivorSetIsPushOrderIndependent) {
  // Pareto pruning keeps the non-inferior set (Def. 6); as a *set* this is a
  // pure function of the pushed multiset, whatever order fed it.
  Rng rng(99);
  std::vector<Solution> pool;
  for (int i = 0; i < 60; ++i) {
    Solution s;
    s.req_time = rng.uniform(0, 100);
    s.load = rng.uniform(1, 50);
    s.area = rng.uniform(0, 20);
    pool.push_back(s);
  }
  auto survivors = [&](const std::vector<std::size_t>& perm) {
    SolutionCurve c;
    for (std::size_t i : perm) c.push(pool[i]);
    c.prune();
    std::vector<std::array<double, 3>> v;
    for (const Solution& s : c) v.push_back({s.req_time, s.load, s.area});
    std::sort(v.begin(), v.end());
    return v;
  };
  std::vector<std::size_t> perm(pool.size());
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  const auto base = survivors(perm);
  EXPECT_FALSE(base.empty());
  Rng shuffler(7);
  for (int trial = 0; trial < 10; ++trial) {
    for (std::size_t i = perm.size(); i > 1; --i)
      std::swap(perm[i - 1],
                perm[static_cast<std::size_t>(shuffler.uniform_int(
                    0, static_cast<int>(i) - 1))]);
    EXPECT_EQ(survivors(perm), base) << "trial " << trial;
  }
}

}  // namespace
}  // namespace merlin
