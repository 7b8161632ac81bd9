#pragma once
// LTTREE: fanout optimization over LT-Trees of type-I [To90].
//
// Fanout optimization happens in the logic domain: sink positions are not
// known, so no wire delay enters the DP — only buffer delays and pin loads.
// An LT-Tree of type-I (paper Figure 4, Lemma 3: the alpha = +inf,
// leftmost-internal-child special case of a Ca_Tree) over sinks ordered by
// descending required time (most relaxed first) is built bottom-up:
//
//   C(j) = non-inferior fanout trees covering the j most relaxed sinks,
//          each rooted at a buffer that drives C(j') (its only internal
//          child, j' < j) plus sinks j'..j-1 directly.
//
// The driver itself tops the structure: it drives C(j') plus the most
// critical sinks directly.  This is phase one of the paper's Flow I; the
// geometric embedding (buffer placement + PTREE routing of every group) is
// assembled by flow/flow1.

#include <cstdint>
#include <memory>
#include <vector>

#include "buflib/library.h"
#include "curve/curve.h"
#include "net/net.h"
#include "order/order.h"

namespace merlin {

class NetGuard;  // runtime/guard.h

/// Tuning knobs for the LTTREE DP.
struct LTTreeConfig {
  PruneConfig prune{.max_solutions = 32};
  /// Optional bound on direct fanouts per node (0 = unbounded, the classic
  /// LT-Tree setting).
  std::size_t max_fanout = 0;
  /// Wire-load model: estimated extra capacitance (fF) per driven pin.
  /// Logic-domain fanout optimizers cannot see real wires, so (as in the
  /// SIS-era flows the paper compares against) they add a statistical wire
  /// load per connection; without it, modern-strength cells would rarely
  /// justify any buffer on pin loads alone.
  double wire_load_per_pin = 0.0;
  /// Optional observability sink (one per engine run / worker; never shared
  /// across threads).  Propagated into `prune.obs` when that is unset.
  ObsSink* obs = nullptr;
  /// Optional per-net execution guard (runtime/guard.h): charged one DP step
  /// per C(j) level; budget trips raise BudgetExceeded out of
  /// lttree_optimize.  Null = unguarded.
  NetGuard* guard = nullptr;
};

/// One node of the abstract (geometry-free) fanout tree.
struct FanoutGroup {
  std::int32_t buffer_idx = -1;       ///< library buffer; -1 = the net driver
  std::vector<std::uint32_t> sinks;   ///< sink indices driven directly
  std::int32_t child = -1;            ///< index of the internal child group, -1 if none
};

/// An abstract fanout tree: groups[0] is the driver level; each group's
/// `child` indexes into `groups`.
struct FanoutTree {
  std::vector<FanoutGroup> groups;

  [[nodiscard]] double buffer_area(const BufferLibrary& lib) const;
  [[nodiscard]] std::size_t buffer_count() const { return groups.empty() ? 0 : groups.size() - 1; }
};

/// Result of the LTTREE DP.
struct LTTreeResult {
  FanoutTree tree;
  double driver_req_time = 0.0;  ///< ps at the driver input (no wires yet)
  double root_load = 0.0;        ///< fF seen by the driver
  double buffer_area = 0.0;
  SolutionCurve root_curve;      ///< full non-inferior (rt, load, area) curve
};

/// Runs the LT-Tree type-I DP.  `order` should list sinks by descending
/// required time (most relaxed first, see order/tsp.h), as [To90]
/// prescribes; any permutation is accepted.
///
/// Provenance is allocated in `*arena` when supplied (Flow I keeps the
/// LTTREE skeleton and its per-group PTREE embeddings in one arena so the
/// graft can link across them); with the default nullptr a private arena is
/// used and the result's curve handles dangle after return.
LTTreeResult lttree_optimize(const Net& net, const Order& order,
                             const BufferLibrary& lib,
                             const LTTreeConfig& cfg = {},
                             SolutionArena* arena = nullptr);

}  // namespace merlin
