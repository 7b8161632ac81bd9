#pragma once
// MERLIN (paper Figure 14): the outer local-neighborhood-search engine.
//
// Each call to BUBBLE_CONSTRUCT optimally searches the neighborhood N(Pi)
// of the current sink order; the realized order of its best structure
// becomes the next iteration's Pi.  The loop stops at an order fixpoint
// (no better neighbor exists — a local optimum of the neighborhood
// structure, Definition 1), and by Theorem 7 the cost strictly improves
// until then.  Table 1's "Loops" column is `iterations` here.

#include <vector>

#include "core/bubble.h"
#include "order/order.h"

namespace merlin {

/// Tuning knobs for the outer loop.
struct MerlinConfig {
  BubbleConfig bubble{};
  /// Safety bound on iterations (the paper bounds it by 3 in its Table 2
  /// full-flow runs; single-net runs converge in 1-12 loops).
  std::size_t max_iterations = 16;
  /// Section III.4 speed-up: keep the previous iteration's solution curves
  /// and copy sub-problems shared between the overlapping neighborhoods
  /// (costs roughly 2x memory, saves most of the work after iteration 1).
  bool reuse_subproblems = true;

  /// Optional externally owned cache session (cache/shard.h).  When set
  /// (and reuse_subproblems is true) merlin_optimize clears and uses it
  /// instead of a run-local session, so a caller processing many nets can
  /// reuse the allocation — and, when the session is attached to a shared
  /// SubproblemCache, hit sub-problems published by earlier nets.  The run
  /// only *stages* inserts; publication (CacheSession::take_flush →
  /// SubproblemCache::apply) is the owner's call, which is how the batch
  /// engine keeps the shared store deterministic.  A CacheSession must be
  /// owned by exactly one thread at a time — batch execution keeps one per
  /// pool worker.
  CacheSession* cache_session = nullptr;

  /// Optional externally owned scratch arena for all provenance of the run.
  /// When set, merlin_optimize resets it at the start (slab capacity kept —
  /// the allocation-reuse analogue of cache_session), every iteration's
  /// committed survivors accumulate in it (nothing is collected between
  /// iterations), and the returned best.root_curve / best.chosen handles
  /// stay resolvable in it until the caller resets it.  When null a
  /// run-local arena is used and those handles dangle after return.  Same
  /// single-thread ownership rule as cache_session; the batch engine keeps
  /// one per pool worker.
  SolutionArena* scratch_arena = nullptr;
};

/// Outcome of a MERLIN run.
struct MerlinResult {
  BubbleResult best;       ///< best structure found over all iterations
  std::size_t iterations = 0;  ///< BUBBLE_CONSTRUCT calls performed
  bool converged = false;      ///< true iff an order fixpoint was reached
  /// Driver required time after each iteration (monotonically non-decreasing
  /// by Theorem 7; asserted by the property tests).
  std::vector<double> iteration_req_times;

  /// Sub-problem cache statistics (zero when reuse is disabled).
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
};

/// Runs the MERLIN loop starting from `initial` (callers typically pass
/// tsp_order(net); the paper notes the initial order barely matters).
MerlinResult merlin_optimize(const Net& net, const BufferLibrary& lib,
                             const Order& initial, const MerlinConfig& cfg = {});

}  // namespace merlin
