#pragma once
// PTREE: permutation-constrained rectilinear routing-tree DP [LCLH96].
//
// Given a fixed sink order, PTREE finds non-inferior embeddings of the net
// into a set of candidate points (classically the Hanan grid) by dynamic
// programming over contiguous order ranges:
//
//   S(p, i, j) = routing structures rooted at candidate p connecting sinks
//                order[i..j], built by either merging two sub-ranges at p or
//                extending a structure rooted at another candidate by a wire.
//
// This is the second phase of the paper's Flow I and the routing phase of
// Flow II; it contains no buffers (curve area stays 0; the non-inferior set
// is effectively the classic load/required-time frontier).
//
// The range DP itself (ptree_range_dp) is also every layer of MERLIN's
// BUBBLE_CONSTRUCT: the paper's *PTREE is this DP with one more kind of
// terminal, an already-built sub-group given by its per-candidate curves.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "curve/curve.h"
#include "geom/hanan.h"
#include "net/net.h"
#include "order/order.h"
#include "tree/routing_tree.h"

namespace merlin {

class NetGuard;  // runtime/guard.h

/// Tuning knobs for the PTREE DP.
struct PTreeConfig {
  CandidateOptions candidates{};            ///< how to build the candidate set P
  PruneConfig prune{.max_solutions = 16};  ///< per-state curve pruning (bounded)
  /// Wire width multipliers to consider per wire ([LCLH96]'s simultaneous
  /// wire sizing).  Empty = default 1x width only.
  std::vector<double> wire_widths{};
  /// Optional observability sink (one per engine run / worker; never shared
  /// across threads).  Propagated into `prune.obs` when that is unset.
  ObsSink* obs = nullptr;
  /// Optional per-net execution guard (runtime/guard.h): charged |P| DP
  /// steps per (i, j) order range; budget trips raise BudgetExceeded out of
  /// ptree_route.  Null = unguarded.
  NetGuard* guard = nullptr;
};

/// The candidate locations P of a range DP and, per location p, the
/// candidates a wire extension into p may start from (`sources[p]`, never
/// p itself).  The DP tries sources in list order, and the prune kernel
/// breaks exact ties on that order, so the lists are part of the result:
/// ptree_route uses every other candidate in index order, BUBBLE_CONSTRUCT
/// the nearest ones by distance (BubbleConfig::extension_neighbors).
struct CandidateSet {
  std::vector<Point> pts;
  std::vector<std::vector<std::uint32_t>> sources;
};

/// One terminal of a range DP's ordered sequence: a sink of the net, or one
/// of (at most two) already-built child groups.
struct PTreeTerminal {
  bool is_child = false;
  std::uint8_t child_slot = 0;  ///< which child row, when is_child
  std::uint32_t sink = 0;       ///< net sink index, when !is_child
  std::size_t pos = 0;          ///< the caller's order position; unused by the DP
};

/// Reusable storage of ptree_range_dp: the (i, j, p) state table and the
/// per-range staging.  Calls clear cells without releasing capacity, so a
/// caller that keeps one instance per thread runs the DP allocation-free
/// once warm.
struct PTreeScratch {
  std::vector<SolutionCurve> cells;     ///< (i <= j, p) states, triangular over (i, j)
  std::vector<SolutionCurve> extended;  ///< extension staging, one per candidate
  std::vector<MergeJob> jobs;
  std::vector<const SolutionCurve*> srcs;
  std::vector<Point> src_pts;
};

/// Appends to `into` the direct wires from `at` to sink `sink` of `net`, one
/// per wire width (only the first at zero length, where widths coincide).
/// Unpruned: the base case of every range DP and of BUBBLE_CONSTRUCT's
/// length-1 groups.
void push_sink_wires(const Net& net, std::uint32_t sink, Point at,
                     std::span<const double> widths, SolutionArena& arena,
                     SolutionCurve& into);

/// The PTREE range DP over the terminal sequence `seq`: fills `routed[p]`
/// with the non-inferior routings rooted at each candidate p of `cand` that
/// connect every terminal of `seq`.  Terminal `seq[t]` is a sink, reached by
/// push_sink_wires, or child row `children[seq[t].child_slot]` (one curve
/// per candidate).  Each range (i, j) merges every split at p, then makes
/// one wire-extension relaxation from `cand.sources[p]` (a single pass
/// suffices: under Elmore, a direct minimum-length wire dominates any
/// same-endpoints multi-hop chain).  Every state is pruned with `prune`.
/// Charges `guard` (nullable) |P| steps per range of two or more terminals.
void ptree_range_dp(const Net& net, const CandidateSet& cand,
                    std::span<const double> widths,
                    std::span<const PTreeTerminal> seq,
                    std::span<const std::span<const SolutionCurve>> children,
                    const PruneConfig& prune, NetGuard* guard,
                    SolutionArena& arena, PTreeScratch& scratch,
                    std::vector<SolutionCurve>& routed);

/// Outcome of a PTREE run.
struct PTreeResult {
  RoutingTree tree;         ///< best-required-time embedding
  SolutionCurve root_curve; ///< full non-inferior curve at the source
  Solution chosen;          ///< the solution `tree` was built from
};

/// Runs the PTREE DP for `net` with the given sink order.  The chosen
/// solution maximizes the required time at the driver *input* (i.e. after
/// subtracting the driver's own delay into the root load).
/// Precondition: order is a permutation of the net's sinks; net has >= 1 sink.
///
/// Provenance is allocated in `*arena` when one is supplied (the result's
/// curve/solution handles then stay resolvable in it — Flow I grafts PTREE
/// sub-solutions into an LTTREE skeleton this way); with the default
/// nullptr a private arena is used and discarded, leaving `tree` and the
/// numeric fields valid but the handles dangling.
PTreeResult ptree_route(const Net& net, const Order& order,
                        const PTreeConfig& cfg = {},
                        SolutionArena* arena = nullptr);

}  // namespace merlin
