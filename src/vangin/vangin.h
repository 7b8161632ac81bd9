#pragma once
// Van Ginneken buffer insertion on a fixed routing tree [Gi90].
//
// The classic bottom-up algorithm: walk the given (unbuffered) routing tree
// from the sinks toward the driver, maintaining a non-inferior set of
// (load, required time[, area]) options at every point; at each candidate
// station along a wire, optionally insert any library buffer.  This is the
// second phase of the paper's Flow II (PTREE routing followed by buffer
// insertion) — the flow MERLIN's unified construction is measured against.
//
// Our curves carry buffer area as a third dimension, so the result is the
// full delay/area tradeoff rather than only the max-required-time solution;
// this matches what the paper's three-dimensional curves report for MERLIN
// and costs van Ginneken nothing.

#include "buflib/library.h"
#include "curve/curve.h"
#include "net/net.h"
#include "tree/routing_tree.h"

namespace merlin {

class NetGuard;  // runtime/guard.h

/// Tuning knobs for buffer insertion.
struct VanGinnekenConfig {
  /// Bounded by default: an unbounded 3-D frontier grows combinatorially
  /// with the number of buffer stations on long wires.
  PruneConfig prune{.max_solutions = 24};
  /// Maximum wire length between consecutive buffer stations (um).  Long
  /// edges are split so a buffer can sit mid-wire, which is essential for
  /// the wire-dominated nets these experiments use.
  double max_segment_um = 250.0;
  /// Wire width multipliers to consider per segment (simultaneous wire
  /// sizing).  Empty = default 1x width only.
  std::vector<double> wire_widths{};
  /// Optional observability sink (one per engine run / worker; never shared
  /// across threads).  Propagated into `prune.obs` when that is unset.
  ObsSink* obs = nullptr;
  /// Optional per-net execution guard (runtime/guard.h): charged one DP step
  /// per visited tree node; budget trips raise BudgetExceeded out of
  /// vangin_insert.  Null = unguarded.
  NetGuard* guard = nullptr;
};

/// Result of buffer insertion.
struct VanGinnekenResult {
  RoutingTree tree;          ///< buffered version of the input tree
  SolutionCurve root_curve;  ///< non-inferior options at the source
  Solution chosen;           ///< the option `tree` was built from
};

/// Inserts buffers into `unbuffered` (which must be a tree over `net` with
/// no buffers), maximizing the required time at the driver input.
///
/// Provenance is allocated in `*arena` when supplied (keeping the result's
/// curve handles resolvable); with the default nullptr a private arena is
/// used and discarded after the tree is built.
VanGinnekenResult vangin_insert(const Net& net, const RoutingTree& unbuffered,
                                const BufferLibrary& lib,
                                const VanGinnekenConfig& cfg = {},
                                SolutionArena* arena = nullptr);

}  // namespace merlin
