#pragma once
// In-process answer checks.  Every net a batch returns is one attempted
// operation; it fails when its status is not ok, when its tree is not a
// well-formed routing of exactly its sinks, when the independent
// evaluator (evaluate_tree) does not reproduce the EvalResult the flow
// reported bit for bit, or when the tree's buffer count disagrees with
// the evaluation.

#include <cstdint>
#include <string>
#include <vector>

#include "buflib/library.h"
#include "common.h"
#include "flow/batch.h"
#include "net/net.h"

namespace perfbench {

/// Quality and structure totals of the checked nets.
struct CheckTotals {
  std::uint64_t nets = 0;
  std::uint64_t ca_trees = 0;  ///< trees that also satisfy is_ca_tree(alpha)
  double delay_ps = 0.0;       ///< summed table_delay of multi-sink nets
  double buffer_area = 0.0;
  std::uint64_t buffers = 0;
};

/// Checks `r` against `nets` (indexed by BatchNetResult::net_id; null
/// entries are ids with no net) and adds every net to `rep` as one
/// attempt.  `what` prefixes failure messages.
CheckTotals check_batch(const merlin::BatchResult& r,
                        const std::vector<const merlin::Net*>& nets,
                        const merlin::BufferLibrary& lib, Report& rep,
                        const std::string& what);

/// check_batch for a circuit run: the nets are the circuit's extracted
/// nets, and the circuit-level buffer count and area must add up.
/// `delay_ps` of the result is the circuit's critical delay.
CheckTotals check_circuit(const merlin::BatchResult& r,
                          const merlin::Circuit& ckt,
                          const merlin::BufferLibrary& lib, Report& rep,
                          const std::string& what);

}  // namespace perfbench
