#include "check.h"

#include <algorithm>
#include <cmath>

#include "core/bubble.h"
#include "tree/evaluate.h"
#include "tree/validate.h"

namespace perfbench {

namespace {

bool same_eval(const merlin::EvalResult& a, const merlin::EvalResult& b) {
  return a.root_load == b.root_load && a.root_req_time == b.root_req_time &&
         a.driver_delay == b.driver_delay &&
         a.driver_req_time == b.driver_req_time &&
         a.buffer_area == b.buffer_area && a.wirelength == b.wirelength &&
         a.buffer_count == b.buffer_count;
}

/// Empty when the net's answer checks out, else the reason.
std::string check_net(const merlin::BatchNetResult& nr, const merlin::Net& net,
                      const merlin::BufferLibrary& lib, std::size_t alpha,
                      bool& ca_tree) {
  if (nr.status != merlin::NetStatus::kOk)
    return std::string("status ") + merlin::net_status_name(nr.status);
  const merlin::RoutingTree& tree = nr.result.tree;
  const merlin::TreeStructure st = merlin::analyze_structure(net, tree);
  if (!st.well_formed) return "malformed tree: " + st.issue;
  if (!same_eval(merlin::evaluate_tree(net, tree, lib), nr.result.eval))
    return "evaluate_tree does not reproduce the reported EvalResult";
  if (st.buffer_count != nr.result.eval.buffer_count ||
      tree.buffer_count() != nr.result.eval.buffer_count)
    return "buffer count disagrees between tree and evaluation";
  ca_tree = merlin::is_ca_tree(net, tree, alpha);
  return {};
}

}  // namespace

CheckTotals check_batch(const merlin::BatchResult& r,
                        const std::vector<const merlin::Net*>& nets,
                        const merlin::BufferLibrary& lib, Report& rep,
                        const std::string& what) {
  const std::size_t alpha = merlin::BubbleConfig{}.alpha;
  const auto expected = static_cast<std::size_t>(
      std::count_if(nets.begin(), nets.end(),
                    [](const merlin::Net* n) { return n != nullptr; }));
  if (r.nets.size() != expected)
    rep.fail(what + ": " + std::to_string(r.nets.size()) + " results for " +
             std::to_string(expected) + " nets");
  CheckTotals t;
  for (const merlin::BatchNetResult& nr : r.nets) {
    const merlin::Net* net = nr.net_id < nets.size() ? nets[nr.net_id] : nullptr;
    bool ca = false;
    const std::string why =
        net == nullptr ? "no such net" : check_net(nr, *net, lib, alpha, ca);
    rep.attempt(why.empty());
    if (!why.empty()) {
      rep.fail(what + ": net " + std::to_string(nr.net_id) + ": " + why);
      continue;
    }
    ++t.nets;
    if (ca) ++t.ca_trees;
    if (!nr.trivial) t.delay_ps += nr.result.eval.table_delay(*net);
    t.buffer_area += nr.result.eval.buffer_area;
    t.buffers += nr.result.eval.buffer_count;
  }
  return t;
}

CheckTotals check_circuit(const merlin::BatchResult& r,
                          const merlin::Circuit& ckt,
                          const merlin::BufferLibrary& lib, Report& rep,
                          const std::string& what) {
  const std::vector<merlin::CircuitNet> extracted =
      merlin::extract_circuit_nets(ckt, lib);
  // Circuit results are keyed by driver-gate id.
  std::vector<const merlin::Net*> by_gate(ckt.gates.size(), nullptr);
  for (const merlin::CircuitNet& cn : extracted)
    by_gate[cn.driver_gate] = &cn.net;
  CheckTotals t = check_batch(r, by_gate, lib, rep, what);
  if (t.buffers != r.circuit.buffers_inserted)
    rep.fail(what + ": circuit buffer count does not add up");
  const double area = ckt.gate_area(lib) + t.buffer_area;
  if (std::abs(area - r.circuit.area) > 1e-9 * std::max(1.0, area))
    rep.fail(what + ": circuit area does not add up");
  if (!(r.circuit.delay_ps > 0.0) || !std::isfinite(r.circuit.delay_ps))
    rep.fail(what + ": circuit delay is not a positive number");
  t.delay_ps = r.circuit.delay_ps;
  return t;
}

}  // namespace perfbench
