#include "core/bubble.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <memory>
#include <stdexcept>
#include <string>

#include "cache/shard.h"
#include "core/grouping.h"
#include "ptree/ptree.h"
#include "runtime/guard.h"
#include "runtime/pool.h"

namespace merlin {

namespace {

// ---------------------------------------------------------------------------
// Gamma table storage.
//
// For every sub-group (l, e, r) and candidate location p two curve families
// exist conceptually:
//   anchor A(l,e,r,p): structures rooted exactly at p (buffer options at p
//                      already applied);
//   child  X(l,e,r,p): the group as seen *from* p when used inside a parent
//                      layer — the pruned union over anchors pc of A(...,pc)
//                      extended by a wire pc -> p.
// Parent layers only ever consume X; the final extraction only needs A of
// the full group (l == n).  So the long-lived table stores X for l < n and
// A for l == n, keeping memory at one curve set per (l,e,r,p).
// ---------------------------------------------------------------------------
class GammaTable {
 public:
  GammaTable(std::size_t n, std::size_t k) : n_(n), k_(k), cells_(n * 4 * n * k) {}

  SolutionCurve& at(std::size_t l, Chi e, std::size_t r, std::size_t p) {
    return cells_[index(l, e, r, p)];
  }
  [[nodiscard]] const SolutionCurve& at(std::size_t l, Chi e, std::size_t r,
                                        std::size_t p) const {
    return cells_[index(l, e, r, p)];
  }
  /// The k curves of one (l, e, r) state, contiguous over p.  Layers consume
  /// child states through this view instead of copying k curves per variant.
  [[nodiscard]] std::span<const SolutionCurve> row(std::size_t l, Chi e,
                                                   std::size_t r) const {
    return {&cells_[index(l, e, r, 0)], k_};
  }

 private:
  [[nodiscard]] std::size_t index(std::size_t l, Chi e, std::size_t r,
                                  std::size_t p) const {
    assert(l >= 1 && l <= n_ && r < n_ && p < k_);
    return (((l - 1) * 4 + static_cast<std::size_t>(e)) * n_ + r) * k_ + p;
  }

 public:
  [[nodiscard]] std::size_t total_solutions() const {
    std::size_t total = 0;
    for (const SolutionCurve& c : cells_) total += c.size();
    return total;
  }

 private:
  std::size_t n_, k_;
  std::vector<SolutionCurve> cells_;
};

// Order position of a layer terminal that may not take part in a
// within-layer swap: a child group, or a sink already displaced by bubbling.
inline constexpr std::size_t kNoPos = static_cast<std::size_t>(-1);

// The candidate locations P and, per location, the candidates a wire
// extension may start from (see BubbleConfig::extension_neighbors), nearest
// first.  Fixed for the run and read by every lane.
CandidateSet nearest_sources(std::vector<Point> pts,
                             std::size_t extension_neighbors) {
  const std::size_t k = pts.size();
  CandidateSet cand{std::move(pts), std::vector<std::vector<std::uint32_t>>(k)};
  std::vector<std::uint32_t> all(k);
  for (std::uint32_t p = 0; p < k; ++p) all[p] = p;
  for (std::uint32_t p = 0; p < k; ++p) {
    const Point at = cand.pts[p];
    std::vector<std::uint32_t> order_by_dist = all;
    std::sort(order_by_dist.begin(), order_by_dist.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return manhattan(cand.pts[a], at) < manhattan(cand.pts[b], at);
              });
    const std::size_t keep =
        extension_neighbors == 0 ? k
                                 : std::min<std::size_t>(k, extension_neighbors + 1);
    for (std::size_t t = 0; t < keep; ++t)
      if (order_by_dist[t] != p) cand.sources[p].push_back(order_by_dist[t]);
  }
  return cand;
}

// Where one participant builds curves: the run arena for the serial
// length-1 initialization, a lane's overlay arena for a layer's groups.
// `cfg` routes every obs pointer to the sink that participant owns.
struct Workspace {
  const Net& net;
  const BufferLibrary& lib;
  const BubbleConfig& cfg;
  const CandidateSet& cand;
  SolutionArena& arena;
  std::size_t k = 0;
  std::span<const double> widths;
  // *PTREE scratch and output, reused across the whole construction so
  // curve and table capacity warms up once.
  PTreeScratch dp;
  std::vector<SolutionCurve> routed;  // ptree_range_dp output, one per p

  Workspace(const Net& net_, const BufferLibrary& lib_, const BubbleConfig& cfg_,
            const CandidateSet& cand_, SolutionArena& arena_)
      : net(net_), lib(lib_), cfg(cfg_), cand(cand_), arena(arena_),
        k(cand_.pts.size()),
        widths(wire_widths_or_default(cfg_.wire_widths)) {}
};

// One lane of a layer's fork-join: the obs sink and workspace of whichever
// participant drives it (parallel_for hands each lane to one participant at
// a time).  The workspace builds into one of the run arena's overlays,
// which the run arena keeps warm across runs (SolutionArena::overlay).  The
// config is the run's with every sink pointer redirected to the lane sink,
// which the caller folds into the run sink after the compute phase.
struct Lane {
  ObsSink sink;
  BubbleConfig cfg;
  Workspace ws;  ///< ws.arena is the lane's overlay

  Lane(const Net& net, const BufferLibrary& lib, const BubbleConfig& run_cfg,
       const CandidateSet& cand, SolutionArena& overlay)
      : cfg(lane_config(run_cfg, &sink)), ws(net, lib, cfg, cand, overlay) {}

  static BubbleConfig lane_config(BubbleConfig c, ObsSink* lane_sink) {
    c.obs = c.inner_prune.obs = c.group_prune.obs =
        c.obs != nullptr ? lane_sink : nullptr;
    return c;
  }
};

// Converts anchor curves (one per candidate) into child curves X: at each
// destination p, the pruned union over anchors pc of "A at pc + wire pc->p".
std::vector<SolutionCurve> anchors_to_child(Workspace& ws,
                                            const std::vector<SolutionCurve>& anchor) {
  std::vector<SolutionCurve> x(ws.k);
  std::vector<const SolutionCurve*> srcs(ws.k);
  for (std::size_t pc = 0; pc < ws.k; ++pc) srcs[pc] = &anchor[pc];
  for (std::size_t p = 0; p < ws.k; ++p) {
    // Child curves are long-lived inputs to later layers; give them the
    // (richer) group budget rather than the transient inner one.
    push_extended_options(ws.arena, srcs, ws.cand.pts, ws.cand.pts[p], ws.net.wire,
                          ws.cfg.group_prune, x[p], ws.widths);
  }
  return x;
}

// Applies root options at every candidate: buffered variants always, the
// unbuffered originals when the configuration (or the top level) allows.
void apply_root_options(Workspace& ws, const std::vector<SolutionCurve>& routed,
                        bool keep_unbuffered, std::vector<SolutionCurve>& into) {
  for (std::size_t p = 0; p < ws.k; ++p) {
    if (routed[p].empty()) continue;
    if (keep_unbuffered)
      for (const Solution& s : routed[p]) into[p].push(s);
    push_buffered_options(ws.arena, routed[p], ws.cand.pts[p], ws.lib, into[p],
                          ws.cfg.buffer_stride, ws.cfg.obs);
    // Amortized pruning keeps accumulation cells from ballooning while many
    // (l, e, r) child choices pour into the same (L, E, R) group.
    if (into[p].size() > 4 * std::max<std::size_t>(ws.cfg.group_prune.max_solutions, 8))
      into[p].prune(ws.cfg.group_prune);
  }
}

// Builds the layer terminal sequence for parent `Omega` using the inner
// groups `omegas` (sorted left-to-right, spans pairwise disjoint), or
// returns false when any pairing is incompatible (Figure 12 / line 15).
bool build_sequence(const Order& order, const GroupSpan& Omega,
                    std::span<const GroupSpan> omegas,
                    std::vector<PTreeTerminal>& seq) {
  for (const GroupSpan& omega : omegas)
    for (std::size_t pos : omega.member_positions())
      if (!Omega.contains_position(pos)) return false;  // g - G != empty

  seq.clear();
  std::vector<bool> emitted(omegas.size(), false);
  auto emit_child_block = [&](std::size_t slot) {
    // Bubbled-out hole sinks are already displaced by one position, so they
    // carry kNoPos: the within-layer swap enumeration must not move them
    // again (every sink may move at most once inside N(Pi)).
    const GroupSpan& omega = omegas[slot];
    if (const auto lh = omega.left_hole(); lh && Omega.contains_position(*lh))
      seq.push_back(PTreeTerminal{false, 0, order[*lh], kNoPos});
    seq.push_back(PTreeTerminal{true, static_cast<std::uint8_t>(slot), 0, kNoPos});
    if (const auto rh = omega.right_hole(); rh && Omega.contains_position(*rh))
      seq.push_back(PTreeTerminal{false, 0, order[*rh], kNoPos});
    emitted[slot] = true;
  };
  for (std::size_t pos : Omega.member_positions()) {
    // Positions inside some child's span are either that child's bubbled
    // holes (emitted with the child block) or members consumed by it.
    std::size_t inside = omegas.size();
    for (std::size_t i = 0; i < omegas.size(); ++i)
      if (pos >= omegas[i].left() && pos <= omegas[i].right) inside = i;
    if (inside < omegas.size()) {
      if (!emitted[inside]) emit_child_block(inside);
    } else {
      seq.push_back(PTreeTerminal{false, 0, order[pos], pos});
    }
  }
  // A child's span always contains at least one Omega member, so every
  // child has been emitted by now.
  for (bool e : emitted)
    if (!e) return false;
  return true;
}

// The paper's *PTREE perturbs the order *within* a layer as well (the e',e''
// grouping codes of its S_b recursion): adjacent direct sinks may swap.  We
// realize that by enumerating, for one base sequence, every set of
// non-overlapping swaps of sequence-adjacent sink terminals whose order
// positions differ by exactly one (so each swap is a legal neighborhood move
// and displaced/bubbled sinks never move twice).  |variants| <= F(alpha),
// a small constant.  `visit` sees each variant in a fixed order.
template <typename Visit>
void enumerate_layer_sequences(const std::vector<PTreeTerminal>& base,
                               std::size_t from, std::vector<PTreeTerminal>& cur,
                               Visit& visit) {
  if (from + 1 >= base.size()) {
    visit(cur);
    return;
  }
  const PTreeTerminal& a = base[from];
  const PTreeTerminal& b = base[from + 1];
  const bool swappable =
      !a.is_child && !b.is_child && a.pos != kNoPos && b.pos != kNoPos &&
      (a.pos + 1 == b.pos || b.pos + 1 == a.pos);
  // No swap at `from`.
  enumerate_layer_sequences(base, from + 1, cur, visit);
  if (swappable) {
    std::swap(cur[from], cur[from + 1]);
    enumerate_layer_sequences(base, from + 2, cur, visit);
    std::swap(cur[from], cur[from + 1]);
  }
}

// One *PTREE layer call a group makes: its terminal sequence, a slice of
// GroupJob::terms, and the child curve rows it consumes.
struct LayerCall {
  std::uint32_t begin = 0, end = 0;
  std::uint8_t n_children = 0;
  std::array<std::span<const SolutionCurve>, 2> children{};
};

// One cache-missing group (L, E, R) of the current DP layer.  The serial
// plan fills the call list, a lane computes `out` into its overlay arena,
// and the serial commit imports `out`'s provenance into the run arena.
struct GroupJob {
  Chi E = Chi::kChi0;
  std::size_t R = 0;
  CacheKey key{};
  std::vector<PTreeTerminal> terms;
  std::vector<LayerCall> calls;
  std::vector<SolutionCurve> out;  ///< X(L,E,R,.), or A(n,...) at the top
  std::size_t lane = 0;            ///< lane whose overlay holds out's nodes
  SolNodeId first = 0, last = 0;   ///< overlay ids this group allocated
};

// Appends one planned layer call to `job` and charges it exactly where the
// call itself used to: one DP step per call, weighted by its (terminals x
// candidates) state count — the dominant cost unit of the construction —
// then the layer fault site.  Charging in the serial plan keeps budget
// trips and injected faults at the same point at every thread count.
void plan_call(GroupJob& job, std::span<const PTreeTerminal> seq,
               std::span<const std::span<const SolutionCurve>> children,
               std::size_t k, NetGuard* guard, std::size_t& layer_calls) {
  guard_step(guard, seq.size() * k);
  guard_point(guard, FaultSite::kBubbleLayer);
  ++layer_calls;
  LayerCall c;
  c.begin = static_cast<std::uint32_t>(job.terms.size());
  job.terms.insert(job.terms.end(), seq.begin(), seq.end());
  c.end = static_cast<std::uint32_t>(job.terms.size());
  c.n_children = static_cast<std::uint8_t>(children.size());
  std::copy(children.begin(), children.end(), c.children.begin());
  job.calls.push_back(c);
}

// The compute phase of one group, on one lane: every planned *PTREE layer
// call with its root options into the anchor accumulation A(L,E,R,.), the
// group prune (Figure 9 lines 19-20), then — below the top layer — the
// child-curve conversion X.  Reads only the run's frozen Gamma rows and
// writes only the lane and the job.
void compute_group(Lane& lane, std::size_t lane_index, GroupJob& job,
                   std::size_t L, bool top) {
  Workspace& ws = lane.ws;
  const BubbleConfig& cfg = lane.cfg;
  job.lane = lane_index;
  job.first = ws.arena.end_id();
  std::vector<SolutionCurve> acc(ws.k);
  for (const LayerCall& c : job.calls) {
    // The call's step charge and fault site belong to the serial plan (see
    // plan_call), so a lane only polls the wall-clock deadline.
    guard_deadline(cfg.guard);
    ptree_range_dp(ws.net, ws.cand, ws.widths,
                   std::span<const PTreeTerminal>(job.terms)
                       .subspan(c.begin, c.end - c.begin),
                   std::span(c.children.data(), c.n_children), cfg.inner_prune,
                   /*guard=*/nullptr, ws.arena, ws.dp, ws.routed);
    apply_root_options(ws, ws.routed, cfg.allow_unbuffered_groups || top, acc);
  }
  if (kObsEnabled && cfg.obs != nullptr) {
    std::uint64_t entering = 0;
    for (std::size_t p = 0; p < ws.k; ++p) entering += acc[p].size();
    for (std::size_t p = 0; p < ws.k; ++p) acc[p].prune(cfg.group_prune);
    std::uint64_t kept = 0;
    for (std::size_t p = 0; p < ws.k; ++p) kept += acc[p].size();
    obs_layer(cfg.obs, L, entering, entering - kept, kept);
  } else {
    for (std::size_t p = 0; p < ws.k; ++p) acc[p].prune(cfg.group_prune);
  }
  job.out = top ? std::move(acc) : anchors_to_child(ws, acc);
  job.last = ws.arena.end_id();
}

// The cache key of one stored group (section III.4): the run's context
// digest, two words saying what the entry holds, then the group's member
// sinks in order.  A group below the top stores its child curves
// X(L, E, R, .) under (E, L); the whole-net group stores the one anchor
// curve extraction reads, A(n, chi_0, n-1, source_p), under
// (kWholeNetForm, source_p).  kWholeNetForm is past every Chi code, so no
// lower group's key starts with it.
inline constexpr std::uint64_t kWholeNetForm = 4;

CacheKey group_key(const CacheKey& ctx, std::uint64_t form, std::uint64_t arg,
                   const GroupSpan& span, const Net& net, const Order& order) {
  SigHasher h(ctx);
  h.mix(form);
  h.mix(arg);
  for (const std::size_t mpos : span.member_positions()) {
    const std::uint32_t sid = order[mpos];
    const Sink& s = net.sinks[sid];
    h.mix(sid);
    h.mix_i32(s.pos.x);
    h.mix_i32(s.pos.y);
    h.mix_double(s.load);
    h.mix_double(s.req_time);
  }
  return h.digest();
}

}  // namespace

BubbleResult bubble_construct(const Net& net, const BufferLibrary& lib,
                              const Order& order, const BubbleConfig& cfg_in,
                              CacheSession* cache, SolutionArena* arena_opt) {
  SolutionArena local_arena;
  SolutionArena& arena = arena_opt ? *arena_opt : local_arena;
  // Default the cap keep-point scalarization to a mid-library drive strength
  // (see PruneConfig::ref_res) so tight caps never squeeze out the solutions
  // an upstream driver would actually pick.
  BubbleConfig cfg = cfg_in;
  if (!lib.empty()) {
    const double mid = lib[lib.size() / 2].delay.drive_res();
    if (cfg.inner_prune.ref_res == 0.0) cfg.inner_prune.ref_res = mid;
    if (cfg.group_prune.ref_res == 0.0) cfg.group_prune.ref_res = mid;
  }
  cfg.inner_prune.obs = cfg.group_prune.obs = cfg.obs;
  obs_add(cfg.obs, Counter::kBubbleRuns);
  TraceSpan trace_span(cfg.obs, SpanName::kBubbleConstruct, net.fanout());
  const std::uint64_t arena_alloc_before = arena.stats().nodes_allocated;
  const std::size_t n = net.fanout();
  if (n == 0) throw std::invalid_argument("bubble_construct: net has no sinks");
  if (order.size() != n || !Order(order).valid())
    throw std::invalid_argument("bubble_construct: bad order");
  if (lib.empty()) throw std::invalid_argument("bubble_construct: empty library");
  if (cfg.alpha < 2) throw std::invalid_argument("bubble_construct: alpha must be >= 2");

  const CandidateSet cand = nearest_sources(
      candidate_locations(net.terminals(), cfg.candidates),
      cfg.extension_neighbors);
  // The run workspace: the serial length-1 initialization builds straight
  // into the run arena; layers L >= 2 compute on lanes (see below).
  Workspace ws(net, lib, cfg, cand, arena);
  std::size_t source_p = ws.k;
  for (std::size_t p = 0; p < ws.k; ++p)
    if (cand.pts[p] == net.source) source_p = p;
  if (source_p == ws.k)
    throw std::logic_error("candidate set must contain the source");
  GammaTable gamma(n, ws.k);
  std::size_t layer_calls = 0;

  // Context signature for cache keys (cache/signature.h): everything a
  // stored group curve depends on besides the group itself — library cells,
  // wire model, the realized candidate-location set (contents, not policy:
  // two configs yielding the same points share entries), and every DP knob
  // that shapes what survives into Gamma.  Mixed once per run; per-group
  // keys fork from this digest.  Objective/obs/guard are deliberately
  // excluded: they affect extraction and accounting, never stored curves.
  CacheKey ctx{};
  if (cache != nullptr) {
    SigHasher h;
    h.mix(lib.size());
    for (const Buffer& b : lib) {
      h.mix_double(b.input_cap);
      h.mix_double(b.area);
      h.mix_double(b.delay.p0);
      h.mix_double(b.delay.p1);
      h.mix_double(b.delay.p2);
      h.mix_double(b.delay.p3);
    }
    h.mix_double(net.wire.res_per_um);
    h.mix_double(net.wire.cap_per_um);
    for (const double w : ws.widths) h.mix_double(w);
    h.mix(ws.k);
    for (const Point& pt : cand.pts) {
      h.mix_i32(pt.x);
      h.mix_i32(pt.y);
    }
    h.mix(cfg.alpha);
    for (const PruneConfig* pc : {&cfg.inner_prune, &cfg.group_prune}) {
      h.mix(pc->max_solutions);
      h.mix_double(pc->ref_res);
    }
    h.mix_bool(cfg.allow_unbuffered_groups);
    h.mix(cfg.buffer_stride);
    h.mix(cfg.extension_neighbors);
    h.mix_bool(cfg.enable_bubbling);
    h.mix(std::min<std::size_t>(cfg.max_internal_children, 2));
    ctx = h.digest();
  }

  const auto chis = [&](std::size_t len) {
    std::vector<Chi> cs{Chi::kChi0};
    if (cfg.enable_bubbling && len >= 1) {
      cs.push_back(Chi::kChi1);
      cs.push_back(Chi::kChi2);
      if (len >= 2) cs.push_back(Chi::kChi3);
    }
    return cs;
  };

  // Section III.4 sub-problem reuse: within the run context hashed above,
  // a group's stored curves are a function of (structure, ordered member
  // sinks) only — so runs over overlapping neighborhoods, other nets with
  // matching structure, and published entries from a shared
  // SubproblemCache can copy instead of recompute.  A hit materializes the
  // arena-independent entry into this run's arena (cache/store.h) as
  // Gamma(L, E, R, p) for p = first, first + 1, ...
  const auto adopt = [&](const CacheKey& key, const GroupSpan& g,
                         std::size_t first) {
    bool shared_hit = false;
    const CacheEntry* hit = cache->find(key, &shared_hit);
    if (hit == nullptr) {
      obs_add(cfg.obs, Counter::kGammaCacheMisses);
      return false;
    }
    obs_add(cfg.obs, Counter::kGammaCacheHits);
    if (shared_hit) obs_add(cfg.obs, Counter::kCacheSharedHits);
    std::vector<SolutionCurve> mat = materialize_entry(*hit, arena);
    for (std::size_t i = 0; i < mat.size(); ++i)
      gamma.at(g.len, g.e, g.right, first + i) = std::move(mat[i]);
    return true;
  };

  // The whole-net group is looked up before anything is built: its entry
  // holds the one curve extraction reads, so a hit skips the whole DP —
  // no layer call, no step charged, no bubble fault site passed.  A miss
  // builds as usual and stores that curve after the construction.
  const GroupSpan whole{n, Chi::kChi0, n - 1};
  CacheKey whole_key{};
  bool whole_hit = false;
  if (cache != nullptr) {
    whole_key = group_key(ctx, kWholeNetForm, source_p, whole, net, order);
    whole_hit = adopt(whole_key, whole, source_p);
  }

  // INITIALIZATION (Figure 9 lines 1-4): length-1 groups.  Single-sink
  // structures may always carry a buffer (they are leaves, not internal
  // nodes, so allow_unbuffered_groups does not apply).
  if (!whole_hit) {
    for (Chi e : chis(1)) {
      for (std::size_t r = 0; r < n; ++r) {
        const GroupSpan span{1, e, r};
        if (!span.valid(n)) continue;
        const std::uint32_t sink = order[span.member_positions().front()];
        std::vector<SolutionCurve> anchor(ws.k);
        for (std::size_t p = 0; p < ws.k; ++p) {
          SolutionCurve base;
          push_sink_wires(net, sink, cand.pts[p], ws.widths, ws.arena, base);
          for (const Solution& sol : base) anchor[p].push(sol);
          push_buffered_options(ws.arena, base, cand.pts[p], lib, anchor[p],
                                cfg.buffer_stride, cfg.obs);
          anchor[p].prune(cfg.group_prune);
        }
        if (n == 1) {
          for (std::size_t p = 0; p < ws.k; ++p)
            gamma.at(1, e, r, p) = std::move(anchor[p]);
        } else {
          auto x = anchors_to_child(ws, anchor);
          for (std::size_t p = 0; p < ws.k; ++p)
            gamma.at(1, e, r, p) = std::move(x[p]);
        }
      }
    }
  }

  // CONSTRUCTION (Figure 9 lines 5-20): groups by increasing sink count.
  // Every group (L, E, R) of a layer reads only the Gamma rows of layers
  // below L, so each layer runs as a deterministic fork-join:
  //   1. plan, serially in group order: cache lookups (hits materialize
  //      into the run arena), the *PTREE call list, and every guard charge
  //      and fault site;
  //   2. compute, in parallel: each cache-missing group on one lane, into
  //      the lane's overlay arena, while the run arena stays frozen;
  //   3. commit, serially in group order: import each group's surviving
  //      provenance into the run arena, then write Gamma and the cache.
  // Without a pool the same three phases run inline on one lane.  Nothing a
  // later phase or layer sees depends on which lane ran which group.
  std::vector<PTreeTerminal> seq;
  std::vector<GroupJob> jobs;
  std::vector<std::unique_ptr<Lane>> lanes;
  std::vector<SolNodeId> roots;
  std::uint64_t peak_live = 0;  // run arena + the layer's overlay nodes
  for (std::size_t L = 2; L <= n && !whole_hit; ++L) {
    TraceSpan layer_span(cfg.obs, SpanName::kBubbleLayer, L);
    const bool top = L == n;
    std::size_t n_jobs = 0;
    for (Chi E : chis(L)) {
      for (std::size_t R = 0; R < n; ++R) {
        const GroupSpan Omega{L, E, R};
        if (!Omega.valid(n)) continue;
        // The whole-net group must cover every sink from a chi_0 span.
        if (top && (E != Chi::kChi0 || R != n - 1)) continue;

        // Group-state boundary: check the arena soft cap here (the live-node
        // count at this point is a pure function of net + config, so the cap
        // trips deterministically) and offer the group fault site.
        guard_arena(cfg.guard, static_cast<std::uint32_t>(
                                   std::min<std::size_t>(arena.size(), kNullSol)));
        guard_point(cfg.guard, FaultSite::kBubbleGroup);

        // No two groups of one layer share a key, so looking every group
        // up before any of the layer's inserts finds exactly what the
        // group-by-group order found.  The whole-net group was looked up
        // before the construction.
        CacheKey cache_key{};
        if (cache != nullptr && !top) {
          cache_key = group_key(ctx, static_cast<std::uint64_t>(E), L, Omega,
                                net, order);
          if (adopt(cache_key, Omega, 0)) continue;
        }

        if (n_jobs == jobs.size()) jobs.emplace_back();
        GroupJob& job = jobs[n_jobs++];
        job.E = E;
        job.R = R;
        job.key = cache_key;
        job.terms.clear();
        job.calls.clear();
        const auto plan = [&](const std::vector<PTreeTerminal>& var,
                              std::span<const std::span<const SolutionCurve>> children) {
          plan_call(job, var, children, ws.k, cfg.guard, layer_calls);
        };

        const std::size_t l_min = (L - 1 >= cfg.alpha) ? L - cfg.alpha + 1 : 1;
        for (std::size_t l = l_min; l <= L - 1; ++l) {
          for (Chi e : chis(l)) {
            const GroupSpan probe{l, e, 0};
            const std::size_t sl = probe.span_len();
            if (sl > Omega.span_len()) continue;
            for (std::size_t r = Omega.left() + sl - 1; r <= Omega.right; ++r) {
              const GroupSpan omega{l, e, r};
              if (!omega.valid(n)) continue;
              const GroupSpan omegas[1] = {omega};
              if (!build_sequence(order, Omega, omegas, seq)) continue;
              // Child curves X(l,e,r,.) are consumed in place in gamma.
              const std::span<const SolutionCurve> children[1] = {
                  gamma.row(l, e, r)};
              bool any = false;
              for (const SolutionCurve& c : children[0])
                if (!c.empty()) {
                  any = true;
                  break;
                }
              if (!any) continue;
              const auto visit = [&](const std::vector<PTreeTerminal>& var) {
                plan(var, children);
              };
              if (cfg.enable_bubbling) {
                std::vector<PTreeTerminal> cur = seq;
                enumerate_layer_sequences(seq, 0, cur, visit);
              } else {
                visit(seq);
              }
            }
          }
        }
        // Relaxed Ca_Trees (section 3.2.1): a second inner group per layer.
        if (cfg.max_internal_children >= 2 && L >= 2) {
          for (std::size_t l1 = 1; l1 + 1 <= L - 1; ++l1) {
            for (Chi e1 : chis(l1)) {
              const std::size_t sl1 = GroupSpan{l1, e1, 0}.span_len();
              if (sl1 > Omega.span_len()) continue;
              for (std::size_t r1 = Omega.left() + sl1 - 1; r1 < Omega.right; ++r1) {
                const GroupSpan o1{l1, e1, r1};
                if (!o1.valid(n)) continue;
                const std::size_t l2_min =
                    (l1 + cfg.alpha >= L + 2) ? 1 : L + 2 - cfg.alpha - l1;
                for (std::size_t l2 = l2_min; l1 + l2 <= L - 1; ++l2) {
                  for (Chi e2 : chis(l2)) {
                    const std::size_t sl2 = GroupSpan{l2, e2, 0}.span_len();
                    if (r1 + sl2 > Omega.right) continue;
                    for (std::size_t r2 = r1 + sl2; r2 <= Omega.right; ++r2) {
                      const GroupSpan o2{l2, e2, r2};
                      if (!o2.valid(n) || o2.left() <= r1) continue;
                      const GroupSpan omegas[2] = {o1, o2};
                      if (!build_sequence(order, Omega, omegas, seq)) continue;
                      const std::span<const SolutionCurve> children[2] = {
                          gamma.row(l1, e1, r1), gamma.row(l2, e2, r2)};
                      bool any1 = false, any2 = false;
                      for (std::size_t p = 0; p < ws.k; ++p) {
                        any1 = any1 || !children[0][p].empty();
                        any2 = any2 || !children[1][p].empty();
                      }
                      if (!any1 || !any2) continue;
                      plan(seq, children);
                    }
                  }
                }
              }
            }
          }
        }
      }
    }

    // Compute: the run arena is frozen from here to the commit, so every
    // lane's overlay numbers its nodes from the run arena's end.
    const std::size_t n_lanes = n_jobs == 0 ? 0 : fork_lanes(cfg.pool, n_jobs);
    while (lanes.size() < n_lanes)
      lanes.push_back(std::make_unique<Lane>(net, lib, cfg, cand,
                                             arena.overlay(lanes.size())));
    for (const auto& lane : lanes) lane->ws.arena.reset(arena.end_id());
    parallel_for(cfg.pool, n_jobs, [&](std::size_t i, std::size_t lane) {
      compute_group(*lanes[lane], lane, jobs[i], L, top);
    });
    // Lane sinks hold only counters, gauges and layer rows, which commute:
    // the fold is the same whichever lane ran which group.
    std::uint64_t layer_nodes = 0;
    for (const auto& lane : lanes) {
      layer_nodes += lane->ws.arena.size();
      if (kObsEnabled && cfg.obs != nullptr) {
        cfg.obs->merge_from(lane->sink);
        lane->sink.clear();
      }
    }
    // The layer's live-node high-water mark — run arena plus every group's
    // overlay nodes, a pure function of net + config — against the soft cap.
    const std::uint64_t live = arena.size() + layer_nodes;
    peak_live = std::max(peak_live, live);
    guard_arena(cfg.guard, static_cast<std::uint32_t>(
                               std::min<std::uint64_t>(live, kNullSol)));

    // Commit, in group order.
    for (std::size_t i = 0; i < n_jobs; ++i) {
      GroupJob& job = jobs[i];
      roots.clear();
      for (const SolutionCurve& c : job.out) c.collect_roots(roots);
      const std::vector<SolNodeId> remap =
          arena.import(lanes[job.lane]->ws.arena, job.first, job.last, roots);
      for (SolutionCurve& c : job.out) c.remap_nodes(remap, job.first);
      if (cache != nullptr && !top) cache->insert(job.key, job.out, arena);
      for (std::size_t p = 0; p < ws.k; ++p)
        gamma.at(L, job.E, job.R, p) = std::move(job.out[p]);
    }
  }
  // Only the source's anchor curve of the whole-net group is ever read, so
  // it is all that group's entry stores.
  if (cache != nullptr && !whole_hit)
    cache->insert(whole_key,
                  std::span(&gamma.at(n, Chi::kChi0, n - 1, source_p), 1),
                  arena);

  // EXTRACTION (Figure 9 lines 21-23).
  BubbleResult res;
  res.layer_calls = layer_calls;
  const SolutionCurve& final_curve = gamma.at(n, Chi::kChi0, n - 1, source_p);
  if (final_curve.empty())
    throw std::logic_error("bubble_construct: empty final curve");
  res.root_curve = final_curve;
  res.solutions_stored = gamma.total_solutions();

  auto driver_q = [&](const Solution& s) {
    return s.req_time - net.driver.delay.at_nominal(s.load);
  };
  const Solution* best = nullptr;
  if (cfg.objective.mode == ObjectiveMode::kMaxReqTime) {
    for (const Solution& s : final_curve) {
      if (s.area > cfg.objective.area_limit + 1e-9) continue;
      if (best == nullptr || driver_q(s) > driver_q(*best)) best = &s;
    }
  } else {
    for (const Solution& s : final_curve) {
      if (driver_q(s) < cfg.objective.req_target - 1e-9) continue;
      if (best == nullptr || s.area < best->area ||
          (s.area == best->area && driver_q(s) > driver_q(*best)))
        best = &s;
    }
  }
  if (best == nullptr) {
    // Constraint infeasible within the explored space: fall back to the
    // closest solution (largest required time) rather than failing.
    for (const Solution& s : final_curve)
      if (best == nullptr || driver_q(s) > driver_q(*best)) best = &s;
  }
  res.chosen = *best;
  res.driver_req_time = driver_q(*best);
  res.tree = build_routing_tree(net, arena, best->node);
  res.out_order = provenance_sink_order(arena, best->node, n);

  obs_add(cfg.obs, Counter::kLayerCalls, res.layer_calls);
  obs_add(cfg.obs, Counter::kBubbleBuffersInserted, res.tree.buffer_count());
  obs_add(cfg.obs, Counter::kArenaNodesAllocated,
          arena.stats().nodes_allocated - arena_alloc_before);
  obs_gauge(cfg.obs, Gauge::kGammaPeakSolutions, res.solutions_stored);
  peak_live = std::max<std::uint64_t>(peak_live, arena.stats().peak_nodes);
  obs_gauge(cfg.obs, Gauge::kArenaPeakLiveNodes, peak_live);
  obs_gauge(cfg.obs, Gauge::kArenaPeakBytes, peak_live * sizeof(SolNode));
  if (cache != nullptr)
    obs_gauge(cfg.obs, Gauge::kCachePeakEntries, cache->size());
  return res;
}

}  // namespace merlin
