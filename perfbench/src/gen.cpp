#include "gen.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "io/netfile.h"
#include "net/generator.h"
#include "net/rng.h"
#include "settings.h"

namespace perfbench {

std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b) {
  merlin::Rng r(a * 0x9E3779B97F4A7C15ULL + b);
  return r.next_u64();
}

namespace {

merlin::Point apply_symmetry(merlin::Point p, unsigned sym, std::int32_t side) {
  if (sym & 1u) std::swap(p.x, p.y);
  if (sym & 2u) p.x = side - p.x;
  if (sym & 4u) p.y = side - p.y;
  return p;
}

}  // namespace

BigNetInputs make_big_net_inputs(const merlin::BufferLibrary& lib,
                                 std::uint64_t seed) {
  BigNetInputs in;
  // seed -> (s0, s1, s2) as base-8 digits: consecutive seeds always differ
  // in the first circuit's symmetry.
  std::uint64_t digits = seed;
  for (std::size_t k = 0; k < kBigNetCircuits; ++k) {
    merlin::CircuitSpec spec;
    spec.name = "ckt" + std::to_string(kBigNetBaseSeed + k);
    spec.n_gates = kBigNetGates;
    spec.seed = kBigNetBaseSeed + k;
    merlin::Circuit ckt = merlin::make_random_circuit(spec, lib);
    const auto sym = static_cast<unsigned>(digits % 8);
    digits /= 8;
    for (merlin::Gate& g : ckt.gates)
      g.pos = apply_symmetry(g.pos, sym, ckt.die_side);
    in.circuits.push_back(std::move(ckt));
  }
  return in;
}

std::uint64_t digest(const BigNetInputs& in) {
  std::uint64_t h = fnv1a(nullptr, 0);
  for (const merlin::Circuit& c : in.circuits) {
    h = fnv1a(c.name.data(), c.name.size(), h);
    h = fnv1a_pod(c.die_side, h);
    for (const merlin::Gate& g : c.gates) {
      h = fnv1a_pod(g.cell, h);
      h = fnv1a_pod(g.pos.x, h);
      h = fnv1a_pod(g.pos.y, h);
      h = fnv1a_pod(g.is_primary_output, h);
      for (std::uint32_t f : g.fanins) h = fnv1a_pod(f, h);
    }
  }
  return h;
}

std::vector<merlin::Net> make_net_list(const merlin::BufferLibrary& lib,
                                       std::uint64_t base_seed,
                                       std::uint64_t seed, std::size_t count,
                                       std::size_t min_sinks,
                                       std::size_t max_sinks,
                                       const std::string& prefix) {
  std::vector<merlin::Net> nets;
  nets.reserve(count);
  const std::size_t span = max_sinks - min_sinks + 1;
  merlin::Rng rng(mix_seed(seed, count));
  for (std::size_t i = 0; i < count; ++i) {
    merlin::NetSpec spec;
    spec.name = prefix + std::to_string(i);
    spec.n_sinks = min_sinks + i % span;
    spec.seed = mix_seed(base_seed, i);
    merlin::Net net = merlin::make_random_net(spec, lib);
    std::int32_t side = net.source.x;
    for (const merlin::Point& p : net.terminals())
      side = std::max({side, p.x, p.y});
    const auto sym = static_cast<unsigned>(rng.next_u64() % 8);
    net.source = apply_symmetry(net.source, sym, side);
    for (merlin::Sink& s : net.sinks) s.pos = apply_symmetry(s.pos, sym, side);
    nets.push_back(std::move(net));
  }
  for (std::size_t i = count; i > 1; --i)  // Fisher-Yates
    std::swap(nets[i - 1], nets[rng.next_u64() % i]);
  return nets;
}

std::string net_text(const merlin::Net& net) {
  std::ostringstream o;
  merlin::write_net(o, net);
  return o.str();
}

std::uint64_t digest(const std::vector<merlin::Net>& nets) {
  std::uint64_t h = fnv1a(nullptr, 0);
  for (const merlin::Net& n : nets) {
    const std::string t = net_text(n);
    h = fnv1a(t.data(), t.size(), h);
  }
  return h;
}

ServeInputs make_serve_inputs(
    const merlin::BufferLibrary& lib, std::uint64_t seed,
    const std::vector<std::pair<double, double>>& phases) {
  const std::uint64_t base = kServeBaseSeed;
  const std::size_t lo = kServeMinSinks, hi = kServeMaxSinks;
  const std::size_t hot_set = kServeHotSet;
  ServeInputs in;
  for (const merlin::Net& n : make_net_list(lib, mix_seed(base, 1),
                                            mix_seed(seed, 1), hot_set, lo, hi,
                                            "hot"))
    in.hot.push_back(net_text(n));

  // Each phase draws its own fresh nets from its own base stream, so the
  // set of problems a phase sees is fixed and only their symmetry and
  // place in the schedule follow the seed.  Hot requests cycle through the
  // hot set in a seeded order, so every hot net is asked for equally often.
  merlin::Rng rng(mix_seed(seed, 2));
  std::vector<std::size_t> hot_order(hot_set);
  for (std::size_t i = 0; i < hot_set; ++i) hot_order[i] = i;
  for (std::size_t i = hot_set; i > 1; --i)  // Fisher-Yates
    std::swap(hot_order[i - 1], hot_order[rng.next_u64() % i]);
  std::size_t next_hot = 0;
  for (std::size_t p = 0; p < phases.size(); ++p) {
    const auto [rate, duration] = phases[p];
    const auto n = static_cast<std::size_t>(rate * duration);
    const auto fresh = static_cast<std::size_t>(
        std::lround(static_cast<double>(n) * (1.0 - kServeHotShare)));
    std::vector<char> hot(n, 1);
    std::fill(hot.begin(), hot.begin() + static_cast<std::ptrdiff_t>(fresh), 0);
    for (std::size_t i = n; i > 1; --i)  // Fisher-Yates
      std::swap(hot[i - 1], hot[rng.next_u64() % i]);
    std::size_t cold = in.cold.size();
    for (const merlin::Net& net :
         make_net_list(lib, mix_seed(base, 100 + p), mix_seed(seed, 100 + p),
                       fresh, lo, hi, "cold" + std::to_string(p) + "_"))
      in.cold.push_back(net_text(net));
    std::vector<ServeRequest> sched;
    for (std::size_t i = 0; i < n; ++i) {
      ServeRequest r;
      r.due_s = static_cast<double>(i) / rate;
      r.hot = hot[i] != 0;
      r.index = r.hot ? hot_order[next_hot++ % hot_set] : cold++;
      sched.push_back(r);
    }
    in.phases.push_back(std::move(sched));
  }
  return in;
}

std::uint64_t digest(const ServeInputs& in) {
  std::uint64_t h = fnv1a(nullptr, 0);
  for (const std::string& t : in.hot) h = fnv1a(t.data(), t.size(), h);
  for (const std::string& t : in.cold) h = fnv1a(t.data(), t.size(), h);
  for (const auto& phase : in.phases) {
    for (const ServeRequest& r : phase) {
      h = fnv1a_pod(r.due_s, h);
      h = fnv1a_pod(r.hot, h);
      h = fnv1a_pod(r.index, h);
    }
  }
  return h;
}

}  // namespace perfbench
