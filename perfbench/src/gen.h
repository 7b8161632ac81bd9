#pragma once
// Seeded input generation.  Every generator here is a pure function of
// the workload seed (and the fixed settings of settings.h): the same seed yields byte-identical inputs, a
// different seed different ones, and each input set has a digest the run
// prints.  The program under test only ever receives what these return —
// circuits, nets, or netfile text.

#include <cstdint>
#include <string>
#include <vector>

#include "buflib/library.h"
#include "common.h"
#include "flow/circuit.h"
#include "net/net.h"

namespace perfbench {

/// SplitMix64 finalizer over (a, b): decorrelated sub-seeds.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b);

// Every workload draws its problems once, from a base seed fixed in
// settings.h, and the workload seed then picks one of the eight symmetries of
// each problem's square (mirror x, mirror y, swap x and y) plus, for net
// lists, their order.  A symmetry preserves every Manhattan distance, so
// each seed poses the same routing problems up to isometry: cost and
// quality stay comparable across seeds — a fresh random draw per seed
// moves a 26-gate circuit's cold time by up to 8x — while the bytes the
// program receives differ from seed to seed.

/// big_net: the circuit triple kBigNetBaseSeed .. +2 of kBigNetGates gates, each under the symmetry given by one base-8 digit of the seed
/// (so consecutive seeds always differ).
struct BigNetInputs {
  std::vector<merlin::Circuit> circuits;
};
[[nodiscard]] BigNetInputs make_big_net_inputs(const merlin::BufferLibrary& lib,
                                               std::uint64_t seed);
[[nodiscard]] std::uint64_t digest(const BigNetInputs& in);

/// `count` random nets drawn from `base_seed` whose sink counts cycle
/// through [min_sinks, max_sinks] (equal shares), each under a symmetry
/// picked by `seed`, in an order shuffled by `seed`.
[[nodiscard]] std::vector<merlin::Net> make_net_list(
    const merlin::BufferLibrary& lib, std::uint64_t base_seed,
    std::uint64_t seed, std::size_t count, std::size_t min_sinks,
    std::size_t max_sinks, const std::string& prefix);

/// The netfile text of a net — the form merlin_d's submit_net receives.
[[nodiscard]] std::string net_text(const merlin::Net& net);
[[nodiscard]] std::uint64_t digest(const std::vector<merlin::Net>& nets);

/// The serve layer probe: a hot set pre-warmed in set-up, a stream of never-seen nets,
/// and per phase a fixed schedule of requests at a constant rate, each
/// naming a hot net or the next fresh one.  Exactly a (1 - kServeHotShare)
/// share of each phase is fresh, drawn from that phase's own base stream;
/// the seed places them and orders the hot-set round robin.
struct ServeRequest {
  double due_s = 0.0;     ///< send time, seconds after the phase starts
  bool hot = false;
  std::size_t index = 0;  ///< into ServeInputs::hot or ::cold
};
struct ServeInputs {
  std::vector<std::string> hot;   ///< netfile text
  std::vector<std::string> cold;  ///< netfile text, each sent at most once
  std::vector<std::vector<ServeRequest>> phases;
};
/// `phases` holds (rate in req/s, duration in s) pairs; fresh nets are
/// dealt out across phases so none repeats.
[[nodiscard]] ServeInputs make_serve_inputs(
    const merlin::BufferLibrary& lib, std::uint64_t seed,
    const std::vector<std::pair<double, double>>& phases);
[[nodiscard]] std::uint64_t digest(const ServeInputs& in);

/// Generates the inputs for `seed` twice and for `seed + 1` once through
/// `digest_of`, and records a failure unless the first two digests match
/// and the third differs.  Prints the digest.
template <typename DigestOf>
std::uint64_t check_generator(Report& rep, std::uint64_t seed,
                              DigestOf digest_of) {
  const std::uint64_t a = digest_of(seed);
  const std::uint64_t b = digest_of(seed);
  const std::uint64_t c = digest_of(seed + 1);
  if (a != b) rep.fail("generator: same seed gave different inputs");
  if (a == c) rep.fail("generator: seed and seed+1 gave identical inputs");
  char buf[64];
  std::snprintf(buf, sizeof(buf), "input_digest=%016llx",
                static_cast<unsigned long long>(a));
  rep.note(buf);
  return a;
}

}  // namespace perfbench
