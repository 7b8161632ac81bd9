#pragma once
// Every fixed setting of the benchmark, with why it has its value.
// perfbench/rationale.json records the same choices, the per-layer map and
// the sizing measured when the benchmark was made.

#include <cstddef>
#include <cstdint>

namespace perfbench {

// --- set-up sampling ------------------------------------------------------

/// Throwaway set-ups timed after every warm pass (many_nets) or warm rerun
/// of the circuit triple (big_net).  Set-up takes 0.2-0.7 ms, nearly all
/// of it spawning pool threads, whose kernel cost drifts by a quarter with
/// the host's load; so samples are many, and spread over the whole run
/// rather than taken back to back.
inline constexpr int kSetupSamplesPerPass = 16;

// --- traced run -----------------------------------------------------------

/// Span ring of one ObsSink; big enough that no span of one BatchRunner
/// call is dropped (a dropped span fails the traced run).
inline constexpr std::size_t kSpanCapacity = std::size_t{1} << 22;

// --- big_net --------------------------------------------------------------

/// The ROADMAP's circuits 7, 8, 9: one 8-10-sink net holds most of each
/// cold run while the other workers idle.
inline constexpr std::uint64_t kBigNetBaseSeed = 7;
inline constexpr std::size_t kBigNetCircuits = 3;
inline constexpr std::size_t kBigNetGates = 26;
/// Per-circuit SubproblemCache budget; the cache never evicts at this size.
inline constexpr std::uint64_t kBigNetCacheMb = 64;

// --- many_nets ------------------------------------------------------------

/// 400 nets of 3-5 sinks: every worker stays busy with short nets and a
/// cold pass takes about 13 s on 4 cores, so a 30 s run holds a cold pass
/// and several warm ones.
inline constexpr std::uint64_t kManyNetsBaseSeed = 1;
inline constexpr std::size_t kManyNetsCount = 400;
inline constexpr std::size_t kManyNetsMinSinks = 3;
inline constexpr std::size_t kManyNetsMaxSinks = 5;
inline constexpr std::uint64_t kManyNetsCacheMb = 64;

// --- serve layer (traced many_nets run) -----------------------------------

/// 3-4 sinks, not 3-5: a fresh 5-sink net costs 170-650 ms, 20x a hot hit,
/// so at two thirds of capacity single requests build queues.
inline constexpr std::uint64_t kServeBaseSeed = 1;
inline constexpr std::size_t kServeMinSinks = 3;
inline constexpr std::size_t kServeMaxSinks = 4;
/// Hot nets, pre-warmed in set-up; 70% of requests name one of them.
inline constexpr std::size_t kServeHotSet = 12;
inline constexpr double kServeHotShare = 0.7;
/// merlin_d --cache-mb: the fresh stream evicts, the hot set stays resident.
inline constexpr int kServeCacheMb = 8;
/// Request rates (req/s), about 1/3 and 2/3 of the daemon's capacity of
/// about 44 req/s on 4 cores, and the share of --seconds each is sent for.
inline constexpr double kServeLowRate = 12.0;
inline constexpr double kServeHighRate = 24.0;
inline constexpr double kServeLowShare = 0.3;
inline constexpr double kServeHighShare = 0.35;

}  // namespace perfbench
