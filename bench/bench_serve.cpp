// Serving exhibit: what merlin_d's warm state (resident pool, per-worker
// arenas, shared SubproblemCache) buys over a cold process, and what the
// request pipeline sustains under concurrent clients.
//
// Legs:
//   cold  — the daemon's very first submission of the workload circuit:
//           every sub-problem is a miss, the store gets populated;
//   warm  — repeat submissions of the same circuit (min over reps): the
//           ECO / re-optimization scenario the daemon exists for.  The
//           result digest must equal the cold run's (the determinism
//           contract — cache state may never change answers);
//   sweep — 1, 2 and 4 concurrent client connections, each submitting a
//           small seed-rotated mix: per-request p50/p99 latency and
//           aggregate req/s.  Jobs are dispatched serially (that is the
//           determinism contract), so the sweep measures pipeline overhead
//           and fairness, not parallel speedup.
//   recovery — (--daemon mode only) drain the daemon (which writes its
//           warm-cache snapshot), restart it on the same snapshot path and
//           measure exec-to-first-result.  The restarted daemon's digest
//           must equal the cold run's: a snapshot may speed the daemon up,
//           never change its answers.
//
// The headline numbers are digest_identical, warm_faster and
// recovery_digest_identical (hard CI gates; warm_speedup additionally
// carries the >5x claim in the committed baseline), with wall-clock
// metrics gated loosely.
//
// Usage: bench_serve (--daemon BIN | --socket PATH)
//                    [--smoke] [--json FILE] [--reps N] [--shutdown]
//   --daemon BIN  fork/exec BIN (a merlin_d build) on a private socket
//                 with a private --snapshot file; the daemon is shut down
//                 at the end and its exit status must be 0 — a daemon that
//                 cannot drain fails the bench.
//   --socket PATH attach to an already-running daemon instead (the
//                 recovery leg is skipped — the bench cannot restart a
//                 daemon it does not own).
//   --smoke       tiny circuit + short sweep, for CI sanity legs.
//   --gates/--seed override the workload circuit (exploration; the
//                 committed BENCH_SERVE.json uses the defaults).
//   --shutdown    with --socket: also shut the daemon down at the end.

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "flow/report.h"
#include "obs/hist.h"
#include "serve/client.h"

namespace {

using namespace merlin;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Submit with backoff on err.queue_full (the bench must measure the
/// pipeline, not abandon it at the first backpressure signal).
ResultResp submit_retrying(ServeClient& client, std::uint64_t gates,
                           std::uint64_t seed) {
  for (;;) {
    const SubmitReply r = client.submit_circuit(gates, seed);
    if (r.ok) return r.result;
    if (r.error.code != static_cast<std::uint8_t>(ServeError::kQueueFull)) {
      std::fprintf(stderr, "bench_serve: submit failed: %s\n",
                   r.error.message.c_str());
      std::exit(1);
    }
    std::this_thread::sleep_for(
        std::chrono::milliseconds(r.error.retry_after_ms > 0
                                      ? r.error.retry_after_ms
                                      : 1));
  }
}

struct SweepPoint {
  int clients = 0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  double req_s = 0.0;
};

/// The daemon's lifetime telemetry quantizes latency through the same
/// LatencyHistogram — using it here too means bench_serve's p50/p99 and
/// `merlin_stat`'s agree by construction (modulo queue-vs-client vantage),
/// which the acceptance check leans on.
double hist_ms(const LatencyHistogram& h, double p) {
  return static_cast<double>(h.quantile(p)) / 1000.0;
}

/// Fork/exec a merlin_d on `socket_path` with a warm-cache snapshot at
/// `snap_path`.  Returns the child pid (exits the bench on fork failure).
pid_t spawn_daemon(const std::string& bin, const std::string& socket_path,
                   const std::string& snap_path) {
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("bench_serve: fork");
    std::exit(1);
  }
  if (pid == 0) {
    execl(bin.c_str(), "merlin_d", "--socket", socket_path.c_str(),
          "--threads", "2", "--snapshot", snap_path.c_str(), (char*)nullptr);
    std::perror("bench_serve: exec");
    _exit(127);
  }
  return pid;
}

/// Drain-wait for a spawned daemon; exits the bench unless it exits 0.
void reap_daemon(pid_t pid) {
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "bench_serve: daemon exit %d (want 0)\n",
                 WIFEXITED(status) ? WEXITSTATUS(status) : -1);
    std::exit(1);
  }
}

/// `clients` connections, each submitting `reps` seed-rotated requests.
/// Each client thread records into its own histogram; the merged result is
/// identical no matter how the threads interleaved (merge is commutative
/// bucket addition) — the same discipline the daemon's registry uses.
SweepPoint run_sweep(const std::string& socket_path, int clients, int reps,
                     std::uint64_t gates, std::uint64_t base_seed) {
  std::vector<LatencyHistogram> lat(static_cast<std::size_t>(clients));
  std::vector<std::thread> threads;
  const auto t0 = Clock::now();
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ServeClient client(socket_path, /*retry_ms=*/2000);
      for (int i = 0; i < reps; ++i) {
        const auto r0 = Clock::now();
        // Rotate over a small seed set: recurring work (cache hits) with
        // some variety, like an ECO loop touching a few circuit variants.
        (void)submit_retrying(client, gates, base_seed + (i % 3));
        lat[static_cast<std::size_t>(c)].record(
            static_cast<std::uint64_t>(ms_since(r0) * 1000.0));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double total_ms = ms_since(t0);

  LatencyHistogram all;
  for (const LatencyHistogram& h : lat) all.merge_from(h);
  SweepPoint pt;
  pt.clients = clients;
  pt.p50_ms = hist_ms(all, 50.0);
  pt.p90_ms = hist_ms(all, 90.0);
  pt.p99_ms = hist_ms(all, 99.0);
  pt.p999_ms = hist_ms(all, 99.9);
  pt.req_s = total_ms > 0.0
                 ? static_cast<double>(all.count()) / (total_ms / 1000.0)
                 : 0.0;
  return pt;
}

}  // namespace

int main(int argc, char** argv) {
  std::string daemon_bin;
  std::string socket_path;
  std::string json_path;
  bool smoke = false;
  bool shutdown_at_end = false;
  int reps = 0;
  std::uint64_t gates_override = 0;
  std::uint64_t seed_override = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--daemon") == 0 && i + 1 < argc)
      daemon_bin = argv[++i];
    else if (std::strcmp(argv[i], "--socket") == 0 && i + 1 < argc)
      socket_path = argv[++i];
    else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
      json_path = argv[++i];
    else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc)
      reps = std::atoi(argv[++i]);
    else if (std::strcmp(argv[i], "--gates") == 0 && i + 1 < argc)
      gates_override = std::strtoull(argv[++i], nullptr, 10);
    else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc)
      seed_override = std::strtoull(argv[++i], nullptr, 10);
    else if (std::strcmp(argv[i], "--smoke") == 0)
      smoke = true;
    else if (std::strcmp(argv[i], "--shutdown") == 0)
      shutdown_at_end = true;
    else {
      std::fprintf(stderr,
                   "usage: bench_serve (--daemon BIN | --socket PATH) "
                   "[--smoke] [--json FILE] [--reps N] [--gates N] "
                   "[--seed N] [--shutdown]\n");
      return 2;
    }
  }
  if (daemon_bin.empty() == socket_path.empty()) {
    std::fprintf(stderr,
                 "bench_serve: exactly one of --daemon / --socket needed\n");
    return 2;
  }

  // The workload: one deterministic circuit (plus two seed neighbors in
  // the sweep).  Chosen so the optimization dominates the per-request
  // constant costs — otherwise the warm speedup measures framing, not the
  // cache.
  const std::uint64_t gates = gates_override ? gates_override : (smoke ? 14 : 26);
  const std::uint64_t seed = seed_override ? seed_override : (smoke ? 1000 : 7);
  if (reps <= 0) reps = smoke ? 3 : 10;

  pid_t daemon_pid = -1;
  char sockdir[] = "/tmp/bench_serve_XXXXXX";
  std::string snap_path;
  if (!daemon_bin.empty()) {
    if (mkdtemp(sockdir) == nullptr) {
      std::perror("bench_serve: mkdtemp");
      return 1;
    }
    socket_path = std::string(sockdir) + "/d.sock";
    snap_path = std::string(sockdir) + "/cache.snap";
    daemon_pid = spawn_daemon(daemon_bin, socket_path, snap_path);
    shutdown_at_end = true;
  }

  double cold_ms = 0.0;
  double warm_ms = 0.0;
  std::uint64_t cold_digest = 0;
  std::uint64_t warm_digest = 0;
  {
    ServeClient client(socket_path, /*retry_ms=*/10000);

    // cold: the daemon's first contact with this circuit.
    {
      const auto t0 = Clock::now();
      const ResultResp r = submit_retrying(client, gates, seed);
      cold_ms = ms_since(t0);
      cold_digest = r.digest;
    }

    // warm: min over reps (the steady-state re-optimization cost).
    for (int i = 0; i < reps; ++i) {
      const auto t0 = Clock::now();
      const ResultResp r = submit_retrying(client, gates, seed);
      const double ms = ms_since(t0);
      if (i == 0 || ms < warm_ms) warm_ms = ms;
      warm_digest = r.digest;
    }
  }

  // recovery: drain the daemon (its exit path writes the warm-cache
  // snapshot), restart it on the same snapshot path, and measure
  // exec-to-first-result.  Skipped in --socket mode.
  double recovery_ms = 0.0;
  bool recovery_digest_identical = true;
  if (daemon_pid > 0) {
    ServeClient(socket_path, /*retry_ms=*/10000).shutdown();
    reap_daemon(daemon_pid);
    const auto t0 = Clock::now();
    daemon_pid = spawn_daemon(daemon_bin, socket_path, snap_path);
    ServeClient client(socket_path, /*retry_ms=*/10000);
    const ResultResp r = submit_retrying(client, gates, seed);
    recovery_ms = ms_since(t0);
    recovery_digest_identical = r.digest == cold_digest;
  }

  // Concurrency sweep (fresh connections; the cold/warm client is closed).
  const int sweep_reps = smoke ? 2 : reps;
  std::vector<SweepPoint> sweep;
  for (const int clients : {1, 2, 4})
    sweep.push_back(run_sweep(socket_path, clients, sweep_reps, gates, seed));

  int daemon_exit = -1;
  if (shutdown_at_end) {
    ServeClient(socket_path, /*retry_ms=*/2000).shutdown();
    if (daemon_pid > 0) {
      int status = 0;
      if (waitpid(daemon_pid, &status, 0) != daemon_pid || !WIFEXITED(status)) {
        std::fprintf(stderr, "bench_serve: daemon did not exit cleanly\n");
        return 1;
      }
      daemon_exit = WEXITSTATUS(status);
      std::remove(socket_path.c_str());
      if (!snap_path.empty()) std::remove(snap_path.c_str());
      std::remove(sockdir);
      if (daemon_exit != 0) {
        std::fprintf(stderr, "bench_serve: daemon exit %d (want 0)\n",
                     daemon_exit);
        return 1;
      }
    }
  }

  const bool digest_identical = cold_digest == warm_digest;
  const bool warm_faster = warm_ms < cold_ms;
  const double warm_speedup = warm_ms > 0.0 ? cold_ms / warm_ms : 0.0;

  TextTable t({"leg", "wall (ms)", "notes"});
  t.begin_row();
  t.cell("cold");
  t.cell(cold_ms, 2);
  t.cell("first submission, store cold");
  t.begin_row();
  t.cell("warm");
  t.cell(warm_ms, 2);
  t.cell("min of " + std::to_string(reps) + " reruns");
  if (daemon_pid > 0) {
    t.begin_row();
    t.cell("recovery");
    t.cell(recovery_ms, 2);
    t.cell("restart from snapshot to first result");
  }
  std::printf("%s\n", t.render().c_str());

  TextTable s({"clients", "p50 (ms)", "p90 (ms)", "p99 (ms)", "p99.9 (ms)",
               "req/s"});
  for (const SweepPoint& pt : sweep) {
    s.begin_row();
    s.cell(static_cast<std::uint64_t>(pt.clients));
    s.cell(pt.p50_ms, 2);
    s.cell(pt.p90_ms, 2);
    s.cell(pt.p99_ms, 2);
    s.cell(pt.p999_ms, 2);
    s.cell(pt.req_s, 1);
  }
  std::printf("%s\n", s.render().c_str());
  std::printf(
      "digest identical: %s   warm faster: %s   warm speedup: %.2fx   "
      "recovery digest identical: %s\n",
      digest_identical ? "yes" : "NO", warm_faster ? "yes" : "NO",
      warm_speedup, recovery_digest_identical ? "yes" : "NO");

  if (!json_path.empty()) {
    std::ofstream out(json_path, std::ios::binary);
    out << "{\n"
        << "  \"schema\": \"merlin.bench_serve\",\n"
        << "  \"version\": 3,\n"
        << "  \"gates\": " << gates << ",\n"
        << "  \"seed\": " << seed << ",\n"
        << "  \"reps\": " << reps << ",\n"
        << "  \"cold_ms\": " << cold_ms << ",\n"
        << "  \"warm_ms\": " << warm_ms << ",\n"
        << "  \"warm_speedup\": " << warm_speedup << ",\n"
        << "  \"digest_identical\": " << (digest_identical ? "true" : "false")
        << ",\n"
        << "  \"warm_faster\": " << (warm_faster ? "true" : "false") << ",\n"
        << "  \"recovery_ms\": " << recovery_ms << ",\n"
        << "  \"recovery_digest_identical\": "
        << (recovery_digest_identical ? "true" : "false") << ",\n";
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      const SweepPoint& pt = sweep[i];
      std::string k = "c";  // not "c" + ...: GCC 12 -O3 raises a false -Wrestrict
      k += std::to_string(pt.clients);
      out << "  \"" << k << "_p50_ms\": " << pt.p50_ms << ",\n"
          << "  \"" << k << "_p90_ms\": " << pt.p90_ms << ",\n"
          << "  \"" << k << "_p99_ms\": " << pt.p99_ms << ",\n"
          << "  \"" << k << "_p999_ms\": " << pt.p999_ms << ",\n"
          << "  \"" << k << "_req_s\": " << pt.req_s
          << (i + 1 < sweep.size() ? ",\n" : ",\n");
    }
    out << "  \"daemon_exit\": " << daemon_exit << "\n"
        << "}\n";
    std::printf("wrote %s\n", json_path.c_str());
  }
  return digest_identical && warm_faster && recovery_digest_identical ? 0 : 1;
}
