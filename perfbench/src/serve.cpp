// The serve layer probe of many_nets' traced run.  It spawns merlin_d
// (every core, a cache budget the fresh stream overflows) on a private
// socket, pre-warms a hot set, and sends submit_net requests on a fixed
// schedule over at most one connection per core, first at a low and then
// at a high rate: about 70% name a hot net, the rest a never-seen one.
// The replies' queue, run and transport times are the serve.* per-layer
// metrics; the benchmark's own span around every submit_net goes into the
// many_nets trace.
//
// Every reply is checked against an in-process BatchRunner::run_nets of
// the same net text on one thread with no shared cache: digest, delay and
// area must be equal.  The daemon must drain and exit 0.

#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

#include "buflib/library.h"
#include "common.h"
#include "flow/batch.h"
#include "gen.h"
#include "io/netfile.h"
#include "layers.h"
#include "serve/client.h"
#include "settings.h"
#include "spans.h"

namespace perfbench {

namespace {

/// A merlin_d child on a private socket under the work directory.  The
/// destructor kills and reaps a daemon that was not stopped cleanly, so no
/// path out of the benchmark leaves one running.
class Daemon {
 public:
  explicit Daemon(const Options& opt) {
    socket_ = opt.work_dir + "/d" + std::to_string(getpid()) + ".sock";
    ::unlink(socket_.c_str());
    const std::string threads = std::to_string(opt.threads());
    const std::string cache_mb = std::to_string(kServeCacheMb);
    std::fflush(stdout);
    pid_ = fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the benchmark
      dup2(2, 1);  // the result must stay the benchmark's last stdout line
      execl(opt.daemon_bin.c_str(), "merlin_d", "--socket", socket_.c_str(),
            "--threads", threads.c_str(), "--cache-mb", cache_mb.c_str(),
            static_cast<char*>(nullptr));
      std::perror("perfbench: exec merlin_d");
      _exit(127);
    }
  }
  ~Daemon() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
    ::unlink(socket_.c_str());
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Connects as soon as the socket accepts (polling every millisecond).
  [[nodiscard]] std::unique_ptr<merlin::ServeClient> connect() const {
    const auto t0 = Clock::now();
    for (;;) {
      try {
        return std::make_unique<merlin::ServeClient>(socket_, 0);
      } catch (const std::runtime_error&) {
        if (seconds_since(t0) > 30.0) throw;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  }

  /// req.shutdown, then waits for the drain; true iff the daemon exited 0.
  /// A daemon that cannot be asked, or takes over 30 s to drain, is killed.
  bool stop() {
    bool asked = true;
    try {
      connect()->shutdown();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: shutdown: %s\n", e.what());
      asked = false;
    }
    int status = 0;
    bool killed = false;
    const auto t0 = Clock::now();
    pid_t reaped = 0;
    while ((reaped = waitpid(pid_, &status, WNOHANG)) == 0) {
      if (!asked || seconds_since(t0) > 30.0) {
        kill(pid_, SIGKILL);
        reaped = waitpid(pid_, &status, 0);
        killed = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const bool clean = reaped == pid_ && !killed && WIFEXITED(status) &&
                       WEXITSTATUS(status) == 0;
    pid_ = -1;
    ::unlink(socket_.c_str());
    return clean;
  }

 private:
  pid_t pid_ = -1;
  std::string socket_;
};

/// One request as sent and answered.  Times are ms after the phase start.
struct Sample {
  bool hot = false;
  std::size_t index = 0;
  double due_ms = 0.0;
  double sent_ms = 0.0;
  double done_ms = 0.0;
  bool ok = false;       ///< a result came back
  bool refused = false;  ///< err.queue_full / err.overloaded / err.deadline
  std::string error;
  merlin::ResultResp result;
};

/// Sends `sched` on its schedule over `conns` connections: a connection
/// takes the next request when it is free and sends it at its due time.
/// Every submit_net gets a span under `parent`.
std::vector<Sample> run_phase(const Daemon& d,
                              const std::vector<ServeRequest>& sched,
                              const ServeInputs& in, std::size_t conns,
                              BenchTrace& trace, std::int64_t parent) {
  std::vector<Sample> out(sched.size());
  std::vector<std::unique_ptr<merlin::ServeClient>> clients;
  for (std::size_t c = 0; c < conns; ++c) clients.push_back(d.connect());
  std::atomic<std::size_t> next{0};
  const auto t0 = Clock::now();
  const auto ms_since_t0 = [&] { return seconds_since(t0) * 1e3; };
  const std::uint64_t t0_ns = now_ns();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      merlin::ServeClient& client = *clients[c];
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= sched.size()) return;
        const ServeRequest& r = sched[i];
        Sample& s = out[i];
        s.hot = r.hot;
        s.index = r.index;
        s.due_ms = r.due_s * 1e3;
        std::this_thread::sleep_until(
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(r.due_s)));
        s.sent_ms = ms_since_t0();
        try {
          const merlin::SubmitReply rep = client.submit_net(
              r.hot ? in.hot[r.index] : in.cold[r.index]);
          s.ok = rep.ok;
          s.result = rep.result;
          if (!rep.ok) {
            const auto code = static_cast<merlin::ServeError>(rep.error.code);
            s.refused = code == merlin::ServeError::kQueueFull ||
                        code == merlin::ServeError::kOverloaded ||
                        code == merlin::ServeError::kDeadline;
            s.error = merlin::serve_error_name(code);
          }
        } catch (const std::exception& e) {
          s.error = e.what();
        }
        s.done_ms = ms_since_t0();
        trace.add("bench.submit_net",
                  t0_ns + static_cast<std::uint64_t>(s.sent_ms * 1e6),
                  t0_ns + static_cast<std::uint64_t>(s.done_ms * 1e6), parent,
                  s.result.job_id);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return out;
}

/// In-process answer for one net text: one thread, no shared cache.
struct Reference {
  std::uint64_t digest = 0;
  double delay_ps = 0.0;
  double area = 0.0;
};

Reference reference_answer(const std::string& text,
                           const merlin::BufferLibrary& lib) {
  std::istringstream is(text);
  const merlin::Net net = merlin::read_net(is);
  merlin::BatchOptions bo;
  bo.threads = 1;
  bo.flow = merlin::FlowKind::kFlow3;
  const merlin::BatchResult r = merlin::BatchRunner(lib, bo).run_nets({net});
  Reference ref;
  ref.digest = merlin::batch_result_digest(r);
  ref.delay_ps = r.nets.at(0).result.eval.table_delay(net);
  ref.area = r.nets.at(0).result.eval.buffer_area;
  return ref;
}

/// Checks every sample against the reference answers (computed for the
/// texts not yet seen, in parallel, after the phases are over).
class Checker {
 public:
  Checker(const ServeInputs& in, std::size_t threads)
      : in_(in), threads_(threads), lib_(merlin::make_standard_library()) {}

  void add(const std::vector<Sample>& samples, const std::string& phase) {
    for (const Sample& s : samples) pending_.push_back({s, phase});
  }

  /// Computes the missing references and checks every pending sample.
  void finish(Report& rep) {
    std::vector<std::string> texts;
    for (const auto& [s, phase] : pending_) {
      const std::string& t = text(s);
      if (refs_.emplace(t, Reference{}).second) texts.push_back(t);
    }
    std::vector<Reference> out(texts.size());
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    for (std::size_t w = 0; w < threads_; ++w) {
      pool.emplace_back([&] {
        for (std::size_t i = next.fetch_add(1); i < texts.size();
             i = next.fetch_add(1))
          out[i] = reference_answer(texts[i], lib_);
      });
    }
    for (std::thread& t : pool) t.join();
    for (std::size_t i = 0; i < texts.size(); ++i) refs_[texts[i]] = out[i];

    for (const auto& [s, phase] : pending_) {
      const std::string what = phase + (s.hot ? " hot " : " cold ") +
                               std::to_string(s.index);
      if (!s.ok) {
        rep.attempt(false);
        rep.fail(what + ": " + (s.refused ? "refused " : "error ") + s.error);
        continue;
      }
      const Reference& ref = refs_.at(text(s));
      const bool same = s.result.ok == 1 && s.result.digest == ref.digest &&
                        s.result.delay_ps == ref.delay_ps &&
                        s.result.area == ref.area;
      rep.attempt(same);
      if (!same) rep.fail(what + ": reply differs from the in-process answer");
    }
    pending_.clear();
  }

 private:
  const std::string& text(const Sample& s) const {
    return s.hot ? in_.hot[s.index] : in_.cold[s.index];
  }
  const ServeInputs& in_;
  std::size_t threads_;
  merlin::BufferLibrary lib_;
  std::vector<std::pair<Sample, std::string>> pending_;
  std::map<std::string, Reference> refs_;
};

/// Spawns a daemon and pre-warms the hot set.
std::unique_ptr<Daemon> set_up(const Options& opt, const ServeInputs& in,
                               Checker& check) {
  auto d = std::make_unique<Daemon>(opt);
  const auto client = d->connect();
  (void)client->ping();
  std::vector<Sample> warm;
  for (std::size_t i = 0; i < in.hot.size(); ++i) {
    Sample s;
    s.hot = true;
    s.index = i;
    const merlin::SubmitReply r = client->submit_net(in.hot[i]);
    s.ok = r.ok;
    s.result = r.result;
    if (!r.ok)
      s.error = merlin::serve_error_name(
          static_cast<merlin::ServeError>(r.error.code));
    warm.push_back(s);
  }
  check.add(warm, "pre-warm");
  return d;
}

void fold_replies(LayerData& d, const std::vector<Sample>& samples) {
  for (const Sample& s : samples) {
    d.gen_late_ms.push_back(s.sent_ms - s.due_ms);
    if (!s.ok) {
      if (s.refused) ++d.refused;
      continue;
    }
    d.queue_ms.push_back(s.result.queue_ms);
    (s.hot ? d.run_ms_warm : d.run_ms_cold).push_back(s.result.wall_ms);
    d.transport_ms.push_back(s.done_ms - s.sent_ms - s.result.queue_ms -
                             s.result.wall_ms);
  }
}

}  // namespace

void probe_serve_layer(const Options& opt, Report& rep, LayerData& d,
                       BenchTrace& trace) {
  const std::vector<std::pair<double, double>> plan = {
      {kServeLowRate, opt.seconds * kServeLowShare},
      {kServeHighRate, opt.seconds * kServeHighShare}};
  const merlin::BufferLibrary lib = merlin::make_standard_library();
  const ServeInputs in = make_serve_inputs(lib, opt.seed, plan);
  Checker check(in, opt.threads());
  auto daemon = set_up(opt, in, check);
  const std::int64_t root = trace.add("bench.serve", now_ns(), 0);
  for (std::size_t p = 0; p < plan.size(); ++p) {
    const std::string name = p == 0 ? "low" : "high";
    const std::int64_t phase =
        trace.add("bench.phase." + name, now_ns(), 0, root);
    const std::vector<Sample> s =
        run_phase(*daemon, in.phases[p], in, opt.threads(), trace, phase);
    trace.close(phase, now_ns());
    fold_replies(d, s);
    check.add(s, "serve " + name);
  }
  trace.close(root, now_ns());
  if (!daemon->stop()) rep.fail("serve daemon did not drain and exit 0");
  check.finish(rep);
}

}  // namespace perfbench
