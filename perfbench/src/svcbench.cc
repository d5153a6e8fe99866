// svcbench — one run of one service-benchmark workload against fleets of
// three unchanged udc_svc_node replicas on loopback TCP.
//
//   svcbench --workload=steady-write --seed=1 --seconds=10
//            --node-binary=<udc_svc_node> --run-dir=<dir> --out=<result.json>
//            [--spans=<spans.jsonl>]
//
// The program is the fleet's supervisor and its only client process.  It
// speaks to the replicas only through their public frames (kPeers,
// kSvcStatus, kStop) and one public SvcClient per fleet (two internal
// threads, one connection per node), with every session multiplexed over it.
//
// A run measures kReps fresh fleets on fresh disks, one after another, and
// reports the median of each end-to-end metric over them.  Per fleet, each
// phase timed on this process's steady clock:
//   setup   — launch, then time to the first confirmed write (the start-up
//             election included);
//   warm-up — load runs, nothing is counted;
//   window  — --seconds of wall clock: the measured ops;
//   drain   — load stops; every submitted op must complete and every
//             replica converge, within a fixed budget;
//   stop    — kStop to every replica, reap;
//   verify  — merge the WAL shards and service logs, lift, and run
//             check_nudc, check_sessions and check_log_agreement.
// A fleet that fails verification or overruns its budget counts every op
// it attempted as failed, and makes the whole run non-conformant: its
// result then carries no end-to-end number but failed_frac.
//
// The result file holds the end-to-end metrics, the per-layer counts and
// ratios this process can see (from the last fleet, whose disk is kept for
// the replay), provenance, and confirmations per second of each window.
// With --spans the run also records spans (phases, kills, one per op) and
// writes them out at exit.
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "account.h"
#include "trace.h"
#include "udc/common/check.h"
#include "udc/common/rng.h"
#include "udc/net/reactor.h"
#include "udc/net/wire.h"
#include "udc/rt/remote/node.h"
#include "udc/store/process_store.h"
#include "udc/svc/client.h"
#include "udc/svc/svclog.h"
#include "udc/svc/wire.h"

namespace {

using namespace udc;
using perfbench::SpanLog;
using Clock = std::chrono::steady_clock;
using Ms = std::chrono::milliseconds;

constexpr int kNodes = 3;
constexpr int kRegisters = 64;
constexpr std::uint64_t kSetupSession = 1000;
constexpr int kReps = 5;  // measured fleets per run; metrics are medians
// A window that lost more than kQuietSteal of the CPU time to the
// hypervisor is replaced by a spare fleet: up to kSpareReps of them, and
// none started after kSpareUntil into the run (the run must end in time).
constexpr double kQuietSteal = 0.02;
constexpr int kSpareReps = 8;
constexpr auto kSpareUntil = std::chrono::seconds(60);
constexpr auto kWarmup = Ms(1000);
constexpr auto kRelaunchAfter = Ms(300);
constexpr auto kSetupBudget = Ms(20'000);
constexpr auto kDrainBudget = Ms(20'000);
constexpr auto kConvergeBudget = Ms(10'000);
constexpr auto kPoll = Ms(5);
constexpr std::size_t kOpSpans = 20'000;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// --- workloads ---------------------------------------------------------------

struct Workload {
  std::string name;
  bool open_loop = false;
  int sessions = 32;
  double read_fraction = 0;
  bool warm_writes = false;   // each register written once before reads
  double rate_ops_s = 0;      // open loop only
  std::vector<double> kills;  // leader kills, as fractions of the window
  double limit_ms = 1000;     // an op slower than this failed
};

std::optional<Workload> workload_named(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "steady-write") return w;
  if (name == "lease-read") {
    w.read_fraction = 1.0;
    w.warm_writes = true;
    return w;
  }
  if (name == "leader-kill") {
    w.open_loop = true;
    w.sessions = 16;
    w.read_fraction = 0.2;
    w.rate_ops_s = 2000;
    w.kills = {0.3, 0.65};
    w.limit_ms = 3000;
    return w;
  }
  return std::nullopt;
}

// One open-loop arrival, as an offset from the start of the warm-up.
struct Arrival {
  std::int64_t at_us = 0;
  std::uint64_t session = 0;
  bool read = false;
  std::int32_t reg = 0;
};

// Bounded Pareto (alpha 1.5, capped at 40x the mean), as in svc/fleet.cc.
std::int64_t pareto_us(double mean_us, Rng& rng) {
  const double alpha = 1.5;
  const double xm = mean_us * (alpha - 1.0) / alpha;
  double u = rng.next_double();
  if (u < 1e-12) u = 1e-12;
  return static_cast<std::int64_t>(
      std::min(xm / std::pow(u, 1.0 / alpha), mean_us * 40.0));
}

std::vector<Arrival> open_schedule(const Workload& w, std::uint64_t seed,
                                   std::int64_t span_us) {
  Rng rng(seed ^ 0x6f70656e6c6f6f70ull);
  std::vector<Arrival> out;
  const double mean_us = 1e6 / w.rate_ops_s;
  for (std::int64_t t = pareto_us(mean_us, rng); t < span_us;
       t += pareto_us(mean_us, rng)) {
    Arrival a;
    a.at_us = t;
    a.session =
        1 + rng.next_below(static_cast<std::uint64_t>(w.sessions));
    a.read = rng.chance(w.read_fraction);
    a.reg = static_cast<std::int32_t>(rng.next_below(kRegisters));
    out.push_back(a);
  }
  return out;
}

// --- /proc readers -----------------------------------------------------------

// utime + stime of a live (or not yet reaped) process, in milliseconds.
double proc_cpu_ms(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const auto close = text.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream rest(text.substr(close + 2));
  std::vector<std::string> f;
  std::string tok;
  while (rest >> tok) f.push_back(tok);
  // Fields from "state" (field 3) on: utime is field 14, stime field 15.
  if (f.size() < 13) return 0;
  const double ticks = std::stod(f[11]) + std::stod(f[12]);
  return ticks * 1000.0 / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

// Bytes received on the loopback interface (equal to bytes sent).
double loopback_bytes() {
  std::ifstream in("/proc/net/dev");
  std::string line;
  while (std::getline(in, line)) {
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string name = line.substr(0, colon);
    name.erase(0, name.find_first_not_of(' '));
    if (name != "lo") continue;
    std::istringstream rest(line.substr(colon + 1));
    double rx = 0;
    rest >> rx;
    return rx;
  }
  return 0;
}

// (steal, total) jiffies of all CPUs: time the hypervisor ran something
// else while this machine's CPUs wanted to run.
std::pair<double, double> cpu_steal() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double total = 0, steal = 0, v = 0;
  for (int i = 0; i < 8 && in >> v; ++i) {
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

// --- the fleet ---------------------------------------------------------------

struct NodeView {
  bool up = false;
  std::uint64_t epoch = 0;
  std::uint16_t data_port = 0;
  bool have_status = false;
  SvcNodeStatus status;
};

class Fleet {
 public:
  Fleet(std::string binary, std::string dir, std::uint64_t seed,
        std::uint64_t run_id)
      : binary_(std::move(binary)),
        dir_(std::move(dir)),
        seed_(seed),
        run_id_(run_id),
        views_(kNodes),
        children_(kNodes),
        reactor_(control_options(seed, run_id),
                 [this](ProcessId peer, std::uint64_t epoch,
                        const WireFrame& f) { on_frame(peer, epoch, f); },
                 [this](ProcessId peer, std::uint64_t epoch, bool up,
                        std::uint16_t port) { on_peer(peer, epoch, up, port); }) {
    std::filesystem::create_directories(dir_);
    port_ = reactor_.listen(0);
    reactor_.start();
  }

  ~Fleet() {
    for (ProcessId p = 0; p < kNodes; ++p) {
      Child& c = children_[static_cast<std::size_t>(p)];
      if (c.running) {
        ::kill(c.pid, SIGKILL);
        ::waitpid(c.pid, nullptr, 0);
      }
    }
    reactor_.stop();
  }

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  const std::string& dir() const { return dir_; }
  std::uint64_t run_id() const { return run_id_; }

  void launch(ProcessId p, std::uint64_t epoch) {
    auto arg = [](const char* k, auto v) {
      std::ostringstream os;
      os << k << v;
      return os.str();
    };
    const std::vector<std::string> argv = {
        binary_,
        arg("--id=", p),
        arg("--n=", kNodes),
        arg("--epoch=", epoch),
        arg("--run-id=", run_id_),
        arg("--supervisor-port=", port_),
        arg("--dir=", dir_),
        arg("--seed=", seed_ * 0x9e37u + static_cast<std::uint64_t>(p) * 31 +
                           epoch)};
    std::vector<char*> cargv;
    for (const std::string& s : argv) {
      cargv.push_back(const_cast<char*>(s.c_str()));
    }
    cargv.push_back(nullptr);
    const std::string log =
        dir_ + "/node-" + std::to_string(p) + ".log";
    const pid_t pid = ::fork();
    UDC_CHECK(pid >= 0, "svcbench: fork failed");
    if (pid == 0) {
      const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (fd >= 0) {
        ::dup2(fd, STDOUT_FILENO);
        ::dup2(fd, STDERR_FILENO);
        if (fd > STDERR_FILENO) ::close(fd);
      }
      ::execv(cargv[0], cargv.data());
      _exit(127);
    }
    Child& c = children_[static_cast<std::size_t>(p)];
    c = Child{};
    c.pid = pid;
    c.epoch = epoch;
    c.running = true;
  }

  // SIGKILLs node p and reaps it; returns its CPU time in ms.
  double kill(ProcessId p) {
    Child& c = children_[static_cast<std::size_t>(p)];
    if (!c.running) return 0;
    const double cpu = proc_cpu_ms(c.pid);
    ::kill(c.pid, SIGKILL);
    ::waitpid(c.pid, nullptr, 0);
    c.running = false;
    {
      std::lock_guard<std::mutex> lk(mu_);
      views_[static_cast<std::size_t>(p)].up = false;
    }
    return cpu;
  }

  // Blocks until the port directory changes or `until`.
  void wait(Clock::time_point until) {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait_until(lk, until, [this] { return dir_dirty_; });
  }

  // Re-sends the port directory to nodes and the client if it changed.
  void publish_directory(SvcClient& client) {
    WirePeers peers;
    std::vector<bool> up(kNodes);
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (!dir_dirty_) return;
      dir_dirty_ = false;
      for (ProcessId p = 0; p < kNodes; ++p) {
        const NodeView& v = views_[static_cast<std::size_t>(p)];
        if (v.data_port != 0) peers.ports.push_back({p, v.data_port});
        up[static_cast<std::size_t>(p)] = v.up;
      }
    }
    const auto payload = encode_peers(peers);
    for (ProcessId p = 0; p < kNodes; ++p) {
      if (up[static_cast<std::size_t>(p)]) {
        reactor_.send(p, FrameType::kPeers, payload);
      }
    }
    for (const auto& [p, port] : peers.ports) client.set_node_port(p, port);
  }

  std::vector<NodeView> views() const {
    std::lock_guard<std::mutex> lk(mu_);
    return views_;
  }

  // The leader a majority of live replicas report, or kInvalidProcess.
  ProcessId leader() const {
    std::map<ProcessId, int> votes;
    for (const NodeView& v : views()) {
      if (v.up && v.have_status && v.status.leader != kInvalidProcess) {
        ++votes[v.status.leader];
      }
    }
    for (const auto& [who, n] : votes) {
      if (2 * n > kNodes) return who;
    }
    return kInvalidProcess;
  }

  // Every replica of the current incarnation reports the same applied
  // floor, with nothing unapplied, unsynced or orphaned.
  bool converged() const {
    const std::vector<NodeView> vs = views();
    for (ProcessId p = 0; p < kNodes; ++p) {
      const Child& c = children_[static_cast<std::size_t>(p)];
      const NodeView& v = vs[static_cast<std::size_t>(p)];
      if (!c.running || !v.up || !v.have_status ||
          v.status.epoch != c.epoch || v.status.syncing ||
          v.status.orphans != 0 || v.status.log_size != v.status.applied ||
          v.status.floor != vs[0].status.floor) {
        return false;
      }
    }
    return true;
  }

  // The latest status of every node incarnation seen so far.
  std::vector<SvcNodeStatus> incarnations() const {
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<SvcNodeStatus> out;
    for (const auto& [key, s] : latest_) out.push_back(s);
    return out;
  }

  RuntimeCounters counters() const {
    RuntimeCounters sum;
    for (const SvcNodeStatus& s : incarnations()) {
      sum.merge(perfbench::status_counters(s));
    }
    return sum;
  }

  double cpu_ms(ProcessId p) const {
    const Child& c = children_[static_cast<std::size_t>(p)];
    return c.running ? proc_cpu_ms(c.pid) : 0;
  }

  std::uint64_t epoch(ProcessId p) const {
    return children_[static_cast<std::size_t>(p)].epoch;
  }

  // Reaps nodes that died on their own; true if any ever did.
  bool died_unexpectedly() {
    for (Child& c : children_) {
      if (c.running && ::waitpid(c.pid, nullptr, WNOHANG) == c.pid) {
        c.running = false;
        unexpected_death_ = true;
      }
    }
    return unexpected_death_;
  }

  // kStop to every replica (re-sent every 100 ms) until all have exited;
  // SIGKILL after 5 s.  True iff every replica exited 0.
  bool stop() {
    bool clean = !died_unexpectedly();
    const auto deadline = Clock::now() + Ms(5'000);
    auto next_send = Clock::now();
    for (;;) {
      bool any = false;
      for (ProcessId p = 0; p < kNodes; ++p) {
        Child& c = children_[static_cast<std::size_t>(p)];
        if (!c.running) continue;
        int st = 0;
        if (::waitpid(c.pid, &st, WNOHANG) == c.pid) {
          c.running = false;
          if (!WIFEXITED(st) || WEXITSTATUS(st) != 0) clean = false;
        } else {
          any = true;
          if (Clock::now() >= next_send) {
            reactor_.send(p, FrameType::kStop, {});
          }
        }
      }
      if (!any) break;
      if (Clock::now() >= next_send) next_send = Clock::now() + Ms(100);
      if (Clock::now() >= deadline) {
        for (Child& c : children_) {
          if (!c.running) continue;
          ::kill(c.pid, SIGKILL);
          ::waitpid(c.pid, nullptr, 0);
          c.running = false;
        }
        return false;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    return clean;
  }

 private:
  struct Child {
    pid_t pid = -1;
    std::uint64_t epoch = 0;
    bool running = false;
  };

  static ReactorOptions control_options(std::uint64_t seed,
                                        std::uint64_t run_id) {
    ReactorOptions o;
    o.self = kSupervisorPeer;
    o.n = kNodes;
    o.run_id = run_id;
    o.seed = seed ^ 0x73757065ull;
    return o;
  }

  void on_frame(ProcessId peer, std::uint64_t epoch, const WireFrame& f) {
    if (f.type != FrameType::kSvcStatus || peer < 0 || peer >= kNodes) return;
    auto s = decode_svc_status(f.payload.data(), f.payload.size());
    if (!s || s->id != peer) return;
    std::lock_guard<std::mutex> lk(mu_);
    NodeView& v = views_[static_cast<std::size_t>(peer)];
    v.have_status = true;
    v.status = *s;
    latest_[{peer, epoch}] = *s;
  }

  void on_peer(ProcessId peer, std::uint64_t epoch, bool up,
               std::uint16_t port) {
    if (peer < 0 || peer >= kNodes) return;
    {
      std::lock_guard<std::mutex> lk(mu_);
      NodeView& v = views_[static_cast<std::size_t>(peer)];
      v.up = up;
      if (up) {
        v.epoch = epoch;
        v.data_port = port;
        v.have_status = false;
        dir_dirty_ = true;
      }
    }
    cv_.notify_all();
  }

  const std::string binary_;
  const std::string dir_;
  const std::uint64_t seed_;
  const std::uint64_t run_id_;
  std::uint16_t port_ = 0;
  bool unexpected_death_ = false;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool dir_dirty_ = false;
  std::vector<NodeView> views_;
  std::map<std::pair<ProcessId, std::uint64_t>, SvcNodeStatus> latest_;

  std::vector<Child> children_;
  Reactor reactor_;  // last: its callbacks use every member above
};

// --- the load ----------------------------------------------------------------

struct OpRec {
  std::uint64_t session = 0;
  std::uint64_t seq = 0;  // the client's, known once confirmed
  bool read = false;
  Clock::time_point start;   // due (open loop) or submit (closed loop)
  Clock::time_point submit;
  Clock::time_point confirm;
  bool confirmed = false;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  std::string node_binary;
  std::string run_dir;
  std::string out;
  std::string spans;
};

// What one repetition (one fleet) measured.
struct Rep {
  bool conformant = false;
  std::vector<std::string> violations;
  perfbench::FailedCount failed;
  perfbench::LatencySummary lat;
  double ops_s = 0;
  double verify_s = 0;
  std::uint64_t events = 0;
  double steal_frac = 0;  // CPU steal over the window, a noise indicator
  std::vector<double> unavail_ms;
  std::vector<double> per_second;
  perfbench::JsonOut layer;
};

template <typename Seq>
double percentile_of(const Seq& seq, double p) {
  std::vector<double> v(seq.begin(), seq.end());
  std::sort(v.begin(), v.end());
  return perfbench::nearest_rank(v, p);
}

template <typename Seq>
double median_of(const Seq& seq) {
  return percentile_of(seq, 0.5);
}

class Bench {
 public:
  Bench(const Args& a, Workload w)
      : args_(a),
        w_(std::move(w)),
        origin_(Clock::now()),
        spans_(!a.spans.empty(), origin_) {}

  int run();

 private:
  struct SessionState {
    std::deque<std::size_t> pending;  // op indices, submission order
    int warm_writes_left = 0;
    std::uint64_t writes = 0;
    std::unique_ptr<Rng> rng;
  };

  std::unique_ptr<Fleet> new_fleet(int attempt);
  double setup(Fleet& fleet, int attempt, std::uint64_t parent);
  Rep measure(Fleet& fleet, std::uint64_t parent);
  void submit_op(std::uint64_t session, bool read, std::int32_t reg,
             Clock::time_point start, Clock::time_point ready);
  void submit_next_closed(std::uint64_t session, Clock::time_point ready);
  void on_done(const SvcClientRecord& r);
  void pump(Fleet& fleet, Clock::time_point until);
  static perfbench::RunFiles read_files(const std::string& dir,
                                        double* snapshot_bytes);

  const Args args_;
  const Workload w_;
  const Clock::time_point origin_;
  SpanLog spans_;
  std::unique_ptr<SvcClient> client_;  // one per fleet

  std::mutex mu_;  // guards everything below
  // Deques: growing them never copies (and stalls the reply thread on) the
  // millions of records a lease-read window makes.
  std::deque<OpRec> ops_;
  std::map<std::uint64_t, SessionState> sessions_;
  std::deque<SvcClientRecord> confirmed_;
  bool generating_ = false;      // closed loop resubmits from callbacks
  Clock::time_point window_start_{Clock::time_point::max()};
  Clock::time_point window_end_{Clock::time_point::max()};
  std::vector<double> per_second_;
  std::deque<double> submit_us_;
  std::deque<double> lateness_ms_;
  bool setup_confirmed_ = false;
  std::condition_variable setup_cv_;
};

std::unique_ptr<Fleet> Bench::new_fleet(int attempt) {
  const std::string dir =
      args_.run_dir + "/fleet-" + std::to_string(attempt);
  std::filesystem::remove_all(dir);
  const std::uint64_t run_id =
      (static_cast<std::uint64_t>(::getpid()) << 32) ^
      (args_.seed * 0x100000001b3ull) ^ static_cast<std::uint64_t>(attempt);
  return std::make_unique<Fleet>(args_.node_binary, dir, args_.seed, run_id);
}

// Launches the fleet and a fresh client, and returns the seconds from
// launch to the first confirmed write (negative: budget exceeded).
double Bench::setup(Fleet& fleet, int attempt, std::uint64_t parent) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    ops_.clear();
    sessions_.clear();
    confirmed_.clear();
    per_second_.clear();
    submit_us_.clear();
    lateness_ms_.clear();
    generating_ = false;
    window_start_ = window_end_ = Clock::time_point::max();
    setup_confirmed_ = false;
    sessions_[kSetupSession].rng = std::make_unique<Rng>(args_.seed);
  }
  const auto t0 = Clock::now();
  SvcClientOptions co;
  co.instance = 0;
  co.n = kNodes;
  co.seed = args_.seed * 0x2545F4914F6CDD1Dull +
            static_cast<std::uint64_t>(attempt);
  co.run_id = fleet.run_id();
  client_ = std::make_unique<SvcClient>(
      co, [this](const SvcClientRecord& r, double) { on_done(r); });
  for (ProcessId p = 0; p < kNodes; ++p) fleet.launch(p, 0);
  const auto now = Clock::now();
  submit_op(kSetupSession, /*read=*/false, 0, now, now);
  const auto deadline = t0 + kSetupBudget;
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(mu_);
      setup_cv_.wait_until(lk, std::min(deadline, Clock::now() + kPoll),
                           [this] { return setup_confirmed_; });
      if (setup_confirmed_) break;
    }
    fleet.publish_directory(*client_);
    if (Clock::now() >= deadline || fleet.died_unexpectedly()) return -1;
  }
  const auto t1 = Clock::now();
  spans_.add("setup", parent, t0, t1);
  return std::chrono::duration<double>(t1 - t0).count();
}

// Submits one op.  `start` is where its latency is measured from (due time
// in open loop, submit in closed loop); `ready` is when the generator could
// first have sent it, so submit - ready is the generator's own lateness.
void Bench::submit_op(std::uint64_t session, bool read, std::int32_t reg,
                  Clock::time_point start, Clock::time_point ready) {
  std::int64_t value = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    SessionState& s = sessions_[session];
    OpRec op;
    op.session = session;
    op.read = read;
    op.start = start;
    op.submit = Clock::now();
    if (!read) {
      value = static_cast<std::int64_t>(session) * 1'000'000'000 +
              static_cast<std::int64_t>(++s.writes);
    }
    lateness_ms_.push_back(ms_between(ready, op.submit));
    s.pending.push_back(ops_.size());
    ops_.push_back(op);
  }
  const auto t = Clock::now();
  if (read) {
    client_->read(session, reg);
  } else {
    client_->write(session, reg, value);
  }
  const double us = ms_between(t, Clock::now()) * 1000.0;
  std::lock_guard<std::mutex> lk(mu_);
  submit_us_.push_back(us);
}

// Closed loop: the session's next op, chosen by its own seeded stream so a
// seed fixes every session's op sequence.
void Bench::submit_next_closed(std::uint64_t session, Clock::time_point ready) {
  bool read = false;
  std::int32_t reg = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    SessionState& s = sessions_[session];
    if (s.warm_writes_left > 0) {
      // lease-read warm-up: session k writes registers 2k-2 and 2k-1.
      reg = static_cast<std::int32_t>(2 * (session - 1) + 2 -
                                      static_cast<std::uint64_t>(
                                          s.warm_writes_left));
      --s.warm_writes_left;
    } else {
      read = s.rng->chance(w_.read_fraction);
      reg = static_cast<std::int32_t>(s.rng->next_below(kRegisters));
    }
  }
  submit_op(session, read, reg, Clock::now(), ready);
}

// Runs on the client's reply thread, once per confirmed op.
void Bench::on_done(const SvcClientRecord& r) {
  const auto now = Clock::now();
  bool resubmit = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    confirmed_.push_back(r);
    // SvcClient completes each session's ops in submission order.
    SessionState& s = sessions_[r.session];
    if (!s.pending.empty()) {
      OpRec& op = ops_[s.pending.front()];
      s.pending.pop_front();
      op.seq = r.seq;
      op.confirm = now;
      op.confirmed = true;
    }
    if (now >= window_start_ && now < window_end_) {
      const auto i = static_cast<std::size_t>(
          std::chrono::duration<double>(now - window_start_).count());
      if (i < per_second_.size()) per_second_[i] += 1;
    }
    if (r.session == kSetupSession) {
      setup_confirmed_ = true;
    } else {
      resubmit = generating_ && !w_.open_loop && now < window_end_;
    }
  }
  if (r.session == kSetupSession) setup_cv_.notify_all();
  if (resubmit) submit_next_closed(r.session, now);
}

// Control-plane upkeep while the load runs: port directory pushes, waking
// at least every kPoll.
void Bench::pump(Fleet& fleet, Clock::time_point until) {
  fleet.wait(std::min(until, Clock::now() + kPoll));
  fleet.publish_directory(*client_);
}

perfbench::RunFiles Bench::read_files(const std::string& dir,
                                      double* snapshot_bytes) {
  perfbench::RunFiles f;
  f.n = kNodes;
  *snapshot_bytes = 0;
  for (ProcessId p = 0; p < kNodes; ++p) {
    ProcessStore shard(dir, p, mp_store_options(), {});
    f.shards.push_back(shard.recover());
    std::error_code ec;
    const auto bytes = std::filesystem::file_size(shard.snapshot_path(), ec);
    if (!ec) *snapshot_bytes += static_cast<double>(bytes);
    f.svclogs.push_back(
        SvcDurableLog::read(dir + "/svc-" + std::to_string(p) + ".log"));
  }
  return f;
}

// Warm-up, window, drain, stop and verify on a fleet that has just been
// set up.
Rep Bench::measure(Fleet& F, std::uint64_t parent) {
  SvcClient& C = *client_;
  Rep rep;
  const auto warm_start = Clock::now();
  const auto window_start = warm_start + kWarmup;
  const auto window_end = window_start + std::chrono::seconds(args_.seconds);
  {
    std::lock_guard<std::mutex> lk(mu_);
    window_start_ = window_start;
    window_end_ = window_end;
    per_second_.assign(static_cast<std::size_t>(args_.seconds), 0.0);
    for (int k = 1; k <= w_.sessions; ++k) {
      SessionState& s = sessions_[static_cast<std::uint64_t>(k)];
      s.rng = std::make_unique<Rng>(args_.seed * 1000003ull +
                                    static_cast<std::uint64_t>(k));
      s.warm_writes_left = w_.warm_writes ? kRegisters / w_.sessions : 0;
    }
    generating_ = true;
  }
  const std::uint64_t warm_span = spans_.begin("warmup", parent);
  double lo_bytes0 = 0;
  std::pair<double, double> steal0;
  RuntimeCounters c0;
  std::vector<double> cpu0(kNodes, 0), cpu_window(kNodes, 0);
  std::uint64_t window_span = 0;
  bool window_open = false;
  auto open_window = [&] {
    window_open = true;
    spans_.end(warm_span);
    window_span = spans_.begin("window", parent);
    lo_bytes0 = loopback_bytes();
    steal0 = cpu_steal();
    c0 = F.counters();
    for (ProcessId p = 0; p < kNodes; ++p) {
      cpu0[static_cast<std::size_t>(p)] = F.cpu_ms(p);
    }
  };

  // Leader kills: SIGKILL the majority-view leader at fixed points of the
  // window, relaunch it at epoch+1 on the same disk kRelaunchAfter later,
  // and time its catch-up to the leader's applied floor.
  struct Kill {
    Clock::time_point due;
    Clock::time_point at{}, relaunched{}, caught_up{};
    ProcessId victim = kInvalidProcess;
    bool done = false, relaunch_done = false, caught = false;
  };
  std::vector<Kill> kills;
  for (double f : w_.kills) {
    Kill k;
    k.due = window_start +
            std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(f * args_.seconds));
    kills.push_back(k);
  }
  auto chaos = [&](Clock::time_point now) {
    for (Kill& k : kills) {
      if (!k.done && now >= k.due) {
        const ProcessId target = F.leader();
        if (target == kInvalidProcess) continue;  // still electing: retry
        k.victim = target;
        k.at = Clock::now();
        cpu_window[static_cast<std::size_t>(target)] +=
            F.kill(target) - cpu0[static_cast<std::size_t>(target)];
        cpu0[static_cast<std::size_t>(target)] = 0;
        k.done = true;
      }
      if (k.done && !k.relaunch_done && now >= k.at + kRelaunchAfter) {
        F.launch(k.victim, F.epoch(k.victim) + 1);
        k.relaunched = Clock::now();
        k.relaunch_done = true;
      }
      if (k.relaunch_done && !k.caught) {
        const ProcessId lead = F.leader();
        const auto vs = F.views();
        const NodeView& v = vs[static_cast<std::size_t>(k.victim)];
        // The relaunched replica may be leader again (lowest unsuspected
        // id): then it is caught up once its sync is done.
        if (lead != kInvalidProcess && v.have_status &&
            v.status.epoch == F.epoch(k.victim) && !v.status.syncing &&
            v.status.floor >=
                vs[static_cast<std::size_t>(lead)].status.floor) {
          k.caught_up = Clock::now();
          k.caught = true;
          const auto ks = spans_.add("kill", window_span, k.at, k.caught_up);
          spans_.add("kill.down", ks, k.at, k.relaunched);
          spans_.add("kill.catchup", ks, k.relaunched, k.caught_up);
        }
      }
    }
  };

  std::string over_budget;  // empty while the fleet is within budget
  if (w_.open_loop) {
    const auto sched = open_schedule(
        w_, args_.seed,
        std::chrono::duration_cast<std::chrono::microseconds>(window_end -
                                                              warm_start)
            .count());
    std::size_t next = 0;
    while (next < sched.size()) {
      const auto now = Clock::now();
      if (!window_open && now >= window_start) open_window();
      chaos(now);
      const auto due =
          warm_start + std::chrono::microseconds(sched[next].at_us);
      if (due > now) {
        F.wait(std::min(due, now + kPoll));
        F.publish_directory(C);
        continue;
      }
      while (next < sched.size() &&
             warm_start + std::chrono::microseconds(sched[next].at_us) <=
                 Clock::now()) {
        const Arrival& a = sched[next++];
        const auto at = warm_start + std::chrono::microseconds(a.at_us);
        submit_op(a.session, a.read, a.reg, at, at);
      }
      if (F.died_unexpectedly()) {
        over_budget = "a replica died during the load";
        break;
      }
    }
  } else {
    for (int k = 1; k <= w_.sessions; ++k) {
      submit_next_closed(static_cast<std::uint64_t>(k), Clock::now());
    }
    while (Clock::now() < window_end) {
      if (!window_open && Clock::now() >= window_start) open_window();
      pump(F, window_open ? window_end : window_start);
      if (F.died_unexpectedly()) {
        over_budget = "a replica died during the load";
        break;
      }
    }
  }
  if (!window_open) open_window();
  {
    std::lock_guard<std::mutex> lk(mu_);
    generating_ = false;
  }
  const double lo_bytes1 = loopback_bytes();
  const std::pair<double, double> steal1 = cpu_steal();
  rep.steal_frac = (steal1.second - steal0.second) > 0
                       ? (steal1.first - steal0.first) /
                             (steal1.second - steal0.second)
                       : 0;
  const RuntimeCounters c1 = F.counters();
  for (ProcessId p = 0; p < kNodes; ++p) {
    cpu_window[static_cast<std::size_t>(p)] +=
        F.cpu_ms(p) - cpu0[static_cast<std::size_t>(p)];
  }
  const ProcessId leader_at_end = F.leader();
  spans_.end(window_span);

  // --- drain: every op completes, every replica converges -------------------
  const std::uint64_t drain_span = spans_.begin("drain", parent);
  const auto drain_deadline = Clock::now() + kDrainBudget;
  while (over_budget.empty()) {
    chaos(Clock::now());
    int uncaught = 0;
    for (const Kill& k : kills) uncaught += k.caught ? 0 : 1;
    const std::size_t inflight = C.inflight();
    if (inflight == 0 && uncaught == 0) break;
    if (F.died_unexpectedly()) {
      over_budget = "a replica died during the drain";
    } else if (Clock::now() >= drain_deadline) {
      over_budget = "drain: " + std::to_string(inflight) +
                    " ops unconfirmed and " + std::to_string(uncaught) +
                    " relaunched replicas not caught up after " +
                    std::to_string(kDrainBudget.count()) + " ms";
    }
    pump(F, drain_deadline);
  }
  const auto converge_deadline = Clock::now() + kConvergeBudget;
  while (over_budget.empty() && !F.converged()) {
    if (F.died_unexpectedly()) {
      over_budget = "a replica died during the drain";
    } else if (Clock::now() >= converge_deadline) {
      over_budget = "replicas did not converge within " +
                    std::to_string(kConvergeBudget.count()) + " ms";
    }
    pump(F, converge_deadline);
  }
  spans_.end(drain_span);
  const std::vector<SvcNodeStatus> incarnations = F.incarnations();
  const SvcClientStats cstats = C.stats();

  // --- stop + verify ---------------------------------------------------------
  const auto t_stop = Clock::now();
  const std::uint64_t verify_span = spans_.begin("verify", parent);
  C.stop();
  const bool clean = F.stop();
  spans_.add("stop", verify_span, t_stop, Clock::now());
  const auto t_merge = Clock::now();
  double snapshot_bytes = 0;
  const perfbench::RunFiles files = read_files(F.dir(), &snapshot_bytes);
  spans_.add("merge", verify_span, t_merge, Clock::now());
  std::vector<SvcClientRecord> confirmed;
  {
    std::lock_guard<std::mutex> lk(mu_);
    confirmed.assign(confirmed_.begin(), confirmed_.end());
  }
  const auto t_judge = Clock::now();
  const perfbench::Verdict verdict =
      perfbench::judge(files, confirmed, clean, over_budget.empty());
  const auto t_verdict = Clock::now();
  {
    auto at = [&](double s) {
      return t_judge + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(s));
    };
    const double a = verdict.lift_s, b = a + verdict.check_nudc_s,
                 c = b + verdict.sessions_s, d = c + verdict.log_agreement_s;
    spans_.add("lift", verify_span, t_judge, at(a));
    spans_.add("check_nudc", verify_span, at(a), at(b));
    spans_.add("check_sessions", verify_span, at(b), at(c));
    spans_.add("check_log_agreement", verify_span, at(c), at(d));
  }
  spans_.end(verify_span);
  rep.verify_s = std::chrono::duration<double>(t_verdict - t_stop).count();
  rep.conformant = verdict.conformant;
  rep.violations = verdict.violations;
  if (!over_budget.empty()) rep.violations.push_back(over_budget);
  rep.events = verdict.events;

  // --- accounting ------------------------------------------------------------
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<double> attempts;  // latency per op attempted, -1: never
  std::vector<double> lat;
  std::uint64_t total_confirmed = 0;
  for (const OpRec& op : ops_) {
    if (op.confirmed) ++total_confirmed;
    if (op.session == kSetupSession || op.start < window_start ||
        op.start >= window_end) {
      continue;
    }
    if (op.confirmed) {
      lat.push_back(ms_between(op.start, op.confirm));
      attempts.push_back(lat.back());
    } else {
      attempts.push_back(-1);
    }
  }
  rep.failed =
      perfbench::count_failed(attempts, w_.limit_ms, verdict.conformant);
  rep.lat = perfbench::summarize(lat);
  rep.per_second = per_second_;
  double window_ops = 0;
  for (double c : per_second_) window_ops += c;
  rep.ops_s = window_ops / args_.seconds;

  std::vector<double> catchup;
  for (const Kill& k : kills) {
    if (!k.done) continue;
    // Time from the kill to the first confirmed write due after it.
    double first = -1;
    for (const OpRec& op : ops_) {
      if (!op.read && op.confirmed && op.start >= k.at &&
          (first < 0 || ms_between(k.at, op.confirm) < first)) {
        first = ms_between(k.at, op.confirm);
      }
    }
    if (first >= 0) rep.unavail_ms.push_back(first);
    if (k.caught) catchup.push_back(ms_between(k.relaunched, k.caught_up));
  }

  const double kops = std::max(window_ops, 1.0) / 1000.0;
  const double ops_all = std::max(static_cast<double>(total_confirmed), 1.0);
  const perfbench::NodeRatios nr =
      perfbench::node_ratios(incarnations, total_confirmed);
  double follower_cpu = 0;
  int followers = 0;
  for (ProcessId p = 0; p < kNodes; ++p) {
    if (p == leader_at_end) continue;
    follower_cpu += cpu_window[static_cast<std::size_t>(p)];
    ++followers;
  }
  std::uint64_t log_slots_end = 0;
  for (const SvcNodeStatus& s : incarnations) {
    log_slots_end = std::max(log_slots_end, s.log_size);
  }
  const double n_window = std::max(window_ops, 1.0);
  const std::size_t tenth = std::max<std::size_t>(1, per_second_.size() / 10);
  auto rate_over = [&](std::size_t from) {
    double sum = 0;
    for (std::size_t i = from; i < from + tenth && i < per_second_.size();
         ++i) {
      sum += per_second_[i];
    }
    return sum / static_cast<double>(tenth);
  };

  perfbench::JsonOut& L = rep.layer;
  L.num("client.resends_per_op", cstats.resends / ops_all);
  L.num("client.redirects_per_op", cstats.redirects / ops_all);
  L.num("client.retry_later_per_op", cstats.retry_later / ops_all);
  L.num("client.out_of_order_per_op", cstats.out_of_order / ops_all);
  L.num("client.submit_us", median_of(submit_us_));
  L.num("gen.lateness_p99_ms", percentile_of(lateness_ms_, 0.99));
  L.num("svc.node.ops_per_batch", nr.ops_per_batch);
  L.num("svc.node.retry_later_per_op", nr.retry_later_per_op);
  L.num("svc.node.redirects_per_op", nr.redirects_per_op);
  L.num("svc.node.lease_denied_frac", nr.lease_denied_frac);
  L.num("svc.node.ooo_commit_frac", nr.ooo_commit_frac);
  L.num("svc.node.elections", static_cast<double>(nr.elections));
  L.num("svc.node.sync_rounds", static_cast<double>(nr.sync_rounds));
  L.num("svc.node.adoptions", static_cast<double>(nr.adoptions));
  L.num("svc.node.catchup_ms", catchup.empty() ? 0 : median_of(catchup));
  L.num("svc.node.leader_cpu_ms_per_kop",
        leader_at_end == kInvalidProcess
            ? 0
            : cpu_window[static_cast<std::size_t>(leader_at_end)] / kops);
  L.num("svc.node.follower_cpu_ms_per_kop",
        followers == 0 ? 0 : follower_cpu / followers / kops);
  L.num("svc.node.log_slots_end", static_cast<double>(log_slots_end));
  L.num("svc.session.dups_suppressed",
        static_cast<double>(nr.dups_suppressed));
  L.num("net.frames_per_op",
        static_cast<double>(c1.frames_tx - c0.frames_tx) / n_window);
  L.num("net.bytes_per_op", (lo_bytes1 - lo_bytes0) / n_window);
  L.num("store.group_commits_per_op",
        static_cast<double>(c1.wal_group_commits - c0.wal_group_commits) /
            n_window);
  L.num("store.snapshot_bytes_per_event",
        snapshot_bytes /
            std::max(1.0, static_cast<double>(verdict.events)));
  L.num("fd.suspicions", static_cast<double>(nr.suspicions));
  L.num("fd.false_suspicions", static_cast<double>(nr.false_suspicions));
  L.num("event.lift_s", verdict.lift_s);
  L.num("coord.check_nudc_s", verdict.check_nudc_s);
  L.num("svc.checker.sessions_s", verdict.sessions_s);
  L.num("svc.checker.log_agreement_s", verdict.log_agreement_s);
  L.num("window.ops_s.early", rate_over(0));
  L.num("window.ops_s.late", rate_over(per_second_.size() - tenth));

  // Per-op spans: the op (start -> confirm); in open loop a child for the
  // wait from due to submit.  At most about kOpSpans ops per fleet, evenly
  // strided, so a lease-read trace stays a few megabytes.
  if (spans_.enabled()) {
    const std::size_t stride =
        std::max<std::size_t>(1, (total_confirmed + kOpSpans - 1) / kOpSpans);
    std::size_t nth = 0;
    for (const OpRec& op : ops_) {
      if (!op.confirmed || nth++ % stride != 0) continue;
      const std::string key =
          std::to_string(op.session) + ":" + std::to_string(op.seq);
      const std::uint64_t id = spans_.add(op.read ? "op.read" : "op.write",
                                          window_span, op.start, op.confirm,
                                          key);
      if (w_.open_loop) {
        spans_.add("op.due_to_submit", id, op.start, op.submit, key);
      }
    }
  }
  return rep;
}

int Bench::run() {
  std::filesystem::create_directories(args_.run_dir);
  const double fdatasync_us = perfbench::measure_fdatasync_us(args_.run_dir, 64);

  // Measured fleets until kReps of them ran with the CPUs quiet; a
  // non-conformant fleet ends the run.
  std::vector<double> setup_s;
  std::vector<Rep> reps;
  std::string last_dir;
  int quiet = 0;
  auto want_fleet = [&] {
    const int measured = static_cast<int>(reps.size());
    if (measured > 0 && !reps.back().conformant) return false;
    return quiet < kReps &&
           (measured < kReps || (measured < kReps + kSpareReps &&
                                 Clock::now() - origin_ < kSpareUntil));
  };
  for (int i = 0; want_fleet(); ++i) {
    const std::uint64_t span = spans_.begin("rep");
    // Write back what earlier fleets left in the page cache, so their
    // writeback does not run inside this fleet's window.
    ::sync();
    std::unique_ptr<Fleet> fleet = new_fleet(i);
    const double s = setup(*fleet, i, span);
    if (s < 0) {
      std::fprintf(stderr,
                   "svcbench: fleet %d confirmed no write within %lld ms\n", i,
                   static_cast<long long>(kSetupBudget.count()));
      return 1;
    }
    setup_s.push_back(s);
    reps.push_back(measure(*fleet, span));
    if (reps.back().steal_frac <= kQuietSteal) ++quiet;
    client_.reset();
    const std::string dir = fleet->dir();
    fleet.reset();
    spans_.end(span);
    // The last fleet's disk stays for the per-layer replay.
    if (!last_dir.empty()) std::filesystem::remove_all(last_dir);
    last_dir = dir;
  }

  // Every measured fleet is judged: failures are summed over all of them,
  // and the run is conformant only if each one is.  Timings are medians
  // over the kReps quietest fleets: a window with CPU steal measured the
  // host, not the service.
  bool conformant = true;
  std::vector<std::string> violations;
  perfbench::FailedCount failed;
  std::vector<double> steal_all;
  for (const Rep& r : reps) {
    conformant &= r.conformant;
    violations.insert(violations.end(), r.violations.begin(),
                      r.violations.end());
    failed.attempted += r.failed.attempted;
    failed.failed += r.failed.failed;
    steal_all.push_back(r.steal_frac);
  }
  std::vector<const Rep*> chosen;
  for (const Rep& r : reps) chosen.push_back(&r);
  std::stable_sort(chosen.begin(), chosen.end(), [](const Rep* a, const Rep* b) {
    return a->steal_frac < b->steal_frac;
  });
  chosen.resize(std::min<std::size_t>(chosen.size(),
                                      static_cast<std::size_t>(kReps)));
  std::vector<double> ops_s, p50, p99, top, verify_s, unavail, per_second;
  std::size_t samples = 0;
  double top_p = 1;
  std::uint64_t events = 0;
  for (const Rep* r : chosen) {
    ops_s.push_back(r->ops_s);
    p50.push_back(r->lat.p50_ms);
    p99.push_back(r->lat.p99_ms);
    top.push_back(r->lat.top_ms);
    top_p = std::min(top_p, r->lat.top_p);
    samples += r->lat.count;
    verify_s.push_back(r->verify_s);
    unavail.insert(unavail.end(), r->unavail_ms.begin(), r->unavail_ms.end());
    per_second.insert(per_second.end(), r->per_second.begin(),
                      r->per_second.end());
    events += r->events;
  }

  // No number of a non-conformant run counts: only failed_frac is kept.
  perfbench::JsonOut e2e;
  e2e.num("failed_frac", failed.frac());
  if (conformant) {
    e2e.num("ops_s", median_of(ops_s));
    e2e.num("lat_p50_ms", median_of(p50));
    e2e.num("lat_p99_ms", median_of(p99));
    if (!w_.kills.empty()) {
      const bool all = unavail.size() == w_.kills.size() * chosen.size();
      e2e.num("unavail_ms", all ? median_of(unavail) : -1);
    }
    e2e.num("setup_s", median_of(setup_s));
    e2e.num("verify_s", median_of(verify_s));
    if (top_p >= 0.999) e2e.num("lat_p999_ms", median_of(top));
  }

  perfbench::JsonOut out;
  out.str("workload", w_.name);
  out.integer("seed", static_cast<std::int64_t>(args_.seed));
  out.integer("seconds", args_.seconds);
  out.integer("reps", kReps);
  out.boolean("conformant", conformant);
  out.strs("violations", violations);
  out.integer("attempted", static_cast<std::int64_t>(failed.attempted));
  out.integer("failed", static_cast<std::int64_t>(failed.failed));
  out.integer("lat_samples", static_cast<std::int64_t>(samples));
  out.num("lat_top_p", top_p);
  out.integer("events", static_cast<std::int64_t>(events));
  out.nums("setup_s_all", setup_s);
  out.nums("ops_s_reps", ops_s);
  out.nums("cpu_steal_frac_all", steal_all);
  out.integer("fleets_measured", static_cast<std::int64_t>(reps.size()));
  out.nums("unavail_ms_all", unavail);
  out.nums("confirm_per_s", per_second);
  out.num("fdatasync_us", fdatasync_us);
  out.integer("client_threads", 2);
  out.integer("client_connections", kNodes);
  out.str("run_dir", last_dir);
  out.integer("origin_ns",
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  origin_.time_since_epoch())
                  .count());
  out.object("end_to_end", e2e);
  // Per-layer counts and ratios: the last repetition, whose disk the
  // replay reads.
  out.object("layer", reps.back().layer);

  if (spans_.enabled() && !spans_.write_jsonl(args_.spans)) {
    std::fprintf(stderr, "svcbench: cannot write %s\n", args_.spans.c_str());
    return 1;
  }
  if (!out.write(args_.out)) {
    std::fprintf(stderr, "svcbench: cannot write %s\n", args_.out.c_str());
    return 1;
  }
  for (const std::string& v : violations) {
    std::fprintf(stderr, "svcbench: violation: %s\n", v.c_str());
  }
  return 0;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "svcbench: %s\nusage: svcbench --workload=<steady-write|"
               "lease-read|leader-kill> --seed=<n> --seconds=<n> "
               "--node-binary=<path> --run-dir=<dir> --out=<file> "
               "[--spans=<file>]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  ::signal(SIGPIPE, SIG_IGN);
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      usage(("bad argument: " + arg).c_str());
    }
    const std::string k = arg.substr(2, eq - 2), v = arg.substr(eq + 1);
    try {
      if (k == "workload") {
        a.workload = v;
      } else if (k == "seed") {
        a.seed = std::stoull(v);
      } else if (k == "seconds") {
        a.seconds = std::stoi(v);
      } else if (k == "node-binary") {
        a.node_binary = v;
      } else if (k == "run-dir") {
        a.run_dir = v;
      } else if (k == "out") {
        a.out = v;
      } else if (k == "spans") {
        a.spans = v;
      } else {
        usage(("unknown flag: " + arg).c_str());
      }
    } catch (const std::exception&) {
      usage(("bad value: " + arg).c_str());
    }
  }
  const auto w = workload_named(a.workload);
  if (!w) usage("unknown workload");
  if (a.seconds < 1 || a.node_binary.empty() ||
      a.run_dir.empty() || a.out.empty()) {
    usage("missing or bad arguments");
  }
  try {
    Bench b(a, *w);
    return b.run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "svcbench: %s\n", e.what());
    return 1;
  }
}
