// svcreplay — per-layer timings of one finished service-benchmark run,
// taken by replaying the run's captured traffic in-process through each
// layer's public functions.
//
//   svcreplay --run-dir=<fleet dir> --scratch=<dir> --out=<layers.json>
//             [--spans=<spans.jsonl>] [--origin-ns=<n>]
//
// Inputs are what the run left on disk: the batches of every service log
// (SvcDurableLog::read) and the events of every WAL shard
// (ProcessStore::recover).  Log and store timings are taken while the
// replayed log is in its first tenth (.early) and its last tenth (.late) of
// the run's length, so cost that grows with the log shows as late > early.
// Nothing here touches the run's own files except recover(), which the run
// already performed during verification (it is idempotent).
//
// --origin-ns is the steady-clock origin of the run's own spans, so both
// span logs share one timeline.
#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "account.h"
#include "trace.h"
#include "udc/common/check.h"
#include "udc/net/reactor.h"
#include "udc/net/wire.h"
#include "udc/rt/remote/node.h"
#include "udc/store/process_store.h"
#include "udc/svc/log.h"
#include "udc/svc/session.h"
#include "udc/svc/svclog.h"
#include "udc/svc/wire.h"

namespace {

using namespace udc;
using perfbench::SpanLog;
using Clock = std::chrono::steady_clock;

constexpr int kNodes = 3;
constexpr std::size_t kSamplesPerTenth = 200;

double us_since(Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t).count();
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return perfbench::nearest_rank(v, 0.5);
}

// Indices of up to `k` evenly spaced samples in [from, to).
std::set<std::size_t> spaced(std::size_t from, std::size_t to, std::size_t k) {
  std::set<std::size_t> out;
  if (to <= from) return out;
  const std::size_t n = to - from;
  for (std::size_t i = 0; i < std::min(n, k); ++i) {
    out.insert(from + i * n / std::min(n, k));
  }
  return out;
}

struct Replay {
  SpanLog& spans;
  std::uint64_t root = 0;
  perfbench::JsonOut out;

  // Times `f` as one replayed call and records its span.
  template <typename F>
  double timed(const char* name, F&& f) {
    const auto t = Clock::now();
    f();
    const double us = us_since(t);
    spans.add(name, root, t, Clock::now());
    return us;
  }
};

// ReplicatedLog: the leader's per-slot path — accept, acks, commit — with
// ready(), learn_floor() and uncommitted() timed at sampled slots in the
// first and last tenth of the log.
void replay_log(Replay& r, const std::vector<SvcBatch>& batches) {
  const std::size_t n = batches.size();
  const std::size_t tenth = std::max<std::size_t>(1, n / 10);
  const auto early = spaced(0, std::min(n, tenth), kSamplesPerTenth);
  const auto late = spaced(n > tenth ? n - tenth : 0, n, kSamplesPerTenth);
  ReplicatedLog log;
  double accept_us = 0;
  std::vector<double> ready[2], floor[2], uncommitted[2];
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    const SvcBatch& b = batches[i];
    auto t = Clock::now();
    log.accept(b);
    accept_us += us_since(t);
    for (ProcessId p = 0; p < kNodes; ++p) log.ack(b.slot, p);
    log.mark_committed(b.slot);
    const int which = early.count(i) ? 0 : late.count(i) ? 1 : -1;
    if (which < 0) {
      log.mark_applied(b.slot);
      continue;
    }
    std::vector<std::uint64_t> ready_slots;
    ready[which].push_back(
        r.timed(which == 0 ? "replay.svc.log.ready.early"
                           : "replay.svc.log.ready.late",
                [&] { ready_slots = log.ready(); }));
    for (std::uint64_t s : ready_slots) log.mark_applied(s);
    floor[which].push_back(
        r.timed(which == 0 ? "replay.svc.log.learn_floor.early"
                           : "replay.svc.log.learn_floor.late",
                [&] { log.learn_floor(b.slot, b.term); }));
    std::size_t open = 0;
    uncommitted[which].push_back(
        r.timed(which == 0 ? "replay.svc.log.uncommitted.early"
                           : "replay.svc.log.uncommitted.late",
                [&] { open = log.uncommitted().size(); }));
    (void)open;
  }
  r.spans.add("replay.svc.log.accept", r.root, t0, Clock::now());
  r.out.num("svc.log.accept_us",
            n == 0 ? 0 : accept_us / static_cast<double>(n));
  r.out.num("svc.log.ready_us.early", mean(ready[0]));
  r.out.num("svc.log.ready_us.late", mean(ready[1]));
  r.out.num("svc.log.learn_floor_us.early", mean(floor[0]));
  r.out.num("svc.log.learn_floor_us.late", mean(floor[1]));
  r.out.num("svc.log.uncommitted_us.early", mean(uncommitted[0]));
  r.out.num("svc.log.uncommitted_us.late", mean(uncommitted[1]));
  r.out.num("svc.log.replayed_slots", static_cast<double>(n));
}

// SessionTable: every write of the applied sequence through the dedup
// check and record.
void replay_sessions(Replay& r, const std::vector<SvcBatch>& batches) {
  SessionTable table;
  std::size_t ops = 0;
  const auto t = Clock::now();
  for (const SvcBatch& b : batches) {
    for (const SvcOp& op : b.ops) {
      if (op.kind != SvcOpKind::kWrite) continue;
      ++ops;
      if (table.applied(op.session, op.seq)) continue;
      if (op.seq == table.expected(op.session)) {
        table.record(op.session, op.seq, SvcResult{op.value, op.seq});
      }
    }
  }
  const double us = us_since(t);
  r.spans.add("replay.svc.session.record", r.root, t, Clock::now());
  r.out.num("svc.session.record_us",
            ops == 0 ? 0 : us / static_cast<double>(ops));
}

// Wire codecs: propose envelopes per batch, request + reply per op.
void replay_wire(Replay& r, const std::vector<SvcBatch>& batches) {
  const std::size_t nb = std::min<std::size_t>(batches.size(), 4000);
  auto t = Clock::now();
  for (std::size_t i = 0; i < nb; ++i) {
    SvcPropose p;
    p.term = batches[i].term;
    p.clock = static_cast<Time>(i);
    p.batch = batches[i];
    const auto bytes = encode_svc_propose(p);
    UDC_CHECK(decode_svc_propose(bytes.data(), bytes.size()).has_value(),
              "svcreplay: propose does not round-trip");
  }
  double us = us_since(t);
  r.spans.add("replay.svc.wire.propose", r.root, t, Clock::now());
  r.out.num("svc.wire.propose_codec_us",
            nb == 0 ? 0 : us / static_cast<double>(nb));

  std::size_t ops = 0;
  t = Clock::now();
  for (const SvcBatch& b : batches) {
    for (const SvcOp& op : b.ops) {
      if (ops >= 40000) break;
      ++ops;
      SvcRequest rq;
      rq.op = op;
      const auto a = encode_svc_request(rq);
      UDC_CHECK(decode_svc_request(a.data(), a.size()).has_value(),
                "svcreplay: request does not round-trip");
      SvcReply rp;
      rp.session = op.session;
      rp.seq = op.seq;
      rp.value = op.value;
      rp.version = op.seq;
      const auto c = encode_svc_reply(rp);
      UDC_CHECK(decode_svc_reply(c.data(), c.size()).has_value(),
                "svcreplay: reply does not round-trip");
    }
  }
  us = us_since(t);
  r.spans.add("replay.svc.wire.request_reply", r.root, t, Clock::now());
  r.out.num("svc.wire.request_reply_codec_us",
            ops == 0 ? 0 : us / static_cast<double>(ops));
}

// SvcDurableLog: durable appends (each ends in fdatasync) of the run's
// first batches into a scratch log.
void replay_svclog(Replay& r, const std::vector<SvcBatch>& batches,
                   const std::string& scratch) {
  const std::string path = scratch + "/replay-svc.log";
  std::filesystem::remove(path);
  std::vector<double> us;
  {
    SvcDurableLog log(path);
    for (std::size_t i = 0; i < std::min<std::size_t>(batches.size(), 200);
         ++i) {
      us.push_back(r.timed("replay.svc.svclog.append",
                           [&] { log.append(batches[i]); }));
    }
  }
  std::filesystem::remove(path);
  r.out.num("svc.svclog.append_us", median(us));
}

// ProcessStore: the largest shard's events appended into a fresh store
// with the nodes' options (group commit, staged segments, snapshot
// rotation); append timed per event, flush() every 64 events and at the
// end.
void replay_store(Replay& r, const std::vector<StoreRecord>& events,
                  const std::string& scratch) {
  const std::string dir = scratch + "/replay-store";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::size_t n = events.size();
  const std::size_t tenth = std::max<std::size_t>(1, n / 10);
  std::vector<double> early, late, flush;
  {
    ProcessStore store(dir, 0, mp_store_options(), {});
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      const auto t = Clock::now();
      store.append(events[i].t, events[i].e);
      const double us = us_since(t);
      if (i < tenth) early.push_back(us);
      if (i + tenth >= n) late.push_back(us);
      if (i % 64 == 63) {
        flush.push_back(r.timed("replay.store.flush", [&] { store.flush(); }));
      }
    }
    r.spans.add("replay.store.append", r.root, t0, Clock::now());
    flush.push_back(r.timed("replay.store.flush", [&] { store.flush(); }));
  }
  std::filesystem::remove_all(dir);
  r.out.num("store.append_us.early", mean(early));
  r.out.num("store.append_us.late", mean(late));
  r.out.num("store.flush_us", median(flush));
  r.out.num("store.replayed_events", static_cast<double>(n));
}

// Two in-process Reactors over loopback: round trip of a request-sized
// frame, echoed by the far side.
void replay_reactor(Replay& r) {
  std::mutex mu;
  std::condition_variable cv;
  std::uint64_t echoes = 0;
  ReactorOptions ao;
  ao.self = 0;
  ao.n = 2;
  ao.run_id = 0x72747470ull;
  ReactorOptions bo = ao;
  bo.self = 1;
  std::unique_ptr<Reactor> a;
  a = std::make_unique<Reactor>(
      ao,
      [&](ProcessId peer, std::uint64_t, const WireFrame& f) {
        a->send(peer, FrameType::kSvcReply, f.payload);
      },
      [](ProcessId, std::uint64_t, bool, std::uint16_t) {});
  Reactor b(
      bo,
      [&](ProcessId, std::uint64_t, const WireFrame&) {
        {
          std::lock_guard<std::mutex> lk(mu);
          ++echoes;
        }
        cv.notify_all();
      },
      [](ProcessId, std::uint64_t, bool, std::uint16_t) {});
  const std::uint16_t port = a->listen(0);
  a->start();
  b.start();
  b.set_endpoint(0, port);
  const auto ready_by = Clock::now() + std::chrono::seconds(5);
  while (!b.peer_established(0) && Clock::now() < ready_by) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  SvcRequest rq;
  rq.op.session = 7;
  rq.op.seq = 1;
  rq.op.value = 42;
  const auto payload = encode_svc_request(rq);
  std::vector<double> rtt;
  for (int i = 0; i < 2100 && b.peer_established(0); ++i) {
    std::unique_lock<std::mutex> lk(mu);
    const std::uint64_t want = echoes + 1;
    lk.unlock();
    const auto t = Clock::now();
    b.send(0, FrameType::kSvcRequest, payload);
    lk.lock();
    if (!cv.wait_for(lk, std::chrono::seconds(1),
                     [&] { return echoes >= want; })) {
      break;
    }
    lk.unlock();
    const double us = us_since(t);
    if (i >= 100) {  // the first round trips warm the path
      rtt.push_back(us);
      r.spans.add("replay.net.reactor_rtt", r.root, t, Clock::now());
    }
  }
  b.stop();
  a->stop();
  r.out.num("net.reactor_rtt_us", median(rtt));
}

}  // namespace

int main(int argc, char** argv) {
  std::string run_dir, scratch, out_path, spans_path;
  std::int64_t origin_ns = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    const std::string k = arg.substr(0, eq == std::string::npos ? 0 : eq);
    const std::string v = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (k == "--run-dir") {
      run_dir = v;
    } else if (k == "--scratch") {
      scratch = v;
    } else if (k == "--out") {
      out_path = v;
    } else if (k == "--spans") {
      spans_path = v;
    } else if (k == "--origin-ns") {
      origin_ns = std::stoll(v);
    } else {
      std::fprintf(stderr, "svcreplay: unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  if (run_dir.empty() || scratch.empty() || out_path.empty() ||
      !std::filesystem::is_directory(run_dir)) {
    std::fprintf(stderr,
                 "usage: svcreplay --run-dir=<dir> --scratch=<dir> "
                 "--out=<file> [--spans=<file>] [--origin-ns=<n>]\n");
    return 2;
  }
  try {
    std::filesystem::create_directories(scratch);
    const Clock::time_point origin =
        origin_ns >= 0 ? Clock::time_point(std::chrono::nanoseconds(origin_ns))
                       : Clock::now();
    SpanLog spans(!spans_path.empty(), origin, std::uint64_t{1} << 40);
    Replay r{spans, 0, {}};
    r.root = spans.begin("replay");

    // Service logs: read time, and records per distinct batch.
    std::vector<std::vector<SvcBatch>> slogs;
    std::size_t records = 0, distinct = 0;
    auto t = Clock::now();
    for (int p = 0; p < kNodes; ++p) {
      slogs.push_back(SvcDurableLog::read(run_dir + "/svc-" +
                                          std::to_string(p) + ".log"));
    }
    r.out.num("svc.svclog.recover_s", us_since(t) / 1e6);
    spans.add("replay.svc.svclog.read", r.root, t, Clock::now());
    for (const auto& log : slogs) {
      std::set<ActionId> actions;
      for (const SvcBatch& b : log) actions.insert(b.action);
      records += log.size();
      distinct += actions.size();
    }
    r.out.num("svc.svclog.records_per_batch",
              distinct == 0 ? 0
                            : static_cast<double>(records) /
                                  static_cast<double>(distinct));

    // WAL shards: recovery time.
    std::vector<std::vector<StoreRecord>> shards;
    t = Clock::now();
    for (ProcessId p = 0; p < kNodes; ++p) {
      ProcessStore store(run_dir, p, mp_store_options(), {});
      shards.push_back(store.recover());
    }
    r.out.num("store.recover_s", us_since(t) / 1e6);
    spans.add("replay.store.recover", r.root, t, Clock::now());

    // The longest service log, last record per action, in slot order: the
    // log as the cluster committed it.
    std::size_t longest = 0;
    for (std::size_t p = 1; p < slogs.size(); ++p) {
      if (slogs[p].size() > slogs[longest].size()) longest = p;
    }
    std::map<ActionId, SvcBatch> last;
    for (const SvcBatch& b : slogs[longest]) last[b.action] = b;
    std::map<std::uint64_t, SvcBatch> by_slot;
    for (const auto& [a, b] : last) by_slot[b.slot] = b;
    std::vector<SvcBatch> batches;
    for (const auto& [s, b] : by_slot) batches.push_back(b);

    std::size_t biggest = 0;
    for (std::size_t p = 1; p < shards.size(); ++p) {
      if (shards[p].size() > shards[biggest].size()) biggest = p;
    }

    replay_log(r, batches);
    replay_sessions(r, batches);
    replay_wire(r, batches);
    replay_svclog(r, batches, scratch);
    replay_store(r, shards[biggest], scratch);
    double fdatasync_us = 0;
    r.timed("replay.store.fdatasync", [&] {
      fdatasync_us = perfbench::measure_fdatasync_us(scratch, 64);
    });
    r.out.num("store.fdatasync_us", fdatasync_us);
    replay_reactor(r);
    spans.end(r.root);

    if (!spans_path.empty() && !spans.write_jsonl(spans_path)) {
      std::fprintf(stderr, "svcreplay: cannot write %s\n", spans_path.c_str());
      return 1;
    }
    if (!r.out.write(out_path)) {
      std::fprintf(stderr, "svcreplay: cannot write %s\n", out_path.c_str());
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "svcreplay: %s\n", e.what());
    return 1;
  }
}
