#include "account.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <map>
#include <optional>
#include <set>

#include "udc/common/check.h"
#include "udc/consensus/spec.h"
#include "udc/coord/spec.h"
#include "udc/event/run.h"
#include "udc/rt/remote/node.h"
#include "udc/svc/node.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

std::size_t samples_beyond(std::size_t n, double p) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(n) - 1e-9));
  return n - std::min(n, rank);
}

double nearest_rank(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(sorted.size()) - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

double measure_fdatasync_us(const std::string& dir, int rounds) {
  const std::string path = dir + "/fdatasync.probe";
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return 0;
  const std::vector<char> block(4096, 'x');
  std::vector<double> us;
  for (int i = 0; i < rounds; ++i) {
    const auto t = Clock::now();
    if (::write(fd, block.data(), block.size()) < 0) break;
    ::fdatasync(fd);
    us.push_back(seconds_since(t) * 1e6);
  }
  ::close(fd);
  std::filesystem::remove(path);
  std::sort(us.begin(), us.end());
  return nearest_rank(us, 0.5);
}

LatencySummary summarize(std::vector<double> samples_ms) {
  LatencySummary s;
  s.count = samples_ms.size();
  if (samples_ms.empty()) return s;
  std::sort(samples_ms.begin(), samples_ms.end());
  s.p50_ms = nearest_rank(samples_ms, 0.50);
  s.p99_ms = nearest_rank(samples_ms, 0.99);
  for (double p : {0.99, 0.999, 0.9999}) {
    if (samples_beyond(s.count, p) >= kTailSamples) {
      s.top_p = p;
      s.top_ms = nearest_rank(samples_ms, p);
    }
  }
  return s;
}

FailedCount count_failed(const std::vector<double>& latencies_ms,
                         double limit_ms, bool conformant) {
  FailedCount c;
  c.attempted = latencies_ms.size();
  if (!conformant) {
    c.failed = c.attempted;
    return c;
  }
  for (double ms : latencies_ms) {
    if (ms < 0 || ms > limit_ms) ++c.failed;
  }
  return c;
}

udc::RuntimeCounters status_counters(const udc::SvcNodeStatus& s) {
  udc::RuntimeCounters rc = udc::unpack_node_counters(s.counters);
  udc::unpack_svc_counters(s.counters, udc::kNodeCounterSlots, &rc);
  return rc;
}

NodeRatios node_ratios(const std::vector<udc::SvcNodeStatus>& incarnations,
                       std::uint64_t ops) {
  udc::RuntimeCounters sum;
  std::uint64_t applied = 0;
  for (const udc::SvcNodeStatus& s : incarnations) {
    sum.merge(status_counters(s));
    applied += s.applied;
  }
  NodeRatios r;
  r.ops_per_batch = ratio(sum.svc_admitted, sum.svc_batches_sealed);
  r.retry_later_per_op = ratio(sum.svc_retry_later, ops);
  r.redirects_per_op = ratio(sum.svc_redirects, ops);
  r.lease_denied_frac =
      ratio(sum.svc_lease_denied, sum.svc_lease_reads + sum.svc_lease_denied);
  r.ooo_commit_frac = ratio(sum.svc_ooo_commits, applied);
  r.elections = sum.svc_elections;
  r.sync_rounds = sum.svc_sync_rounds;
  r.adoptions = sum.svc_adoptions;
  r.suspicions = sum.suspicions;
  r.false_suspicions = sum.false_suspicions;
  r.dups_suppressed = sum.svc_dups_suppressed;
  return r;
}

Verdict judge(const RunFiles& files,
              const std::vector<udc::SvcClientRecord>& confirmed,
              bool clean_exits, bool in_budget) {
  using namespace udc;
  Verdict v;
  const int n = files.n;
  UDC_CHECK(n >= 1 && static_cast<int>(files.shards.size()) == n &&
                static_cast<int>(files.svclogs.size()) == n,
            "perfbench: run files do not match the fleet size");

  // Lift: the shards merged in tick order are the run.
  auto t = Clock::now();
  struct Merged {
    Time tick;
    ProcessId p;
    std::size_t idx;
    const Event* e;
  };
  std::vector<Merged> merged;
  std::set<ActionId> initiated;
  std::vector<std::vector<ActionId>> do_order(static_cast<std::size_t>(n));
  for (ProcessId p = 0; p < n; ++p) {
    const auto& shard = files.shards[static_cast<std::size_t>(p)];
    for (std::size_t i = 0; i < shard.size(); ++i) {
      const StoreRecord& r = shard[i];
      merged.push_back({r.t, p, i, &r.e});
      if (r.e.kind == EventKind::kInit) initiated.insert(r.e.action);
      if (r.e.kind == EventKind::kDo) {
        do_order[static_cast<std::size_t>(p)].push_back(r.e.action);
      }
    }
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const Merged& a, const Merged& b) {
                     if (a.tick != b.tick) return a.tick < b.tick;
                     if (a.p != b.p) return a.p < b.p;
                     return a.idx < b.idx;
                   });
  std::optional<Run> run;
  try {
    Run::Builder b(n);
    for (const Merged& m : merged) {
      b.append(m.p, *m.e);
      b.end_step();
    }
    run = std::move(b).build();
  } catch (const InvariantViolation& e) {
    v.violations.push_back(std::string("lift: ") + e.what());
  }
  v.events = merged.size();
  v.lift_s = seconds_since(t);

  t = Clock::now();
  bool nudc_ok = false;
  if (run) {
    const std::vector<ActionId> actions(initiated.begin(), initiated.end());
    const CoordReport coord = check_nudc(*run, actions, /*grace=*/0);
    nudc_ok = coord.achieved();
    for (const std::string& s : coord.violations) {
      v.violations.push_back("check_nudc: " + s);
    }
  }
  v.check_nudc_s = seconds_since(t);

  // Replica apply sequences: durable kDo order joined to the service logs
  // (last record per action wins, as in recovery).
  t = Clock::now();
  std::vector<std::vector<SvcBatch>> applied(static_cast<std::size_t>(n));
  std::vector<std::vector<std::pair<std::uint64_t, ActionId>>> slots(
      static_cast<std::size_t>(n));
  bool join_ok = true;
  for (ProcessId p = 0; p < n; ++p) {
    std::map<ActionId, const SvcBatch*> by_action;
    for (const SvcBatch& b : files.svclogs[static_cast<std::size_t>(p)]) {
      by_action[b.action] = &b;
    }
    for (ActionId a : do_order[static_cast<std::size_t>(p)]) {
      auto it = by_action.find(a);
      if (it == by_action.end()) {
        join_ok = false;
        continue;
      }
      applied[static_cast<std::size_t>(p)].push_back(*it->second);
      slots[static_cast<std::size_t>(p)].push_back({it->second->slot, a});
    }
  }
  const SvcSessionReport sessions = check_sessions(applied, confirmed);
  for (const std::string& s : sessions.violations) {
    v.violations.push_back("check_sessions: " + s);
  }
  if (!join_ok) {
    v.violations.push_back(
        "check_sessions: durable kDo with no service-log record");
  }
  v.sessions_s = seconds_since(t);

  t = Clock::now();
  const LogAgreementReport agreement = check_log_agreement(slots);
  for (const std::string& s : agreement.violations) {
    v.violations.push_back("check_log_agreement: " + s);
  }
  v.log_agreement_s = seconds_since(t);

  if (!clean_exits) v.violations.push_back("a replica exited uncleanly");
  if (!in_budget) v.violations.push_back("run overran its budget");
  v.conformant = nudc_ok && sessions.achieved() && join_ok &&
                 agreement.achieved() && clean_exits && in_budget;
  return v;
}

}  // namespace perfbench
