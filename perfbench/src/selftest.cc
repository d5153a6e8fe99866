// Self-tests for the benchmark's own logic, on fixed inputs: the
// percentile rule, failed-op accounting, per-op ratios derived from a
// status frame, and the correctness gate.  Exit 0 iff every check holds.
//
//   svcbench_selftest
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "account.h"
#include "udc/coord/action.h"
#include "udc/event/event.h"
#include "udc/rt/remote/node.h"
#include "udc/svc/node.h"

namespace {

using namespace udc;

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void percentile_rule() {
  // 1..1000 ms: p99 has exactly 10 samples beyond it, p99.9 only 1.
  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);
  const perfbench::LatencySummary s = perfbench::summarize(v);
  expect(s.count == 1000, "summary counts every sample");
  expect(near(s.p50_ms, 500) && near(s.p99_ms, 990),
         "nearest-rank p50 and p99 of 1..1000");
  expect(near(s.top_p, 0.99) && near(s.top_ms, 990),
         "1000 samples support p99 but not p99.9");
  expect(perfbench::samples_beyond(1000, 0.99) == 10 &&
             perfbench::samples_beyond(1000, 0.999) == 1,
         "samples beyond p99 / p99.9 of 1000");

  v.clear();
  for (int i = 1; i <= 10000; ++i) v.push_back(i);
  const perfbench::LatencySummary t = perfbench::summarize(v);
  expect(near(t.top_p, 0.999) && near(t.top_ms, 9990),
         "10000 samples support p99.9 (10 beyond) but not p99.99");

  const perfbench::LatencySummary few = perfbench::summarize({3, 1, 2});
  expect(few.top_p == 0 && near(few.p50_ms, 2),
         "3 samples support no tail percentile");
}

void failed_accounting() {
  // 1000 ms is the limit: at the limit passes, above it or never
  // confirmed (-1) fails.
  const std::vector<double> a = {1, 999, 1000, 1000.5, -1};
  const perfbench::FailedCount c = perfbench::count_failed(a, 1000, true);
  expect(c.attempted == 5 && c.failed == 2 && near(c.frac(), 0.4),
         "unconfirmed and over-limit ops fail, at-limit ops do not");
  const perfbench::FailedCount bad = perfbench::count_failed(a, 1000, false);
  expect(bad.failed == 5 && near(bad.frac(), 1.0),
         "every op of a non-conformant run fails");
  expect(perfbench::count_failed({}, 1000, true).frac() == 0,
         "no attempts, no failures");
}

void derived_ratios() {
  RuntimeCounters rc;
  rc.svc_admitted = 600;
  rc.svc_batches_sealed = 40;
  rc.svc_retry_later = 30;
  rc.svc_redirects = 12;
  rc.svc_lease_reads = 90;
  rc.svc_lease_denied = 10;
  rc.svc_ooo_commits = 5;
  rc.svc_elections = 1;
  rc.svc_sync_rounds = 3;
  rc.svc_adoptions = 2;
  rc.svc_dups_suppressed = 4;
  rc.suspicions = 7;
  rc.false_suspicions = 6;
  SvcNodeStatus s;
  s.id = 0;
  s.applied = 50;
  s.counters = pack_node_counters(rc);
  const auto svc = pack_svc_counters(rc);
  s.counters.insert(s.counters.end(), svc.begin(), svc.end());
  // Round-trip through the status codec, as the supervisor receives it.
  const auto bytes = encode_svc_status(s);
  const auto got = decode_svc_status(bytes.data(), bytes.size());
  expect(got.has_value(), "status frame decodes");
  const perfbench::NodeRatios r = perfbench::node_ratios({*got}, 600);
  expect(near(r.ops_per_batch, 15), "ops per batch = admitted / sealed");
  expect(near(r.retry_later_per_op, 0.05) && near(r.redirects_per_op, 0.02),
         "retry-later and redirects per confirmed op");
  expect(near(r.lease_denied_frac, 0.1), "lease denials / lease reads");
  expect(near(r.ooo_commit_frac, 0.1), "out-of-order applies / applies");
  expect(r.elections == 1 && r.sync_rounds == 3 && r.adoptions == 2 &&
             r.suspicions == 7 && r.false_suspicions == 6 &&
             r.dups_suppressed == 4,
         "counts pass through");
  const perfbench::NodeRatios two = perfbench::node_ratios({*got, *got}, 600);
  expect(near(two.ops_per_batch, 15) && two.elections == 2 &&
             near(two.redirects_per_op, 0.04),
         "incarnations sum before dividing");
}

// Three replicas; one write (session 1, seq 1) is confirmed to the client.
// Node 0 initiates and performs its batch, node 1 performs it; node 2 does
// or does not.
perfbench::RunFiles one_write(bool node2_applies) {
  const ActionId a = make_action(0, 0);
  SvcBatch b;
  b.slot = 1;
  b.term = 1;
  b.action = a;
  SvcOp op;
  op.session = 1;
  op.seq = 1;
  op.kind = SvcOpKind::kWrite;
  op.reg = 3;
  op.value = 7;
  b.ops.push_back(op);
  perfbench::RunFiles f;
  f.n = 3;
  f.shards.resize(3);
  f.svclogs.assign(3, {b});
  f.shards[0].push_back({1, Event::init(a)});
  f.shards[0].push_back({2, Event::do_action(a)});
  f.shards[1].push_back({3, Event::do_action(a)});
  if (node2_applies) f.shards[2].push_back({4, Event::do_action(a)});
  return f;
}

void correctness_gate() {
  SvcClientRecord w;
  w.session = 1;
  w.seq = 1;
  w.kind = SvcOpKind::kWrite;
  w.reg = 3;
  w.value = 7;
  w.version = 1;
  const perfbench::Verdict good =
      perfbench::judge(one_write(true), {w}, true, true);
  for (const std::string& v : good.violations) std::printf("      %s\n", v.c_str());
  expect(good.conformant && good.violations.empty(),
         "a write applied at every replica passes the gate");

  const perfbench::Verdict bad =
      perfbench::judge(one_write(false), {w}, true, true);
  bool sessions_flagged = false;
  for (const std::string& v : bad.violations) {
    if (v.rfind("check_sessions:", 0) == 0) sessions_flagged = true;
  }
  expect(!bad.conformant && sessions_flagged,
         "a confirmed write missing at one replica fails the gate");

  expect(!perfbench::judge(one_write(true), {w}, true, false).conformant,
         "an over-budget run fails the gate");
  expect(!perfbench::judge(one_write(true), {w}, false, true).conformant,
         "an unclean exit fails the gate");
}

}  // namespace

int main() {
  percentile_rule();
  failed_accounting();
  derived_ratios();
  correctness_gate();
  std::printf("%s: %d failure(s)\n", failures ? "FAILED" : "passed", failures);
  return failures ? 1 : 0;
}
