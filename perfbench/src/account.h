// Accounting shared by the service benchmark and its self-tests: the
// percentile rule, failed-op accounting, per-op ratios derived from node
// status frames, and the correctness gate every run must pass before any
// of its numbers count.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "udc/coord/metrics.h"
#include "udc/store/codec.h"
#include "udc/svc/checker.h"
#include "udc/svc/wire.h"

namespace perfbench {

// A tail percentile is reported only if at least this many samples lie
// beyond it.
inline constexpr std::size_t kTailSamples = 10;

// Nearest-rank percentile (p in (0, 1]) of an ascending sample.
double nearest_rank(const std::vector<double>& sorted, double p);

// Samples strictly beyond the nearest-rank p-th percentile of n samples.
std::size_t samples_beyond(std::size_t n, double p);

struct LatencySummary {
  std::size_t count = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  // The highest of p99, p99.9 and p99.99 with kTailSamples samples beyond
  // it; top_p == 0 when not even p99 qualifies.
  double top_p = 0;
  double top_ms = 0;
};

LatencySummary summarize(std::vector<double> samples_ms);

// Median of `rounds` 4 KiB write + fdatasync rounds on a probe file in
// `dir`, in microseconds (0 if the probe cannot be written).
double measure_fdatasync_us(const std::string& dir, int rounds);

struct FailedCount {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double frac() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

// `latencies_ms` has one entry per op attempted in the measured window,
// negative for an op never confirmed.  An op fails if it was never
// confirmed or took longer than `limit_ms`.  Every op of a run that is not
// conformant (or ran over its budget) fails.
FailedCount count_failed(const std::vector<double>& latencies_ms,
                         double limit_ms, bool conformant);

// Counters of one node incarnation, unpacked from its last status frame.
udc::RuntimeCounters status_counters(const udc::SvcNodeStatus& s);

// Per-op service-node ratios over a set of node incarnations, against the
// `ops` the clients confirmed over the same span.
struct NodeRatios {
  double ops_per_batch = 0;       // admitted ops / sealed batches
  double retry_later_per_op = 0;  // kRetryLater replies / confirmed op
  double redirects_per_op = 0;    // kNotLeader replies / confirmed op
  double lease_denied_frac = 0;   // denied / (served + denied) lease reads
  double ooo_commit_frac = 0;     // out-of-slot-order applies / applies
  std::uint64_t elections = 0;
  std::uint64_t sync_rounds = 0;
  std::uint64_t adoptions = 0;
  std::uint64_t suspicions = 0;
  std::uint64_t false_suspicions = 0;
  std::uint64_t dups_suppressed = 0;
};

NodeRatios node_ratios(const std::vector<udc::SvcNodeStatus>& incarnations,
                       std::uint64_t ops);

// Ground truth of one run, as the disks left it: per node the WAL shard's
// records and the service log's batches.
struct RunFiles {
  int n = 0;
  std::vector<std::vector<udc::StoreRecord>> shards;
  std::vector<std::vector<udc::SvcBatch>> svclogs;
};

struct Verdict {
  bool conformant = false;
  std::vector<std::string> violations;
  std::uint64_t events = 0;
  // Seconds spent in each verification stage.
  double lift_s = 0;
  double check_nudc_s = 0;
  double sessions_s = 0;
  double log_agreement_s = 0;
};

// Lifts the shards into one model Run and runs the unchanged checkers:
// check_nudc (DC1-DC3), check_sessions and check_log_agreement.  A run
// that exited uncleanly or overran its budget is never conformant.
Verdict judge(const RunFiles& files,
              const std::vector<udc::SvcClientRecord>& confirmed,
              bool clean_exits, bool in_budget);

}  // namespace perfbench
