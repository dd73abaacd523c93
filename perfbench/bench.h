// Shared pieces of the end-to-end XQB benchmark (README.md in this
// directory): run arguments, the result report, output checking, span
// recording and the per-layer accumulators every workload fills.
#ifndef XQB_PERFBENCH_BENCH_H_
#define XQB_PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "base/exec_stats.h"
#include "base/trace.h"
#include "core/engine.h"
#include "xdm/item.h"

namespace xqb::bench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Directory for durability dirs and the Chrome trace (created).
  std::string out_dir = ".bench_build/out";
};

/// One reported metric: name, value as measured, unit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Collects output-check failures from any thread. The first message is
/// kept for the report; every failure makes the run incorrect.
class Checker {
 public:
  void Expect(bool ok, const std::string& what);
  void ExpectEq(const std::string& got, const std::string& want,
                const std::string& what);
  bool ok() const;
  std::string first_failure() const;

 private:
  mutable std::mutex mu_;
  int64_t failures_ = 0;
  std::string first_;
};

/// Keeps the digest of each query's first execution in the run; every
/// later execution must produce the same digest.
class DigestBook {
 public:
  void Check(const std::string& key, const std::string& output,
             Checker* checker);

 private:
  std::mutex mu_;
  std::vector<std::pair<std::string, uint64_t>> first_;
};

uint64_t Fnv1a(const std::string& text);

/// Latency samples and outcome counts of one closed-loop window.
struct Window {
  /// The latencies of one request kind (a query name).
  struct Kind {
    bool effectful = false;
    std::vector<double> ms;
  };

  double seconds = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<double> latency_ms;  ///< Every successful request.
  std::vector<double> done_s;      ///< Completion times in the window.
  std::map<std::string, Kind> kinds;

  /// Records one successful request that completed at `done` seconds.
  void Record(const std::string& kind, bool effectful, double ms,
              double done);
  void Merge(const Window& other);
  /// Median over the window's full kSliceSeconds slices of the rate of
  /// completed requests; the whole-window rate if no slice is full.
  double throughput_rps() const;
  /// Mean over the successful requests (only the effectful ones if
  /// `writes_only`) of the median latency of the request's kind; 0 if
  /// there are none. Each kind's median ignores its stalls, and the
  /// mean moves smoothly where a median over a mix of kinds with
  /// distinct costs jumps from one kind's latency to another's.
  double KindMedianMean(bool writes_only) const;
  /// Requests behind KindMedianMean(writes_only).
  size_t KindSamples(bool writes_only) const;
};

inline constexpr double kSliceSeconds = 1.0;

/// Sums of the engine's ExecStats over the requests of a traced window.
/// The Δ-apply fields sum effectful requests only.
struct LayerTotals {
  int64_t runs = 0;
  int64_t effectful_runs = 0;
  int64_t guard_steps = 0;
  int64_t eval_ns = 0;
  int64_t compile_ns = 0;
  int64_t rewrite_ns = 0;
  int64_t used_algebra = 0;
  int64_t group_joins = 0;
  int64_t snap_apply_ns = 0;
  int64_t updates_applied = 0;
  int64_t snaps_applied = 0;
  int64_t parallel_regions = 0;
  int64_t pool_jobs = 0;
  int64_t pool_busy_ns = 0;
  int64_t pool_idle_ns = 0;
  int64_t serialize_ns = 0;
  int64_t serializations = 0;
  std::vector<double> queue_wait_ms;  ///< Service requests only.

  void Add(const ExecStats& stats, bool effectful);
  void Merge(const LayerTotals& other);
};

/// Layer probes run from outside the engine (probes.cc). The effects
/// probe times EffectAnalysis::AnalyzeProgram plus the body summary.
struct FrontendProbe {
  double parse_us = 0;
  double normalize_us = 0;
  double static_check_us = 0;
  double effects_us = 0;
};
FrontendProbe ProbeFrontend(const std::vector<std::string>& queries,
                            const std::set<std::string>& variables,
                            Tracer* tracer, Checker* checker);

/// Median ns per item of SortDocOrderDedup over seeded shuffles of
/// `sequences` (each must already be in document order, as path
/// queries return them; the sorted shuffle is checked against it).
double ProbeSortNsPerItem(const Store& store,
                          const std::vector<Sequence>& sequences,
                          uint64_t seed, Tracer* tracer, Checker* checker);

/// Median µs of Engine::Serialize over `results`.
double ProbeSerializeUs(const Engine& engine,
                        const std::vector<Sequence>& results,
                        Tracer* tracer);

/// Host-speed reference (README.md, "Steadiness"): a fixed kernel that
/// runs no XQB code, sorting a copy of 16Ki seeded random integers,
/// timed at points where no request is in flight. On a shared host the
/// engine and this kernel slow down and speed up together (branchy,
/// cache-bound code both), so the gated timings are scaled by its
/// median to a host on which it takes kHostReferenceNs.
class HostProbe {
 public:
  HostProbe();
  /// Runs and times the kernel once.
  void Sample();
  /// Adds the samples of a probe run on another thread.
  void Merge(const HostProbe& other);
  double median_ns() const;
  size_t samples() const { return ns_.size(); }

 private:
  std::vector<uint32_t> source_;
  std::vector<uint32_t> scratch_;
  std::vector<double> ns_;
  uint64_t sink_ = 0;
};

inline constexpr double kHostReferenceNs = 1e6;

/// Everything a workload measured, handed to the reporter.
struct WorkloadOutcome {
  Window untraced;
  Window traced;  ///< Empty unless --trace 1.
  HostProbe host;
  bool has_writes = false;
  std::vector<double> setup_s;  ///< One entry per repeated set-up.
  LayerTotals layers;
  FrontendProbe frontend;
  double sort_ns_per_item = 0;
  double serialize_us = 0;
  double parse_mb_per_s = 0;
  int64_t live_nodes = 0;
  // Service and store layers (service_mixed only; 0 elsewhere).
  double cache_hit_frac = 0;
  int64_t cache_evictions = 0;
  int64_t exclusive_runs = 0;
  int64_t wal_appends = 0;
  double wal_bytes_per_update = 0;
  double fsync_p50_us = 0;
  /// Per-program share of traced time (xmark_update), name -> share.
  std::vector<std::pair<std::string, double>> program_share;
};

/// The workloads (workloads.cc). Each runs its set-ups, its measured
/// window(s) and, for --trace 1, its probes. `tracer` is non-null only
/// for --trace 1; it then records the set-up calls, the traced window
/// and the probes, never the untraced window.
WorkloadOutcome RunXMarkRead(const Args& args, Tracer* tracer,
                             Checker* checker);
WorkloadOutcome RunXMarkUpdate(const Args& args, Tracer* tracer,
                               Checker* checker);
WorkloadOutcome RunServiceMixed(const Args& args, Tracer* tracer,
                                Checker* checker);

/// Percentile (0..100) by linear interpolation; 0 for no samples.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

/// Seconds elapsed since `start_ns` (a MonotonicNowNs sample).
inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(MonotonicNowNs() - start_ns) / 1e9;
}

}  // namespace xqb::bench

#endif  // XQB_PERFBENCH_BENCH_H_
