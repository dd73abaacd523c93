// End-to-end XQB benchmark binary. Usage:
//
//   xqb_perfbench --workload <xmark_read|xmark_update|service_mixed>
//                 --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Prints a run-context line, a human-readable table and, as the last
// line, one JSON object {"correct", "attempted", "failed", "metrics"}:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1 (which also writes a Chrome trace into --out-dir). Exits 1
// when an output check fails, 2 on bad usage or a non-NDEBUG build.
#include <malloc.h>
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.h"

namespace xqb::bench {
namespace {

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

/// Keeps freed memory in the process. By default glibc gives large
/// blocks and the heap's free top back to the kernel, so each read round
/// after a garbage collection faulted its pages in again (~150k minor
/// faults/s, a quarter of the run in the kernel); on a shared VM the
/// cost of a fault varies with the host, and xmark_read's throughput
/// spread 0.18 of its median over six seeds against 0.06 without them.
bool KeepFreedMemory() {
  return mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 &&
         mallopt(M_TRIM_THRESHOLD, 1 << 30) == 1;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// The gated timings as measured, before HostSlowdown.
struct RawTimings {
  double throughput_rps;
  double latency_ms;
  double write_ms;
  double setup_s;
};

RawTimings Raw(const WorkloadOutcome& o) {
  const Window& w = o.untraced;
  const double latency = w.KindMedianMean(/*writes_only=*/false);
  // A read-only workload has no effectful requests: its write figure
  // falls back to the all-kinds one (README.md).
  return {w.throughput_rps(), latency,
          o.has_writes ? w.KindMedianMean(true) : latency,
          Median(o.setup_s)};
}

/// How many times slower than the reference the host ran during the
/// run: gated times are divided by it and rates multiplied (README.md,
/// "Steadiness").
double HostSlowdown(const WorkloadOutcome& o) {
  return o.host.median_ns() / kHostReferenceNs;
}

std::vector<Metric> EndToEndMetrics(const WorkloadOutcome& o) {
  const Window& w = o.untraced;
  const RawTimings raw = Raw(o);
  const double slowdown = HostSlowdown(o);
  return {
      {"throughput_rps", raw.throughput_rps * slowdown, "1/s"},
      {"latency_ms", raw.latency_ms / slowdown, "ms"},
      {"write_latency_ms", raw.write_ms / slowdown, "ms"},
      {"setup_s", raw.setup_s / slowdown, "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"ok_frac",
       Ratio(static_cast<double>(w.attempted - w.failed),
             static_cast<double>(w.attempted)),
       "ratio"},
  };
}

std::vector<Metric> PerLayerMetrics(const WorkloadOutcome& o) {
  const LayerTotals& l = o.layers;
  const double runs = static_cast<double>(l.runs);
  const double writes = static_cast<double>(l.effectful_runs);
  const double traced_rps = o.traced.throughput_rps();
  return {
      {"xdm.sort_ns_per_item", o.sort_ns_per_item, "ns"},
      {"core.guard_steps", Ratio(l.guard_steps, runs), "count/req"},
      {"core.eval_ms", Ratio(l.eval_ns / 1e6, runs), "ms"},
      {"algebra.compile_us", Ratio(l.compile_ns / 1e3, runs), "us"},
      {"algebra.rewrite_us", Ratio(l.rewrite_ns / 1e3, runs), "us"},
      {"algebra.used_frac", Ratio(l.used_algebra, runs), "ratio"},
      {"algebra.group_joins", Ratio(l.group_joins, runs), "count/req"},
      {"core.snap_apply_ms", Ratio(l.snap_apply_ns / 1e6, writes), "ms"},
      {"core.apply_us_per_update",
       Ratio(l.snap_apply_ns / 1e3, static_cast<double>(l.updates_applied)),
       "us"},
      {"core.updates_applied", Ratio(l.updates_applied, writes),
       "count/req"},
      {"core.snaps_applied", Ratio(l.snaps_applied, writes), "count/req"},
      {"core.parallel_regions", Ratio(l.parallel_regions, runs),
       "count/req"},
      {"core.pool_jobs", Ratio(l.pool_jobs, runs), "count/req"},
      {"core.pool_idle_frac",
       Ratio(l.pool_idle_ns, static_cast<double>(l.pool_busy_ns) +
                                 static_cast<double>(l.pool_idle_ns)),
       "ratio"},
      {"frontend.parse_us", o.frontend.parse_us, "us"},
      {"core.normalize_us", o.frontend.normalize_us, "us"},
      {"core.static_check_us", o.frontend.static_check_us, "us"},
      {"analysis.effects_us", o.frontend.effects_us, "us"},
      {"service.cache_hit_frac", o.cache_hit_frac, "ratio"},
      {"service.cache_evictions", static_cast<double>(o.cache_evictions),
       "count"},
      {"service.queue_wait_p50_ms", Percentile(l.queue_wait_ms, 50), "ms"},
      {"service.queue_wait_p99_ms", Percentile(l.queue_wait_ms, 99), "ms"},
      {"service.exclusive_runs", static_cast<double>(o.exclusive_runs),
       "count"},
      {"store.wal_appends", static_cast<double>(o.wal_appends), "count"},
      {"store.wal_bytes_per_update", o.wal_bytes_per_update, "B"},
      {"store.fsync_p50_us", o.fsync_p50_us, "us"},
      {"xml.parse_mb_per_s", o.parse_mb_per_s, "MB/s"},
      {"xml.serialize_us", o.serialize_us, "us"},
      {"xdm.live_nodes", static_cast<double>(o.live_nodes), "count"},
      {"client.latency_p99_ms", Percentile(o.untraced.latency_ms, 99), "ms"},
      {"client.trace_overhead_frac",
       1.0 - Ratio(traced_rps, o.untraced.throughput_rps()), "ratio"},
  };
}

void PrintWindow(const char* label, const Window& w) {
  std::printf(
      "# %s window: %.3f s, %lld attempted, %lld failed, %.1f req/s; "
      "all requests p50 %.3f ms p99 %.3f ms (n=%zu); mean of %zu "
      "kind medians, request-weighted %.3f ms (n=%zu), writes %.3f ms (n=%zu)\n",
      label, w.seconds, static_cast<long long>(w.attempted),
      static_cast<long long>(w.failed), w.throughput_rps(),
      Median(w.latency_ms), Percentile(w.latency_ms, 99),
      w.latency_ms.size(), w.kinds.size(), w.KindMedianMean(false),
      w.KindSamples(false), w.KindMedianMean(true), w.KindSamples(true));
  for (const auto& [name, kind] : w.kinds) {
    std::printf("#   %-20s %s p50 %.4f ms (n=%zu)\n", name.c_str(),
                kind.effectful ? "write" : "read ", Median(kind.ms),
                kind.ms.size());
  }
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: xqb_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--out-dir <dir>]\n");
    return 2;
  }
#ifndef NDEBUG
  std::fprintf(stderr,
               "xqb_perfbench: refusing to report from a build without "
               "NDEBUG (configure with -DCMAKE_BUILD_TYPE=Release)\n");
  return 2;
#endif
  WorkloadOutcome (*run)(const Args&, Tracer*, Checker*) = nullptr;
  if (args.workload == "xmark_read") run = RunXMarkRead;
  if (args.workload == "xmark_update") run = RunXMarkUpdate;
  if (args.workload == "service_mixed") run = RunServiceMixed;
  if (run == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  if (!KeepFreedMemory()) {
    std::fprintf(stderr, "xqb_perfbench: mallopt failed\n");
    return 2;
  }
  std::filesystem::create_directories(args.out_dir);

  std::printf(
      "{\"context\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": "
      "%d, \"trace\": %d, \"build_type\": \"%s\", \"compiler\": \"%s\", "
      "\"nproc\": %u}}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0, XQB_BENCH_BUILD_TYPE,
      JsonEscape(__VERSION__).c_str(), std::thread::hardware_concurrency());

  Checker checker;
  Tracer tracer;
  WorkloadOutcome outcome =
      run(args, args.trace ? &tracer : nullptr, &checker);

  PrintWindow("untraced", outcome.untraced);
  if (args.trace) PrintWindow("traced", outcome.traced);
  const RawTimings raw = Raw(outcome);
  std::printf(
      "# host probe: median %.1f us over %zu samples, slowdown %.4f; "
      "unscaled: throughput %.1f 1/s, latency %.4f ms, writes %.4f ms, "
      "setup %.4f s\n",
      outcome.host.median_ns() / 1e3, outcome.host.samples(),
      HostSlowdown(outcome), raw.throughput_rps, raw.latency_ms,
      raw.write_ms, raw.setup_s);
  for (const auto& [program, share] : outcome.program_share) {
    std::printf("# program share of traced time: %-20s %.3f\n",
                program.c_str(), share);
  }
  const std::vector<Metric> metrics =
      args.trace ? PerLayerMetrics(outcome) : EndToEndMetrics(outcome);
  for (const Metric& m : metrics) {
    std::printf("# %-28s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  if (args.trace) {
    const std::string path = args.out_dir + "/trace-" + args.workload +
                             "-seed" + std::to_string(args.seed) + ".json";
    const Status written = tracer.WriteChromeTrace(path);
    checker.Expect(written.ok(), "writing trace: " + written.ToString());
    std::printf("# chrome trace: %s (%zu spans, %zu dropped)\n",
                path.c_str(), tracer.event_count(), tracer.dropped());
  }

  Window all = outcome.untraced;
  all.Merge(outcome.traced);
  checker.Expect(all.attempted > 0, "no request was attempted");
  const bool correct = checker.ok();
  if (!correct) {
    std::fprintf(stderr, "xqb_perfbench: output check failed: %s\n",
                 checker.first_failure().c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(all.attempted);
  json += ", \"failed\": " + std::to_string(all.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.12g", metrics[i].value);
    json += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace xqb::bench

int main(int argc, char** argv) { return xqb::bench::Main(argc, argv); }
