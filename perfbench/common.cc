#include <algorithm>
#include <cmath>
#include <random>

#include "bench.h"

namespace xqb::bench {

void Checker::Expect(bool ok, const std::string& what) {
  if (ok) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (failures_++ == 0) first_ = what;
}

void Checker::ExpectEq(const std::string& got, const std::string& want,
                       const std::string& what) {
  if (got == want) return;
  std::string shown = got.size() > 120 ? got.substr(0, 120) + "..." : got;
  Expect(false, what + ": got '" + shown + "', want '" + want + "'");
}

bool Checker::ok() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failures_ == 0;
}

std::string Checker::first_failure() const {
  std::lock_guard<std::mutex> lock(mu_);
  return first_;
}

uint64_t Fnv1a(const std::string& text) {
  uint64_t hash = 1469598103934665603ull;
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

void DigestBook::Check(const std::string& key, const std::string& output,
                       Checker* checker) {
  const uint64_t digest = Fnv1a(output);
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, first] : first_) {
    if (name == key) {
      checker->Expect(digest == first,
                      "output of '" + key + "' differs from its first run");
      return;
    }
  }
  first_.emplace_back(key, digest);
}

void Window::Record(const std::string& kind, bool effectful, double ms,
                    double done) {
  latency_ms.push_back(ms);
  done_s.push_back(done);
  Kind& k = kinds[kind];
  k.effectful = effectful;
  k.ms.push_back(ms);
}

void Window::Merge(const Window& other) {
  seconds = std::max(seconds, other.seconds);
  attempted += other.attempted;
  failed += other.failed;
  latency_ms.insert(latency_ms.end(), other.latency_ms.begin(),
                    other.latency_ms.end());
  done_s.insert(done_s.end(), other.done_s.begin(), other.done_s.end());
  for (const auto& [name, kind] : other.kinds) {
    Kind& k = kinds[name];
    k.effectful = kind.effectful;
    k.ms.insert(k.ms.end(), kind.ms.begin(), kind.ms.end());
  }
}

double Window::KindMedianMean(bool writes_only) const {
  double weighted = 0;
  size_t n = 0;
  for (const auto& [name, kind] : kinds) {
    if (writes_only && !kind.effectful) continue;
    weighted += Median(kind.ms) * static_cast<double>(kind.ms.size());
    n += kind.ms.size();
  }
  return n > 0 ? weighted / static_cast<double>(n) : 0;
}

size_t Window::KindSamples(bool writes_only) const {
  size_t n = 0;
  for (const auto& [name, kind] : kinds) {
    if (!writes_only || kind.effectful) n += kind.ms.size();
  }
  return n;
}

double Window::throughput_rps() const {
  const size_t slices = static_cast<size_t>(seconds / kSliceSeconds);
  if (slices == 0) {
    return seconds > 0 ? static_cast<double>(done_s.size()) / seconds : 0;
  }
  std::vector<double> per_slice(slices, 0);
  for (double t : done_s) {
    const size_t slice = static_cast<size_t>(t / kSliceSeconds);
    if (slice < slices) per_slice[slice] += 1 / kSliceSeconds;
  }
  return Median(std::move(per_slice));
}

HostProbe::HostProbe() {
  std::mt19937 rng(1);
  source_.resize(16384);
  for (uint32_t& value : source_) value = rng();
}

void HostProbe::Sample() {
  const int64_t start = MonotonicNowNs();
  scratch_ = source_;
  std::sort(scratch_.begin(), scratch_.end());
  ns_.push_back(static_cast<double>(MonotonicNowNs() - start));
  sink_ += scratch_[ns_.size() % scratch_.size()];
}

void HostProbe::Merge(const HostProbe& other) {
  ns_.insert(ns_.end(), other.ns_.begin(), other.ns_.end());
}

double HostProbe::median_ns() const { return Median(ns_); }

void LayerTotals::Add(const ExecStats& stats, bool effectful) {
  ++runs;
  guard_steps += stats.guard_steps;
  eval_ns += stats.eval_ns;
  compile_ns += stats.compile_ns;
  rewrite_ns += stats.rewrite_ns;
  used_algebra += stats.used_algebra ? 1 : 0;
  group_joins += stats.rw_group_joins;
  parallel_regions += stats.parallel_regions;
  pool_jobs += stats.pool_jobs;
  pool_busy_ns += stats.pool_busy_ns;
  pool_idle_ns += stats.pool_idle_ns;
  if (effectful) {
    ++effectful_runs;
    snap_apply_ns += stats.snap_apply_ns;
    updates_applied += stats.updates_applied;
    snaps_applied += stats.snaps_applied;
  }
}

void LayerTotals::Merge(const LayerTotals& other) {
  runs += other.runs;
  effectful_runs += other.effectful_runs;
  guard_steps += other.guard_steps;
  eval_ns += other.eval_ns;
  compile_ns += other.compile_ns;
  rewrite_ns += other.rewrite_ns;
  used_algebra += other.used_algebra;
  group_joins += other.group_joins;
  snap_apply_ns += other.snap_apply_ns;
  updates_applied += other.updates_applied;
  snaps_applied += other.snaps_applied;
  parallel_regions += other.parallel_regions;
  pool_jobs += other.pool_jobs;
  pool_busy_ns += other.pool_busy_ns;
  pool_idle_ns += other.pool_idle_ns;
  serialize_ns += other.serialize_ns;
  serializations += other.serializations;
  queue_wait_ms.insert(queue_wait_ms.end(), other.queue_wait_ms.begin(),
                       other.queue_wait_ms.end());
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50);
}

}  // namespace xqb::bench
