// Layer probes: time single engine layers from outside, on the inputs
// of the workload that calls them. Each probe stage is one span.
#include <algorithm>
#include <optional>
#include <random>

#include "analysis/effects.h"
#include "bench.h"
#include "core/normalize.h"
#include "core/static_check.h"
#include "frontend/parser.h"

namespace xqb::bench {

namespace {

constexpr int kFrontendReps = 25;
constexpr int kSortReps = 7;
constexpr int kSerializeReps = 5;

template <typename Fn>
double TimeNs(Fn&& fn) {
  const int64_t start = MonotonicNowNs();
  fn();
  return static_cast<double>(MonotonicNowNs() - start);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

}  // namespace

FrontendProbe ProbeFrontend(const std::vector<std::string>& queries,
                            const std::set<std::string>& variables,
                            Tracer* tracer, Checker* checker) {
  std::vector<double> parse, normalize, check, effects;
  for (const std::string& query : queries) {
    std::vector<Program> programs;
    std::vector<double> p, n, s, e;
    {
      TraceSpan span(tracer, "ParseProgram", "probe");
      for (int rep = 0; rep < kFrontendReps; ++rep) {
        std::optional<Result<Program>> parsed;
        p.push_back(TimeNs([&] { parsed.emplace(ParseProgram(query)); }));
        if (!parsed->ok()) {
          checker->Expect(false, "probe parse failed: " +
                                     parsed->status().ToString());
          return {};
        }
        programs.push_back(std::move(*parsed).value());
      }
    }
    {
      TraceSpan span(tracer, "NormalizeProgram", "probe");
      for (Program& program : programs) {
        n.push_back(TimeNs([&] { NormalizeProgram(&program); }));
      }
    }
    {
      TraceSpan span(tracer, "StaticCheckProgram", "probe");
      for (const Program& program : programs) {
        Status st;
        s.push_back(
            TimeNs([&] { st = StaticCheckProgram(program, variables); }));
        checker->Expect(st.ok(), "probe static check: " + st.ToString());
      }
    }
    {
      TraceSpan span(tracer, "EffectAnalysis::AnalyzeProgram", "probe");
      for (const Program& program : programs) {
        EffectAnalysis analysis;
        e.push_back(TimeNs([&] {
          analysis.AnalyzeProgram(program);
          analysis.Summarize(*program.body);
        }));
      }
    }
    parse.push_back(Median(p) / 1e3);
    normalize.push_back(Median(n) / 1e3);
    check.push_back(Median(s) / 1e3);
    effects.push_back(Median(e) / 1e3);
  }
  return {Mean(parse), Mean(normalize), Mean(check), Mean(effects)};
}

double ProbeSortNsPerItem(const Store& store,
                          const std::vector<Sequence>& sequences,
                          uint64_t seed, Tracer* tracer, Checker* checker) {
  std::mt19937_64 rng(seed);
  double total_ns = 0;
  size_t total_items = 0;
  for (const Sequence& ordered : sequences) {
    TraceSpan span(tracer, "SortDocOrderDedup", "probe");
    std::vector<double> times;
    for (int rep = 0; rep < kSortReps; ++rep) {
      Sequence shuffled = ordered;
      std::shuffle(shuffled.begin(), shuffled.end(), rng);
      std::optional<Result<Sequence>> sorted;
      times.push_back(TimeNs([&] {
        sorted.emplace(SortDocOrderDedup(store, std::move(shuffled)));
      }));
      bool same = sorted->ok() && (*sorted)->size() == ordered.size();
      for (size_t i = 0; same && i < ordered.size(); ++i) {
        const Item& item = (**sorted)[i];
        same = item.is_node() && item.node() == ordered[i].node();
      }
      checker->Expect(same, "SortDocOrderDedup did not restore doc order");
    }
    total_ns += Median(times);
    total_items += ordered.size();
  }
  return total_items > 0 ? total_ns / static_cast<double>(total_items) : 0;
}

double ProbeSerializeUs(const Engine& engine,
                        const std::vector<Sequence>& results,
                        Tracer* tracer) {
  std::vector<double> per_result;
  for (const Sequence& result : results) {
    TraceSpan span(tracer, "Serialize", "probe");
    std::vector<double> times;
    for (int rep = 0; rep < kSerializeReps; ++rep) {
      std::string xml;
      times.push_back(TimeNs([&] { xml = engine.Serialize(result); }));
    }
    per_result.push_back(Median(times) / 1e3);
  }
  return Mean(per_result);
}

}  // namespace xqb::bench
