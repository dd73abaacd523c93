// The three workloads of the end-to-end benchmark (README.md). Each
// drives XQB through its public API only: Engine (LoadDocumentFromString,
// OpenDurability, Prepare, Run, Serialize) and QueryService (Submit).
#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <memory>
#include <optional>
#include <random>
#include <thread>

#include "bench.h"
#include "service/service.h"
#include "store/wal.h"
#include "telemetry/metrics.h"
#include "xmark/generator.h"

namespace xqb::bench {

namespace {

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;

/// A request of a workload and how its output is checked.
struct Query {
  std::string name;
  std::string text;
  bool effectful = false;
  /// Exact expected output when set (derived from XMarkParams, never
  /// from the engine); otherwise the output must match the digest of
  /// the query's first execution in the run.
  std::optional<std::string> expect;
};

void CheckOutput(const Query& query, const std::string& output,
                 DigestBook* digests, Checker* checker) {
  if (query.expect) {
    checker->ExpectEq(output, *query.expect, query.name);
  } else {
    digests->Check(query.name, output, checker);
  }
}

XMarkParams Params(double factor, uint64_t seed) {
  XMarkParams params;
  params.factor = factor;
  params.seed = seed;
  return params;
}

/// Loads `xml` as document `name` and adds its parse rate to `mb_per_s`.
NodeId LoadDocument(Engine* engine, const std::string& name,
                    const std::string& xml, std::vector<double>* mb_per_s,
                    Tracer* tracer, Checker* checker) {
  const int64_t start = MonotonicNowNs();
  std::optional<Result<NodeId>> loaded;
  {
    TraceSpan span(tracer, "LoadDocumentFromString", "engine");
    loaded.emplace(engine->LoadDocumentFromString(name, xml));
  }
  const double seconds = SecondsSince(start);
  const Result<NodeId>& doc = *loaded;
  if (!doc.ok()) {
    checker->Expect(false, "loading " + name + ": " + doc.status().ToString());
    return kInvalidNode;
  }
  if (seconds > 0) {
    mb_per_s->push_back(static_cast<double>(xml.size()) / 1e6 / seconds);
  }
  return *doc;
}

/// Outcome of one Run + Serialize through the Engine API.
struct Call {
  bool ok = false;
  std::string output;
};

/// Runs `prepared` with ExecOptions::threads = `threads`, serializes its
/// result and records the request's spans and (when traced) its
/// ExecStats into `layers`.
Call RunAndSerialize(Engine* engine, const PreparedQuery& prepared,
                     const Query& query, int threads, Tracer* tracer,
                     LayerTotals* layers) {
  Call call;
  TraceSpan request_span(tracer, query.name.c_str(), "request");
  ExecOptions options;
  options.threads = threads;
  options.collect_stats = tracer != nullptr;
  std::optional<Result<Sequence>> result;
  {
    TraceSpan span(tracer, "Run", "engine");
    result.emplace(engine->Run(prepared, options));
  }
  if (tracer != nullptr) layers->Add(engine->last_stats(), query.effectful);
  if (!result->ok()) return call;
  const int64_t start = MonotonicNowNs();
  {
    TraceSpan span(tracer, "Serialize", "engine");
    call.output = engine->Serialize(**result);
  }
  if (tracer != nullptr) {
    layers->serialize_ns += MonotonicNowNs() - start;
    ++layers->serializations;
  }
  call.ok = true;
  return call;
}

/// Prepares every query under a "Prepare" span.
std::vector<PreparedQuery> PrepareAll(const Engine& engine,
                                      const std::vector<Query>& queries,
                                      Tracer* tracer, Checker* checker) {
  std::vector<PreparedQuery> prepared;
  for (const Query& query : queries) {
    TraceSpan span(tracer, "Prepare", "engine");
    Result<PreparedQuery> p = engine.Prepare(query.text);
    if (!p.ok()) {
      checker->Expect(false, "prepare " + query.name + ": " +
                                 p.status().ToString());
      return {};
    }
    prepared.push_back(std::move(p).value());
  }
  return prepared;
}

/// Times `fn(setup_index)` kSetups times and keeps every set-up alive.
/// Where the store lands in memory moves path-step speed by up to 45%
/// from one process to the next, so the measured loops spend an equal
/// share of the window on each set-up rather than on one.
template <typename T, typename Fn>
std::vector<std::unique_ptr<T>> RepeatSetup(Fn&& fn,
                                            std::vector<double>* setup_s) {
  std::vector<std::unique_ptr<T>> states;
  for (int i = 0; i < kSetups; ++i) {
    const int64_t start = MonotonicNowNs();
    std::unique_ptr<T> state = fn(i);
    setup_s->push_back(SecondsSince(start));
    if (state == nullptr) return {};
    states.push_back(std::move(state));
  }
  return states;
}

/// The set-up that owns the window at `elapsed` of `seconds`.
template <typename T>
T* SetupAt(const std::vector<std::unique_ptr<T>>& states, double elapsed,
           double seconds) {
  const size_t i = static_cast<size_t>(elapsed / seconds *
                                       static_cast<double>(states.size()));
  return states[std::min(i, states.size() - 1)].get();
}

/// Path queries of a workload, run once to feed the sort probe.
std::vector<Sequence> PathResults(Engine* engine,
                                  const std::vector<std::string>& paths,
                                  Checker* checker) {
  std::vector<Sequence> out;
  for (const std::string& path : paths) {
    Result<Sequence> result = engine->Execute(path);
    checker->Expect(result.ok(), "sort-probe path " + path);
    if (result.ok()) out.push_back(std::move(result).value());
  }
  return out;
}

std::vector<std::string> Texts(const std::vector<Query>& queries) {
  std::vector<std::string> texts;
  for (const Query& query : queries) texts.push_back(query.text);
  return texts;
}

// ---------------------------------------------------------------------
// xmark_read: interpreted read queries on one in-process Engine.

/// Factor 2 (~20k nodes), not 8: at factor 8 the store outgrows the L2
/// cache and run-to-run spread on a shared 4-CPU host doubled.
constexpr double kReadFactor = 2;
/// ExecOptions::threads default: auto (XQB_THREADS, else one lane per
/// CPU), so intra-query parallelism shows on this workload.
constexpr int kReadThreads = 0;

std::vector<Query> ReadQueries(const XMarkParams& p) {
  const std::string items = std::to_string(p.items());
  return {
      {"all_items", "count(doc('auction')//item)", false, items},
      {"region_items", "count(doc('auction')/site/regions/*/item)", false,
       items},
      {"q1_person_name",
       "for $b in doc('auction')/site/people/person[@id = 'person0'] "
       "return $b/name/text()",
       false, std::nullopt},
      {"q2_first_increase",
       "for $b in doc('auction')/site/open_auctions/open_auction "
       "return <increase>{ $b/bidder[1]/increase/text() }</increase>",
       false, std::nullopt},
      {"q5_expensive_sales",
       "count(for $i in doc('auction')/site/closed_auctions/closed_auction "
       "where $i/price/text() >= 40 return $i/price)",
       false, std::nullopt},
      {"persons_with_income",
       "count(doc('auction')/site/people/person[profile/@income])", false,
       std::nullopt},
      {"id_join",
       "count(for $t in doc('auction')/site/closed_auctions/closed_auction "
       "return id($t/itemref/@item, doc('auction')))",
       false, std::to_string(p.closed_auctions())},
      {"region_summary",
       "for $r in doc('auction')/site/regions/* "
       "return <region name='{ local-name($r) }'>{ count($r/item) }</region>",
       false, std::nullopt},
      {"all_bidders", "count(doc('auction')//bidder)", false, std::nullopt},
  };
}

/// Sum of the numbers between '>' and '<' in `xml` (the counts of
/// <region>/<item> result elements).
int64_t SumElementCounts(const std::string& xml) {
  int64_t sum = 0;
  for (size_t i = 0; i < xml.size(); ++i) {
    if (xml[i] != '>') continue;
    size_t j = i + 1;
    int64_t value = 0;
    bool digits = false;
    while (j < xml.size() && xml[j] >= '0' && xml[j] <= '9') {
      value = value * 10 + (xml[j] - '0');
      digits = true;
      ++j;
    }
    if (digits && j < xml.size() && xml[j] == '<') sum += value;
  }
  return sum;
}

struct ReadState {
  std::unique_ptr<Engine> engine;
  std::vector<PreparedQuery> prepared;
};

/// Closed loop over the read queries until `seconds` of window time
/// have passed: each round runs every query once, in seeded order.
/// Garbage collection and a host probe sample after each round are
/// excluded from the window.
Window ReadWindow(const std::vector<std::unique_ptr<ReadState>>& states,
                  const std::vector<Query>& queries,
                  double seconds, std::mt19937_64* rng, Tracer* tracer,
                  LayerTotals* layers, HostProbe* host, DigestBook* digests,
                  Checker* checker) {
  Window window;
  std::vector<size_t> order(queries.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  const int64_t start = MonotonicNowNs();
  int64_t excluded_ns = 0;
  auto elapsed = [&] {
    return static_cast<double>(MonotonicNowNs() - start - excluded_ns) / 1e9;
  };
  while (elapsed() < seconds) {
    ReadState* state = SetupAt(states, elapsed(), seconds);
    std::shuffle(order.begin(), order.end(), *rng);
    for (size_t i : order) {
      const int64_t t0 = MonotonicNowNs();
      Call call = RunAndSerialize(state->engine.get(), state->prepared[i],
                                  queries[i], kReadThreads, tracer, layers);
      const double ms = static_cast<double>(MonotonicNowNs() - t0) / 1e6;
      ++window.attempted;
      if (!call.ok) {
        ++window.failed;
        continue;
      }
      window.Record(queries[i].name, false, ms, elapsed());
      CheckOutput(queries[i], call.output, digests, checker);
      if (elapsed() >= seconds) break;
    }
    const int64_t gc_start = MonotonicNowNs();
    state->engine->CollectGarbage();
    host->Sample();
    excluded_ns += MonotonicNowNs() - gc_start;
  }
  window.seconds = elapsed();
  return window;
}

}  // namespace

WorkloadOutcome RunXMarkRead(const Args& args, Tracer* tracer,
                             Checker* checker) {
  WorkloadOutcome out;
  const XMarkParams params = Params(kReadFactor, args.seed);
  const std::string xml = GenerateXMarkXml(params);
  const std::vector<Query> queries = ReadQueries(params);
  DigestBook digests;
  std::vector<double> parse_rates;

  auto states = RepeatSetup<ReadState>(
      [&](int) -> std::unique_ptr<ReadState> {
        auto s = std::make_unique<ReadState>();
        s->engine = std::make_unique<Engine>();
        if (LoadDocument(s->engine.get(), "auction", xml, &parse_rates,
                         tracer, checker) == kInvalidNode) {
          return nullptr;
        }
        s->prepared = PrepareAll(*s->engine, queries, tracer, checker);
        if (s->prepared.size() != queries.size()) return nullptr;
        LayerTotals unused;
        for (size_t i = 0; i < queries.size(); ++i) {
          Call call = RunAndSerialize(s->engine.get(), s->prepared[i],
                                      queries[i], kReadThreads, nullptr,
                                      &unused);
          checker->Expect(call.ok, "warm-up run of " + queries[i].name);
          CheckOutput(queries[i], call.output, &digests, checker);
          if (queries[i].name == "region_summary") {
            checker->Expect(SumElementCounts(call.output) == params.items(),
                            "region_summary counts do not sum to items");
          }
        }
        return s;
      },
      &out.setup_s);
  out.parse_mb_per_s = Median(parse_rates);
  if (states.empty()) return out;

  std::mt19937_64 rng(args.seed);
  const double untraced_s = args.trace ? args.seconds / 2.0 : args.seconds;
  LayerTotals unused;
  out.untraced = ReadWindow(states, queries, untraced_s, &rng, nullptr,
                            &unused, &out.host, &digests, checker);
  if (!args.trace) return out;

  out.traced = ReadWindow(states, queries, args.seconds / 2.0, &rng, tracer,
                          &out.layers, &out.host, &digests, checker);
  Engine* engine = states.back()->engine.get();
  out.sort_ns_per_item = ProbeSortNsPerItem(
      engine->store(),
      PathResults(engine,
                  {"doc('auction')//item",
                   "doc('auction')/site/regions/*/item",
                   "doc('auction')/site/people/person",
                   "doc('auction')//bidder"},
                  checker),
      args.seed, tracer, checker);
  out.frontend = ProbeFrontend(Texts(queries), {}, tracer, checker);
  out.serialize_us = static_cast<double>(out.layers.serialize_ns) / 1e3 /
                     std::max<int64_t>(1, out.layers.serializations);
  engine->CollectGarbage();
  out.live_nodes = static_cast<int64_t>(engine->store().live_node_count());
  return out;
}

// ---------------------------------------------------------------------
// xmark_update: a cycle of update programs that leaves the documents as
// it found them, on one in-process Engine.

namespace {

constexpr double kUpdateFactor = 2;
/// Q8 runs on the quadratic interpreter; its document is sized so that
/// it stays under about half of a cycle's time.
constexpr double kQ8Factor = 0.1;
/// Items edited by the positional programs (each region holds ~72).
constexpr int kPositional = 16;
/// Serial evaluation. With threads = auto two thirds of the requests
/// fanned out to the worker pool for regions too small to keep it busy
/// (pool idle 78%), so latency measured thread wake-ups on the shared
/// host, not the Δ layer; xmark_read is where parallelism is measured.
constexpr int kUpdateThreads = 1;

std::vector<Query> UpdateCycle(const XMarkParams& doc,
                               const XMarkParams& q8) {
  const std::string region =
      "let $r := doc('auction')/site/regions/africa return ";
  const std::string positions =
      "for $i in 1 to " + std::to_string(kPositional) + " return ";
  const std::string people = "doc('auction')/site/people/person";
  return {
      // Paper §4.3: Q8 with an embedded insert into the purchasers doc.
      {"q8_insert",
       "for $p in $auction//person "
       "let $a := for $t in $auction//closed_auction "
       "          where $t/buyer/@person = $p/@id "
       "          return (insert { <buyer person=\"{$t/buyer/@person}\" "
       "                                  itemid=\"{$t/itemref/@item}\" /> } "
       "                  into { $purchasers }, $t) "
       "return <item person=\"{ $p/name }\">{ count($a) }</item>",
       true, std::nullopt},
      {"purchasers_count", "count($purchasers/buyer)", false,
       std::to_string(q8.closed_auctions())},
      {"purchasers_clear", "snap delete { $purchasers/buyer }", true, ""},
      {"rename_items",
       region + "snap { " + positions +
           "rename { $r/item[$i] } to { \"lot\" } }",
       true, ""},
      {"rename_back",
       region + "snap { " + positions +
           "rename { $r/lot[$i] } to { \"item\" } }",
       true, ""},
      {"replace_locations",
       region + "snap { " + positions +
           "replace { $r/item[$i]/location } with "
           "{ <location>Nowhere</location> } }",
       true, ""},
      {"replace_back",
       region + "snap { " + positions +
           "replace { $r/item[$i]/location } with "
           "{ <location>United States</location> } }",
       true, ""},
      {"delete_payments",
       region + "snap { " + positions + "delete { $r/item[$i]/payment } }",
       true, ""},
      {"reinsert_payments",
       region + "snap { " + positions +
           "insert { <payment>Creditcard</payment> } "
           "after { $r/item[$i]/quantity } }",
       true, ""},
      {"visit_people",
       "snap conflict-detection { for $p in " + people +
           " return insert { <visited/> } into { $p } }",
       true, ""},
      {"visited_count", "count(" + people + "/visited)", false,
       std::to_string(doc.persons())},
      {"unvisit_people",
       "snap nondeterministic { for $p in " + people +
           " return snap { delete { $p/visited } } }",
       true, ""},
      {"ordered_insert",
       "snap ordered { insert { <note n='1'/> } into { doc('auction')/site }, "
       "insert { <note n='2'/> } as first into { "
       "doc('auction')/site/people } }",
       true, ""},
      {"ordered_delete",
       "snap ordered { delete { doc('auction')/site/note }, "
       "delete { doc('auction')/site/people/note } }",
       true, ""},
      // Inner snaps apply in order: the insert is visible to the delete.
      {"nested_snaps",
       "snap { snap insert { <tmp/> } into { doc('auction')/site }, "
       "snap delete { doc('auction')/site/tmp } }",
       true, ""},
  };
}

struct UpdateState {
  std::unique_ptr<Engine> engine;
  std::vector<PreparedQuery> prepared;
  NodeId auction = kInvalidNode;
  NodeId purchasers = kInvalidNode;
  size_t live_nodes = 0;
  uint64_t auction_digest = 0;
  uint64_t purchasers_digest = 0;
};

uint64_t NodeDigest(const Engine& engine, NodeId node) {
  return Fnv1a(engine.Serialize(Sequence{Item::Node(node)}));
}

/// After each cycle: collect garbage, then the store must pass its
/// integrity audit with the node count and both documents unchanged.
void VerifyCycle(UpdateState* state, Checker* checker) {
  Engine& engine = *state->engine;
  engine.CollectGarbage();
  const Status integrity = engine.store().CheckIntegrity();
  checker->Expect(integrity.ok(), "integrity: " + integrity.ToString());
  checker->Expect(engine.store().live_node_count() == state->live_nodes,
                  "update cycle changed the live node count");
  checker->Expect(NodeDigest(engine, state->auction) == state->auction_digest,
                  "update cycle changed the auction document");
  checker->Expect(
      NodeDigest(engine, state->purchasers) == state->purchasers_digest,
      "update cycle left purchasers non-empty");
}

/// Runs one cycle; returns false on the first failed request.
template <typename Clock>
bool RunCycle(UpdateState* state, const std::vector<Query>& cycle,
              int64_t q8_expected, Window* window, Tracer* tracer,
              LayerTotals* layers, std::vector<double>* program_ns,
              DigestBook* digests, Checker* checker, const Clock& elapsed) {
  for (size_t i = 0; i < cycle.size(); ++i) {
    const int64_t t0 = MonotonicNowNs();
    Call call = RunAndSerialize(state->engine.get(), state->prepared[i],
                                cycle[i], kUpdateThreads, tracer, layers);
    const int64_t ns = MonotonicNowNs() - t0;
    const double ms = static_cast<double>(ns) / 1e6;
    ++window->attempted;
    if (program_ns != nullptr) (*program_ns)[i] += static_cast<double>(ns);
    if (!call.ok) {
      ++window->failed;
      return false;
    }
    window->Record(cycle[i].name, cycle[i].effectful, ms, elapsed());
    CheckOutput(cycle[i], call.output, digests, checker);
    if (cycle[i].name == "q8_insert") {
      checker->Expect(SumElementCounts(call.output) == q8_expected,
                      "Q8 counts do not sum to the closed auctions");
    }
  }
  return true;
}

/// Closed loop over whole cycles until `seconds` of window time have
/// passed. The per-cycle verification and host probe sample are
/// excluded from the window.
Window UpdateWindow(const std::vector<std::unique_ptr<UpdateState>>& states,
                    const std::vector<Query>& cycle,
                    int64_t q8_expected, double seconds, Tracer* tracer,
                    LayerTotals* layers, std::vector<double>* program_ns,
                    HostProbe* host, DigestBook* digests, Checker* checker) {
  Window window;
  const int64_t start = MonotonicNowNs();
  int64_t excluded_ns = 0;
  auto elapsed = [&] {
    return static_cast<double>(MonotonicNowNs() - start - excluded_ns) / 1e9;
  };
  while (elapsed() < seconds) {
    UpdateState* state = SetupAt(states, elapsed(), seconds);
    const bool ok = RunCycle(state, cycle, q8_expected, &window, tracer,
                             layers, program_ns, digests, checker, elapsed);
    const int64_t verify_start = MonotonicNowNs();
    VerifyCycle(state, checker);
    host->Sample();
    excluded_ns += MonotonicNowNs() - verify_start;
    if (!ok) break;  // The document may be mid-cycle; stop measuring.
  }
  window.seconds = elapsed();
  return window;
}

}  // namespace

WorkloadOutcome RunXMarkUpdate(const Args& args, Tracer* tracer,
                               Checker* checker) {
  WorkloadOutcome out;
  out.has_writes = true;
  const XMarkParams doc_params = Params(kUpdateFactor, args.seed);
  const XMarkParams q8_params = Params(kQ8Factor, args.seed + 1);
  const std::string doc_xml = GenerateXMarkXml(doc_params);
  const std::string q8_xml = GenerateXMarkXml(q8_params);
  const std::vector<Query> cycle = UpdateCycle(doc_params, q8_params);
  const int64_t q8_expected = q8_params.closed_auctions();
  DigestBook digests;
  std::vector<double> parse_rates;

  auto states = RepeatSetup<UpdateState>(
      [&](int) -> std::unique_ptr<UpdateState> {
        auto s = std::make_unique<UpdateState>();
        s->engine = std::make_unique<Engine>();
        Engine& engine = *s->engine;
        s->auction = LoadDocument(&engine, "auction", doc_xml, &parse_rates,
                                  tracer, checker);
        const NodeId q8 = LoadDocument(&engine, "q8", q8_xml, &parse_rates,
                                       tracer, checker);
        const NodeId purchasers =
            LoadDocument(&engine, "purchasers", "<purchasers/>",
                         &parse_rates, tracer, checker);
        if (s->auction == kInvalidNode || q8 == kInvalidNode ||
            purchasers == kInvalidNode) {
          return nullptr;
        }
        s->purchasers = engine.store().ChildrenOf(purchasers).front();
        engine.BindVariable("auction", q8);
        engine.BindVariable("purchasers", s->purchasers);
        s->prepared = PrepareAll(engine, cycle, tracer, checker);
        if (s->prepared.size() != cycle.size()) return nullptr;
        engine.CollectGarbage();
        s->live_nodes = engine.store().live_node_count();
        s->auction_digest = NodeDigest(engine, s->auction);
        s->purchasers_digest = NodeDigest(engine, s->purchasers);
        // Warm-up: one full cycle, verified like every measured one.
        Window unused_window;
        LayerTotals unused;
        RunCycle(s.get(), cycle, q8_expected, &unused_window, nullptr,
                 &unused, nullptr, &digests, checker, [] { return 0.0; });
        checker->Expect(unused_window.failed == 0, "warm-up cycle failed");
        VerifyCycle(s.get(), checker);
        return s;
      },
      &out.setup_s);
  out.parse_mb_per_s = Median(parse_rates);
  if (states.empty()) return out;

  const double untraced_s = args.trace ? args.seconds / 2.0 : args.seconds;
  LayerTotals unused;
  out.untraced = UpdateWindow(states, cycle, q8_expected, untraced_s,
                              nullptr, &unused, nullptr, &out.host, &digests,
                              checker);
  if (!args.trace) return out;

  std::vector<double> program_ns(cycle.size(), 0);
  out.traced = UpdateWindow(states, cycle, q8_expected,
                            args.seconds / 2.0, tracer, &out.layers,
                            &program_ns, &out.host, &digests, checker);
  double total_ns = 0;
  for (double ns : program_ns) total_ns += ns;
  for (size_t i = 0; i < cycle.size(); ++i) {
    out.program_share.emplace_back(
        cycle[i].name, total_ns > 0 ? program_ns[i] / total_ns : 0);
  }
  Engine* engine = states.back()->engine.get();
  out.sort_ns_per_item = ProbeSortNsPerItem(
      engine->store(),
      PathResults(engine,
                  {"doc('auction')/site/people/person",
                   "doc('auction')/site/regions/*/item", "$auction//person",
                   "$auction//closed_auction"},
                  checker),
      args.seed, tracer, checker);
  out.frontend = ProbeFrontend(Texts(cycle), {"auction", "purchasers"},
                               tracer, checker);
  out.serialize_us = static_cast<double>(out.layers.serialize_ns) / 1e3 /
                     std::max<int64_t>(1, out.layers.serializations);
  engine->CollectGarbage();
  out.live_nodes = static_cast<int64_t>(engine->store().live_node_count());
  return out;
}

// ---------------------------------------------------------------------
// service_mixed: one closed-loop client through a QueryService over a
// durable engine.

namespace {

constexpr double kServiceFactor = 2;
/// One. With two or three, a client the shared host stalled while it
/// held an admission ticket stalled the others too (a writer waits for
/// every reader), and throughput over ten seeds spread 0.36 (two) to
/// 0.55 (three) of its median.
constexpr int kClients = 1;
constexpr double kHotShare = 0.85;
constexpr double kAdhocShare = 0.05;  // The rest are writes.
constexpr int64_t kGcIntervalNs = 1'000'000'000;
/// Each client samples the host probe after every kProbeEvery requests,
/// between requests and so outside their latencies (the window's
/// throughput carries the probe's ~2% of client time). Sampled on the
/// client's thread, it sees the contention the requests see, where a
/// probe on another thread did not. The main thread adds samples before
/// and after.
constexpr int kProbeEvery = 64;
constexpr int kProbesAroundWindow = 5;

/// The read queries of bench/workloads/service_stress.txt.
std::vector<Query> HotReads(const XMarkParams& p) {
  return {
      {"items", "count(doc('auction')//item)", false,
       std::to_string(p.items())},
      {"item_bidders",
       "sum(for $i in doc('auction')//item return count($i/bidder))", false,
       "0"},
      {"persons", "count(doc('auction')/site/people/person)", false,
       std::to_string(p.persons())},
      {"regions",
       "for $r in doc('auction')/site/regions/* return <region name='{ "
       "local-name($r) }'>{ count($r/item) }</region>",
       false, std::nullopt},
      // Each client keeps at most one audit element alive.
      {"audits", "count(doc('auction')/site/audit)", false, std::nullopt},
  };
}

/// An audit record: the item count of each region at the time of the
/// write, so that a write does engine work beside its WAL append.
std::string AuditInsert(int client) {
  return "snap insert { <audit client='" + std::to_string(client) +
         "'>{ for $r in doc('auction')/site/regions/* return <region "
         "name='{ local-name($r) }' items='{ count($r/item) }'/> }</audit> } "
         "into { doc('auction')/site }";
}
std::string AuditDelete(int client) {
  return "snap delete { doc('auction')/site/audit[@client='" +
         std::to_string(client) + "'] }";
}

/// A durable engine and its service; removes the durability dir.
struct ServiceState {
  ServiceState() = default;
  ServiceState(const ServiceState&) = delete;
  ServiceState& operator=(const ServiceState&) = delete;
  ~ServiceState() {
    service.reset();
    engine.reset();
    std::error_code ignored;
    std::filesystem::remove_all(dir, ignored);
  }

  std::string wal_path() const { return dir + "/" + kWalFileName; }

  std::string dir;
  std::unique_ptr<Engine> engine;
  std::unique_ptr<QueryService> service;
};

bool IsAuditCount(const std::string& output) {
  return output.size() == 1 && output[0] >= '0' &&
         output[0] < '0' + kClients + 1;
}

/// Submits one request and checks its output. Returns its latency, or
/// a negative value when the request failed.
double SubmitChecked(QueryService* service, const Query& query,
                     int priority, Tracer* tracer, LayerTotals* layers,
                     DigestBook* digests, Checker* checker) {
  TraceSpan request_span(tracer, query.name.c_str(), "request");
  const int64_t t0 = MonotonicNowNs();
  QueryService::Response response;
  {
    TraceSpan span(tracer, "Submit", "service");
    QueryService::Request request;
    request.query = query.text;
    request.priority = priority;
    response = service->Submit(request);
  }
  const double ms = static_cast<double>(MonotonicNowNs() - t0) / 1e6;
  if (!response.status.ok()) return -1;
  if (query.name == "audits") {
    checker->Expect(IsAuditCount(response.result_xml),
                    "audit count out of range: " + response.result_xml);
  } else {
    CheckOutput(query, response.result_xml, digests, checker);
  }
  if (tracer != nullptr) {
    layers->Add(response.stats, query.effectful);
    layers->queue_wait_ms.push_back(
        static_cast<double>(response.stats.queue_wait_ns) / 1e6);
  }
  return ms;
}

const MetricRegistry::Family* FindFamily(
    const std::vector<MetricRegistry::Family>& families,
    const std::string& name) {
  for (const auto& family : families) {
    if (family.name == name) return &family;
  }
  return nullptr;
}

/// Process-wide telemetry read before and after the traced window.
struct StoreTelemetry {
  uint64_t wal_appends = 0;
  HistogramSnapshot fsync;

  static StoreTelemetry Read() {
    StoreTelemetry t;
    const auto families = MetricRegistry::Default().Collect();
    if (const auto* f = FindFamily(families, "xqb_wal_appends_total")) {
      for (const auto& series : f->series) {
        t.wal_appends += series.counter_value;
      }
    }
    if (const auto* f = FindFamily(families, "xqb_wal_fsync_seconds")) {
      for (const auto& series : f->series) {
        if (t.fsync.buckets.empty()) {
          t.fsync = series.histogram;
        } else {
          t.fsync.MergeFrom(series.histogram);
        }
      }
    }
    return t;
  }
};

/// fsync latency median (µs) of the fsyncs between two reads.
double FsyncP50Us(const HistogramSnapshot& before,
                  const HistogramSnapshot& after) {
  HistogramSnapshot delta = after;
  if (before.buckets.size() == after.buckets.size()) {
    for (size_t i = 0; i < delta.buckets.size(); ++i) {
      delta.buckets[i] -= before.buckets[i];
    }
    delta.count -= before.count;
    delta.sum -= before.sum;
  }
  return delta.count > 0 ? delta.PercentileRaw(50) / 1e3 : 0;
}

int64_t FileSize(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<int64_t>(st.st_size)
                                         : 0;
}

struct ClientResult {
  Window window;
  LayerTotals layers;
  HostProbe host;
  int64_t end_ns = 0;
};

/// One closed-loop client: hot cached reads, ad-hoc reads with a unique
/// literal (cache misses), and insert/delete audit pairs.
void Client(int id, uint64_t seed, QueryService* service,
            const std::vector<Query>& hot, int persons, int64_t start_ns,
            int64_t deadline_ns, Tracer* tracer, DigestBook* digests,
            Checker* checker, ClientResult* out) {
  std::mt19937_64 rng(seed * 1000003 + static_cast<uint64_t>(id));
  std::uniform_real_distribution<double> share(0, 1);
  const Query insert{"audit_insert", AuditInsert(id), true, ""};
  const Query remove{"audit_delete", AuditDelete(id), true, ""};
  bool audit_alive = false;
  int64_t adhoc = 0;
  while (MonotonicNowNs() < start_ns) std::this_thread::yield();
  while (MonotonicNowNs() < deadline_ns) {
    const double u = share(rng);
    std::optional<Query> adhoc_query;
    const Query* query;
    int priority = 0;
    if (u < kHotShare) {
      query = &hot[rng() % hot.size()];
      if (query->name == "regions") priority = 2;
    } else if (u < kHotShare + kAdhocShare) {
      const std::string tag =
          "adhoc-" + std::to_string(id) + "-" + std::to_string(adhoc++);
      adhoc_query = Query{
          "adhoc",
          "concat('" + tag +
              ":', count(doc('auction')/site/people/person[@id = 'person" +
              std::to_string(rng() % static_cast<uint64_t>(persons)) +
              "']))",
          false, tag + ":1"};
      query = &*adhoc_query;
    } else {
      query = audit_alive ? &remove : &insert;
      audit_alive = !audit_alive;
      priority = 1;
    }
    const double ms = SubmitChecked(service, *query, priority, tracer,
                                    &out->layers, digests, checker);
    if (++out->window.attempted % kProbeEvery == 0) out->host.Sample();
    if (ms < 0) {
      ++out->window.failed;
      continue;
    }
    out->window.Record(query->name, query->effectful, ms,
                       static_cast<double>(MonotonicNowNs() - start_ns) / 1e9);
  }
  out->end_ns = MonotonicNowNs();
  if (audit_alive) {  // Clean-up outside the window.
    LayerTotals unused;
    checker->Expect(SubmitChecked(service, remove, 1, nullptr, &unused,
                                  digests, checker) >= 0,
                    "audit clean-up failed");
  }
}

/// What the housekeeper's garbage collections did during a window.
struct GcLog {
  int64_t runs = 0;         ///< Collections (each an exclusive admission).
  int64_t wal_appends = 0;  ///< GC records appended to the WAL.
  int64_t wal_bytes = 0;
};

/// Host housekeeping during a service window: one garbage collection
/// every kGcIntervalNs, under an exclusive admission ticket so that no
/// request holds nodes meanwhile. Constructor queries leave garbage
/// behind; without collection the store would grow with throughput.
void Housekeeper(QueryService* service, Engine* engine,
                 const std::string& wal, int64_t start_ns,
                 int64_t deadline_ns, Checker* checker, GcLog* log) {
  for (int64_t next = start_ns + kGcIntervalNs; next < deadline_ns;
       next += kGcIntervalNs) {
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(next)));
    Result<RequestScheduler::Ticket> ticket =
        service->scheduler().EnterRequest(/*read_only=*/false, 0, 0,
                                          nullptr);
    if (!ticket.ok()) {
      checker->Expect(false, "GC admission: " + ticket.status().ToString());
      return;
    }
    const int64_t before = FileSize(wal);
    if (engine->CollectGarbage() > 0) ++log->wal_appends;
    log->wal_bytes += FileSize(wal) - before;
    ++log->runs;
    service->scheduler().ExitRequest(*ticket);
  }
}

Window ServiceWindow(QueryService* service, ServiceState* state,
                     const std::vector<Query>& hot, const XMarkParams& params,
                     uint64_t seed, double seconds, Tracer* tracer,
                     LayerTotals* layers, GcLog* gc, HostProbe* host,
                     DigestBook* digests, Checker* checker) {
  for (int i = 0; i < kProbesAroundWindow; ++i) host->Sample();
  std::vector<ClientResult> results(kClients);
  const int64_t start_ns = MonotonicNowNs() + 20'000'000;  // All started.
  const int64_t deadline_ns =
      start_ns + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back(Client, c, seed, service, std::cref(hot),
                         params.persons(), start_ns, deadline_ns, tracer,
                         digests, checker, &results[c]);
  }
  threads.emplace_back(Housekeeper, service, state->engine.get(),
                       state->wal_path(), start_ns, deadline_ns, checker, gc);
  for (std::thread& t : threads) t.join();
  for (int i = 0; i < kProbesAroundWindow; ++i) host->Sample();
  Window window;
  int64_t end_ns = start_ns;
  for (const ClientResult& r : results) {
    window.Merge(r.window);
    layers->Merge(r.layers);
    host->Merge(r.host);
    end_ns = std::max(end_ns, r.end_ns);
  }
  window.seconds = static_cast<double>(end_ns - start_ns) / 1e9;
  return window;
}

/// Warm-up through the service: every hot read and one audit pair per
/// client, so the measured window starts with a warm plan cache.
void WarmService(QueryService* service, const std::vector<Query>& hot,
                 DigestBook* digests, Checker* checker) {
  LayerTotals unused;
  for (const Query& query : hot) {
    checker->Expect(SubmitChecked(service, query, 0, nullptr, &unused,
                                  digests, checker) >= 0,
                    "warm-up of " + query.name);
  }
  for (int c = 0; c < kClients; ++c) {
    for (const Query& query :
         {Query{"audit_insert", AuditInsert(c), true, ""},
          Query{"audit_delete", AuditDelete(c), true, ""}}) {
      checker->Expect(SubmitChecked(service, query, 1, nullptr, &unused,
                                    digests, checker) >= 0,
                      "warm-up of " + query.name);
    }
  }
}

}  // namespace

WorkloadOutcome RunServiceMixed(const Args& args, Tracer* tracer,
                                Checker* checker) {
  WorkloadOutcome out;
  out.has_writes = true;
  const XMarkParams params = Params(kServiceFactor, args.seed);
  const std::string xml = GenerateXMarkXml(params);
  const std::vector<Query> hot = HotReads(params);
  DigestBook digests;
  std::vector<double> parse_rates;

  auto states = RepeatSetup<ServiceState>(
      [&](int index) -> std::unique_ptr<ServiceState> {
        auto s = std::make_unique<ServiceState>();
        s->dir = args.out_dir + "/service-wal-" + std::to_string(index);
        std::error_code ignored;
        std::filesystem::remove_all(s->dir, ignored);
        s->engine = std::make_unique<Engine>();
        Status opened;
        {
          TraceSpan span(tracer, "OpenDurability", "engine");
          opened = s->engine->OpenDurability(s->dir, SyncMode::kBatch);
        }
        if (!opened.ok()) {
          checker->Expect(false, "OpenDurability: " + opened.ToString());
          return nullptr;
        }
        if (LoadDocument(s->engine.get(), "auction", xml, &parse_rates,
                         tracer, checker) == kInvalidNode) {
          return nullptr;
        }
        s->service = std::make_unique<QueryService>(s->engine.get());
        WarmService(s->service.get(), hot, &digests, checker);
        return s;
      },
      &out.setup_s);
  out.parse_mb_per_s = Median(parse_rates);
  if (states.empty()) return out;
  // The service is measured on the last set-up only: its clients share
  // one engine, and a durable engine per sub-window would add WAL dirs.
  std::unique_ptr<ServiceState> state = std::move(states.back());
  states.clear();

  const double untraced_s = args.trace ? args.seconds / 2.0 : args.seconds;
  LayerTotals unused;
  GcLog untraced_gc;
  out.untraced = ServiceWindow(state->service.get(), state.get(), hot,
                               params, args.seed, untraced_s, nullptr,
                               &unused, &untraced_gc, &out.host, &digests,
                               checker);
  const auto check_counters = [&](const QueryService& service) {
    const QueryService::Counters c = service.counters();
    checker->Expect(
        c.submitted == c.completed + c.failed + c.shed + c.cancelled,
        "service counters: submitted != completed+failed+shed+cancelled");
    checker->Expect(c.shed == 0, "service shed requests");
  };
  check_counters(*state->service);

  if (args.trace) {
    // A second service over the same engine, collecting ExecStats.
    QueryServiceOptions options;
    options.exec.collect_stats = true;
    QueryService traced(state->engine.get(), options);
    WarmService(&traced, hot, &digests, checker);
    const QueryService::Counters before = traced.counters();
    const StoreTelemetry telemetry_before = StoreTelemetry::Read();
    const std::string wal = state->wal_path();
    const int64_t wal_before = FileSize(wal);
    GcLog gc;
    out.traced = ServiceWindow(&traced, state.get(), hot, params,
                               args.seed + 1, args.seconds / 2.0, tracer,
                               &out.layers, &gc, &out.host, &digests,
                               checker);
    const QueryService::Counters after = traced.counters();
    const StoreTelemetry telemetry_after = StoreTelemetry::Read();
    check_counters(traced);
    const double probes = static_cast<double>(
        (after.cache.hits - before.cache.hits) +
        (after.cache.misses - before.cache.misses));
    out.cache_hit_frac =
        probes > 0
            ? static_cast<double>(after.cache.hits - before.cache.hits) /
                  probes
            : 0;
    out.cache_evictions = after.cache.evictions - before.cache.evictions;
    // The housekeeper's collections are not requests: leave them out.
    out.exclusive_runs = after.scheduler.exclusive_runs -
                         before.scheduler.exclusive_runs - gc.runs;
    out.wal_appends = static_cast<int64_t>(telemetry_after.wal_appends -
                                           telemetry_before.wal_appends) -
                      gc.wal_appends;
    out.wal_bytes_per_update =
        static_cast<double>(FileSize(wal) - wal_before - gc.wal_bytes) /
        std::max<int64_t>(1, out.layers.updates_applied);
    out.fsync_p50_us = FsyncP50Us(telemetry_before.fsync,
                                  telemetry_after.fsync);

    // Probes, with every client stopped.
    Engine* engine = state->engine.get();
    out.sort_ns_per_item = ProbeSortNsPerItem(
        engine->store(),
        PathResults(engine,
                    {"doc('auction')//item",
                     "doc('auction')/site/people/person"},
                    checker),
        args.seed, tracer, checker);
    std::vector<std::string> texts = Texts(hot);
    texts.push_back(AuditInsert(0));
    texts.push_back(AuditDelete(0));
    texts.push_back(
        "concat('adhoc-0-0:', count(doc('auction')/site/people/"
        "person[@id = 'person0']))");
    out.frontend = ProbeFrontend(texts, {}, tracer, checker);
    std::vector<Sequence> results;
    for (const Query& query : hot) {
      Result<Sequence> r = engine->Execute(query.text);
      if (r.ok()) results.push_back(std::move(r).value());
    }
    out.serialize_us = ProbeSerializeUs(*engine, results, tracer);
  }
  const Status integrity = state->engine->store().CheckIntegrity();
  checker->Expect(integrity.ok(), "integrity: " + integrity.ToString());
  out.live_nodes =
      static_cast<int64_t>(state->engine->store().live_node_count());
  return out;
}

}  // namespace xqb::bench
