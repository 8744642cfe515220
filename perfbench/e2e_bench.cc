/// e2e_bench — end-to-end DEEPENRICH and crawl-fleet benchmark with
/// per-layer attribution. See perfbench/README.md for the workloads, the
/// metrics and the layer -> end-to-end map.
///
///   e2e_bench --workload deepenrich|fleet-shared|fleet-flaky --seed N
///             --seconds S --trace 0|1 [--smoke] [--work-dir DIR]
///             [--trace-out FILE] [--expect-digest HEX] [--git-sha SHA]
///
/// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
/// (--trace 1) report the per-layer metrics and write a Chrome trace. The
/// last line of stdout is one JSON object:
///   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/crawl_plan.h"
#include "core/crawl_service.h"
#include "core/crawl_session.h"
#include "core/enrich.h"
#include "core/metrics.h"
#include "core/query_pool.h"
#include "datagen/error_inject.h"
#include "datagen/scenario.h"
#include "index/inverted_index.h"
#include "match/prefix_filter.h"
#include "match/similarity_join.h"
#include "net/caching_interface.h"
#include "net/transport_stack.h"
#include "sample/sampler.h"
#include "trace.h"
#include "util/random.h"
#include "util/thread_pool.h"
#if __has_include("util/cpuid.h")
#include "util/cpuid.h"
#endif

#ifndef SC_BENCH_BUILD_TYPE
#define SC_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef SC_BENCH_COMPILER
#define SC_BENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

using namespace smartcrawl;  // NOLINT: benchmark brevity
using core::QueryIdx;
using core::SelectionPolicy;
using match::ErMode;

// ---------------------------------------------------------------------------
// Small utilities.

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

uint64_t Mix(uint64_t seed, uint64_t stream) {
  uint64_t state = seed * 0x9e3779b97f4a7c15ULL + stream;
  return SplitMix64(state);
}

/// FNV-1a over everything fed to it: the result digests.
class Hasher {
 public:
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  void U64(uint64_t v) { Bytes(&v, sizeof v); }
  void Str(const std::string& s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
  void F64(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    U64(bits);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (p in [0, 100]).
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Keeps replayed results observable so the optimizer cannot drop them.
volatile uint64_t g_sink = 0;

// Kernel tallies that some library versions do not carry read as 0.
template <typename K>
uint64_t SimdMerge(const K& k) {
  if constexpr (requires { k.simd_merge; }) return k.simd_merge;
  return 0;
}
template <typename K>
uint64_t SimdGallop(const K& k) {
  if constexpr (requires { k.simd_gallop; }) return k.simd_gallop;
  return 0;
}
template <typename K>
uint64_t BitmapBlocked(const K& k) {
  if constexpr (requires { k.bitmap_blocked; }) return k.bitmap_blocked;
  return 0;
}

/// The shared cache the replica builds must match the service's: same
/// capacity and, where the cache is sharded, the service's default shard
/// count (eviction is per shard).
std::unique_ptr<net::CachingInterface> MakeSharedCache(
    hidden::KeywordSearchInterface* origin, size_t capacity) {
  if constexpr (requires(core::CrawlServiceOptions o) {
                  o.shared_cache_shards;
                }) {
    return std::make_unique<net::CachingInterface>(
        origin, capacity, core::CrawlServiceOptions{}.shared_cache_shards);
  } else {
    return std::make_unique<net::CachingInterface>(origin, capacity);
  }
}

std::string SimdTier() {
#if __has_include("util/cpuid.h")
  return util::CpuFeatures::Get().TierName();
#else
  return "none";
#endif
}

// ---------------------------------------------------------------------------
// Workloads.

struct WorkloadConfig {
  std::string name;
  // World (simulated DBLP scenario). The corpus, the D/H split and the
  // hidden-database sample are fixed per workload; the run's --seed draws
  // the title errors injected into D, tenant budgets and fault streams.
  uint64_t corpus_seed = 0;
  uint64_t split_seed = 0;
  uint64_t sample_seed = 0;
  size_t corpus_size = 0;
  double db_fraction = 0.3;
  size_t hidden_size = 0;
  size_t local_size = 0;
  size_t top_k = 0;
  double error_rate = 0.2;
  double theta = 0.0;
  // Plans: one per (slice, policy, ER mode) combination described below.
  bool cli_plan = false;  // deepenrich: one SmartCrawl-B plan, CLI options
  size_t num_slices = 1;  // fleet-flaky: D split into disjoint slices
  std::vector<SelectionPolicy> policies;
  std::vector<ErMode> er_modes;
  // Tenants.
  size_t num_tenants = 1;
  size_t budget_lo = 0;
  size_t budget_hi = 0;
  bool flaky = false;
  size_t daily_quota = 0;
  // Driver.
  bool use_service = false;  // fleets: CrawlService::Drive
  size_t shared_cache = 0;
  unsigned workers = 1;
  size_t builds_per_pass = 3;
  size_t loads_per_pass = 3;
  size_t crawls_per_pass = 1;
};

const std::vector<SelectionPolicy> kFleetPolicies = {
    SelectionPolicy::kSimple, SelectionPolicy::kBound,
    SelectionPolicy::kEstBiased, SelectionPolicy::kEstUnbiased};

void SetDeepEnrichWorld(WorkloadConfig* c, bool smoke) {
  // 0.3x the paper's DBLP scale; corpus sizing and seeds follow
  // RunDblpExperiment with seed 1.
  c->corpus_seed = 1 * 7919 + 13;
  c->split_seed = 1;
  c->sample_seed = 1 ^ 0x5a5a5aULL;
  c->hidden_size = smoke ? 3000 : 30000;
  c->local_size = smoke ? 300 : 3000;
  c->corpus_size = (c->hidden_size + c->local_size) * 22 / 10;
  c->db_fraction = 0.3;
  c->top_k = 100;
  c->error_rate = 0.2;
  c->theta = 0.005;
}

bool MakeConfig(const std::string& name, bool smoke, WorkloadConfig* c) {
  c->name = name;
  if (name == "deepenrich") {
    SetDeepEnrichWorld(c, smoke);
    c->cli_plan = true;
    c->num_tenants = 1;
    // At this scale the crawl resolves all of D after 350-450 queries, so
    // a budget of 600 would not bind; 300 keeps every seed at the same
    // number of steps.
    c->budget_lo = c->budget_hi = smoke ? 30 : 300;
    c->workers = 1;
    c->builds_per_pass = 2;
    c->crawls_per_pass = 4;
    return true;
  }
  if (name == "fleet-shared") {
    // The BM_Fleet shape of bench/bench_service.cpp at SC_SCALE=1,
    // including its world seeds.
    c->corpus_seed = 42;
    c->split_seed = 71;
    c->sample_seed = 13;
    c->corpus_size = smoke ? 400 : 4000;
    c->db_fraction = 0.5;
    c->hidden_size = smoke ? 150 : 1500;
    c->local_size = smoke ? 64 : 250;
    c->top_k = 50;
    c->error_rate = 0.2;
    c->theta = 0.025;
    c->policies = kFleetPolicies;
    c->er_modes = {ErMode::kEntityOracle, ErMode::kJaccard};
    c->num_tenants = smoke ? 100 : 1000;
    c->budget_lo = 5;
    c->budget_hi = 30;
    c->use_service = true;
    c->shared_cache = 4096;
    c->workers = 3;
    return true;
  }
  if (name == "fleet-flaky") {
    SetDeepEnrichWorld(c, smoke);
    c->num_slices = smoke ? 16 : 64;
    c->policies = kFleetPolicies;
    c->er_modes = {ErMode::kJaccard};
    c->num_tenants = 4 * c->num_slices;
    c->budget_lo = smoke ? 10 : 50;
    c->budget_hi = smoke ? 30 : 150;
    c->flaky = true;
    c->daily_quota = smoke ? 20 : 100;
    c->use_service = true;
    c->shared_cache = smoke ? 256 : 1024;
    c->workers = 1;
    return true;
  }
  return false;
}

struct PlanInput {
  const table::Table* local = nullptr;
  size_t table_index = 0;
  core::SmartCrawlOptions options;
};

struct TenantInput {
  size_t plan = 0;
  size_t budget = 0;
  net::TransportOptions transport;
};

/// The generated inputs of one workload: the benchmark's own set-up,
/// never timed.
struct World {
  WorkloadConfig cfg;
  datagen::Scenario scenario;
  sample::HiddenSample sample;
  std::vector<std::unique_ptr<table::Table>> slices;
  std::vector<const table::Table*> tables;  // distinct local tables
  std::vector<PlanInput> plans;
  std::vector<TenantInput> tenants;
  std::unordered_map<table::EntityId, table::RecordId> hidden_by_entity;
  core::EnrichmentSpec enrich;
};

Result<std::unique_ptr<World>> MakeWorld(const WorkloadConfig& cfg,
                                         uint64_t seed) {
  auto w = std::make_unique<World>();
  w->cfg = cfg;
  datagen::DblpScenarioConfig scfg;
  scfg.corpus.corpus_size = cfg.corpus_size;
  scfg.corpus.db_community_fraction = cfg.db_fraction;
  scfg.corpus.seed = cfg.corpus_seed;
  scfg.hidden_size = cfg.hidden_size;
  scfg.local_size = cfg.local_size;
  scfg.top_k = cfg.top_k;
  scfg.seed = cfg.split_seed;
  SC_ASSIGN_OR_RETURN(w->scenario, datagen::BuildDblpScenario(scfg));
  // The scenario's own error step, with the run's seed.
  datagen::ErrorInjectOptions errors;
  errors.error_rate = cfg.error_rate;
  errors.seed = Mix(seed, 2);
  errors.target_field = "title";
  datagen::InjectErrors(&w->scenario.local, errors);
  w->sample = sample::BernoulliSample(*w->scenario.hidden, cfg.theta,
                                      cfg.sample_seed);
  for (const auto& rec : w->scenario.hidden->OracleTable().records()) {
    w->hidden_by_entity.emplace(rec.entity_id, rec.id);
  }

  const table::Table& local = w->scenario.local;
  if (cfg.num_slices <= 1) {
    w->tables.push_back(&local);
  } else {
    for (size_t s = 0; s < cfg.num_slices; ++s) {
      w->slices.push_back(std::make_unique<table::Table>(local.schema()));
    }
    for (const auto& rec : local.records()) {
      auto appended = w->slices[rec.id % cfg.num_slices]->Append(
          rec.fields, rec.entity_id);
      if (!appended.ok()) return appended.status();
    }
    for (const auto& s : w->slices) w->tables.push_back(s.get());
  }

  if (cfg.cli_plan) {
    // smartcrawl_cli defaults: SmartCrawl-B, Jaccard ER at 0.6 over all
    // local fields, crawled records kept for enrichment, one thread.
    PlanInput p;
    p.local = &local;
    p.options.policy = SelectionPolicy::kEstBiased;
    p.options.er.mode = ErMode::kJaccard;
    p.options.er.jaccard_threshold = 0.6;
    p.options.keep_crawled_records = true;
    p.options.num_threads = 1;
    w->plans.push_back(p);
  } else {
    for (size_t t = 0; t < w->tables.size(); ++t) {
      for (size_t pi = 0; pi < cfg.policies.size(); ++pi) {
        // With several slices each slice gets one policy, round-robin;
        // with one table every (policy, ER mode) pair gets a plan.
        if (w->tables.size() > 1 && pi != t % cfg.policies.size()) continue;
        for (ErMode er : cfg.er_modes) {
          PlanInput p;
          p.local = w->tables[t];
          p.table_index = t;
          p.options.policy = cfg.policies[pi];
          p.options.local_text_fields = w->scenario.local_text_fields;
          p.options.num_threads = 1;
          p.options.er.mode = er;
          p.options.er.jaccard_threshold = 0.6;
          w->plans.push_back(p);
        }
      }
    }
  }

  Rng budgets(Mix(seed, 4));
  for (size_t i = 0; i < cfg.num_tenants; ++i) {
    TenantInput t;
    t.plan = i % w->plans.size();
    if (cfg.cli_plan) {
      t.budget = cfg.budget_lo;
      t.transport.budget = cfg.budget_lo;  // the CLI's BudgetedInterface
    } else if (!cfg.flaky) {
      t.budget = cfg.budget_lo + i % (cfg.budget_hi - cfg.budget_lo + 1);
    } else {
      t.budget = static_cast<size_t>(budgets.UniformInt(
          static_cast<int64_t>(cfg.budget_lo),
          static_cast<int64_t>(cfg.budget_hi)));
      net::TransportOptions& tr = t.transport;
      tr.inject_faults = true;
      tr.fault.transient_fault_rate = 0.05;
      tr.fault.rate_limit_rate = 0.02;
      tr.fault.truncate_rate = 0.10;
      tr.fault.duplicate_rate = 0.05;
      tr.fault.seed = Mix(seed, 1000 + i);
      tr.daily_quota = cfg.daily_quota;
      tr.resilient = true;
      tr.retry.seed = Mix(seed, 5000 + i);
    }
    w->tenants.push_back(t);
  }

  w->enrich.er.mode = ErMode::kJaccard;
  w->enrich.er.jaccard_threshold = 0.6;
  w->enrich.num_threads = 1;
  w->enrich.import_fields = {{3, "year_live"}};
  return w;
}

using PlanSet = std::vector<std::shared_ptr<const core::CrawlPlan>>;

Result<PlanSet> BuildPlans(const World& w) {
  PlanSet plans;
  for (const PlanInput& in : w.plans) {
    SC_ASSIGN_OR_RETURN(auto plan,
                        core::CrawlPlan::Build(in.local, in.options, &w.sample));
    plans.emplace_back(std::move(plan));
  }
  return plans;
}

std::vector<core::SessionSpec> MakeSpecs(const World& w,
                                         const PlanSet& plans) {
  std::vector<core::SessionSpec> specs(w.tenants.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    specs[i].plan = plans[w.tenants[i].plan];
    specs[i].budget = w.tenants[i].budget;
    specs[i].transport = w.tenants[i].transport;
  }
  return specs;
}

// ---------------------------------------------------------------------------
// Session results and their digests.

struct SessionRecord {
  Status status = Status::OK();
  core::CrawlResult result;
  net::TransportStats transport;
  size_t quota_used = 0;
  double finish_s = 0.0;  // since the crawl started
};

/// Everything a session reports, for the Drive-vs-replica and
/// snapshot-vs-build equality checks.
uint64_t FullDigest(const SessionRecord& s) {
  Hasher h;
  h.U64(static_cast<uint64_t>(s.status.code()));
  const core::CrawlResult& r = s.result;
  h.U64(r.queries_issued);
  h.U64(r.stopped_early ? 1 : 0);
  for (const auto& it : r.iterations) {
    h.Str(it.query);
    h.U64(it.page_size);
    h.F64(it.estimated_benefit);
    for (auto e : it.page_entities) h.U64(e);
  }
  for (auto d : r.covered_local_ids) h.U64(d);
  for (const auto& rec : r.crawled_records) h.U64(rec.entity_id);
  const core::CrawlStats& st = r.stats;
  for (size_t v : {st.pool_size, st.pq_recomputes, st.fanout_updates,
                   st.records_fetched, st.queries_unavailable,
                   st.queries_rejected, st.delta_decrements}) {
    h.U64(v);
  }
  const net::TransportStats& t = s.transport;
  for (size_t v : {t.fault.attempts_seen, t.fault.transient_faults,
                   t.fault.rate_limited, t.fault.truncated_pages,
                   t.fault.duplicated_pages, t.retry.attempts,
                   t.retry.retries, t.retry.gave_up, t.retry.breaker_trips}) {
    h.U64(v);
  }
  h.U64(t.total_simulated_wait_ms());
  h.U64(s.quota_used);
  return h.value();
}

/// The workload's result digest: selected queries, returned entities and
/// covered ids of every session, then every cell of the enriched tables.
uint64_t ResultDigest(const std::vector<SessionRecord>& sessions,
                      const std::vector<table::Table>& enriched) {
  Hasher h;
  for (const SessionRecord& s : sessions) {
    h.U64(static_cast<uint64_t>(s.status.code()));
    for (const auto& it : s.result.iterations) {
      h.Str(it.query);
      for (auto e : it.page_entities) h.U64(e);
    }
    for (auto d : s.result.covered_local_ids) h.U64(d);
  }
  for (const table::Table& t : enriched) {
    for (const auto& rec : t.records()) {
      for (const auto& f : rec.fields) h.Str(f);
    }
  }
  return h.value();
}

SessionRecord FinishedRecord(core::CrawlSession& session) {
  SessionRecord out;
  out.result = session.TakeResult();
  out.transport = session.transport()->Stats();
  if (const auto* quota = session.transport()->quota()) {
    out.quota_used = quota->used_today();
  }
  return out;
}

// ---------------------------------------------------------------------------
// Traced-only decorators over the origin and the session's stack.

/// Times and counts what reaches the hidden database.
class TimedOrigin : public hidden::KeywordSearchInterface {
 public:
  TimedOrigin(hidden::KeywordSearchInterface* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  Result<std::vector<table::Record>> Search(
      const std::vector<std::string>& keywords) override {
    ScopedSpan span(tracer_, CurrentLane(), "hidden.Search");
    auto page = inner_->Search(keywords);
    if (page.ok()) {
      ++queries_;
      records_ += page->size();
      distinct_.insert(net::CachingInterface::NormalizedKey(keywords));
    }
    return page;
  }
  size_t top_k() const override { return inner_->top_k(); }
  size_t num_queries_issued() const override {
    return inner_->num_queries_issued();
  }

  size_t queries() const { return queries_; }
  size_t records() const { return records_; }
  size_t distinct_pages() const { return distinct_.size(); }

 private:
  hidden::KeywordSearchInterface* inner_;
  Tracer* tracer_;
  size_t queries_ = 0;
  size_t records_ = 0;
  std::unordered_set<std::string> distinct_;
};

/// Remembers the last page a session fetched, so the traced run can
/// replay it through the page-matching entry points.
class PageCapture : public hidden::KeywordSearchInterface {
 public:
  void set_inner(hidden::KeywordSearchInterface* inner) { inner_ = inner; }

  Result<std::vector<table::Record>> Search(
      const std::vector<std::string>& keywords) override {
    auto page = inner_->Search(keywords);
    if (page.ok()) {
      keywords_ = keywords;
      page_ = *page;
    }
    return page;
  }
  size_t top_k() const override { return inner_->top_k(); }
  size_t num_queries_issued() const override {
    return inner_->num_queries_issued();
  }

  const std::vector<std::string>& keywords() const { return keywords_; }
  const std::vector<table::Record>& page() const { return page_; }

 private:
  hidden::KeywordSearchInterface* inner_ = nullptr;
  std::vector<std::string> keywords_;
  std::vector<table::Record> page_;
};

std::string KeywordKey(const std::vector<std::string>& keywords) {
  std::string key;
  for (const auto& k : keywords) {
    key += k;
    key += '\x1f';
  }
  return key;
}

/// Per-plan keyword -> pool index, to name the query a captured page
/// answered.
using QueryIndex = std::unordered_map<std::string, QueryIdx>;

QueryIndex MakeQueryIndex(const core::CrawlPlan& plan) {
  QueryIndex out;
  const auto& queries = plan.pool().queries;
  for (QueryIdx q = 0; q < queries.size(); ++q) {
    out.emplace(KeywordKey(queries[q].keywords), q);
  }
  return out;
}

/// What the page replay of one session keeps between pages: its own copy
/// of the plan dictionary (grown by the same pages in the same order as
/// the session's) and a mirror of the session's removed set.
struct ReplayState {
  std::unique_ptr<text::TermDictionary> dict;
  std::vector<uint8_t> removed;
  size_t active = 0;
};

/// Mirrors CrawlSession's removal rule (QSel-Bound's Algorithm 3, the
/// estimators' Sec. 4.2 solid-page rule, plain removal otherwise), so the
/// next replayed match sees the session's active records. The benchmark
/// checks the mirror against CrawlSession::NumActive after every page.
void MirrorRemoval(const core::CrawlPlan& plan, QueryIdx q, bool page_solid,
                   const std::vector<table::RecordId>& matched,
                   ReplayState* st) {
  auto unmatched_active = [&] {
    std::vector<table::RecordId> out;
    for (table::RecordId d : plan.ActivePostings(q, st->removed)) {
      if (!std::binary_search(matched.begin(), matched.end(), d)) {
        out.push_back(d);
      }
    }
    return out;
  };
  std::vector<table::RecordId> to_remove = matched;
  switch (plan.options().policy) {
    case SelectionPolicy::kBound: {
      std::vector<table::RecordId> unmatched = unmatched_active();
      if (!unmatched.empty()) to_remove = std::move(unmatched);
      break;
    }
    case SelectionPolicy::kEstBiased:
    case SelectionPolicy::kEstUnbiased:
      if (page_solid && plan.options().remove_unmatched_solid) {
        for (table::RecordId d : unmatched_active()) to_remove.push_back(d);
      }
      break;
    default:
      break;
  }
  for (table::RecordId d : to_remove) {
    if (!st->removed[d]) {
      st->removed[d] = 1;
      --st->active;
    }
  }
}

/// Replays one processed page through the two page-matching entry points:
/// tokenize into the replay's dictionary copy, then match against the
/// mirrored active records.
void ReplayPage(const core::CrawlPlan& plan, const QueryIndex& qindex,
                const PageCapture& capture, ReplayState* st, Tracer* tracer,
                uint32_t lane) {
  const QueryIdx q = qindex.at(KeywordKey(capture.keywords()));
  const std::vector<table::Record>& page = capture.page();
  const bool need_docs = plan.needs_page_documents();
  std::vector<text::Document> docs;
  if (need_docs) {
    ScopedSpan span(tracer, lane, "replay.page_tokenize");
    docs = core::CrawlPlan::BuildPageDocuments(page, st->dict.get());
  }
  std::vector<table::RecordId> matched;
  {
    ScopedSpan span(tracer, lane, "replay.page_match");
    matched = plan.MatchPreparedPage(q, page, need_docs ? &docs : nullptr,
                                     st->removed);
  }
  MirrorRemoval(plan, q, page.size() < capture.top_k(), matched, st);
}

// ---------------------------------------------------------------------------
// The step-API replica of the service's round loop.

struct ReplicaStats {
  size_t rounds = 0;
  double issue_s = 0.0;         // serial IssueNext time (phase A)
  double compute_s = 0.0;       // summed ProcessPendingPage time
  double compute_wall_s = 0.0;  // wall time of phase B
  double wall_s = 0.0;
  net::CacheStats cache;
  size_t origin_queries = 0;
  size_t mirror_diverged = 0;  // sessions whose replay mirror diverged
};

/// Drives `specs` in rounds exactly like CrawlService's round-based
/// driver: phase A issues at most one accepted query per live session in
/// index order on this thread, phase B processes the fetched pages on
/// `workers` threads. With a tracer it records spans and replays each
/// page through the page-matching entry points.
std::vector<SessionRecord> RunReplica(
    const std::vector<core::SessionSpec>& specs,
    hidden::KeywordSearchInterface* origin, size_t cache_capacity,
    unsigned workers, Tracer* tracer, ReplicaStats* stats) {
  const size_t n = specs.size();
  const size_t origin_before = origin->num_queries_issued();
  const Clock::time_point start = Clock::now();
  std::unique_ptr<net::CachingInterface> cache;
  hidden::KeywordSearchInterface* shared = origin;
  if (cache_capacity > 0) {
    cache = MakeSharedCache(origin, cache_capacity);
    shared = cache.get();
  }

  std::vector<std::unique_ptr<core::CrawlSession>> sessions(n);
  std::vector<SessionRecord> out(n);
  std::vector<uint8_t> done(n, 0);
  std::vector<uint8_t> pending(n, 0);
  std::vector<double> busy(n, 0.0);
  // Traced-only state.
  std::vector<PageCapture> capture(tracer != nullptr ? n : 0);
  std::vector<ReplayState> replay(tracer != nullptr ? n : 0);
  std::vector<uint8_t> mirror_diverged(n, 0);
  std::map<const core::CrawlPlan*, QueryIndex> qindex;

  size_t running = n;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t lane = static_cast<uint32_t>(i + 1);
    SetCurrentLane(lane);
    {
      ScopedSpan span(tracer, lane, "session.construct");
      sessions[i] = std::make_unique<core::CrawlSession>(*specs[i].plan);
    }
    sessions[i]->AttachTransport(shared, specs[i].transport);
    Status begun = sessions[i]->Begin(
        sessions[i]->transport()->top()->top_k(), specs[i].budget);
    if (!begun.ok()) {
      out[i].status = std::move(begun);
      out[i].finish_s = Since(start);
      done[i] = 1;
      --running;
      continue;
    }
    if (tracer != nullptr) {
      capture[i].set_inner(sessions[i]->transport()->top());
      const core::CrawlPlan* plan = specs[i].plan.get();
      if (!qindex.count(plan)) qindex.emplace(plan, MakeQueryIndex(*plan));
      if (plan->needs_page_documents()) {
        replay[i].dict = std::make_unique<text::TermDictionary>(plan->dict());
      }
      replay[i].removed.assign(plan->num_records(), 0);
      replay[i].active = plan->num_records();
    }
  }

  util::ThreadPool pool(workers);
  while (running > 0) {
    ++stats->rounds;
    const Clock::time_point a0 = Clock::now();
    {
      ScopedSpan phase(tracer, 0, "service.phase_a");
      const uint64_t phase_id = tracer ? tracer->Current(0) : 0;
      for (size_t i = 0; i < n; ++i) {
        if (done[i]) continue;
        const uint32_t lane = static_cast<uint32_t>(i + 1);
        SetCurrentLane(lane);
        Result<bool> have_page = false;
        {
          ScopedSpan span(tracer, lane, "session.IssueNext", phase_id);
          have_page = tracer != nullptr ? sessions[i]->IssueNext(&capture[i])
                                        : sessions[i]->IssueNext();
        }
        if (have_page.ok() && *have_page) {
          pending[i] = 1;
          continue;
        }
        if (!have_page.ok()) {
          out[i].status = have_page.status();
        } else {
          out[i] = FinishedRecord(*sessions[i]);
        }
        out[i].finish_s = Since(start);
        done[i] = 1;
        --running;
      }
    }
    stats->issue_s += Since(a0);

    const Clock::time_point b0 = Clock::now();
    {
      ScopedSpan phase(tracer, 0, "service.phase_b");
      const uint64_t phase_id = tracer ? tracer->Current(0) : 0;
      pool.ParallelFor(0, n, 1, [&](size_t i) {
        if (!pending[i]) return;
        const uint32_t lane = static_cast<uint32_t>(i + 1);
        SetCurrentLane(lane);
        const Clock::time_point t0 = Clock::now();
        {
          ScopedSpan span(tracer, lane, "session.ProcessPendingPage",
                          phase_id);
          sessions[i]->ProcessPendingPage();
        }
        busy[i] += Since(t0);
        if (tracer != nullptr) {
          const core::CrawlPlan& plan = *specs[i].plan;
          ScopedSpan span(tracer, lane, "replay.page", phase_id);
          ReplayPage(plan, qindex.at(&plan), capture[i], &replay[i], tracer,
                     lane);
          if (replay[i].active != sessions[i]->NumActive()) {
            mirror_diverged[i] = 1;
          }
        }
        pending[i] = 0;
      });
    }
    stats->compute_wall_s += Since(b0);
  }
  SetCurrentLane(0);
  stats->wall_s = Since(start);
  for (double b : busy) stats->compute_s += b;
  for (uint8_t d : mirror_diverged) stats->mirror_diverged += d;
  if (cache != nullptr) stats->cache = cache->stats();
  stats->origin_queries = origin->num_queries_issued() - origin_before;
  return out;
}

struct DriveStats {
  double wall_s = 0.0;
  net::CacheStats cache;
  size_t origin_queries = 0;
};

std::vector<SessionRecord> RunDrive(const World& w,
                                    const std::vector<core::SessionSpec>& specs,
                                    Status* status, DriveStats* stats) {
  hidden::HiddenDatabase* origin = w.scenario.hidden.get();
  core::CrawlServiceOptions opt;
  opt.num_threads = w.cfg.workers;
  opt.shared_cache_capacity = w.cfg.shared_cache;
  core::CrawlService service(origin, opt);
  std::vector<SessionRecord> out(specs.size());
  const size_t origin_before = origin->num_queries_issued();
  const Clock::time_point start = Clock::now();
  *status = service.Drive(specs, [&](size_t i, core::SessionOutcome o) {
    out[i].finish_s = Since(start);
    out[i].status = std::move(o.status);
    out[i].result = std::move(o.result);
    out[i].transport = o.transport;
    out[i].quota_used = o.quota_used_today;
  });
  stats->wall_s = Since(start);
  stats->origin_queries = origin->num_queries_issued() - origin_before;
  if (auto cs = service.shared_cache_stats()) stats->cache = *cs;
  return out;
}

// ---------------------------------------------------------------------------
// Enrichment: each distinct local table is enriched with the deduplicated
// hidden records its tenants crawled (rebuilt from the page logs).

std::vector<std::vector<table::Record>> CrawledPerTable(
    const World& w, const std::vector<SessionRecord>& sessions) {
  std::vector<std::vector<table::Record>> out(w.tables.size());
  std::vector<std::unordered_set<table::EntityId>> seen(w.tables.size());
  const table::Table& hidden = w.scenario.hidden->OracleTable();
  for (size_t i = 0; i < sessions.size(); ++i) {
    const size_t t = w.plans[w.tenants[i].plan].table_index;
    for (const auto& it : sessions[i].result.iterations) {
      for (table::EntityId e : it.page_entities) {
        if (!seen[t].insert(e).second) continue;
        out[t].push_back(hidden.record(w.hidden_by_entity.at(e)));
      }
    }
  }
  return out;
}

struct EnrichResult {
  std::vector<table::Table> tables;
  size_t records_enriched = 0;
  double seconds = 0.0;
};

Status Enrich(const World& w,
              const std::vector<std::vector<table::Record>>& crawled,
              Tracer* tracer, EnrichResult* out) {
  for (size_t t = 0; t < w.tables.size(); ++t) {
    const Clock::time_point t0 = Clock::now();
    ScopedSpan span(tracer, 0, "core.EnrichTable");
    SC_ASSIGN_OR_RETURN(auto outcome,
                        core::EnrichTable(*w.tables[t], crawled[t], w.enrich));
    out->seconds += Since(t0);
    out->records_enriched += outcome.records_enriched;
    out->tables.push_back(std::move(outcome.enriched));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Metrics of one pass.

using Metrics = std::map<std::string, double>;
using Samples = std::map<std::string, std::vector<double>>;

struct PassOutput {
  Samples samples;  // every measurement of every metric
  size_t sessions = 0;
  size_t failed_sessions = 0;
  uint64_t digest = 0;
  std::vector<std::string> errors;
};

double CoverageShare(const World& w, const std::vector<SessionRecord>& s) {
  double sum = 0.0;
  for (size_t i = 0; i < s.size(); ++i) {
    const table::Table& local = *w.plans[w.tenants[i].plan].local;
    sum += static_cast<double>(core::FinalCoverage(local, s[i].result)) /
           static_cast<double>(std::max<size_t>(local.size(), 1));
  }
  return s.empty() ? 0.0 : sum / static_cast<double>(s.size());
}

/// ok_share = 1 - (non-OK sessions + queries skipped as unavailable) /
/// (sessions + queries selected).
double OkShare(const std::vector<SessionRecord>& s) {
  double bad = 0.0;
  double total = 0.0;
  for (const SessionRecord& r : s) {
    const core::CrawlStats& st = r.result.stats;
    bad += (r.status.ok() ? 0.0 : 1.0) +
           static_cast<double>(st.queries_unavailable);
    total += 1.0 + static_cast<double>(r.result.queries_issued +
                                       st.queries_unavailable +
                                       st.queries_rejected);
  }
  return total == 0.0 ? 0.0 : 1.0 - bad / total;
}

size_t TotalRecords(const World& w) {
  size_t n = 0;
  for (const table::Table* t : w.tables) n += t->size();
  return n;
}

void CheckSessions(const std::vector<SessionRecord>& s, const char* what,
                   PassOutput* out) {
  for (size_t i = 0; i < s.size(); ++i) {
    if (!s[i].status.ok()) {
      ++out->failed_sessions;
      out->errors.push_back(std::string(what) + ": session " +
                            std::to_string(i) + " failed: " +
                            s[i].status.ToString());
    }
  }
}

void CheckSame(const std::vector<SessionRecord>& a,
               const std::vector<SessionRecord>& b, const std::string& what,
               PassOutput* out) {
  if (a.size() != b.size()) {
    out->errors.push_back(what + ": session counts differ");
    return;
  }
  size_t differing = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (FullDigest(a[i]) != FullDigest(b[i])) ++differing;
  }
  if (differing > 0) {
    out->errors.push_back(what + ": " + std::to_string(differing) +
                          " sessions differ");
  }
}

struct SnapshotSet {
  std::vector<std::string> paths;
  uint64_t bytes = 0;
};

Result<SnapshotSet> SavePlans(const PlanSet& plans, const std::string& dir,
                              Tracer* tracer) {
  SnapshotSet out;
  for (size_t p = 0; p < plans.size(); ++p) {
    std::string path = dir + "/plan-" + std::to_string(p) + ".snap";
    {
      ScopedSpan span(tracer, 0, "snapshot.save");
      SC_RETURN_NOT_OK(plans[p]->Serialize(path));
    }
    out.bytes += std::filesystem::file_size(path);
    out.paths.push_back(std::move(path));
  }
  return out;
}

Result<PlanSet> LoadPlans(const SnapshotSet& snaps, Tracer* tracer) {
  PlanSet plans;
  for (const std::string& path : snaps.paths) {
    ScopedSpan span(tracer, 0, "snapshot.load");
    SC_ASSIGN_OR_RETURN(auto plan, core::CrawlPlan::LoadSnapshot(path));
    plans.emplace_back(std::move(plan));
  }
  return plans;
}

/// The crawl of the untraced pass: one Drive on the fleets, the step-API
/// session loop on deepenrich.
std::vector<SessionRecord> TimedCrawl(const World& w,
                                      const std::vector<core::SessionSpec>& specs,
                                      double* wall_s, size_t* origin_queries,
                                      PassOutput* out) {
  if (w.cfg.use_service) {
    Status st = Status::OK();
    DriveStats ds;
    auto sessions = RunDrive(w, specs, &st, &ds);
    if (!st.ok()) out->errors.push_back("Drive: " + st.ToString());
    *wall_s = ds.wall_s;
    *origin_queries = ds.origin_queries;
    return sessions;
  }
  ReplicaStats rs;
  auto sessions = RunReplica(specs, w.scenario.hidden.get(), w.cfg.shared_cache,
                             w.cfg.workers, nullptr, &rs);
  *wall_s = rs.wall_s;
  *origin_queries = rs.origin_queries;
  return sessions;
}

/// One untraced pass: build and reload (each several times), crawl,
/// enrich. The first pass also runs the reference checks.
PassOutput UntracedPass(const World& w, const std::string& work_dir,
                        bool first) {
  PassOutput out;
  Samples& m = out.samples;
  PlanSet plans;
  for (size_t b = 0; b < w.cfg.builds_per_pass; ++b) {
    const Clock::time_point t0 = Clock::now();
    auto built = BuildPlans(w);
    m["setup_s"].push_back(Since(t0));
    if (!built.ok()) {
      out.errors.push_back("Build: " + built.status().ToString());
      return out;
    }
    plans = std::move(built).value();
  }

  auto snaps = SavePlans(plans, work_dir, nullptr);
  if (!snaps.ok()) {
    out.errors.push_back("Serialize: " + snaps.status().ToString());
    return out;
  }
  Result<PlanSet> loaded = PlanSet{};
  for (size_t l = 0; l < w.cfg.loads_per_pass && loaded.ok(); ++l) {
    const Clock::time_point t0 = Clock::now();
    loaded = LoadPlans(*snaps, nullptr);
    m["reload_s"].push_back(Since(t0));
  }
  if (!loaded.ok()) {
    out.errors.push_back("LoadSnapshot: " + loaded.status().ToString());
    return out;
  }

  const auto specs = MakeSpecs(w, plans);
  std::vector<SessionRecord> sessions;
  for (size_t c = 0; c < w.cfg.crawls_per_pass; ++c) {
    double wall_s = 0.0;
    size_t origin_queries = 0;
    auto crawl = TimedCrawl(w, specs, &wall_s, &origin_queries, &out);
    CheckSessions(crawl, "crawl", &out);
    out.sessions += crawl.size();
    const double n = static_cast<double>(crawl.size());
    m["crawl_s"].push_back(wall_s);
    m["sessions_per_s"].push_back(n / wall_s);
    m["origin_queries_per_session"].push_back(
        static_cast<double>(origin_queries) / n);
    std::vector<double> finish_ms;
    for (const auto& s : crawl) finish_ms.push_back(s.finish_s * 1e3);
    m["session_p50_ms"].push_back(Percentile(finish_ms, 50));
    m["session_p99_ms"].push_back(Percentile(finish_ms, 99));
    if (c == 0) {
      sessions = std::move(crawl);
    } else {
      CheckSame(sessions, crawl, "repeated crawl", &out);
    }
  }
  m["coverage"].push_back(CoverageShare(w, sessions));
  m["ok_share"].push_back(OkShare(sessions));

  EnrichResult enriched;
  Status st = Enrich(w, CrawledPerTable(w, sessions), nullptr, &enriched);
  if (!st.ok()) out.errors.push_back("EnrichTable: " + st.ToString());
  m["enrich_s"].push_back(enriched.seconds);
  m["enriched_fraction"].push_back(
      static_cast<double>(enriched.records_enriched) /
      static_cast<double>(TotalRecords(w)));
  out.digest = ResultDigest(sessions, enriched.tables);

  if (first) {
    // Reference: the step-API replica over the snapshot-loaded plans must
    // reproduce the timed crawl over the built plans session by session.
    ReplicaStats rs;
    auto reference =
        RunReplica(MakeSpecs(w, *loaded), w.scenario.hidden.get(),
                   w.cfg.shared_cache, w.cfg.workers, nullptr, &rs);
    CheckSame(sessions, reference,
              w.cfg.use_service ? "Drive vs replica over loaded plans"
                                : "built vs snapshot-loaded plan",
              &out);
  }
  for (const auto& p : snaps->paths) std::filesystem::remove(p);
  return out;
}

// ---------------------------------------------------------------------------
// The traced pass.

/// Replays CrawlPlan::Build's stages through their public entry points on
/// the same inputs, under spans named after the stages.
void ReplayPlanStages(const World& w, Tracer* tracer, Metrics* m) {
  for (const PlanInput& in : w.plans) {
    const core::SmartCrawlOptions& opt = in.options;
    text::TermDictionary dict;
    std::vector<text::Document> docs;
    {
      ScopedSpan span(tracer, 0, "plan.documents");
      docs = in.local->BuildDocuments(dict, opt.local_text_fields);
    }
    core::QueryPool pool;
    {
      ScopedSpan span(tracer, 0, "plan.pool");
      core::QueryPoolOptions popt = opt.pool;
      popt.num_threads = opt.num_threads;
      pool = core::GenerateQueryPool(docs, dict, popt);
    }
    (*m)["plan.pool_queries"] += static_cast<double>(pool.size());
    const bool est = opt.policy == SelectionPolicy::kEstBiased ||
                     opt.policy == SelectionPolicy::kEstUnbiased;
    if (!est) continue;
    std::vector<text::Document> sample_docs;
    {
      ScopedSpan span(tracer, 0, "plan.sample_freq");
      for (const auto& rec : w.sample.records.records()) {
        sample_docs.push_back(text::Document::FromText(
            w.sample.records.ConcatenatedText(rec.id), dict));
      }
      index::InvertedIndex sample_index(sample_docs, dict.size());
      uint64_t sum = 0;
      for (const auto& q : pool.queries) {
        sum += sample_index.IntersectionSize(q.terms);
      }
      g_sink = g_sink + sum;
    }
    if (opt.er.mode == ErMode::kJaccard) {
      ScopedSpan span(tracer, 0, "plan.sample_match");
      auto pairs = match::AutoJaccardJoin(docs, sample_docs,
                                          opt.er.jaccard_threshold,
                                          opt.num_threads);
      g_sink = g_sink + pairs.size();
    }
  }
}

/// Replays EnrichTable's two halves: tokenizing both sides, then the
/// best-match join.
void ReplayEnrich(const World& w,
                  const std::vector<std::vector<table::Record>>& crawled,
                  Tracer* tracer, Metrics* m) {
  for (size_t t = 0; t < w.tables.size(); ++t) {
    text::TermDictionary dict;
    std::vector<text::Document> local_docs;
    std::vector<text::Document> crawled_docs;
    {
      ScopedSpan span(tracer, 0, "enrich.documents");
      local_docs = w.tables[t]->BuildDocuments(dict,
                                               w.enrich.local_match_fields);
      for (const auto& rec : crawled[t]) {
        std::string textv;
        for (size_t i = 0; i < rec.fields.size(); ++i) {
          if (i > 0) textv += ' ';
          textv += rec.fields[i];
        }
        crawled_docs.push_back(text::Document::FromText(textv, dict));
      }
    }
    std::vector<int32_t> best;
    {
      ScopedSpan span(tracer, 0, "enrich.join");
      best = match::BestMatchPerLeft(local_docs, crawled_docs,
                                     w.enrich.er.jaccard_threshold,
                                     w.enrich.num_threads);
    }
    (*m)["enrich.candidate_pairs"] +=
        static_cast<double>(local_docs.size() * crawled_docs.size());
    (*m)["enrich.matches"] += static_cast<double>(
        std::count_if(best.begin(), best.end(), [](int32_t b) { return b >= 0; }));
  }
}

void AddTransportMetrics(const std::vector<SessionRecord>& sessions,
                         Metrics* m) {
  for (const char* k :
       {"net.retries", "net.gave_up", "net.breaker_trips",
        "net.transient_faults", "net.rate_limited", "net.truncated_pages",
        "net.duplicated_pages", "net.simulated_wait_ms", "hidden.quota_used",
        "session.pq_recomputes", "session.fanout_updates",
        "session.delta_decrements", "session.records_fetched"}) {
    (*m)[k] = 0.0;
  }
  for (const SessionRecord& s : sessions) {
    const net::TransportStats& t = s.transport;
    (*m)["net.retries"] += static_cast<double>(t.retry.retries);
    (*m)["net.gave_up"] += static_cast<double>(t.retry.gave_up);
    (*m)["net.breaker_trips"] += static_cast<double>(t.retry.breaker_trips);
    (*m)["net.transient_faults"] += static_cast<double>(t.fault.transient_faults);
    (*m)["net.rate_limited"] += static_cast<double>(t.fault.rate_limited);
    (*m)["net.truncated_pages"] += static_cast<double>(t.fault.truncated_pages);
    (*m)["net.duplicated_pages"] +=
        static_cast<double>(t.fault.duplicated_pages);
    (*m)["net.simulated_wait_ms"] +=
        static_cast<double>(t.total_simulated_wait_ms());
    (*m)["hidden.quota_used"] += static_cast<double>(s.quota_used);
    const core::CrawlStats& st = s.result.stats;
    (*m)["session.pq_recomputes"] += static_cast<double>(st.pq_recomputes);
    (*m)["session.fanout_updates"] += static_cast<double>(st.fanout_updates);
    (*m)["session.delta_decrements"] +=
        static_cast<double>(st.delta_decrements);
    (*m)["session.records_fetched"] += static_cast<double>(st.records_fetched);
  }
}

/// Time per layer group, for naming the dominant layer of a workload.
std::string DominantLayer(const Metrics& m) {
  const std::vector<std::pair<std::string, double>> layers = {
      {"core.plan", m.at("plan.build_s")},
      {"snapshot", m.at("snapshot.save_s") + m.at("snapshot.load_s")},
      {"core.session.issue", m.at("session.issue_s") - m.at("hidden.search_s")},
      {"hidden", m.at("hidden.search_s")},
      {"core.session.process", m.at("session.process_s")},
      {"core.enrich", m.at("enrich.documents_s") + m.at("enrich.join_s")},
  };
  auto best = std::max_element(
      layers.begin(), layers.end(),
      [](const auto& a, const auto& b) { return a.second < b.second; });
  return best->first;
}

PassOutput TracedPass(const World& w, const std::string& work_dir,
                      const std::string& trace_out,
                      const std::string& context_json,
                      std::string* dominant) {
  PassOutput out;
  Metrics m;
  Tracer tracer(w.tenants.size() + 1);
  SetCurrentLane(0);

  // core plan build: the stages, then Build itself.
  ReplayPlanStages(w, &tracer, &m);
  PlanSet plans;
  {
    ScopedSpan span(&tracer, 0, "plan.build");
    auto built = BuildPlans(w);
    if (!built.ok()) {
      out.errors.push_back("Build: " + built.status().ToString());
      return out;
    }
    plans = std::move(built).value();
  }
  index::KernelStats kernels;
  for (const auto& p : plans) kernels += p->build_kernel_stats();
  m["index.kernel_galloping"] = static_cast<double>(kernels.galloping);
  m["index.kernel_merge"] = static_cast<double>(kernels.merge);
  m["index.kernel_bitmap"] = static_cast<double>(kernels.bitmap);
  m["index.kernel_simd_merge"] = static_cast<double>(SimdMerge(kernels));
  m["index.kernel_simd_gallop"] = static_cast<double>(SimdGallop(kernels));
  m["index.kernel_bitmap_blocked"] =
      static_cast<double>(BitmapBlocked(kernels));

  // snapshot
  auto snaps = SavePlans(plans, work_dir, &tracer);
  if (!snaps.ok()) {
    out.errors.push_back("Serialize: " + snaps.status().ToString());
    return out;
  }
  auto loaded = LoadPlans(*snaps, &tracer);
  if (!loaded.ok()) {
    out.errors.push_back("LoadSnapshot: " + loaded.status().ToString());
    return out;
  }
  m["snapshot.bytes"] = static_cast<double>(snaps->bytes);
  for (const auto& p : snaps->paths) std::filesystem::remove(p);

  // The untraced crawl (Drive on the fleets) and the untraced replica,
  // then the traced replica; all three must agree session by session.
  const auto specs = MakeSpecs(w, plans);
  double drive_wall = 0.0;
  size_t origin_queries = 0;
  auto untraced = TimedCrawl(w, specs, &drive_wall, &origin_queries, &out);
  CheckSessions(untraced, "crawl", &out);
  ReplicaStats plain;
  auto replica = RunReplica(specs, w.scenario.hidden.get(), w.cfg.shared_cache,
                            w.cfg.workers, nullptr, &plain);
  TimedOrigin timed(w.scenario.hidden.get(), &tracer);
  ReplicaStats traced;
  auto traced_sessions = RunReplica(specs, &timed, w.cfg.shared_cache,
                                    w.cfg.workers, &tracer, &traced);
  CheckSessions(traced_sessions, "traced replica", &out);
  if (traced.mirror_diverged > 0) {
    out.errors.push_back(std::to_string(traced.mirror_diverged) +
                         " sessions: replayed removed set diverged from "
                         "CrawlSession::NumActive");
  }
  CheckSame(untraced, replica, "untraced crawl vs replica", &out);
  CheckSame(untraced, traced_sessions, "untraced crawl vs traced replica",
            &out);
  out.sessions = traced_sessions.size();

  // core enrich / match
  const auto crawled = CrawledPerTable(w, traced_sessions);
  EnrichResult enriched;
  Status st = Enrich(w, crawled, &tracer, &enriched);
  if (!st.ok()) out.errors.push_back("EnrichTable: " + st.ToString());
  ReplayEnrich(w, crawled, &tracer, &m);
  out.digest = ResultDigest(traced_sessions, enriched.tables);

  // Per-layer metrics from the spans and counters.
  m["plan.documents_s"] = tracer.TotalSeconds("plan.documents");
  m["plan.pool_s"] = tracer.TotalSeconds("plan.pool");
  m["plan.sample_freq_s"] = tracer.TotalSeconds("plan.sample_freq");
  m["plan.sample_match_s"] = tracer.TotalSeconds("plan.sample_match");
  m["plan.build_s"] = tracer.TotalSeconds("plan.build");
  m["plan.other_s"] = m["plan.build_s"] - m["plan.documents_s"] -
                      m["plan.pool_s"] - m["plan.sample_freq_s"] -
                      m["plan.sample_match_s"];
  m["snapshot.save_s"] = tracer.TotalSeconds("snapshot.save");
  m["snapshot.load_s"] = tracer.TotalSeconds("snapshot.load");

  const double steps =
      static_cast<double>(tracer.Count("session.ProcessPendingPage"));
  m["session.construct_us"] = tracer.TotalSeconds("session.construct") * 1e6 /
                              static_cast<double>(w.tenants.size());
  m["session.issue_s"] = tracer.TotalSeconds("session.IssueNext");
  m["session.process_s"] = tracer.TotalSeconds("session.ProcessPendingPage");
  m["session.steps"] = steps;
  m["session.page_tokenize_s"] = tracer.TotalSeconds("replay.page_tokenize");
  m["session.page_match_s"] = tracer.TotalSeconds("replay.page_match");
  m["session.update_s"] = m["session.process_s"] -
                          m["session.page_tokenize_s"] -
                          m["session.page_match_s"];
  AddTransportMetrics(traced_sessions, &m);
  m["session.page_redundancy"] =
      steps / static_cast<double>(std::max<size_t>(timed.distinct_pages(), 1));

  m["service.rounds"] = static_cast<double>(plain.rounds);
  m["service.issue_s"] = plain.issue_s;
  m["service.compute_s"] = plain.compute_s;
  m["service.compute_wall_s"] = plain.compute_wall_s;
  m["service.worker_utilization"] =
      plain.compute_s / (plain.compute_wall_s * w.cfg.workers);
  m["service.replica_wall_s"] = plain.wall_s;
  m["service.drive_wall_s"] = drive_wall;

  m["hidden.search_s"] = tracer.TotalSeconds("hidden.Search");
  m["hidden.queries"] = static_cast<double>(timed.queries());
  m["hidden.distinct_pages"] = static_cast<double>(timed.distinct_pages());
  m["hidden.records_returned"] = static_cast<double>(timed.records());

  m["net.cache_hits"] = static_cast<double>(traced.cache.hits);
  m["net.cache_misses"] = static_cast<double>(traced.cache.misses);
  m["net.cache_evictions"] = static_cast<double>(traced.cache.evictions);
  m["net.cache_hit_rate"] = traced.cache.hit_rate();
  if (traced.cache.hits != plain.cache.hits ||
      traced.cache.evictions != plain.cache.evictions ||
      traced.origin_queries != origin_queries) {
    out.errors.push_back("replica cache/origin counters differ from the "
                         "untraced crawl");
  }

  m["enrich.documents_s"] = tracer.TotalSeconds("enrich.documents");
  m["enrich.join_s"] = tracer.TotalSeconds("enrich.join");
  m["enrich.match_yield"] =
      m["enrich.matches"] / std::max(m["enrich.candidate_pairs"], 1.0);

  m["trace.overhead_s"] = traced.wall_s - plain.wall_s;
  m["trace.spans"] = static_cast<double>(tracer.NumSpans());
  *dominant = DominantLayer(m);
  for (const auto& [k, v] : m) out.samples[k].push_back(v);

  if (!trace_out.empty() && !tracer.WriteChromeTrace(trace_out, context_json)) {
    out.errors.push_back("cannot write trace file " + trace_out);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Driver.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string work_dir = ".";
  std::string trace_out;
  std::string expect_digest;
  std::string git_sha = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    auto value = [&](std::string* v) {
      if (i + 1 >= argc) return false;
      *v = argv[++i];
      return true;
    };
    std::string v;
    if (k == "--smoke") {
      a->smoke = true;
    } else if (!value(&v)) {
      return false;
    } else if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--work-dir") {
      a->work_dir = v;
    } else if (k == "--trace-out") {
      a->trace_out = v;
    } else if (k == "--expect-digest") {
      a->expect_digest = v;
    } else if (k == "--git-sha") {
      a->git_sha = v;
    } else {
      return false;
    }
  }
  return !a->workload.empty();
}

/// End-to-end metrics: name -> unit (the BENCHMARK.json contract).
const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"setup_s", "s"},
    {"reload_s", "s"},
    {"crawl_s", "s"},
    {"enrich_s", "s"},
    {"sessions_per_s", "1/s"},
    {"session_p50_ms", "ms"},
    {"session_p99_ms", "ms"},
    {"origin_queries_per_session", "count"},
    {"coverage", "fraction"},
    {"enriched_fraction", "fraction"},
    {"ok_share", "fraction"},
    {"peak_rss_mb", "MB"},
};

std::string UnitOf(const std::string& name) {
  for (const auto& [n, u] : kEndToEnd) {
    if (n == name) return u;
  }
  auto ends = [&](const char* suffix) {
    const size_t l = std::strlen(suffix);
    return name.size() >= l && name.compare(name.size() - l, l, suffix) == 0;
  };
  if (ends("_us")) return "us";
  if (ends("_ms")) return "ms";
  if (ends("_s")) return "s";
  if (ends("bytes")) return "bytes";
  if (ends("_rate") || ends("_yield") || ends("_utilization")) {
    return "fraction";
  }
  if (ends("redundancy")) return "ratio";
  return "count";
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--smoke] [--work-dir DIR] [--trace-out FILE] "
                 "[--expect-digest HEX] [--git-sha SHA]\n");
    return 2;
  }
  WorkloadConfig cfg;
  if (!MakeConfig(args.workload, args.smoke, &cfg)) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);

  const char* no_simd = std::getenv("SC_DISABLE_SIMD");
  std::string context =
      "{\"workload\":" + JsonString(args.workload) +
      ",\"seed\":" + std::to_string(args.seed) +
      ",\"scale\":" + JsonString(args.smoke ? "smoke" : "full") +
      ",\"trace\":" + (args.trace ? "1" : "0") +
      ",\"num_cpus\":" + std::to_string(std::thread::hardware_concurrency()) +
      ",\"build_type\":" + JsonString(SC_BENCH_BUILD_TYPE) +
      ",\"compiler\":" + JsonString(SC_BENCH_COMPILER) +
      ",\"git_sha\":" + JsonString(args.git_sha) +
      ",\"simd_tier\":" + JsonString(SimdTier()) +
      ",\"sc_disable_simd\":" + JsonString(no_simd ? no_simd : "") + "}";

  auto world_or = MakeWorld(cfg, args.seed);
  if (!world_or.ok()) {
    std::fprintf(stderr, "world: %s\n", world_or.status().ToString().c_str());
    return 1;
  }
  const World& w = **world_or;

  std::vector<PassOutput> passes;
  std::string dominant;
  const Clock::time_point start = Clock::now();
  do {
    const bool first = passes.empty();
    if (args.trace) {
      std::string d;
      passes.push_back(TracedPass(w, args.work_dir,
                                  first ? args.trace_out : std::string(),
                                  context, &d));
      if (first) dominant = d;
    } else {
      passes.push_back(UntracedPass(w, args.work_dir, first));
    }
  } while (Since(start) < args.seconds);

  // Aggregate: median per metric over passes; session latencies pooled.
  std::vector<std::string> errors;
  size_t attempted = 0;
  size_t failed = 0;
  std::map<std::string, std::vector<double>> samples;
  for (const PassOutput& p : passes) {
    attempted += p.sessions;
    failed += p.failed_sessions;
    errors.insert(errors.end(), p.errors.begin(), p.errors.end());
    for (const auto& [k, v] : p.samples) {
      samples[k].insert(samples[k].end(), v.begin(), v.end());
    }
    if (p.digest != passes.front().digest) {
      errors.push_back("result digest changed between passes");
    }
  }
  const std::string digest = Hex(passes.front().digest);
  if (!args.expect_digest.empty() && args.expect_digest != digest) {
    errors.push_back("result digest " + digest + " != recorded " +
                     args.expect_digest);
  }
  Metrics result;
  for (const auto& [k, v] : samples) result[k] = Median(v);
  if (!args.trace) {
    result["peak_rss_mb"] = PeakRssMb();
  }
  for (const std::string& e : errors) std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());

  std::printf("context: %s\n", context.c_str());
  const std::string dominant_json =
      args.trace ? ",\"dominant_layer\":" + JsonString(dominant) : "";
  std::printf("result: {\"digest\":\"%s\",\"passes\":%zu,\"sessions\":%zu%s}\n",
              digest.c_str(), passes.size(), attempted, dominant_json.c_str());
  for (const auto& [k, v] : result) {
    auto it = samples.find(k);
    const std::vector<double> none;
    const std::vector<double>& all = it == samples.end() ? none : it->second;
    std::printf("  %-32s %16.6f %-8s", k.c_str(), v, UnitOf(k).c_str());
    if (all.size() > 1) {
      auto [lo, hi] = std::minmax_element(all.begin(), all.end());
      std::printf(" [%.6g .. %.6g] n=%zu", *lo, *hi, all.size());
    }
    std::printf("\n");
  }
  std::string metrics;
  for (const auto& [k, v] : result) {
    if (!metrics.empty()) metrics += ", ";
    metrics += JsonString(k) + ": {\"value\": " + JsonNumber(v) +
               ", \"unit\": " + JsonString(UnitOf(k)) + "}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {%s}}\n",
              errors.empty() ? "true" : "false", attempted, failed,
              metrics.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
