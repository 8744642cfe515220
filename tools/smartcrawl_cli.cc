/// smartcrawl_cli — the end-to-end enrichment pipeline over CSV files.
///
/// The hidden database is simulated from a CSV (header = schema), exposed
/// through the configured keyword-search interface, and crawled under a
/// budget; matched hidden columns are imported into the local table.
///
///   smartcrawl_cli --local=local.csv --hidden=hidden.csv
///       --budget=500 --k=50 --policy=smart-b --theta=0.005
///       --import=3:year --output=enriched.csv --curve=curve.csv

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>

#include "core/baseline_crawlers.h"
#include "core/enrich.h"
#include "core/online.h"
#include "core/report.h"
#include "core/smart_crawler.h"
#include "hidden/budget.h"
#include "hidden/hidden_database.h"
#include "match/er_config.h"
#include "net/transport_stack.h"
#include "sample/sampler.h"
#include "util/flags.h"
#include "util/string_util.h"

using namespace smartcrawl;  // NOLINT: tool brevity

namespace {

struct CliConfig {
  std::string local_path;
  std::string hidden_path;
  std::string mode = "conjunctive";
  double match_fraction = 0.75;
  int64_t k = 100;
  std::string rank_field;
  int64_t budget = 1000;
  std::string policy = "smart-b";
  double theta = 0.005;
  bool online_sample = false;
  std::string sample_in;
  std::string sample_out;
  double jaccard = 0.6;
  int64_t threads = 1;
  int64_t seed = 1;
  std::string import_spec;
  std::string output;
  std::string curve;
  std::string snapshot_save;
  std::string snapshot_load;

  // Transport-stack knobs (see docs/architecture.md, "Transport stack").
  double fault_rate = 0.0;
  double rate_limit_rate = 0.0;
  int64_t latency_ms = 0;
  int64_t retry_max = 4;
  int64_t retry_budget = -1;  // -1 = unlimited
  int64_t cache_size = 0;
  int64_t net_seed = 0;
};

/// Range checks the flag parser cannot know: an empty string when every
/// numeric flag is usable, else the first violation. Casting a negative
/// --k or --budget to size_t would silently mean "unlimited".
std::string ValidateRanges(const CliConfig& cfg) {
  if (cfg.k < 1) return "--k must be >= 1";
  if (cfg.budget < 0) return "--budget must be >= 0";
  // At 0 every pair of records would match, even with no shared token.
  if (!match::IsValidJaccardThreshold(cfg.jaccard)) {
    return "--jaccard must be in (0, 1]";
  }
  const std::pair<const char*, double> fractions[] = {
      {"--theta", cfg.theta},
      {"--match-fraction", cfg.match_fraction}};
  for (const auto& [name, v] : fractions) {
    if (!(v >= 0.0 && v <= 1.0)) {
      return std::string(name) + " must be in [0, 1]";
    }
  }
  return "";
}

Result<core::SelectionPolicy> ParsePolicy(const std::string& s) {
  if (s == "smart-b") return core::SelectionPolicy::kEstBiased;
  if (s == "smart-u") return core::SelectionPolicy::kEstUnbiased;
  if (s == "simple") return core::SelectionPolicy::kSimple;
  if (s == "bound") return core::SelectionPolicy::kBound;
  return Status::InvalidArgument(
      "--policy must be smart-b|smart-u|simple|bound|naive (got " + s + ")");
}

Result<core::EnrichmentSpec> ParseImportSpec(const std::string& spec,
                                             double jaccard,
                                             unsigned num_threads) {
  core::EnrichmentSpec out;
  out.er.mode = match::ErMode::kJaccard;
  out.er.jaccard_threshold = jaccard;
  out.num_threads = num_threads;
  for (const std::string& part : Split(spec, ',')) {
    if (part.empty()) continue;
    auto pieces = Split(part, ':');
    if (pieces.size() != 2 || pieces[0].empty() || pieces[1].empty()) {
      return Status::InvalidArgument(
          "--import entries must be <hidden-field-index>:<new-column-name>");
    }
    char* end = nullptr;
    long idx = std::strtol(pieces[0].c_str(), &end, 10);
    if (end == pieces[0].c_str() || *end != '\0' || idx < 0) {
      return Status::InvalidArgument("bad field index in --import: " + part);
    }
    out.import_fields.emplace_back(static_cast<size_t>(idx), pieces[1]);
  }
  if (out.import_fields.empty()) {
    return Status::InvalidArgument("--import is required (i:name,...)");
  }
  return out;
}

int Run(const CliConfig& cfg) {
  // --- Load tables. --------------------------------------------------------
  auto local_or = table::Table::FromCsvFile(cfg.local_path);
  if (!local_or.ok()) {
    std::fprintf(stderr, "local: %s\n",
                 local_or.status().ToString().c_str());
    return 1;
  }
  table::Table local = std::move(local_or).value();
  size_t removed = local.Deduplicate();
  if (removed > 0) {
    std::fprintf(stderr, "note: removed %zu duplicate local records\n",
                 removed);
  }
  auto hidden_or = table::Table::FromCsvFile(cfg.hidden_path);
  if (!hidden_or.ok()) {
    std::fprintf(stderr, "hidden: %s\n",
                 hidden_or.status().ToString().c_str());
    return 1;
  }

  // --- Build the simulated hidden database. --------------------------------
  hidden::HiddenDatabaseOptions hopt;
  hopt.top_k = static_cast<size_t>(cfg.k);
  if (cfg.mode == "conjunctive") {
    hopt.mode = hidden::HiddenDatabaseOptions::Mode::kConjunctive;
  } else if (cfg.mode == "disjunctive") {
    hopt.mode = hidden::HiddenDatabaseOptions::Mode::kDisjunctive;
  } else if (cfg.mode == "semi") {
    hopt.mode = hidden::HiddenDatabaseOptions::Mode::kSemiConjunctive;
    hopt.min_match_fraction = cfg.match_fraction;
  } else {
    std::fprintf(stderr, "--mode must be conjunctive|disjunctive|semi\n");
    return 2;
  }
  table::Table hidden_table = std::move(hidden_or).value();
  std::unique_ptr<hidden::Ranker> ranker;
  if (!cfg.rank_field.empty()) {
    ranker = hidden::MakeFieldRanker(hidden_table, cfg.rank_field);
  }
  hidden::HiddenDatabase db(std::move(hidden_table), hopt,
                            std::move(ranker));
  std::printf("local |D|=%zu, hidden |H|=%zu, k=%zu, mode=%s, budget=%lld\n",
              local.size(), db.OracleSize(), db.top_k(), cfg.mode.c_str(),
              static_cast<long long>(cfg.budget));

  // --- Assemble the transport stack and crawl. ------------------------------
  // Canonical order: cache -> resilient -> budget -> faults -> hidden DB.
  net::TransportOptions topt;
  topt.inject_faults = cfg.fault_rate > 0.0 || cfg.rate_limit_rate > 0.0 ||
                       cfg.latency_ms > 0;
  topt.fault.transient_fault_rate = cfg.fault_rate;
  topt.fault.rate_limit_rate = cfg.rate_limit_rate;
  topt.fault.latency_ms =
      cfg.latency_ms > 0 ? static_cast<uint64_t>(cfg.latency_ms) : 0;
  topt.fault.seed = static_cast<uint64_t>(cfg.net_seed);
  topt.budget = static_cast<size_t>(cfg.budget);
  topt.resilient = true;
  topt.retry.max_attempts =
      cfg.retry_max < 1 ? 1 : static_cast<size_t>(cfg.retry_max);
  topt.retry.retry_budget = cfg.retry_budget < 0
                                ? SIZE_MAX
                                : static_cast<size_t>(cfg.retry_budget);
  topt.retry.seed = static_cast<uint64_t>(cfg.net_seed) + 1;
  topt.cache_capacity =
      cfg.cache_size > 0 ? static_cast<size_t>(cfg.cache_size) : 0;
  net::TransportStack stack(&db, topt);
  hidden::KeywordSearchInterface& iface = *stack.top();
  core::CrawlResult crawl;
  if (cfg.policy == "naive") {
    core::BaselineRunSpec spec;
    spec.policy = core::BaselinePolicy::kNaive;
    spec.budget = static_cast<size_t>(cfg.budget);
    spec.naive.seed = static_cast<uint64_t>(cfg.seed);
    spec.naive.keep_crawled_records = true;
    auto r = core::RunBaseline(spec, &iface, &local);
    if (!r.ok()) {
      std::fprintf(stderr, "crawl: %s\n", r.status().ToString().c_str());
      return 1;
    }
    crawl = std::move(r).value();
  } else {
    auto policy_or = ParsePolicy(cfg.policy);
    if (!policy_or.ok()) {
      std::fprintf(stderr, "%s\n", policy_or.status().ToString().c_str());
      return 2;
    }
    core::SmartCrawlOptions opt;
    opt.policy = *policy_or;
    opt.er.mode = match::ErMode::kJaccard;
    opt.er.jaccard_threshold = cfg.jaccard;
    opt.keep_crawled_records = true;
    opt.num_threads = cfg.threads < 0 ? 1u
                                      : static_cast<unsigned>(cfg.threads);
    const bool needs_sample =
        opt.policy == core::SelectionPolicy::kEstBiased ||
        opt.policy == core::SelectionPolicy::kEstUnbiased;
    if (needs_sample && cfg.online_sample) {
      core::BaselineRunSpec spec;
      spec.policy = core::BaselinePolicy::kOnlineSample;
      spec.budget = static_cast<size_t>(cfg.budget);
      spec.online.smart = std::move(opt);
      spec.online.seed = static_cast<uint64_t>(cfg.seed);
      auto r = core::RunBaseline(spec, &iface, &local);
      if (!r.ok()) {
        std::fprintf(stderr, "crawl: %s\n", r.status().ToString().c_str());
        return 1;
      }
      crawl = std::move(r).value();
    } else if (!cfg.snapshot_load.empty()) {
      // Snapshot path: the plan (including any sample-match state) is
      // mmap-loaded from disk; no sample and no build work is needed.
      auto plan_or =
          core::CrawlPlan::LoadSnapshot(cfg.snapshot_load, &local, opt);
      if (!plan_or.ok()) {
        std::fprintf(stderr, "snapshot: %s\n",
                     plan_or.status().ToString().c_str());
        return 1;
      }
      std::printf("plan loaded from snapshot %s\n", cfg.snapshot_load.c_str());
      auto crawler_or = core::SmartCrawler::Adopt(
          std::shared_ptr<const core::CrawlPlan>(std::move(plan_or).value()));
      if (!crawler_or.ok()) {
        std::fprintf(stderr, "crawler: %s\n",
                     crawler_or.status().ToString().c_str());
        return 1;
      }
      auto r = crawler_or.value()->Crawl(&iface,
                                         static_cast<size_t>(cfg.budget));
      if (!r.ok()) {
        std::fprintf(stderr, "crawl: %s\n", r.status().ToString().c_str());
        return 1;
      }
      crawl = std::move(r).value();
    } else {
      sample::HiddenSample sample;
      if (needs_sample) {
        if (!cfg.sample_in.empty()) {
          // Reuse a previously persisted sample (the paper's sharing
          // story: one offline sample serves every user of the site).
          auto loaded = sample::LoadHiddenSample(cfg.sample_in);
          if (!loaded.ok()) {
            std::fprintf(stderr, "sample: %s\n",
                         loaded.status().ToString().c_str());
            return 1;
          }
          sample = std::move(loaded).value();
        } else {
          // Offline oracle sample of the simulated hidden DB (the CSV
          // plays the role of the provider's database; a pre-built sample
          // is the paper's default assumption).
          sample = sample::BernoulliSample(db, cfg.theta,
                                           static_cast<uint64_t>(cfg.seed));
        }
        std::printf("sample: %zu records (theta=%.4f)\n",
                    sample.records.size(), sample.theta);
        if (!cfg.sample_out.empty()) {
          auto saved = sample::SaveHiddenSample(sample, cfg.sample_out);
          if (!saved.ok()) {
            std::fprintf(stderr, "sample: %s\n", saved.ToString().c_str());
            return 1;
          }
          std::printf("sample persisted -> %s (+.meta)\n",
                      cfg.sample_out.c_str());
        }
      }
      auto crawler_or = core::SmartCrawler::Create(
          &local, std::move(opt), needs_sample ? &sample : nullptr);
      if (!crawler_or.ok()) {
        std::fprintf(stderr, "crawler: %s\n",
                     crawler_or.status().ToString().c_str());
        return 1;
      }
      if (!cfg.snapshot_save.empty()) {
        auto saved = crawler_or.value()->plan().Serialize(cfg.snapshot_save);
        if (!saved.ok()) {
          std::fprintf(stderr, "snapshot: %s\n", saved.ToString().c_str());
          return 1;
        }
        std::printf("plan snapshot -> %s\n", cfg.snapshot_save.c_str());
      }
      auto r = crawler_or.value()->Crawl(&iface,
                                         static_cast<size_t>(cfg.budget));
      if (!r.ok()) {
        std::fprintf(stderr, "crawl: %s\n", r.status().ToString().c_str());
        return 1;
      }
      crawl = std::move(r).value();
    }
  }
  std::printf("issued %zu queries; crawled %zu distinct hidden records; "
              "%zu local records matched by the crawler\n",
              crawl.queries_issued, crawl.crawled_records.size(),
              crawl.covered_local_ids.size());
  if (crawl.stats.queries_unavailable > 0) {
    std::printf("skipped %zu queries on transport failures (endpoint "
                "unavailable after retries)\n",
                crawl.stats.queries_unavailable);
  }
  std::printf("%s", core::FormatTransportStats(stack.Stats()).c_str());

  // --- Enrich and write outputs. --------------------------------------------
  if (!cfg.output.empty()) {
    auto spec_or = ParseImportSpec(
        cfg.import_spec, cfg.jaccard,
        cfg.threads < 0 ? 1u : static_cast<unsigned>(cfg.threads));
    if (!spec_or.ok()) {
      std::fprintf(stderr, "%s\n", spec_or.status().ToString().c_str());
      return 2;
    }
    auto enriched =
        core::EnrichTable(local, crawl.crawled_records, *spec_or);
    if (!enriched.ok()) {
      std::fprintf(stderr, "enrich: %s\n",
                   enriched.status().ToString().c_str());
      return 1;
    }
    auto write = enriched->enriched.ToCsvFile(cfg.output);
    if (!write.ok()) {
      std::fprintf(stderr, "%s\n", write.ToString().c_str());
      return 1;
    }
    std::printf("enriched %zu/%zu records -> %s\n",
                enriched->records_enriched, local.size(),
                cfg.output.c_str());
  }
  if (!cfg.curve.empty()) {
    // The crawler-side matched-record curve (no ground truth in CSV mode).
    core::SeriesTable table;
    table.x_name = "query";
    std::vector<double> crawled_count;
    size_t total = 0;
    std::unordered_map<uint64_t, bool> seen;
    for (size_t i = 0; i < crawl.iterations.size(); ++i) {
      for (auto e : crawl.iterations[i].page_entities) {
        (void)e;
      }
      total += crawl.iterations[i].page_size;
      table.x.push_back(i + 1);
      crawled_count.push_back(static_cast<double>(total));
    }
    table.series.emplace_back("records_fetched", std::move(crawled_count));
    auto write = core::WriteSeriesCsv(cfg.curve, table);
    if (!write.ok()) {
      std::fprintf(stderr, "%s\n", write.ToString().c_str());
      return 1;
    }
    std::printf("wrote per-query fetch curve -> %s\n", cfg.curve.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliConfig cfg;
  FlagParser flags(
      "smartcrawl_cli: crawl a (simulated) hidden database to enrich a "
      "local CSV");
  flags.AddString("local", &cfg.local_path, "local database CSV (required)");
  flags.AddString("hidden", &cfg.hidden_path,
                  "hidden database CSV (required)");
  flags.AddString("mode", &cfg.mode,
                  "interface mode: conjunctive | disjunctive | semi");
  flags.AddDouble("match-fraction", &cfg.match_fraction,
                  "semi mode: minimum fraction of keywords a record must "
                  "contain");
  flags.AddInt("k", &cfg.k, "result-page limit of the interface");
  flags.AddString("rank-field", &cfg.rank_field,
                  "numeric hidden field used for ranking (default: seeded "
                  "hash order)");
  flags.AddInt("budget", &cfg.budget, "query budget b");
  flags.AddString("policy", &cfg.policy,
                  "smart-b | smart-u | simple | bound | naive");
  flags.AddDouble("theta", &cfg.theta,
                  "sampling ratio for the offline sample");
  flags.AddBool("online-sample", &cfg.online_sample,
                "build the sample at crawl time out of the same budget");
  flags.AddString("sample-in", &cfg.sample_in,
                  "reuse a persisted sample (CSV written by --sample-out)");
  flags.AddString("sample-out", &cfg.sample_out,
                  "persist the sample for reuse (writes CSV + .meta)");
  flags.AddInt("threads", &cfg.threads,
               "worker threads for crawl-side precomputation — the single "
               "crawler thread knob, forwarded to SmartCrawlOptions::"
               "num_threads (0 = all hardware threads; result is identical "
               "either way)");
  flags.AddDouble("jaccard", &cfg.jaccard,
                  "Jaccard threshold for entity resolution, in (0, 1]");
  flags.AddInt("seed", &cfg.seed, "seed for sampling/shuffling");
  flags.AddString("import", &cfg.import_spec,
                  "columns to import: <hidden-field-index>:<new-name>,...");
  flags.AddString("output", &cfg.output, "enriched CSV output path");
  flags.AddString("curve", &cfg.curve, "per-query fetch-curve CSV path");
  flags.AddString("snapshot-save", &cfg.snapshot_save,
                  "after building the crawl plan, persist it as a snapshot "
                  "at this path (see docs/architecture.md, \"Snapshots\")");
  flags.AddString("snapshot-load", &cfg.snapshot_load,
                  "mmap-load a previously saved crawl plan instead of "
                  "building one; rejected unless it matches the local "
                  "table and options of this invocation");
  flags.AddDouble("fault-rate", &cfg.fault_rate,
                  "inject transient transport failures with this "
                  "probability per attempt");
  flags.AddDouble("rate-limit-rate", &cfg.rate_limit_rate,
                  "inject rate-limit rejections (with retry-after hint) "
                  "with this probability per attempt");
  flags.AddInt("latency-ms", &cfg.latency_ms,
               "simulated per-attempt endpoint latency (no real sleeping)");
  flags.AddInt("retry-max", &cfg.retry_max,
               "attempts per query incl. the first (1 = no retries)");
  flags.AddInt("retry-budget", &cfg.retry_budget,
               "lifetime cap on retries across the crawl (-1 = unlimited)");
  flags.AddInt("cache-size", &cfg.cache_size,
               "LRU query-result cache capacity in pages (0 = no cache)");
  flags.AddInt("net-seed", &cfg.net_seed,
               "seed for the fault model and retry jitter");

  auto st = flags.Parse(argc, argv);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n%s", st.ToString().c_str(),
                 flags.HelpText().c_str());
    return 2;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.HelpText().c_str());
    return 0;
  }
  if (cfg.local_path.empty() || cfg.hidden_path.empty()) {
    std::fprintf(stderr, "--local and --hidden are required\n%s",
                 flags.HelpText().c_str());
    return 2;
  }
  if (const std::string bad = ValidateRanges(cfg); !bad.empty()) {
    std::fprintf(stderr, "%s\n", bad.c_str());
    return 2;
  }
  return Run(cfg);
}
