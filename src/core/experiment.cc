#include "core/experiment.h"

#include <algorithm>

#include "core/baseline_crawlers.h"
#include "util/result.h"
#include "core/metrics.h"
#include "core/online.h"
#include "hidden/budget.h"
#include "util/thread_pool.h"

namespace smartcrawl::core {

std::string ArmName(Arm arm) {
  switch (arm) {
    case Arm::kIdealCrawl:
      return "IdealCrawl";
    case Arm::kSmartCrawlB:
      return "SmartCrawl-B";
    case Arm::kSmartCrawlU:
      return "SmartCrawl-U";
    case Arm::kSmartCrawlOnline:
      return "SmartCrawl-OL";
    case Arm::kQSelSimple:
      return "QSel-Simple";
    case Arm::kQSelBound:
      return "QSel-Bound";
    case Arm::kNaiveCrawl:
      return "NaiveCrawl";
    case Arm::kFullCrawl:
      return "FullCrawl";
  }
  return "?";
}

namespace {

/// The corpus behind the scenario, relative to |H| + |D|.
constexpr double kCorpusScale = 2.2;
/// FullCrawl gets its own (1%) sample, per Appendix C.
constexpr double kFullCrawlTheta = 0.01;

SelectionPolicy PolicyForArm(Arm arm) {
  switch (arm) {
    case Arm::kIdealCrawl:
      return SelectionPolicy::kIdeal;
    case Arm::kSmartCrawlB:
      return SelectionPolicy::kEstBiased;
    case Arm::kSmartCrawlU:
      return SelectionPolicy::kEstUnbiased;
    case Arm::kQSelSimple:
      return SelectionPolicy::kSimple;
    case Arm::kQSelBound:
      return SelectionPolicy::kBound;
    default:
      return SelectionPolicy::kSimple;  // unused for baselines
  }
}

/// Checkpoint lists arrive from user code in any shape; coverage columns
/// are only meaningful over a sorted, duplicate-free budget axis.
std::vector<size_t> NormalizedCheckpoints(const ExperimentConfig& config) {
  if (config.checkpoints.empty()) return {config.budget};
  std::vector<size_t> out = config.checkpoints;
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace

Result<ArmOutcome> RunArm(Arm arm, const datagen::Scenario& scenario,
                          const ExperimentConfig& config,
                          const sample::HiddenSample* smart_sample,
                          const sample::HiddenSample* full_sample) {
  ArmOutcome outcome;
  outcome.arm = arm;
  outcome.name = ArmName(arm);

  scenario.hidden->ResetQueryCounter();
  hidden::BudgetedInterface iface(scenario.hidden.get(), config.budget);

  CrawlResult crawl;
  switch (arm) {
    case Arm::kSmartCrawlOnline: {
      OnlineCrawlOptions online;
      online.smart = config.smart;
      online.smart.policy = SelectionPolicy::kEstBiased;
      online.smart.local_text_fields = scenario.local_text_fields;
      online.seed = config.seed ^ 0x0e11ULL;
      SC_ASSIGN_OR_RETURN(crawl, OnlineSampleCrawl(scenario.local, &iface,
                                                   config.budget, online));
      break;
    }
    case Arm::kNaiveCrawl: {
      NaiveCrawlOptions naive;
      naive.query_fields = scenario.local_text_fields;
      naive.seed = config.seed ^ 0xabcdULL;
      SC_ASSIGN_OR_RETURN(
          crawl, NaiveCrawl(scenario.local, &iface, config.budget, naive));
      break;
    }
    case Arm::kFullCrawl: {
      if (full_sample == nullptr) {
        return Status::InvalidArgument("FullCrawl arm needs a sample");
      }
      SC_ASSIGN_OR_RETURN(crawl,
                          FullCrawl(*full_sample, &iface, config.budget));
      break;
    }
    default: {
      SmartCrawlOptions opt = config.smart;
      opt.policy = PolicyForArm(arm);
      opt.local_text_fields = scenario.local_text_fields;
      const sample::HiddenSample* sample = nullptr;
      const hidden::HiddenDatabase* oracle = nullptr;
      if (arm == Arm::kSmartCrawlB || arm == Arm::kSmartCrawlU) {
        if (smart_sample == nullptr) {
          return Status::InvalidArgument("SmartCrawl arm needs a sample");
        }
        sample = smart_sample;
      }
      if (arm == Arm::kIdealCrawl) oracle = scenario.hidden.get();
      SC_ASSIGN_OR_RETURN(
          auto crawler,
          SmartCrawler::Create(&scenario.local, std::move(opt), sample,
                               oracle));
      SC_ASSIGN_OR_RETURN(crawl, crawler->Crawl(&iface, config.budget));
      break;
    }
  }

  outcome.queries_issued = crawl.queries_issued;
  outcome.stopped_early = crawl.stopped_early;
  outcome.coverage_at_checkpoints =
      CoverageAtBudgets(scenario.local, crawl, NormalizedCheckpoints(config));
  outcome.final_coverage = FinalCoverage(scenario.local, crawl);
  outcome.relative_coverage =
      RelativeCoverage(outcome.final_coverage, scenario.num_matchable);
  return outcome;
}

Result<ExperimentOutcome> RunDblpExperiment(const ExperimentConfig& config) {
  datagen::DblpScenarioConfig scfg;
  scfg.hidden_size = config.hidden_size;
  scfg.local_size = config.local_size;
  scfg.delta_d = config.delta_d;
  scfg.top_k = config.k;
  scfg.error_rate = config.error_pct;
  scfg.seed = config.seed;
  scfg.corpus.seed = config.seed * 7919 + 13;
  scfg.corpus.corpus_size = static_cast<size_t>(
      static_cast<double>(config.hidden_size + config.local_size) *
      kCorpusScale);
  // The community pool must be able to supply the local database.
  double needed_fraction =
      static_cast<double>(config.local_size) /
      static_cast<double>(scfg.corpus.corpus_size);
  scfg.corpus.db_community_fraction =
      std::max(0.3, std::min(0.9, needed_fraction * 3.0));

  SC_ASSIGN_OR_RETURN(datagen::Scenario scenario,
                      datagen::BuildDblpScenario(scfg));

  sample::HiddenSample smart_sample = sample::BernoulliSample(
      *scenario.hidden, config.theta, config.seed ^ 0x5a5a5aULL);
  sample::HiddenSample full_sample = sample::BernoulliSample(
      *scenario.hidden, kFullCrawlTheta, config.seed ^ 0x777ULL);

  ExperimentOutcome outcome;
  outcome.num_matchable = scenario.num_matchable;
  outcome.checkpoints = NormalizedCheckpoints(config);

  // Arms are independent (own budgeted interface, own RNG seed; the shared
  // hidden database is read-only but for its atomic query counter), so they
  // can run concurrently. Futures are collected in config order, which
  // makes the outcome identical for any thread count.
  util::ThreadPool tp(config.num_threads);
  std::vector<std::future<Result<ArmOutcome>>> futures;
  futures.reserve(config.arms.size());
  for (Arm arm : config.arms) {
    futures.push_back(tp.Async([arm, &scenario, &config, &smart_sample,
                                &full_sample]() {
      return RunArm(arm, scenario, config, &smart_sample, &full_sample);
    }));
  }
  for (auto& fut : futures) {
    SC_ASSIGN_OR_RETURN(ArmOutcome armout, fut.get());
    outcome.arms.push_back(std::move(armout));
  }
  return outcome;
}

}  // namespace smartcrawl::core
