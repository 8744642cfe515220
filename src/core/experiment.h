#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/crawl_result.h"
#include "core/smart_crawler.h"
#include "datagen/scenario.h"
#include "util/result.h"

/// \file experiment.h
/// The experiment driver used by the benchmark harness and examples.
///
/// One call builds a scenario (Sec. 7.1 protocol), creates the samples,
/// runs the requested crawler arms against fresh budgeted interfaces, and
/// reports ground-truth coverage at budget checkpoints. Parameters mirror
/// the paper's Table 3.

namespace smartcrawl::core {

enum class Arm {
  kIdealCrawl,
  kSmartCrawlB,      // biased estimators
  kSmartCrawlU,      // unbiased estimators
  kSmartCrawlOnline, // biased estimators + sample built at crawl time
  kQSelSimple,
  kQSelBound,
  kNaiveCrawl,
  kFullCrawl,
};

std::string ArmName(Arm arm);

struct ExperimentConfig {
  // Table 3 parameters.
  size_t hidden_size = 100000;
  size_t local_size = 10000;
  size_t k = 100;
  size_t delta_d = 0;
  size_t budget = 2000;  // default 20% of |D|
  double theta = 0.005;  // SmartCrawl's sample ratio
  double error_pct = 0.0;
  uint64_t seed = 1;

  /// Budgets at which per-arm coverage is reported (values > budget are
  /// clamped). Empty = {budget}. Normalized (sorted, deduplicated) on
  /// entry, so unsorted or duplicate lists cannot misalign
  /// `coverage_at_checkpoints`.
  std::vector<size_t> checkpoints;

  /// Worker threads for running independent arms concurrently:
  /// 0 = hardware concurrency, 1 = sequential (today's behavior). Arms are
  /// independent — each gets its own budgeted interface and seeded RNG —
  /// so outcomes are bit-identical for any thread count. Crawler-internal
  /// parallelism is configured separately via `smart.num_threads` — the one
  /// authoritative crawler thread knob (`smart.pool.num_threads` is only a
  /// checked alias; conflicting values fail CrawlPlan::Build()).
  unsigned num_threads = 1;

  std::vector<Arm> arms = {Arm::kIdealCrawl, Arm::kSmartCrawlB,
                           Arm::kNaiveCrawl, Arm::kFullCrawl};

  /// Overrides threaded into SmartCrawlOptions (pool generation, ER mode,
  /// ΔD mitigation, α fallback).
  SmartCrawlOptions smart;
};

struct ArmOutcome {
  Arm arm;
  std::string name;
  size_t queries_issued = 0;
  std::vector<size_t> coverage_at_checkpoints;
  size_t final_coverage = 0;
  double relative_coverage = 0.0;  // vs |D ∩ H|
  bool stopped_early = false;
};

struct ExperimentOutcome {
  std::vector<ArmOutcome> arms;
  std::vector<size_t> checkpoints;
  size_t num_matchable = 0;
  size_t pool_size = 0;  // SmartCrawl query-pool size (0 if no smart arm)
};

/// Runs the simulated-DBLP experiment (Sec. 7.1.1 protocol).
Result<ExperimentOutcome> RunDblpExperiment(const ExperimentConfig& config);

/// Runs one arm against an existing scenario. `sample` is only used by the
/// kSmartCrawl* arms, `full_sample` by kFullCrawl, `oracle` by kIdealCrawl.
Result<ArmOutcome> RunArm(Arm arm, const datagen::Scenario& scenario,
                          const ExperimentConfig& config,
                          const sample::HiddenSample* smart_sample,
                          const sample::HiddenSample* full_sample);

}  // namespace smartcrawl::core
