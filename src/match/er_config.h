#pragma once

/// \file er_config.h
/// The single source of entity-resolution configuration.
///
/// Both the crawler (matching local records against the hidden sample and
/// against crawled pages, `SmartCrawlOptions::er`) and the enrichment join
/// (`core::EnrichmentSpec::er`) consume this struct, so the two stages
/// cannot drift apart on what "the same entity" means.

namespace smartcrawl::match {

/// How records from two sides are decided to refer to the same entity.
enum class ErMode {
  /// Trust the ground-truth entity ids carried by the records (the
  /// simulation backdoor; unavailable against a real hidden database).
  kEntityOracle,
  /// Records match iff their token sets are identical.
  kExact,
  /// Records match iff the Jaccard similarity of their token sets reaches
  /// `ErConfig::jaccard_threshold`.
  kJaccard,
};

struct ErConfig {
  ErMode mode = ErMode::kEntityOracle;
  /// Minimum Jaccard similarity for kJaccard; ignored otherwise.
  double jaccard_threshold = 0.9;
};

/// True when `threshold` is usable for kJaccard: 0 < threshold <= 1. At 0
/// every pair of non-empty records matches, even with no token in common,
/// which no prefix-filtered join can find (see PrefixFilterJaccardJoin).
inline bool IsValidJaccardThreshold(double threshold) {
  return threshold > 0.0 && threshold <= 1.0;
}

}  // namespace smartcrawl::match
