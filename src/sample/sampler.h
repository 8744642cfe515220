#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "hidden/hidden_database.h"
#include "hidden/search_interface.h"
#include "table/table.h"
#include "util/random.h"
#include "util/result.h"

/// \file sampler.h
/// Hidden-database sampling (paper Sec. 5.1).
///
/// QSEL-EST consumes a sample Hs of the hidden database together with the
/// sampling ratio θ = |Hs| / |H|. The paper treats sampling as an
/// orthogonal, solved problem (citing Zhang et al. [48]) and assumes Hs and
/// θ are given; its Yelp experiment builds the sample through the keyword
/// interface. This module provides both:
///
///  * BernoulliSample — an oracle sampler that includes each hidden record
///    independently with probability θ. Models "Hs and θ are given" exactly
///    and is used by the controlled (simulated-DBLP) experiments.
///
///  * KeywordSample — a sampler that works ONLY through the restrictive
///    keyword interface, in the spirit of [48] / Bar-Yossef & Gurevich:
///    importance-weighted rejection sampling over a single-keyword query
///    pool, plus a capture–recapture (Chapman) estimate of |H| from which
///    θ̂ is derived. Used by the Yelp-style experiment, so QSEL-EST runs on
///    a genuinely query-derived (noisy) sample.

namespace smartcrawl::sample {

/// A hidden-database sample plus its (estimated) sampling ratio.
struct HiddenSample {
  /// The sampled hidden records (schema copied from the hidden table).
  table::Table records;
  /// Sampling ratio θ (exact for BernoulliSample, estimated for
  /// KeywordSample).
  double theta = 0.0;
  /// Queries spent building the sample (offline cost; paper reports 6483
  /// queries for its 500-record Yelp sample).
  size_t queries_spent = 0;
  /// Estimated |H| (KeywordSample only; 0 when unknown/exact).
  double estimated_hidden_size = 0.0;
};

/// Oracle Bernoulli sampler (evaluation backdoor; zero queries spent).
HiddenSample BernoulliSample(const hidden::HiddenDatabase& h, double theta,
                             uint64_t seed);

struct KeywordSamplerOptions {
  /// Stop once this many DISTINCT records have been sampled.
  size_t target_sample_size = 500;
  /// Hard cap on issued queries.
  size_t max_queries = 50000;
  uint64_t seed = 0;
  /// Optional observer invoked for every issued query with its result
  /// page. Lets callers reuse the sampling traffic (e.g. the online
  /// crawler counts sampled pages toward coverage).
  std::function<void(const std::vector<std::string>& query,
                     const std::vector<table::Record>& page)>
      page_observer;
};

/// Persists a sample: the records as CSV at `path`, the metadata (θ,
/// queries spent, estimated |H|) as `path + ".meta"`. The paper builds Hs
/// once, offline, and reuses it "for any user who wants to match their
/// local database with the hidden database" — persistence is what makes
/// that sharing real. Ground-truth entity ids are simulation-only and are
/// NOT persisted.
Status SaveHiddenSample(const HiddenSample& sample, const std::string& path);

/// Loads a sample saved by SaveHiddenSample. The `.meta` file is untrusted
/// input: every value must parse in full and be finite, θ must lie in
/// (0, 1], queries_spent must be a non-negative integer and
/// estimated_hidden_size must be >= 0; anything else is InvalidArgument.
Result<HiddenSample> LoadHiddenSample(const std::string& path);

/// Query-based sampler through the restrictive interface.
///
/// `query_pool` is a list of single keywords (the paper extracts all single
/// keywords of the local dataset). Pool keywords whose result pages
/// overflow (page size == k) are rejected — their pages are ranking-biased.
/// A record h returned by a solid keyword q is accepted with probability
/// 1/deg(h), where deg(h) = number of pool keywords h contains; this undoes
/// the bias toward records matching many pool keywords, yielding a
/// near-uniform sample of the pool-reachable part of H. A query whose page
/// comes back full (possible overflow) is refined by conjoining a keyword
/// drawn from a random record on the page, up to three times, before the
/// walk is given up (the overflow-splitting idea of the samplers the paper
/// cites [17, 20, 48]).
///
/// θ̂ = distinct-sample-size / |Ĥ|, with |Ĥ| the Chapman capture–recapture
/// estimate over the first and second halves of the accepted draws.
Result<HiddenSample> KeywordSample(hidden::KeywordSearchInterface* iface,
                                   const std::vector<std::string>& query_pool,
                                   const KeywordSamplerOptions& options);

}  // namespace smartcrawl::sample
