#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/crawl_plan.h"
#include "index/inverted_index.h"
#include "snapshot/format.h"
#include "snapshot/reader.h"
#include "snapshot/writer.h"
#include "util/hash.h"
#include "util/result.h"

/// \file crawl_plan_snapshot.cc
/// CrawlPlan <-> snapshot file: the single producer/consumer pair of the
/// snapshot format (src/snapshot/format.h owns the container layout; this
/// file owns the section ids and their contents).
///
/// Serialization splits the plan in two:
///  * FLAT artifacts — the CSR indexes (postings, forward, sample-match,
///    oracle-cover) and the u32 arrays (freq_hs, inter, forward_dec,
///    cover_count, local_frequency) — are written as raw element bytes
///    and loaded back as zero-copy borrowed views into the mapping.
///  * OBJECT state — dictionary strings, documents, query terms/keywords,
///    the local table — is written as offset+byte arenas and materialized
///    at load. Keywords and the ER index are re-derived, not stored:
///    keywords are dict lookups of the query terms in order, and the ER
///    index comes from CrawlPlan::BuildErIndex, as in the builder.
/// Load cost is O(file size + object state), with no mining, matching or
/// joining — the part of Build() worth paying only once.

namespace smartcrawl::core {

namespace {

// Section offsets are serialized as the in-memory size_t of the writer;
// the format already pins endianness, this pins the width.
static_assert(sizeof(size_t) == 8, "snapshot format assumes 64-bit size_t");

enum SectionId : uint32_t {
  kSecOptions = 1,
  kSecTableMeta = 2,       // blob: schema field names, record count
  kSecTableEntityIds = 3,  // u64 per record
  kSecTableFieldOffsets = 4,  // u64[n_records * n_fields + 1] into ...
  kSecTableFieldBytes = 5,    // ... concatenated field strings
  kSecDictOffsets = 6,        // u64[n_terms + 1] into ...
  kSecDictBytes = 7,          // ... concatenated term strings in id order
  kSecDocOffsets = 8,         // u64[n_records + 1] into ...
  kSecDocTerms = 9,           // ... concatenated sorted-unique TermIds
  kSecQueryTermOffsets = 10,  // u64[n_queries + 1] into ...
  kSecQueryTermValues = 11,   // ... concatenated sorted TermIds
  kSecQueryIsNaive = 12,      // u8 per query
  kSecLocalFrequency = 13,    // u32 per query
  kSecPostingsOffsets = 14,   // Csr halves of pool.local_postings
  kSecPostingsValues = 15,
  kSecPoolMeta = 16,  // blob: mining_truncated, kernel stats
  kSecForwardOffsets = 17,  // Csr halves of the forward index
  kSecForwardValues = 18,
  kSecFreqHs = 19,      // u32 per query
  kSecInter = 20,       // u32 per query
  kSecEstimator = 21,   // blob: EstimatorContext
  kSecSampleMatchOffsets = 22,  // Csr halves of record_sample_matches
  kSecSampleMatchValues = 23,
  kSecForwardDec = 24,  // u32 per forward entry
  kSecCoverOffsets = 25,  // Csr halves of cover_forward
  kSecCoverValues = 26,
  kSecCoverCount = 27,  // u32 per query
};

void PutStrings(snapshot::BlobWriter* w,
                const std::vector<std::string>& strings) {
  w->PutU64(strings.size());
  for (const std::string& s : strings) w->PutString(s);
}

Result<std::vector<std::string>> GetStrings(snapshot::BlobReader* r) {
  SC_ASSIGN_OR_RETURN(uint64_t n, r->U64());
  std::vector<std::string> out;
  out.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    SC_ASSIGN_OR_RETURN(std::string s, r->String());
    out.push_back(std::move(s));
  }
  return out;
}

void PutKernelStats(snapshot::BlobWriter* w, const index::KernelStats& k) {
  w->PutU64(k.galloping);
  w->PutU64(k.merge);
  w->PutU64(k.bitmap);
  w->PutU64(k.materialized);
}

Result<index::KernelStats> GetKernelStats(snapshot::BlobReader* r) {
  index::KernelStats k;
  SC_ASSIGN_OR_RETURN(k.galloping, r->U64());
  SC_ASSIGN_OR_RETURN(k.merge, r->U64());
  SC_ASSIGN_OR_RETURN(k.bitmap, r->U64());
  SC_ASSIGN_OR_RETURN(k.materialized, r->U64());
  return k;
}

snapshot::BlobWriter EncodeOptions(const SmartCrawlOptions& o) {
  snapshot::BlobWriter w;
  w.PutU32(static_cast<uint32_t>(o.policy));
  w.PutU32(o.pool.min_support);
  w.PutU64(o.pool.max_itemset_size);
  w.PutU64(o.pool.max_mined_itemsets);
  w.PutBool(o.pool.dominance_prune);
  w.PutU32(o.pool.num_threads);
  PutStrings(&w, o.local_text_fields);
  w.PutU32(static_cast<uint32_t>(o.er.mode));
  w.PutDouble(o.er.jaccard_threshold);
  w.PutU32(o.num_threads);
  w.PutBool(o.remove_unmatched_solid);
  w.PutBool(o.alpha_fallback);
  w.PutDouble(o.omega);
  w.PutBool(o.keep_crawled_records);
  return w;
}

Result<SmartCrawlOptions> DecodeOptions(std::span<const std::byte> bytes) {
  snapshot::BlobReader r(bytes);
  SmartCrawlOptions o;
  SC_ASSIGN_OR_RETURN(uint32_t policy, r.U32());
  o.policy = static_cast<SelectionPolicy>(policy);
  SC_ASSIGN_OR_RETURN(o.pool.min_support, r.U32());
  SC_ASSIGN_OR_RETURN(o.pool.max_itemset_size, r.U64());
  SC_ASSIGN_OR_RETURN(o.pool.max_mined_itemsets, r.U64());
  SC_ASSIGN_OR_RETURN(o.pool.dominance_prune, r.Bool());
  SC_ASSIGN_OR_RETURN(o.pool.num_threads, r.U32());
  SC_ASSIGN_OR_RETURN(o.local_text_fields, GetStrings(&r));
  SC_ASSIGN_OR_RETURN(uint32_t er_mode, r.U32());
  o.er.mode = static_cast<match::ErMode>(er_mode);
  SC_ASSIGN_OR_RETURN(o.er.jaccard_threshold, r.Double());
  SC_ASSIGN_OR_RETURN(o.num_threads, r.U32());
  SC_ASSIGN_OR_RETURN(o.remove_unmatched_solid, r.Bool());
  SC_ASSIGN_OR_RETURN(o.alpha_fallback, r.Bool());
  SC_ASSIGN_OR_RETURN(o.omega, r.Double());
  SC_ASSIGN_OR_RETURN(o.keep_crawled_records, r.Bool());
  return o;
}

/// Offset+byte arena over a sequence of strings: offsets[i]..offsets[i+1)
/// delimit string i inside the byte blob.
struct StringArena {
  std::vector<uint64_t> offsets{0};
  std::string bytes;

  void Add(const std::string& s) {
    bytes += s;
    offsets.push_back(bytes.size());
  }
};

Status ShapeError(const std::string& what) {
  return Status::FailedPrecondition("snapshot: inconsistent shape: " + what);
}

}  // namespace

/// Friend of CrawlPlan: hydrates a fresh plan from a snapshot (the one
/// writer besides CrawlPlanBuilder) and reads private state out for
/// Serialize.
class CrawlPlanSnapshotIo {
 public:
  static Status Save(const CrawlPlan& p, const std::string& path);
  static Result<std::unique_ptr<CrawlPlan>> Load(const std::string& path,
                                                 const uint64_t* expected);
};

Status CrawlPlanSnapshotIo::Save(const CrawlPlan& p,
                                 const std::string& path) {
  snapshot::SnapshotWriter writer;

  // Every span handed to the writer must outlive WriteFile (writer.h), so
  // all temporary arenas live in this scope.
  snapshot::BlobWriter options_blob = EncodeOptions(p.options_);
  writer.AddBytes(kSecOptions, options_blob.bytes());

  const table::Table& local = *p.local_;
  snapshot::BlobWriter table_meta;
  PutStrings(&table_meta, local.schema().field_names);
  table_meta.PutU64(local.size());
  writer.AddBytes(kSecTableMeta, table_meta.bytes());

  std::vector<uint64_t> entity_ids;
  entity_ids.reserve(local.size());
  StringArena fields;
  for (const table::Record& rec : local.records()) {
    entity_ids.push_back(rec.entity_id);
    for (const std::string& f : rec.fields) fields.Add(f);
  }
  writer.AddTyped<uint64_t>(kSecTableEntityIds, entity_ids);
  writer.AddTyped<uint64_t>(kSecTableFieldOffsets, fields.offsets);
  writer.AddBytes(kSecTableFieldBytes,
                  std::as_bytes(std::span<const char>(fields.bytes)));

  StringArena dict;
  for (text::TermId t = 0; t < p.dict_.size(); ++t) dict.Add(p.dict_.TermOf(t));
  writer.AddTyped<uint64_t>(kSecDictOffsets, dict.offsets);
  writer.AddBytes(kSecDictBytes,
                  std::as_bytes(std::span<const char>(dict.bytes)));

  std::vector<uint64_t> doc_offsets{0};
  std::vector<text::TermId> doc_terms;
  for (const text::Document& d : p.local_docs_) {
    doc_terms.insert(doc_terms.end(), d.terms().begin(), d.terms().end());
    doc_offsets.push_back(doc_terms.size());
  }
  writer.AddTyped<uint64_t>(kSecDocOffsets, doc_offsets);
  writer.AddTyped<text::TermId>(kSecDocTerms, doc_terms);

  std::vector<uint64_t> query_offsets{0};
  std::vector<text::TermId> query_terms;
  std::vector<uint8_t> is_naive;
  is_naive.reserve(p.pool_.size());
  for (const Query& q : p.pool_.queries) {
    query_terms.insert(query_terms.end(), q.terms.begin(), q.terms.end());
    query_offsets.push_back(query_terms.size());
    is_naive.push_back(q.is_naive ? 1 : 0);
  }
  writer.AddTyped<uint64_t>(kSecQueryTermOffsets, query_offsets);
  writer.AddTyped<text::TermId>(kSecQueryTermValues, query_terms);
  writer.AddTyped<uint8_t>(kSecQueryIsNaive, is_naive);
  writer.AddTyped<uint32_t>(kSecLocalFrequency, p.pool_.local_frequency);

  writer.AddTyped<size_t>(kSecPostingsOffsets,
                          p.pool_.local_postings.offsets());
  writer.AddTyped<index::DocIndex>(kSecPostingsValues,
                                   p.pool_.local_postings.values());

  snapshot::BlobWriter pool_meta;
  pool_meta.PutBool(p.pool_.mining_truncated);
  PutKernelStats(&pool_meta, p.pool_.kernel_stats);
  PutKernelStats(&pool_meta, p.build_kernel_stats_);
  writer.AddBytes(kSecPoolMeta, pool_meta.bytes());

  writer.AddTyped<size_t>(kSecForwardOffsets, p.forward_.csr().offsets());
  writer.AddTyped<index::QueryIdx>(kSecForwardValues,
                                   p.forward_.csr().values());
  writer.AddTyped<uint32_t>(kSecFreqHs, p.freq_hs_.span());
  writer.AddTyped<uint32_t>(kSecInter, p.inter_.span());

  snapshot::BlobWriter estimator;
  estimator.PutU64(p.ctx_.k);
  estimator.PutDouble(p.ctx_.theta);
  estimator.PutDouble(p.ctx_.alpha);
  estimator.PutBool(p.ctx_.alpha_fallback);
  estimator.PutDouble(p.ctx_.omega);
  writer.AddBytes(kSecEstimator, estimator.bytes());

  writer.AddTyped<size_t>(kSecSampleMatchOffsets,
                          p.record_sample_matches_.offsets());
  writer.AddTyped<uint32_t>(kSecSampleMatchValues,
                            p.record_sample_matches_.values());
  writer.AddTyped<uint32_t>(kSecForwardDec, p.forward_dec_.span());

  writer.AddTyped<size_t>(kSecCoverOffsets, p.cover_forward_.csr().offsets());
  writer.AddTyped<index::QueryIdx>(kSecCoverValues,
                                   p.cover_forward_.csr().values());
  writer.AddTyped<uint32_t>(kSecCoverCount, p.cover_count_.span());

  return writer.WriteFile(path,
                          CrawlPlan::BuildFingerprint(local, p.options_));
}

Result<std::unique_ptr<CrawlPlan>> CrawlPlanSnapshotIo::Load(
    const std::string& path, const uint64_t* expected) {
  SC_ASSIGN_OR_RETURN(snapshot::SnapshotReader reader,
                      snapshot::SnapshotReader::Open(path));
  if (expected != nullptr && reader.build_fingerprint() != *expected) {
    return Status::FailedPrecondition(
        "snapshot '" + path +
        "': build fingerprint mismatch — the snapshot was built from "
        "different options or a different dataset than expected");
  }

  std::unique_ptr<CrawlPlan> plan(new CrawlPlan());
  CrawlPlan& p = *plan;

  SC_ASSIGN_OR_RETURN(std::span<const std::byte> options_bytes,
                      reader.SectionBytes(kSecOptions));
  SC_ASSIGN_OR_RETURN(p.options_, DecodeOptions(options_bytes));

  // Local table, materialized from the field arena; the plan owns it.
  SC_ASSIGN_OR_RETURN(std::span<const std::byte> table_meta_bytes,
                      reader.SectionBytes(kSecTableMeta));
  snapshot::BlobReader table_meta(table_meta_bytes);
  SC_ASSIGN_OR_RETURN(std::vector<std::string> field_names,
                      GetStrings(&table_meta));
  SC_ASSIGN_OR_RETURN(uint64_t num_records, table_meta.U64());
  SC_ASSIGN_OR_RETURN(std::span<const uint64_t> entity_ids,
                      reader.Typed<uint64_t>(kSecTableEntityIds));
  SC_ASSIGN_OR_RETURN(std::span<const uint64_t> field_offsets,
                      reader.Typed<uint64_t>(kSecTableFieldOffsets));
  SC_ASSIGN_OR_RETURN(std::span<const std::byte> field_bytes,
                      reader.SectionBytes(kSecTableFieldBytes));
  const size_t num_fields = field_names.size();
  if (entity_ids.size() != num_records ||
      field_offsets.size() != num_records * num_fields + 1) {
    return ShapeError("table arenas vs record count");
  }
  p.owned_local_ = std::make_unique<table::Table>(
      table::Schema{std::move(field_names)});
  {
    std::vector<std::string> fields(num_fields);
    for (uint64_t rec = 0; rec < num_records; ++rec) {
      for (size_t f = 0; f < num_fields; ++f) {
        const uint64_t lo = field_offsets[rec * num_fields + f];
        const uint64_t hi = field_offsets[rec * num_fields + f + 1];
        if (hi < lo || hi > field_bytes.size()) {
          return ShapeError("table field arena bounds");
        }
        fields[f].resize(hi - lo);
        std::memcpy(fields[f].data(), field_bytes.data() + lo, hi - lo);
      }
      SC_ASSIGN_OR_RETURN(
          table::RecordId id,
          p.owned_local_->Append(fields, entity_ids[rec]));
      (void)id;
    }
  }
  p.local_ = p.owned_local_.get();

  // Dictionary: intern the term arena in id order — ids come back dense
  // and identical to the built plan's.
  SC_ASSIGN_OR_RETURN(std::span<const uint64_t> dict_offsets,
                      reader.Typed<uint64_t>(kSecDictOffsets));
  SC_ASSIGN_OR_RETURN(std::span<const std::byte> dict_bytes,
                      reader.SectionBytes(kSecDictBytes));
  if (dict_offsets.empty()) return ShapeError("empty dictionary arena");
  {
    const size_t num_terms = dict_offsets.size() - 1;
    p.dict_.Reserve(num_terms);
    std::string term;
    for (size_t t = 0; t < num_terms; ++t) {
      const uint64_t lo = dict_offsets[t];
      const uint64_t hi = dict_offsets[t + 1];
      if (hi < lo || hi > dict_bytes.size()) {
        return ShapeError("dictionary arena bounds");
      }
      term.resize(hi - lo);
      std::memcpy(term.data(), dict_bytes.data() + lo, hi - lo);
      if (p.dict_.Intern(term) != t) {
        return ShapeError("duplicate term in dictionary arena");
      }
    }
  }

  // Documents: term runs are stored sorted-unique, adopt them verbatim.
  SC_ASSIGN_OR_RETURN(std::span<const uint64_t> doc_offsets,
                      reader.Typed<uint64_t>(kSecDocOffsets));
  SC_ASSIGN_OR_RETURN(std::span<const text::TermId> doc_terms,
                      reader.Typed<text::TermId>(kSecDocTerms));
  if (doc_offsets.size() != num_records + 1) {
    return ShapeError("document offsets vs record count");
  }
  p.local_docs_.reserve(num_records);
  for (uint64_t rec = 0; rec < num_records; ++rec) {
    const uint64_t lo = doc_offsets[rec];
    const uint64_t hi = doc_offsets[rec + 1];
    if (hi < lo || hi > doc_terms.size()) {
      return ShapeError("document arena bounds");
    }
    p.local_docs_.push_back(text::Document::FromSortedUnique(
        {doc_terms.begin() + static_cast<ptrdiff_t>(lo),
         doc_terms.begin() + static_cast<ptrdiff_t>(hi)}));
  }

  // Queries: terms from the arena, keywords re-derived from the
  // dictionary (same TermOf lookups GenerateQueryPool does).
  SC_ASSIGN_OR_RETURN(std::span<const uint64_t> query_offsets,
                      reader.Typed<uint64_t>(kSecQueryTermOffsets));
  SC_ASSIGN_OR_RETURN(std::span<const text::TermId> query_terms,
                      reader.Typed<text::TermId>(kSecQueryTermValues));
  SC_ASSIGN_OR_RETURN(std::span<const uint8_t> is_naive,
                      reader.Typed<uint8_t>(kSecQueryIsNaive));
  if (query_offsets.empty()) return ShapeError("empty query arena");
  const size_t num_queries = query_offsets.size() - 1;
  if (is_naive.size() != num_queries) {
    return ShapeError("is_naive vs query count");
  }
  p.pool_.queries.reserve(num_queries);
  for (size_t q = 0; q < num_queries; ++q) {
    const uint64_t lo = query_offsets[q];
    const uint64_t hi = query_offsets[q + 1];
    if (hi < lo || hi > query_terms.size()) {
      return ShapeError("query term arena bounds");
    }
    Query query;
    query.terms.assign(query_terms.begin() + static_cast<ptrdiff_t>(lo),
                       query_terms.begin() + static_cast<ptrdiff_t>(hi));
    query.keywords.reserve(query.terms.size());
    for (text::TermId t : query.terms) {
      if (t >= p.dict_.size()) return ShapeError("query term out of range");
      query.keywords.push_back(p.dict_.TermOf(t));
    }
    query.is_naive = is_naive[q] != 0;
    p.pool_.queries.push_back(std::move(query));
  }

  SC_ASSIGN_OR_RETURN(std::span<const uint32_t> local_frequency,
                      reader.Typed<uint32_t>(kSecLocalFrequency));
  if (local_frequency.size() != num_queries) {
    return ShapeError("local_frequency vs query count");
  }
  p.pool_.local_frequency.assign(local_frequency.begin(),
                                 local_frequency.end());

  // Flat hot-path artifacts: zero-copy borrowed views into the mapping.
  // `allow_empty` covers artifacts only some policies build (sample
  // matches, oracle covers) — their sections exist but hold zero rows.
  auto load_csr32 = [&reader](uint32_t off_id, uint32_t val_id,
                              size_t expected_rows, bool allow_empty,
                              index::Csr<uint32_t>* out) -> Status {
    SC_ASSIGN_OR_RETURN(std::span<const size_t> offsets,
                        reader.Typed<size_t>(off_id));
    SC_ASSIGN_OR_RETURN(std::span<const uint32_t> values,
                        reader.Typed<uint32_t>(val_id));
    SC_ASSIGN_OR_RETURN(*out,
                        index::Csr<uint32_t>::FromBorrowed(offsets, values));
    if (out->num_rows() != expected_rows && !(allow_empty && out->empty())) {
      return ShapeError("CSR row count, section " + std::to_string(off_id));
    }
    return Status::OK();
  };

  index::Csr<uint32_t> postings;
  SC_RETURN_NOT_OK(load_csr32(kSecPostingsOffsets, kSecPostingsValues,
                              num_queries, /*allow_empty=*/false, &postings));
  p.pool_.local_postings = std::move(postings);

  SC_ASSIGN_OR_RETURN(std::span<const std::byte> pool_meta_bytes,
                      reader.SectionBytes(kSecPoolMeta));
  snapshot::BlobReader pool_meta(pool_meta_bytes);
  SC_ASSIGN_OR_RETURN(p.pool_.mining_truncated, pool_meta.Bool());
  SC_ASSIGN_OR_RETURN(p.pool_.kernel_stats, GetKernelStats(&pool_meta));
  SC_ASSIGN_OR_RETURN(p.build_kernel_stats_, GetKernelStats(&pool_meta));

  index::Csr<uint32_t> forward;
  SC_RETURN_NOT_OK(load_csr32(kSecForwardOffsets, kSecForwardValues,
                              num_records, /*allow_empty=*/false, &forward));
  p.forward_ = index::ForwardIndex(std::move(forward));

  auto load_flat32 = [&reader](uint32_t id, size_t expected_size,
                               bool allow_empty,
                               index::FlatArray<uint32_t>* out) -> Status {
    SC_ASSIGN_OR_RETURN(std::span<const uint32_t> values,
                        reader.Typed<uint32_t>(id));
    SC_ASSIGN_OR_RETURN(*out, index::FlatArray<uint32_t>::FromBorrowed(values));
    if (out->size() != expected_size && !(allow_empty && out->empty())) {
      return ShapeError("flat array size, section " + std::to_string(id));
    }
    return Status::OK();
  };
  SC_RETURN_NOT_OK(load_flat32(kSecFreqHs, num_queries,
                               /*allow_empty=*/false, &p.freq_hs_));
  SC_RETURN_NOT_OK(load_flat32(kSecInter, num_queries,
                               /*allow_empty=*/false, &p.inter_));

  SC_ASSIGN_OR_RETURN(std::span<const std::byte> estimator_bytes,
                      reader.SectionBytes(kSecEstimator));
  snapshot::BlobReader estimator(estimator_bytes);
  SC_ASSIGN_OR_RETURN(p.ctx_.k, estimator.U64());
  SC_ASSIGN_OR_RETURN(p.ctx_.theta, estimator.Double());
  SC_ASSIGN_OR_RETURN(p.ctx_.alpha, estimator.Double());
  SC_ASSIGN_OR_RETURN(p.ctx_.alpha_fallback, estimator.Bool());
  SC_ASSIGN_OR_RETURN(p.ctx_.omega, estimator.Double());

  SC_RETURN_NOT_OK(load_csr32(kSecSampleMatchOffsets, kSecSampleMatchValues,
                              num_records, /*allow_empty=*/true,
                              &p.record_sample_matches_));
  SC_RETURN_NOT_OK(load_flat32(kSecForwardDec, p.forward_.TotalEntries(),
                               /*allow_empty=*/true, &p.forward_dec_));

  index::Csr<uint32_t> cover;
  SC_RETURN_NOT_OK(load_csr32(kSecCoverOffsets, kSecCoverValues, num_records,
                              /*allow_empty=*/true, &cover));
  p.cover_forward_ = index::ForwardIndex(std::move(cover));
  SC_RETURN_NOT_OK(load_flat32(kSecCoverCount, num_queries,
                               /*allow_empty=*/true, &p.cover_count_));

  // Validate once what sessions rely on unchecked: every posting, forward
  // and cover entry is in range, and the counters a session decrements
  // equal the entries it decrements them for (the builder guarantees both
  // by construction). For each query q: local_frequency[q] is the size of
  // its postings row and its count in the forward index, inter[q] is the
  // sum of its forward_dec entries, and cover_count[q] is its count in the
  // cover index. Then a session's RemoveRecords can never underflow them.
  for (index::DocIndex d : p.pool_.local_postings.values()) {
    if (d >= num_records) return ShapeError("posting record out of range");
  }
  std::span<const index::QueryIdx> fwd = p.forward_.values();
  std::span<const uint32_t> forward_dec = p.forward_dec_.span();
  std::span<const uint32_t> inter = p.inter_.span();
  std::span<const uint32_t> cover_count = p.cover_count_.span();
  std::vector<uint32_t> forward_count(num_queries, 0);
  std::vector<uint64_t> dec_sum(num_queries, 0);
  for (size_t i = 0; i < fwd.size(); ++i) {
    if (fwd[i] >= num_queries) return ShapeError("forward query out of range");
    ++forward_count[fwd[i]];
    if (!forward_dec.empty()) dec_sum[fwd[i]] += forward_dec[i];
  }
  std::vector<uint32_t> cover_seen(num_queries, 0);
  for (index::QueryIdx q : p.cover_forward_.values()) {
    if (q >= num_queries) return ShapeError("cover query out of range");
    ++cover_seen[q];
  }
  for (size_t q = 0; q < num_queries; ++q) {
    if (p.pool_.local_postings[q].size() != local_frequency[q]) {
      return ShapeError("local_frequency vs postings row");
    }
    if (forward_count[q] != local_frequency[q]) {
      return ShapeError("local_frequency vs forward index");
    }
    if (dec_sum[q] != inter[q]) {
      return ShapeError("inter vs forward_dec");
    }
    if (cover_seen[q] != (cover_count.empty() ? 0 : cover_count[q])) {
      return ShapeError("cover_count vs cover index");
    }
  }

  p.er_index_ =
      CrawlPlan::BuildErIndex(p.options_.er.mode, *p.local_, p.local_docs_);

  // Keep the mapping alive for every borrowed view installed above.
  p.snapshot_region_ = reader.region();
  return plan;
}

Status CrawlPlan::Serialize(const std::string& path) const {
  return CrawlPlanSnapshotIo::Save(*this, path);
}

Result<std::unique_ptr<CrawlPlan>> CrawlPlan::LoadSnapshot(
    const std::string& path) {
  return CrawlPlanSnapshotIo::Load(path, nullptr);
}

Result<std::unique_ptr<CrawlPlan>> CrawlPlan::LoadSnapshot(
    const std::string& path, const table::Table* expected_local,
    const SmartCrawlOptions& expected_options) {
  if (expected_local == nullptr) {
    return Status::InvalidArgument(
        "LoadSnapshot: expected_local must be non-null");
  }
  const uint64_t expected =
      BuildFingerprint(*expected_local, expected_options);
  return CrawlPlanSnapshotIo::Load(path, &expected);
}

uint64_t CrawlPlan::BuildFingerprint(const table::Table& local,
                                     const SmartCrawlOptions& options) {
  Fingerprint64 fp(snapshot::kFormatVersion);
  // Options, canonical field order. The thread knobs are deliberately
  // excluded: artifacts are bit-identical at any thread count, so thread
  // configuration must not invalidate a snapshot.
  fp.AppendU32(static_cast<uint32_t>(options.policy));
  fp.AppendU32(options.pool.min_support);
  fp.AppendU64(options.pool.max_itemset_size);
  fp.AppendU64(options.pool.max_mined_itemsets);
  fp.AppendBool(options.pool.dominance_prune);
  fp.AppendU64(options.local_text_fields.size());
  for (const std::string& f : options.local_text_fields) fp.AppendString(f);
  fp.AppendU32(static_cast<uint32_t>(options.er.mode));
  fp.AppendDouble(options.er.jaccard_threshold);
  fp.AppendBool(options.remove_unmatched_solid);
  fp.AppendBool(options.alpha_fallback);
  fp.AppendDouble(options.omega);
  fp.AppendBool(options.keep_crawled_records);
  // Dataset content: schema plus every record's entity id and fields.
  fp.AppendU64(local.schema().num_fields());
  for (const std::string& name : local.schema().field_names) {
    fp.AppendString(name);
  }
  fp.AppendU64(local.size());
  for (const table::Record& rec : local.records()) {
    fp.AppendU64(rec.entity_id);
    for (const std::string& f : rec.fields) fp.AppendString(f);
  }
  return fp.Digest();
}

}  // namespace smartcrawl::core
