#include <bit>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/smart_crawler.h"
#include "datagen/scenario.h"
#include "hidden/budget.h"
#include "sample/sampler.h"
#include "snapshot/format.h"
#include "snapshot/reader.h"
#include "snapshot/writer.h"
#include "util/hash.h"
#include "util/result.h"

/// Snapshot round-trip suite. Every test name starts with "Snapshot", so
/// --gtest_filter='Snapshot*' runs exactly this suite.
///
/// Two layers:
///   * format layer (SnapshotFormat*): SnapshotWriter/SnapshotReader
///     contract — byte round-trips, typed views, rejection of malformed
///     files. Corruption must always surface as a Status, never as UB.
///   * plan layer (Snapshot/SnapshotGoldenTest, SnapshotPlan*): a
///     CrawlPlan serialized and mmap-loaded must crawl BIT-IDENTICALLY to
///     the freshly built plan on every policy × ER-mode combination of the
///     golden crawl suite.
namespace smartcrawl::core {
namespace {

struct Combo {
  SelectionPolicy policy;
  match::ErMode er;
};

constexpr Combo kAllCombos[] = {
    {SelectionPolicy::kSimple, match::ErMode::kEntityOracle},
    {SelectionPolicy::kSimple, match::ErMode::kExact},
    {SelectionPolicy::kSimple, match::ErMode::kJaccard},
    {SelectionPolicy::kBound, match::ErMode::kEntityOracle},
    {SelectionPolicy::kBound, match::ErMode::kExact},
    {SelectionPolicy::kBound, match::ErMode::kJaccard},
    {SelectionPolicy::kEstBiased, match::ErMode::kEntityOracle},
    {SelectionPolicy::kEstBiased, match::ErMode::kExact},
    {SelectionPolicy::kEstBiased, match::ErMode::kJaccard},
    {SelectionPolicy::kEstUnbiased, match::ErMode::kEntityOracle},
    {SelectionPolicy::kEstUnbiased, match::ErMode::kExact},
    {SelectionPolicy::kEstUnbiased, match::ErMode::kJaccard},
    {SelectionPolicy::kIdeal, match::ErMode::kEntityOracle},
    {SelectionPolicy::kIdeal, match::ErMode::kExact},
    {SelectionPolicy::kIdeal, match::ErMode::kJaccard},
};

constexpr size_t kBudget = 30;

/// Same scenario as the golden crawl suite (tests/core/golden_crawl_test.cc).
datagen::DblpScenarioConfig GoldenScenario() {
  datagen::DblpScenarioConfig cfg;
  cfg.corpus.corpus_size = 4000;
  cfg.corpus.db_community_fraction = 0.5;
  cfg.hidden_size = 1500;
  cfg.local_size = 250;
  cfg.top_k = 50;
  cfg.error_rate = 0.2;
  cfg.seed = 71;
  return cfg;
}

/// Order-sensitive digest of everything user-visible about a crawl (same
/// shape as the golden suite's fingerprint).
uint64_t Fingerprint(const CrawlResult& r) {
  size_t h = 0x5c5c5c5cULL;
  for (const auto& it : r.iterations) {
    HashCombine(h, Fnv1a(it.query));
    HashCombine(h, it.page_size);
    HashCombine(h, std::bit_cast<uint64_t>(it.estimated_benefit));
    for (table::EntityId e : it.page_entities) HashCombine(h, e);
  }
  for (table::RecordId d : r.covered_local_ids) HashCombine(h, d);
  return h;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Plan section ids of the u32-per-query counters (the SectionId enum in
/// src/core/crawl_plan_snapshot.cc).
constexpr uint32_t kLocalFrequencySection = 13;
constexpr uint32_t kInterSection = 20;
constexpr uint32_t kCoverCountSection = 27;

/// Copies snapshot `in` to `out` section by section, adding `delta` to
/// element 0 of the u32 section `id`. Every checksum is sealed afresh, so
/// only the plan loader's own checks can reject the copy.
Status CopyWithBumpedCounter(const std::string& in, const std::string& out,
                             uint32_t id, uint32_t delta) {
  SC_ASSIGN_OR_RETURN(snapshot::SnapshotReader reader,
                      snapshot::SnapshotReader::Open(in));
  SC_ASSIGN_OR_RETURN(std::span<const uint32_t> counter,
                      reader.Typed<uint32_t>(id));
  if (counter.empty()) return Status::InvalidArgument("empty counter");
  std::vector<uint32_t> bumped(counter.begin(), counter.end());
  bumped[0] += delta;
  snapshot::SnapshotWriter writer;
  for (uint32_t sec = 1; sec < 64; ++sec) {
    if (sec == id) {
      writer.AddTyped<uint32_t>(sec, bumped);
    } else if (reader.Has(sec)) {
      SC_ASSIGN_OR_RETURN(std::span<const std::byte> bytes,
                          reader.SectionBytes(sec));
      writer.AddBytes(sec, bytes);
    }
  }
  return writer.WriteFile(out, reader.build_fingerprint());
}

// ---------------------------------------------------------------------------
// Format layer.
// ---------------------------------------------------------------------------

TEST(SnapshotFormat, WriterReaderRoundTrip) {
  const std::string path = ::testing::TempDir() + "sc_fmt_roundtrip.snap";
  const std::vector<uint32_t> numbers = {1, 2, 3, 40000};
  const std::vector<std::byte> raw = {std::byte{0xde}, std::byte{0xad}};

  snapshot::SnapshotWriter w;
  w.AddTyped<uint32_t>(7, numbers);
  w.AddBytes(9, raw);
  w.AddBytes(11, {});  // zero-length sections are legal
  ASSERT_TRUE(w.WriteFile(path, /*build_fingerprint=*/0x1234).ok());

  auto reader_or = snapshot::SnapshotReader::Open(path);
  ASSERT_TRUE(reader_or.ok()) << reader_or.status().ToString();
  snapshot::SnapshotReader& r = *reader_or;
  EXPECT_EQ(r.build_fingerprint(), 0x1234u);
  EXPECT_TRUE(r.Has(7));
  EXPECT_TRUE(r.Has(11));
  EXPECT_FALSE(r.Has(8));
  EXPECT_FALSE(r.SectionBytes(8).ok());

  auto typed_or = r.Typed<uint32_t>(7);
  ASSERT_TRUE(typed_or.ok()) << typed_or.status().ToString();
  ASSERT_EQ(typed_or->size(), numbers.size());
  for (size_t i = 0; i < numbers.size(); ++i) {
    EXPECT_EQ((*typed_or)[i], numbers[i]);
  }
  // Sections start 64-byte aligned in the mapping.
  EXPECT_EQ(std::bit_cast<uintptr_t>(typed_or->data()) %
                snapshot::kSectionAlign,
            0u);

  auto raw_or = r.SectionBytes(9);
  ASSERT_TRUE(raw_or.ok());
  ASSERT_EQ(raw_or->size(), 2u);
  EXPECT_EQ((*raw_or)[0], std::byte{0xde});

  auto empty_or = r.SectionBytes(11);
  ASSERT_TRUE(empty_or.ok());
  EXPECT_TRUE(empty_or->empty());
}

TEST(SnapshotFormat, WriterRejectsDuplicateSectionIds) {
  snapshot::SnapshotWriter w;
  const std::vector<std::byte> raw = {std::byte{1}};
  w.AddBytes(3, raw);
  w.AddBytes(3, raw);
  const std::string path = ::testing::TempDir() + "sc_fmt_dup.snap";
  Status st = w.WriteFile(path, 0);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("duplicate"), std::string::npos);
}

TEST(SnapshotFormat, TypedRejectsSizeMismatch) {
  const std::string path = ::testing::TempDir() + "sc_fmt_size.snap";
  const std::vector<std::byte> six(6, std::byte{0});
  snapshot::SnapshotWriter w;
  w.AddBytes(1, six);
  ASSERT_TRUE(w.WriteFile(path, 0).ok());
  auto reader_or = snapshot::SnapshotReader::Open(path);
  ASSERT_TRUE(reader_or.ok());
  EXPECT_FALSE(reader_or->Typed<uint32_t>(1).ok());  // 6 % 4 != 0
}

TEST(SnapshotFormat, RejectsBadMagic) {
  const std::string path = ::testing::TempDir() + "sc_fmt_magic.snap";
  snapshot::SnapshotWriter w;
  ASSERT_TRUE(w.WriteFile(path, 0).ok());
  std::string bytes = ReadFileBytes(path);
  ASSERT_GE(bytes.size(), sizeof(snapshot::SnapshotHeader));
  bytes[0] = 'X';
  WriteFileBytes(path, bytes);
  auto reader_or = snapshot::SnapshotReader::Open(path);
  ASSERT_FALSE(reader_or.ok());
  EXPECT_NE(reader_or.status().ToString().find("magic"), std::string::npos);
}

TEST(SnapshotFormat, RejectsFutureVersion) {
  const std::string path = ::testing::TempDir() + "sc_fmt_version.snap";
  snapshot::SnapshotWriter w;
  ASSERT_TRUE(w.WriteFile(path, 0).ok());
  const std::string fresh = ReadFileBytes(path);
  // One version ahead, and one behind: the previous version is exactly the
  // file a plan cache written before the last format bump holds.
  for (const uint32_t version :
       {snapshot::kFormatVersion + 1, snapshot::kFormatVersion - 1}) {
    std::string bytes = fresh;
    // Rewrite the version field, then re-seal the header checksum so the
    // version check (not the checksum check) is what rejects the file.
    std::memcpy(bytes.data() + 8, &version, sizeof version);
    const uint64_t reseal = HashBytes64(
        bytes.data(), offsetof(snapshot::SnapshotHeader, header_checksum),
        snapshot::kChecksumSeed);
    std::memcpy(bytes.data() + offsetof(snapshot::SnapshotHeader,
                                        header_checksum),
                &reseal, sizeof reseal);
    WriteFileBytes(path, bytes);
    auto reader_or = snapshot::SnapshotReader::Open(path);
    ASSERT_FALSE(reader_or.ok()) << "version " << version;
    const std::string msg = reader_or.status().ToString();
    EXPECT_NE(msg.find("format version " + std::to_string(version)),
              std::string::npos)
        << msg;
  }
}

TEST(SnapshotFormat, RejectsTamperedHeader) {
  const std::string path = ::testing::TempDir() + "sc_fmt_header.snap";
  snapshot::SnapshotWriter w;
  ASSERT_TRUE(w.WriteFile(path, /*build_fingerprint=*/77).ok());
  std::string bytes = ReadFileBytes(path);
  bytes[24] ^= 0x01;  // build_fingerprint field, checksum NOT re-sealed
  WriteFileBytes(path, bytes);
  auto reader_or = snapshot::SnapshotReader::Open(path);
  ASSERT_FALSE(reader_or.ok());
  EXPECT_NE(reader_or.status().ToString().find("header checksum"),
            std::string::npos);
}

TEST(SnapshotFormat, RejectsTruncatedFile) {
  const std::string path = ::testing::TempDir() + "sc_fmt_trunc.snap";
  const std::vector<std::byte> payload(100, std::byte{7});
  snapshot::SnapshotWriter w;
  w.AddBytes(1, payload);
  ASSERT_TRUE(w.WriteFile(path, 0).ok());
  std::string bytes = ReadFileBytes(path);
  WriteFileBytes(path, bytes.substr(0, bytes.size() / 2));
  EXPECT_FALSE(snapshot::SnapshotReader::Open(path).ok());
  WriteFileBytes(path, bytes.substr(0, 10));  // shorter than the header
  EXPECT_FALSE(snapshot::SnapshotReader::Open(path).ok());
}

TEST(SnapshotFormat, RejectsCorruptedPayload) {
  const std::string path = ::testing::TempDir() + "sc_fmt_corrupt.snap";
  const std::vector<std::byte> payload(100, std::byte{7});
  snapshot::SnapshotWriter w;
  w.AddBytes(1, payload);
  ASSERT_TRUE(w.WriteFile(path, 0).ok());
  std::string bytes = ReadFileBytes(path);
  // Locate the payload through the section table rather than guessing at
  // the layout.
  snapshot::SectionEntry entry;
  std::memcpy(&entry, bytes.data() + sizeof(snapshot::SnapshotHeader),
              sizeof entry);
  ASSERT_EQ(entry.id, 1u);
  ASSERT_LT(entry.offset, bytes.size());
  bytes[entry.offset] ^= 0x40;
  WriteFileBytes(path, bytes);
  auto reader_or = snapshot::SnapshotReader::Open(path);
  ASSERT_FALSE(reader_or.ok());
  EXPECT_NE(reader_or.status().ToString().find("checksum mismatch"),
            std::string::npos);
}

TEST(SnapshotFormat, RejectsMissingFile) {
  auto reader_or = snapshot::SnapshotReader::Open(
      ::testing::TempDir() + "sc_fmt_does_not_exist.snap");
  EXPECT_FALSE(reader_or.ok());
}

// ---------------------------------------------------------------------------
// Plan layer.
// ---------------------------------------------------------------------------

TEST(SnapshotPlan, RejectsFormatValidButNotAPlan) {
  // A structurally valid snapshot missing the plan's sections must fail
  // with a Status, not crash.
  const std::string path = ::testing::TempDir() + "sc_plan_notaplan.snap";
  const std::vector<std::byte> payload(8, std::byte{0});
  snapshot::SnapshotWriter w;
  w.AddBytes(999, payload);
  ASSERT_TRUE(w.WriteFile(path, 0).ok());
  auto plan_or = CrawlPlan::LoadSnapshot(path);
  EXPECT_FALSE(plan_or.ok());
}

class SnapshotGoldenTest : public ::testing::TestWithParam<Combo> {};

TEST_P(SnapshotGoldenTest, LoadedPlanCrawlsBitIdentically) {
  const Combo& combo = GetParam();
  auto s = datagen::BuildDblpScenario(GoldenScenario());
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  auto sample = sample::BernoulliSample(*s->hidden, 0.025, 13);

  SmartCrawlOptions opt;
  opt.policy = combo.policy;
  opt.local_text_fields = s->local_text_fields;
  opt.num_threads = 1;
  opt.er.mode = combo.er;
  opt.er.jaccard_threshold = 0.6;
  const SmartCrawlOptions opt_copy = opt;
  const hidden::HiddenDatabase* oracle =
      combo.policy == SelectionPolicy::kIdeal ? s->hidden.get() : nullptr;

  auto built_or =
      SmartCrawler::Create(&s->local, std::move(opt), &sample, oracle);
  ASSERT_TRUE(built_or.ok()) << built_or.status().ToString();
  SmartCrawler& built = *built_or.value();

  const std::string path = ::testing::TempDir() + "sc_golden_" +
                           std::to_string(static_cast<int>(combo.policy)) +
                           "_" + std::to_string(static_cast<int>(combo.er)) +
                           ".snap";
  ASSERT_TRUE(built.plan().Serialize(path).ok());

  // Load with the expectation overload: same table + same options must be
  // accepted.
  auto plan_or = CrawlPlan::LoadSnapshot(path, &s->local, opt_copy);
  ASSERT_TRUE(plan_or.ok()) << plan_or.status().ToString();
  auto loaded_or = SmartCrawler::Adopt(
      std::shared_ptr<const CrawlPlan>(std::move(plan_or).value()));
  ASSERT_TRUE(loaded_or.ok());
  SmartCrawler& loaded = *loaded_or.value();

  hidden::BudgetedInterface iface_a(s->hidden.get(), kBudget);
  auto r_built = built.Crawl(&iface_a, kBudget);
  ASSERT_TRUE(r_built.ok()) << r_built.status().ToString();

  hidden::BudgetedInterface iface_b(s->hidden.get(), kBudget);
  auto r_loaded = loaded.Crawl(&iface_b, kBudget);
  ASSERT_TRUE(r_loaded.ok()) << r_loaded.status().ToString();

  EXPECT_EQ(r_loaded->queries_issued, r_built->queries_issued);
  EXPECT_EQ(r_loaded->covered_local_ids.size(),
            r_built->covered_local_ids.size());
  EXPECT_EQ(r_loaded->stats.pq_recomputes, r_built->stats.pq_recomputes);
  EXPECT_EQ(r_loaded->stopped_early, r_built->stopped_early);
  EXPECT_EQ(Fingerprint(*r_loaded), Fingerprint(*r_built));
}

INSTANTIATE_TEST_SUITE_P(
    Snapshot, SnapshotGoldenTest, ::testing::ValuesIn(kAllCombos),
    [](const ::testing::TestParamInfo<Combo>& pinfo) {
      std::string name = PolicyName(pinfo.param.policy);
      switch (pinfo.param.er) {
        case match::ErMode::kEntityOracle: name += "Oracle"; break;
        case match::ErMode::kExact: name += "Exact"; break;
        case match::ErMode::kJaccard: name += "Jaccard"; break;
      }
      std::string out;
      for (char c : name) {
        if (c != '-') out += c;  // gtest names must be alphanumeric
      }
      return out;
    });

/// One scenario, serialized twice and re-serialized after a load: all
/// three files must be byte-identical. This pins serialization
/// determinism AND proves the loaded plan lost nothing.
TEST(SnapshotPlan, SerializationIsDeterministicAndLossless) {
  auto s = datagen::BuildDblpScenario(GoldenScenario());
  ASSERT_TRUE(s.ok());
  auto sample = sample::BernoulliSample(*s->hidden, 0.025, 13);
  SmartCrawlOptions opt;
  opt.policy = SelectionPolicy::kEstBiased;
  opt.local_text_fields = s->local_text_fields;
  opt.num_threads = 1;
  opt.er.mode = match::ErMode::kJaccard;
  opt.er.jaccard_threshold = 0.6;
  auto crawler_or = SmartCrawler::Create(&s->local, std::move(opt), &sample);
  ASSERT_TRUE(crawler_or.ok());

  const std::string dir = ::testing::TempDir();
  ASSERT_TRUE(crawler_or.value()->plan().Serialize(dir + "sc_a.snap").ok());
  ASSERT_TRUE(crawler_or.value()->plan().Serialize(dir + "sc_b.snap").ok());
  const std::string a = ReadFileBytes(dir + "sc_a.snap");
  EXPECT_EQ(a, ReadFileBytes(dir + "sc_b.snap"));

  auto plan_or = CrawlPlan::LoadSnapshot(dir + "sc_a.snap");
  ASSERT_TRUE(plan_or.ok()) << plan_or.status().ToString();
  ASSERT_TRUE((*plan_or)->Serialize(dir + "sc_c.snap").ok());
  EXPECT_EQ(a, ReadFileBytes(dir + "sc_c.snap"));
}

/// A counter a session decrements must equal the index entries it is
/// decremented for. A snapshot whose counter disagrees by one is rejected
/// at load instead of letting a session underflow it.
TEST(SnapshotPlan, RejectsCountersThatDisagreeWithTheirIndexes) {
  auto s = datagen::BuildDblpScenario(GoldenScenario());
  ASSERT_TRUE(s.ok());
  auto sample = sample::BernoulliSample(*s->hidden, 0.025, 13);
  const std::string dir = ::testing::TempDir();
  struct Case {
    SelectionPolicy policy;
    uint32_t section;
    const char* error;
  };
  for (const Case& c :
       {Case{SelectionPolicy::kEstBiased, kInterSection, "inter"},
        Case{SelectionPolicy::kEstBiased, kLocalFrequencySection,
             "local_frequency"},
        Case{SelectionPolicy::kIdeal, kCoverCountSection, "cover_count"}}) {
    SCOPED_TRACE(c.error);
    SmartCrawlOptions opt;
    opt.policy = c.policy;
    opt.local_text_fields = s->local_text_fields;
    opt.er.mode = match::ErMode::kJaccard;
    opt.er.jaccard_threshold = 0.6;
    const hidden::HiddenDatabase* oracle =
        c.policy == SelectionPolicy::kIdeal ? s->hidden.get() : nullptr;
    auto plan = CrawlPlan::Build(&s->local, opt, &sample, oracle);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    const std::string path = dir + "sc_counters.snap";
    const std::string copy = dir + "sc_counters_copy.snap";
    ASSERT_TRUE((*plan)->Serialize(path).ok());

    // The copy itself is faithful: unbumped, it loads.
    ASSERT_TRUE(CopyWithBumpedCounter(path, copy, c.section, 0).ok());
    EXPECT_TRUE(CrawlPlan::LoadSnapshot(copy).ok());

    ASSERT_TRUE(CopyWithBumpedCounter(path, copy, c.section, 1).ok());
    auto loaded = CrawlPlan::LoadSnapshot(copy);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(loaded.status().ToString().find(c.error), std::string::npos)
        << loaded.status().ToString();
  }
}

/// Thread count is a performance knob, not a build parameter: a snapshot
/// built at one thread count must load under another.
TEST(SnapshotPlan, FingerprintIgnoresThreadCount) {
  auto s = datagen::BuildDblpScenario(GoldenScenario());
  ASSERT_TRUE(s.ok());
  auto sample = sample::BernoulliSample(*s->hidden, 0.025, 13);
  SmartCrawlOptions opt;
  opt.policy = SelectionPolicy::kEstBiased;
  opt.local_text_fields = s->local_text_fields;
  opt.num_threads = 4;
  opt.er.mode = match::ErMode::kJaccard;
  opt.er.jaccard_threshold = 0.6;
  SmartCrawlOptions opt1 = opt;
  opt1.num_threads = 1;
  EXPECT_EQ(CrawlPlan::BuildFingerprint(s->local, opt),
            CrawlPlan::BuildFingerprint(s->local, opt1));

  auto crawler_or = SmartCrawler::Create(&s->local, std::move(opt), &sample);
  ASSERT_TRUE(crawler_or.ok());
  const std::string path = ::testing::TempDir() + "sc_threads.snap";
  ASSERT_TRUE(crawler_or.value()->plan().Serialize(path).ok());
  EXPECT_TRUE(CrawlPlan::LoadSnapshot(path, &s->local, opt1).ok());
}

/// Any real option or dataset difference must be rejected.
TEST(SnapshotPlan, RejectsMismatchedExpectation) {
  auto s = datagen::BuildDblpScenario(GoldenScenario());
  ASSERT_TRUE(s.ok());
  auto sample = sample::BernoulliSample(*s->hidden, 0.025, 13);
  SmartCrawlOptions opt;
  opt.policy = SelectionPolicy::kEstBiased;
  opt.local_text_fields = s->local_text_fields;
  opt.num_threads = 1;
  opt.er.mode = match::ErMode::kJaccard;
  opt.er.jaccard_threshold = 0.6;
  const SmartCrawlOptions opt_copy = opt;
  auto crawler_or = SmartCrawler::Create(&s->local, std::move(opt), &sample);
  ASSERT_TRUE(crawler_or.ok());
  const std::string path = ::testing::TempDir() + "sc_mismatch.snap";
  ASSERT_TRUE(crawler_or.value()->plan().Serialize(path).ok());

  SmartCrawlOptions other = opt_copy;
  other.policy = SelectionPolicy::kEstUnbiased;
  auto plan_or = CrawlPlan::LoadSnapshot(path, &s->local, other);
  ASSERT_FALSE(plan_or.ok());
  EXPECT_NE(plan_or.status().ToString().find("fingerprint"),
            std::string::npos);

  SmartCrawlOptions jac = opt_copy;
  jac.er.jaccard_threshold = 0.7;
  EXPECT_FALSE(CrawlPlan::LoadSnapshot(path, &s->local, jac).ok());
}

}  // namespace
}  // namespace smartcrawl::core
