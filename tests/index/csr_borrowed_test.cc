#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "index/csr.h"

/// Borrowed-mode coverage for the flat containers (Csr, FlatArray): the
/// snapshot loader installs non-owning views over mmap'ed bytes, and every
/// accessor must behave exactly as it does over builder-owned storage.
/// End-to-end bit-identity of borrowed plans is asserted by the snapshot
/// round-trip suite (tests/core/snapshot_roundtrip_test.cc); here we cover
/// the container contract itself, including the malformed-input rejections
/// that let reads stay unchecked.
namespace smartcrawl::index {
namespace {

Csr<uint32_t> BuildOwned(const std::vector<std::vector<uint32_t>>& rows) {
  return CsrFromRows(rows);
}

TEST(CsrBorrowed, MirrorsOwningAccessors) {
  const std::vector<std::vector<uint32_t>> rows = {
      {1, 2, 3}, {}, {7}, {}, {9, 10}};
  Csr<uint32_t> owned = BuildOwned(rows);
  auto borrowed_or =
      Csr<uint32_t>::FromBorrowed(owned.offsets(), owned.values());
  ASSERT_TRUE(borrowed_or.ok()) << borrowed_or.status().ToString();
  const Csr<uint32_t>& b = *borrowed_or;

  EXPECT_FALSE(owned.borrowed());
  EXPECT_TRUE(b.borrowed());
  ASSERT_EQ(b.num_rows(), owned.num_rows());
  EXPECT_EQ(b.num_values(), owned.num_values());
  for (size_t r = 0; r < owned.num_rows(); ++r) {
    EXPECT_EQ(b.row_size(r), owned.row_size(r)) << "row " << r;
    EXPECT_EQ(b.row_bounds(r), owned.row_bounds(r)) << "row " << r;
    ASSERT_EQ(b[r].size(), owned[r].size()) << "row " << r;
    for (size_t i = 0; i < owned[r].size(); ++i) {
      EXPECT_EQ(b[r][i], owned[r][i]) << "row " << r << " pos " << i;
    }
  }
}

TEST(CsrBorrowed, EmptyRowsAndZeroLengthValues) {
  // All rows empty: offsets = {0,0,0,0}, values = {}.
  const std::vector<size_t> offsets = {0, 0, 0, 0};
  auto csr_or = Csr<uint32_t>::FromBorrowed(offsets, {});
  ASSERT_TRUE(csr_or.ok()) << csr_or.status().ToString();
  EXPECT_EQ(csr_or->num_rows(), 3u);
  EXPECT_EQ(csr_or->num_values(), 0u);
  for (size_t r = 0; r < 3; ++r) {
    EXPECT_TRUE((*csr_or)[r].empty());
    EXPECT_EQ(csr_or->row_size(r), 0u);
  }
}

TEST(CsrBorrowed, WhollyEmptyIsZeroRows) {
  auto csr_or = Csr<uint32_t>::FromBorrowed({}, {});
  ASSERT_TRUE(csr_or.ok());
  EXPECT_EQ(csr_or->num_rows(), 0u);
  EXPECT_TRUE(csr_or->empty());
}

TEST(CsrBorrowed, RejectsValuesWithoutOffsets) {
  const std::vector<uint32_t> values = {1, 2};
  auto csr_or = Csr<uint32_t>::FromBorrowed({}, values);
  EXPECT_FALSE(csr_or.ok());
}

TEST(CsrBorrowed, RejectsNonZeroFirstOffset) {
  const std::vector<size_t> offsets = {1, 2};
  const std::vector<uint32_t> values = {5, 6};
  auto csr_or = Csr<uint32_t>::FromBorrowed(offsets, values);
  EXPECT_FALSE(csr_or.ok());
}

TEST(CsrBorrowed, RejectsDecreasingOffsets) {
  const std::vector<size_t> offsets = {0, 3, 2, 4};
  const std::vector<uint32_t> values = {1, 2, 3, 4};
  auto csr_or = Csr<uint32_t>::FromBorrowed(offsets, values);
  EXPECT_FALSE(csr_or.ok());
}

TEST(CsrBorrowed, RejectsTrailingOffsetMismatch) {
  const std::vector<size_t> offsets = {0, 2, 3};
  const std::vector<uint32_t> values = {1, 2, 3, 4};  // back() says 3
  auto csr_or = Csr<uint32_t>::FromBorrowed(offsets, values);
  EXPECT_FALSE(csr_or.ok());
}

TEST(CsrBorrowed, RejectsMisalignedValues) {
  // Carve a deliberately misaligned uint32_t pointer out of a byte buffer.
  alignas(8) unsigned char raw[64] = {};
  const void* shifted = raw + 1;
  std::span<const uint32_t> values(static_cast<const uint32_t*>(shifted), 4);
  const std::vector<size_t> offsets = {0, 4};
  auto csr_or = Csr<uint32_t>::FromBorrowed(offsets, values);
  ASSERT_FALSE(csr_or.ok());
  EXPECT_NE(csr_or.status().ToString().find("misaligned"), std::string::npos);
}

TEST(CsrBorrowed, RejectsMisalignedOffsets) {
  alignas(8) unsigned char raw[128] = {};
  const void* shifted = raw + 4;  // 4 % alignof(size_t) != 0 on LP64
  std::span<const size_t> offsets(static_cast<const size_t*>(shifted), 2);
  auto csr_or = Csr<uint32_t>::FromBorrowed(offsets, {});
  EXPECT_FALSE(csr_or.ok());
}

TEST(CsrBorrowed, CopyAndMovePreserveViews) {
  const std::vector<size_t> offsets = {0, 2, 2, 3};
  const std::vector<uint32_t> values = {4, 5, 6};
  auto csr_or = Csr<uint32_t>::FromBorrowed(offsets, values);
  ASSERT_TRUE(csr_or.ok());

  Csr<uint32_t> copy = *csr_or;            // copy of a borrowed Csr
  Csr<uint32_t> moved = std::move(*csr_or);  // move of a borrowed Csr
  for (const Csr<uint32_t>* c : {&copy, &moved}) {
    EXPECT_TRUE(c->borrowed());
    ASSERT_EQ(c->num_rows(), 3u);
    EXPECT_EQ((*c)[0][0], 4u);
    EXPECT_EQ((*c)[0][1], 5u);
    EXPECT_TRUE((*c)[1].empty());
    EXPECT_EQ((*c)[2][0], 6u);
  }
}

TEST(CsrOwned, MoveKeepsRowSpansValid) {
  Csr<uint32_t> owned = BuildOwned({{1, 2}, {3}});
  std::span<const uint32_t> row0 = owned[0];
  Csr<uint32_t> moved = std::move(owned);
  // Vector moves transfer the buffer, so the pre-move span still aliases
  // live memory, and the moved-to container re-adopts the same bytes.
  EXPECT_EQ(moved[0].data(), row0.data());
  EXPECT_EQ(moved[0][1], 2u);
  EXPECT_FALSE(moved.borrowed());
}

TEST(CsrOwned, CopyRebindsViewsToItsOwnStorage) {
  Csr<uint32_t> owned = BuildOwned({{1, 2}, {3}});
  Csr<uint32_t> copy = owned;
  EXPECT_NE(copy[0].data(), owned[0].data());  // deep copy, own views
  EXPECT_EQ(copy[0][0], owned[0][0]);
  EXPECT_EQ(copy.num_values(), owned.num_values());
}

TEST(FlatArrayBorrowed, MirrorsOwningReads) {
  FlatArray<uint32_t> owned;
  owned.assign(4, 0);
  for (uint32_t i = 0; i < 4; ++i) owned.mutable_span()[i] = i * 10;

  auto borrowed_or = FlatArray<uint32_t>::FromBorrowed(owned.span());
  ASSERT_TRUE(borrowed_or.ok());
  const FlatArray<uint32_t>& b = *borrowed_or;
  EXPECT_TRUE(b.borrowed());
  ASSERT_EQ(b.size(), 4u);
  const FlatArray<uint32_t>& o = owned;
  for (uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(b[i], o[i]);
  }
}

TEST(FlatArrayBorrowed, NonConstReadGoesThroughTheView) {
  const std::vector<uint32_t> backing = {5, 6, 7};
  auto borrowed_or = FlatArray<uint32_t>::FromBorrowed(backing);
  ASSERT_TRUE(borrowed_or.ok());
  // A borrowed array has no owned storage: a read through a non-const
  // reference must still address the borrowed bytes.
  FlatArray<uint32_t>& b = *borrowed_or;
  EXPECT_EQ(&b[0], backing.data());
  EXPECT_EQ(b[2], 7u);
}

TEST(FlatArrayBorrowed, RejectsMisaligned) {
  alignas(8) unsigned char raw[64] = {};
  const void* shifted = raw + 2;
  std::span<const uint32_t> values(static_cast<const uint32_t*>(shifted), 2);
  auto arr_or = FlatArray<uint32_t>::FromBorrowed(values);
  EXPECT_FALSE(arr_or.ok());
}

TEST(FlatArrayBorrowed, MoveAndCopyPreserveViews) {
  std::vector<uint32_t> backing = {7, 8, 9};
  auto arr_or = FlatArray<uint32_t>::FromBorrowed(backing);
  ASSERT_TRUE(arr_or.ok());
  const FlatArray<uint32_t> copy = *arr_or;
  const FlatArray<uint32_t> moved = std::move(*arr_or);
  EXPECT_EQ(copy.span().data(), backing.data());
  EXPECT_EQ(moved.span().data(), backing.data());
  EXPECT_EQ(copy[2], 9u);
  EXPECT_EQ(moved[0], 7u);
}

}  // namespace
}  // namespace smartcrawl::index
