#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "table/table.h"

/// \file page.h
/// One result page of the top-k interface (Definition 2), as an immutable
/// object that every holder shares.
///
/// A page is built once where it is answered (the hidden database, or a
/// fault injector that altered it) and is then only ever read. The cache
/// stores the handle and hands the same object to every tenant that asks
/// the same query, and a session keeps it until its worker has processed
/// it, so a cache hit copies no records and frees none. The page's content
/// fingerprint is computed once, here, because every reader that keys on
/// content (core::PageMatchMemo) would otherwise rehash every field on
/// every lookup.

namespace smartcrawl::hidden {

class Page {
 public:
  explicit Page(std::vector<table::Record> records);

  const std::vector<table::Record>& records() const { return records_; }
  size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }

  /// Content fingerprint over the record count and, per record in page
  /// order, its id, entity id, field count and every field. Equal pages
  /// have equal fingerprints; the converse holds only up to collisions, so
  /// a reader that keys on it must confirm a hit.
  uint64_t fingerprint() const { return fingerprint_; }

 private:
  std::vector<table::Record> records_;
  uint64_t fingerprint_;
};

/// A shared read-only handle to a page.
using PageRef = std::shared_ptr<const Page>;

/// Builds a page (and its fingerprint) in one allocation with its handle.
inline PageRef MakePage(std::vector<table::Record> records) {
  return std::make_shared<const Page>(std::move(records));
}

}  // namespace smartcrawl::hidden
