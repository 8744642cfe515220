#pragma once

#include <string>
#include <utility>
#include <vector>

#include "hidden/page.h"
#include "table/table.h"
#include "util/result.h"

/// \file search_interface.h
/// The restrictive query interface of Definition 2: the ONLY channel
/// through which crawlers may access a hidden database.
///
/// A crawler sends a set of keywords and receives at most top_k() records
/// back, ranked by a function it does not know. Every call counts against
/// the caller's budget accounting. Crawlers must be written against this
/// abstract interface; anything that peeks past it belongs to the
/// evaluation harness only.

namespace smartcrawl::hidden {

class KeywordSearchInterface {
 public:
  virtual ~KeywordSearchInterface() = default;

  /// Issues a keyword query. Keywords are raw strings, which the hidden
  /// side tokenizes like every other record text (text/tokenizer.h: one
  /// token policy, shared with the crawler). Returns the top-k
  /// matching records (the "result page") as a shared read-only Page: the
  /// same answer may be handed to many callers, so none of them may
  /// modify it, and it stays alive while any caller holds the handle. An
  /// effectively empty query (no non-stop-word keywords) is rejected with
  /// InvalidArgument and does not count as issued.
  ///
  /// The default wraps Search() into a fresh page, so an implementation
  /// that only overrides Search() still works in any stack.
  [[nodiscard]] virtual Result<PageRef> SearchPage(
      const std::vector<std::string>& keywords) {
    auto records = Search(keywords);
    if (!records.ok()) return records.status();
    return MakePage(std::move(records).value());
  }

  /// The same query as SearchPage, returning a private copy of the page's
  /// records for callers that want to own or modify them.
  [[nodiscard]] virtual Result<std::vector<table::Record>> Search(
      const std::vector<std::string>& keywords) = 0;

  /// The documented result-page limit k of this interface.
  [[nodiscard]] virtual size_t top_k() const = 0;

  /// Number of (accepted) queries issued so far through this handle.
  [[nodiscard]] virtual size_t num_queries_issued() const = 0;

 protected:
  /// Search() for implementations whose SearchPage is the real path:
  /// issues through SearchPage and copies the records out.
  Result<std::vector<table::Record>> CopyOutOfSearchPage(
      const std::vector<std::string>& keywords) {
    auto page = SearchPage(keywords);
    if (!page.ok()) return page.status();
    return (*page)->records();
  }
};

}  // namespace smartcrawl::hidden
