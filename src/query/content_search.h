#ifndef QUASAQ_QUERY_CONTENT_SEARCH_H_
#define QUASAQ_QUERY_CONTENT_SEARCH_H_

#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "media/video.h"
#include "query/ast.h"

// Content-based search over the video catalog — phase 1 of QuaSAQ query
// processing ("searching and identification of video objects done by the
// original VDBMS"). Returns *logical* OIDs; QuaSAQ then plans the
// QoS-constrained delivery. Keyword predicates are resolved through an
// inverted index; SIMILAR(...) ranks candidates by Euclidean distance
// over the stored feature vectors.
//
// The index is built in one pass over a catalog it does not copy: it
// keeps pointers into the catalog, which must outlive it unchanged.

namespace quasaq::query {

class ContentIndex {
 public:
  /// Indexes every logical object of `catalog` (keywords, title and
  /// features). Logical OIDs must be unique; when two objects share a
  /// title, the later one owns it.
  explicit ContentIndex(std::span<const media::VideoContent> catalog);

  /// Evaluates the content component of a query. Results are ranked by
  /// similarity when SIMILAR is present (then truncated to top_k),
  /// otherwise sorted by logical OID. An empty predicate matches all.
  std::vector<LogicalOid> Search(const ContentPredicate& predicate) const;

  size_t indexed_count() const { return contents_.size(); }

 private:
  // (term, object) postings, sorted by term then logical OID.
  using Postings = std::vector<std::pair<std::string_view, LogicalOid>>;

  std::vector<LogicalOid> CandidatesFor(
      const ContentPredicate& predicate) const;
  const media::VideoContent& ContentOf(LogicalOid id) const;

  // The catalog's objects, sorted by logical OID.
  std::vector<const media::VideoContent*> contents_;
  // One posting per keyword occurrence.
  Postings keyword_index_;
  // One posting per title, the later object first among equal titles.
  Postings title_index_;
};

/// Squared Euclidean distance between two feature vectors; shorter
/// vectors are zero-padded (queries may probe fewer dimensions).
double FeatureDistanceSquared(const std::vector<double>& a,
                              const std::vector<double>& b);

}  // namespace quasaq::query

#endif  // QUASAQ_QUERY_CONTENT_SEARCH_H_
