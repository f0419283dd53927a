#include "query/content_search.h"

#include <algorithm>
#include <cassert>
#include <iterator>

namespace quasaq::query {

double FeatureDistanceSquared(const std::vector<double>& a,
                              const std::vector<double>& b) {
  size_t n = std::max(a.size(), b.size());
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    double ai = i < a.size() ? a[i] : 0.0;
    double bi = i < b.size() ? b[i] : 0.0;
    sum += (ai - bi) * (ai - bi);
  }
  return sum;
}

ContentIndex::ContentIndex(std::span<const media::VideoContent> catalog) {
  size_t keywords = 0;
  contents_.reserve(catalog.size());
  title_index_.reserve(catalog.size());
  for (const media::VideoContent& content : catalog) {
    contents_.push_back(&content);
    title_index_.emplace_back(content.title, content.id);
    keywords += content.keywords.size();
  }
  keyword_index_.reserve(keywords);
  for (const media::VideoContent& content : catalog) {
    for (const std::string& keyword : content.keywords) {
      keyword_index_.emplace_back(keyword, content.id);
    }
  }
  std::sort(contents_.begin(), contents_.end(),
            [](const media::VideoContent* a, const media::VideoContent* b) {
              return a->id < b->id;
            });
  assert(std::adjacent_find(contents_.begin(), contents_.end(),
                            [](const media::VideoContent* a,
                               const media::VideoContent* b) {
                              return a->id == b->id;
                            }) == contents_.end() &&
         "duplicate logical OID");
  std::sort(keyword_index_.begin(), keyword_index_.end());
  // Reversed catalog order among equal titles, so a lookup's first hit
  // is the object indexed last.
  std::reverse(title_index_.begin(), title_index_.end());
  std::stable_sort(
      title_index_.begin(), title_index_.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
}

const media::VideoContent& ContentIndex::ContentOf(LogicalOid id) const {
  auto it = std::lower_bound(
      contents_.begin(), contents_.end(), id,
      [](const media::VideoContent* content, LogicalOid key) {
        return content->id < key;
      });
  assert(it != contents_.end() && (*it)->id == id);
  return **it;
}

std::vector<LogicalOid> ContentIndex::CandidatesFor(
    const ContentPredicate& predicate) const {
  // The objects posted under `term`, in logical-OID order.
  auto postings = [](const Postings& index, std::string_view term) {
    auto [first, last] = std::equal_range(
        index.begin(), index.end(), std::pair(term, LogicalOid()),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    std::vector<LogicalOid> ids;
    ids.reserve(static_cast<size_t>(last - first));
    for (auto it = first; it != last; ++it) ids.push_back(it->second);
    return ids;
  };
  // Title lookup is the most selective; start there if present.
  if (predicate.title.has_value()) {
    std::vector<LogicalOid> titled = postings(title_index_, *predicate.title);
    if (titled.empty()) return {};
    titled.resize(1);
    // Keyword predicates must still hold.
    const media::VideoContent& content = ContentOf(titled.front());
    for (const std::string& keyword : predicate.keywords) {
      if (std::find(content.keywords.begin(), content.keywords.end(),
                    keyword) == content.keywords.end()) {
        return {};
      }
    }
    return titled;
  }
  if (!predicate.keywords.empty()) {
    // Intersect the posting lists of every keyword.
    std::vector<LogicalOid> result =
        postings(keyword_index_, predicate.keywords.front());
    for (size_t k = 1; k < predicate.keywords.size() && !result.empty();
         ++k) {
      std::vector<LogicalOid> other =
          postings(keyword_index_, predicate.keywords[k]);
      std::vector<LogicalOid> merged;
      std::set_intersection(result.begin(), result.end(), other.begin(),
                            other.end(), std::back_inserter(merged));
      result = std::move(merged);
    }
    return result;
  }
  // No filter: every indexed object is a candidate.
  std::vector<LogicalOid> all;
  all.reserve(contents_.size());
  for (const media::VideoContent* content : contents_) {
    all.push_back(content->id);
  }
  return all;
}

std::vector<LogicalOid> ContentIndex::Search(
    const ContentPredicate& predicate) const {
  std::vector<LogicalOid> candidates = CandidatesFor(predicate);
  if (!predicate.similar_to.has_value()) return candidates;

  std::vector<std::pair<double, LogicalOid>> ranked;
  ranked.reserve(candidates.size());
  for (LogicalOid id : candidates) {
    const media::VideoContent& content = ContentOf(id);
    ranked.emplace_back(
        FeatureDistanceSquared(content.features, *predicate.similar_to), id);
  }
  std::sort(ranked.begin(), ranked.end());
  size_t k = std::min<size_t>(ranked.size(),
                              static_cast<size_t>(predicate.top_k));
  std::vector<LogicalOid> out;
  out.reserve(k);
  for (size_t i = 0; i < k; ++i) out.push_back(ranked[i].second);
  return out;
}

}  // namespace quasaq::query
