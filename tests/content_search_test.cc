#include "query/content_search.h"

#include <gtest/gtest.h>

namespace quasaq::query {
namespace {

media::VideoContent MakeContent(int64_t oid, std::vector<std::string> keywords,
                                std::vector<double> features = {}) {
  media::VideoContent content;
  content.id = LogicalOid(oid);
  content.title = "video" + std::to_string(oid);
  content.keywords = std::move(keywords);
  content.features = std::move(features);
  return content;
}

class ContentIndexTest : public ::testing::Test {
 protected:
  // The catalog outlives the index built over it.
  std::vector<media::VideoContent> catalog_ = {
      MakeContent(0, {"news", "weather"}, {0.0, 0.0}),
      MakeContent(1, {"news", "sports"}, {0.5, 0.5}),
      MakeContent(2, {"sunset", "ocean"}, {1.0, 1.0}),
      MakeContent(3, {"sunset"}, {0.9, 0.9}),
  };
  ContentIndex index_{catalog_};
};

TEST_F(ContentIndexTest, EmptyPredicateMatchesAll) {
  ContentPredicate predicate;
  std::vector<LogicalOid> matches = index_.Search(predicate);
  EXPECT_EQ(matches.size(), 4u);
  EXPECT_EQ(matches.front(), LogicalOid(0));  // sorted by OID
}

TEST_F(ContentIndexTest, SingleKeyword) {
  ContentPredicate predicate;
  predicate.keywords = {"news"};
  std::vector<LogicalOid> matches = index_.Search(predicate);
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_EQ(matches[0], LogicalOid(0));
  EXPECT_EQ(matches[1], LogicalOid(1));
}

TEST_F(ContentIndexTest, KeywordsIntersect) {
  ContentPredicate predicate;
  predicate.keywords = {"news", "sports"};
  std::vector<LogicalOid> matches = index_.Search(predicate);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0], LogicalOid(1));
}

TEST_F(ContentIndexTest, UnknownKeywordMatchesNothing) {
  ContentPredicate predicate;
  predicate.keywords = {"nonexistent"};
  EXPECT_TRUE(index_.Search(predicate).empty());
  predicate.keywords = {"news", "nonexistent"};
  EXPECT_TRUE(index_.Search(predicate).empty());
}

TEST_F(ContentIndexTest, TitleLookup) {
  ContentPredicate predicate;
  predicate.title = "video2";
  std::vector<LogicalOid> matches = index_.Search(predicate);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0], LogicalOid(2));
}

TEST_F(ContentIndexTest, TitleWithConflictingKeywordMatchesNothing) {
  ContentPredicate predicate;
  predicate.title = "video2";
  predicate.keywords = {"news"};
  EXPECT_TRUE(index_.Search(predicate).empty());
}

TEST_F(ContentIndexTest, TitleWithConsistentKeyword) {
  ContentPredicate predicate;
  predicate.title = "video2";
  predicate.keywords = {"sunset"};
  EXPECT_EQ(index_.Search(predicate).size(), 1u);
}

TEST_F(ContentIndexTest, UnknownTitleMatchesNothing) {
  ContentPredicate predicate;
  predicate.title = "videoX";
  EXPECT_TRUE(index_.Search(predicate).empty());
}

TEST_F(ContentIndexTest, SimilarityRanksByDistance) {
  ContentPredicate predicate;
  predicate.similar_to = std::vector<double>{1.0, 1.0};
  predicate.top_k = 4;
  std::vector<LogicalOid> matches = index_.Search(predicate);
  ASSERT_EQ(matches.size(), 4u);
  EXPECT_EQ(matches[0], LogicalOid(2));  // exact match
  EXPECT_EQ(matches[1], LogicalOid(3));
  EXPECT_EQ(matches.back(), LogicalOid(0));  // farthest
}

TEST_F(ContentIndexTest, SimilarityHonorsTopK) {
  ContentPredicate predicate;
  predicate.similar_to = std::vector<double>{0.0, 0.0};
  predicate.top_k = 2;
  std::vector<LogicalOid> matches = index_.Search(predicate);
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_EQ(matches[0], LogicalOid(0));
}

TEST_F(ContentIndexTest, SimilarityCombinedWithKeywordFilter) {
  ContentPredicate predicate;
  predicate.keywords = {"sunset"};
  predicate.similar_to = std::vector<double>{0.0, 0.0};
  predicate.top_k = 1;
  std::vector<LogicalOid> matches = index_.Search(predicate);
  ASSERT_EQ(matches.size(), 1u);
  // Among sunset videos, oid 3 (0.9, 0.9) is closer to the origin.
  EXPECT_EQ(matches[0], LogicalOid(3));
}

TEST(ContentIndexEdgeTest, SharedTitleResolvesToTheLaterObject) {
  std::vector<media::VideoContent> catalog = {MakeContent(5, {"a"}),
                                              MakeContent(2, {"a", "a"})};
  catalog[1].title = catalog[0].title;
  ContentIndex index(catalog);
  ContentPredicate predicate;
  predicate.title = catalog[0].title;
  EXPECT_EQ(index.Search(predicate), std::vector<LogicalOid>{LogicalOid(2)});
  // One posting per keyword occurrence, in logical-OID order.
  predicate = ContentPredicate();
  predicate.keywords = {"a"};
  EXPECT_EQ(index.Search(predicate),
            (std::vector<LogicalOid>{LogicalOid(2), LogicalOid(2),
                                     LogicalOid(5)}));
}

TEST(FeatureDistanceTest, ZeroForIdenticalVectors) {
  EXPECT_DOUBLE_EQ(FeatureDistanceSquared({1.0, 2.0}, {1.0, 2.0}), 0.0);
}

TEST(FeatureDistanceTest, KnownDistance) {
  EXPECT_DOUBLE_EQ(FeatureDistanceSquared({0.0, 0.0}, {3.0, 4.0}), 25.0);
}

TEST(FeatureDistanceTest, ShorterVectorIsZeroPadded) {
  EXPECT_DOUBLE_EQ(FeatureDistanceSquared({1.0}, {1.0, 2.0}), 4.0);
  EXPECT_DOUBLE_EQ(FeatureDistanceSquared({}, {3.0}), 9.0);
}

TEST(ContentIndexEdgeTest, IndexedCount) {
  EXPECT_EQ(ContentIndex(std::span<const media::VideoContent>())
                .indexed_count(),
            0u);
  std::vector<media::VideoContent> catalog = {MakeContent(0, {"a"})};
  EXPECT_EQ(ContentIndex(catalog).indexed_count(), 1u);
}

}  // namespace
}  // namespace quasaq::query
