#include "metadata/distributed_engine.h"

#include <gtest/gtest.h>

#include "media/library.h"
#include "metadata/metadata_store.h"

namespace quasaq::meta {
namespace {

media::VideoContent MakeContent(int64_t oid) {
  media::VideoContent content;
  content.id = LogicalOid(oid);
  content.title = "video" + std::to_string(oid);
  content.keywords = {"news"};
  content.duration_seconds = 60.0;
  content.master_quality = media::QualityLadder::Standard().levels[0];
  return content;
}

media::ReplicaInfo MakeReplica(int64_t oid, int64_t content, int64_t site) {
  media::ReplicaInfo replica;
  replica.id = PhysicalOid(oid);
  replica.content = LogicalOid(content);
  replica.site = SiteId(site);
  replica.qos = media::QualityLadder::Standard().levels[1];
  replica.duration_seconds = 60.0;
  media::FinalizeReplicaSizing(replica);
  return replica;
}

TEST(MetadataStoreTest, InsertAndFindContent) {
  MetadataStore store;
  ASSERT_TRUE(store.InsertContent(MakeContent(1)).ok());
  const media::VideoContent* content = store.FindContent(LogicalOid(1));
  ASSERT_NE(content, nullptr);
  EXPECT_EQ(content->title, "video1");
  EXPECT_EQ(store.FindContent(LogicalOid(2)), nullptr);
}

TEST(MetadataStoreTest, DuplicateContentRejected) {
  MetadataStore store;
  ASSERT_TRUE(store.InsertContent(MakeContent(1)).ok());
  EXPECT_EQ(store.InsertContent(MakeContent(1)).code(),
            StatusCode::kAlreadyExists);
}

TEST(MetadataStoreTest, InvalidOidRejected) {
  MetadataStore store;
  media::VideoContent content = MakeContent(1);
  content.id = LogicalOid();
  EXPECT_EQ(store.InsertContent(content).code(),
            StatusCode::kInvalidArgument);
}

TEST(MetadataStoreTest, ReplicaRequiresContent) {
  MetadataStore store;
  EXPECT_EQ(store.InsertReplica(MakeReplica(10, 1, 0)).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(store.InsertContent(MakeContent(1)).ok());
  EXPECT_TRUE(store.InsertReplica(MakeReplica(10, 1, 0)).ok());
}

TEST(MetadataStoreTest, ReplicasOfSortedByOid) {
  MetadataStore store;
  ASSERT_TRUE(store.InsertContent(MakeContent(1)).ok());
  ASSERT_TRUE(store.InsertReplica(MakeReplica(12, 1, 2)).ok());
  ASSERT_TRUE(store.InsertReplica(MakeReplica(10, 1, 0)).ok());
  ASSERT_TRUE(store.InsertReplica(MakeReplica(11, 1, 1)).ok());
  auto replicas = store.ReplicasOf(LogicalOid(1));
  ASSERT_EQ(replicas.size(), 3u);
  EXPECT_EQ(replicas[0].info.id, PhysicalOid(10));
  EXPECT_EQ(replicas[2].info.id, PhysicalOid(12));
}

TEST(MetadataStoreTest, QosProfileLifecycle) {
  MetadataStore store;
  ASSERT_TRUE(store.InsertContent(MakeContent(1)).ok());
  ASSERT_TRUE(store.InsertReplica(MakeReplica(10, 1, 0)).ok());
  EXPECT_EQ(store.FindQosProfile(PhysicalOid(10)), nullptr);
  QosProfile profile{0.02, 119.0, 119.0, 238.0};
  ASSERT_TRUE(store.SetQosProfile(PhysicalOid(10), profile).ok());
  const QosProfile* stored = store.FindQosProfile(PhysicalOid(10));
  ASSERT_NE(stored, nullptr);
  EXPECT_DOUBLE_EQ(stored->net_kbps, 119.0);
  EXPECT_EQ(store.SetQosProfile(PhysicalOid(99), profile).code(),
            StatusCode::kNotFound);
}

TEST(MetadataStoreTest, EraseReplicaRemovesEverything) {
  MetadataStore store;
  ASSERT_TRUE(store.InsertContent(MakeContent(1)).ok());
  ASSERT_TRUE(store.InsertReplica(MakeReplica(10, 1, 0)).ok());
  ASSERT_TRUE(
      store.SetQosProfile(PhysicalOid(10), QosProfile{}).ok());
  ASSERT_TRUE(store.EraseReplica(PhysicalOid(10)).ok());
  EXPECT_EQ(store.FindReplica(PhysicalOid(10)), nullptr);
  EXPECT_EQ(store.FindQosProfile(PhysicalOid(10)), nullptr);
  EXPECT_TRUE(store.ReplicasOf(LogicalOid(1)).empty());
  EXPECT_EQ(store.EraseReplica(PhysicalOid(10)).code(),
            StatusCode::kNotFound);
}

TEST(MetadataStoreTest, EraseContentCascades) {
  MetadataStore store;
  ASSERT_TRUE(store.InsertContent(MakeContent(1)).ok());
  ASSERT_TRUE(store.InsertReplica(MakeReplica(10, 1, 0)).ok());
  ASSERT_TRUE(store.InsertReplica(MakeReplica(11, 1, 1)).ok());
  ASSERT_TRUE(store.SetQosProfile(PhysicalOid(10), QosProfile{}).ok());
  ASSERT_TRUE(store.EraseContent(LogicalOid(1)).ok());
  EXPECT_EQ(store.FindContent(LogicalOid(1)), nullptr);
  EXPECT_EQ(store.FindReplica(PhysicalOid(10)), nullptr);
  EXPECT_EQ(store.FindReplica(PhysicalOid(11)), nullptr);
  EXPECT_EQ(store.FindQosProfile(PhysicalOid(10)), nullptr);
  EXPECT_EQ(store.EraseContent(LogicalOid(1)).code(),
            StatusCode::kNotFound);
}

class DistributedEngineTest : public ::testing::Test {
 protected:
  DistributedEngineTest()
      : sites_({SiteId(0), SiteId(1), SiteId(2)}),
        engine_(sites_, DistributedMetadataEngine::Options()) {}

  void Populate(int contents, int replicas_each) {
    for (int c = 0; c < contents; ++c) {
      ASSERT_TRUE(engine_.InsertContent(MakeContent(c)).ok());
      for (int r = 0; r < replicas_each; ++r) {
        ASSERT_TRUE(
            engine_.InsertReplica(MakeReplica(c * 10 + r, c, r % 3)).ok());
      }
    }
  }

  std::vector<SiteId> sites_;
  DistributedMetadataEngine engine_;
};

TEST_F(DistributedEngineTest, OwnershipPartitionsByOid) {
  EXPECT_EQ(engine_.OwnerOf(LogicalOid(0)), SiteId(0));
  EXPECT_EQ(engine_.OwnerOf(LogicalOid(1)), SiteId(1));
  EXPECT_EQ(engine_.OwnerOf(LogicalOid(2)), SiteId(2));
  EXPECT_EQ(engine_.OwnerOf(LogicalOid(3)), SiteId(0));
}

TEST_F(DistributedEngineTest, LocalAccessCountsAsLocal) {
  Populate(3, 2);
  SiteId owner = engine_.OwnerOf(LogicalOid(0));
  SimTime latency = 0;
  auto replicas = engine_.ReplicasOf(owner, LogicalOid(0), &latency);
  EXPECT_EQ(replicas.size(), 2u);
  EXPECT_EQ(engine_.stats_for(owner).local_accesses, 1u);
  EXPECT_EQ(engine_.stats_for(owner).remote_accesses, 0u);
  EXPECT_GT(latency, 0);
}

TEST_F(DistributedEngineTest, RemoteAccessThenCacheHit) {
  Populate(3, 2);
  SiteId other(1);  // content 0 is owned by site 0
  SimTime remote_latency = 0;
  engine_.ReplicasOf(other, LogicalOid(0), &remote_latency);
  EXPECT_EQ(engine_.stats_for(other).remote_accesses, 1u);
  SimTime hit_latency = 0;
  engine_.ReplicasOf(other, LogicalOid(0), &hit_latency);
  EXPECT_EQ(engine_.stats_for(other).cache_hits, 1u);
  EXPECT_LT(hit_latency, remote_latency);
}

TEST_F(DistributedEngineTest, InsertInvalidatesRemoteCaches) {
  Populate(1, 1);
  SiteId other(1);
  EXPECT_EQ(engine_.ReplicasOf(other, LogicalOid(0)).size(), 1u);
  // New replica registered at the owner must be visible through the
  // cache immediately.
  ASSERT_TRUE(engine_.InsertReplica(MakeReplica(5, 0, 2)).ok());
  EXPECT_EQ(engine_.ReplicasOf(other, LogicalOid(0)).size(), 2u);
}

TEST_F(DistributedEngineTest, FindContentAndMissingContent) {
  Populate(2, 1);
  auto found = engine_.FindContent(SiteId(2), LogicalOid(1));
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->title, "video1");
  EXPECT_FALSE(engine_.FindContent(SiteId(2), LogicalOid(99)).has_value());
}

TEST_F(DistributedEngineTest, QosProfileVisibleFromEverySite) {
  Populate(1, 1);
  QosProfile profile{0.03, 100.0, 100.0, 200.0};
  ASSERT_TRUE(engine_.SetQosProfile(PhysicalOid(0), profile).ok());
  for (SiteId site : sites_) {
    auto found = engine_.FindQosProfile(site, PhysicalOid(0));
    ASSERT_TRUE(found.has_value());
    EXPECT_DOUBLE_EQ(found->cpu_fraction, 0.03);
  }
  EXPECT_FALSE(
      engine_.FindQosProfile(SiteId(0), PhysicalOid(77)).has_value());
}

TEST_F(DistributedEngineTest, AllContentIdsCoversEveryInsert) {
  Populate(7, 1);
  std::vector<LogicalOid> ids = engine_.AllContentIds();
  ASSERT_EQ(ids.size(), 7u);
  for (int i = 0; i < 7; ++i) {
    EXPECT_EQ(ids[static_cast<size_t>(i)], LogicalOid(i));
  }
}

TEST_F(DistributedEngineTest, EraseContentRemovesEverythingEverywhere) {
  Populate(3, 2);
  SiteId other(1);  // content 0 owned by site 0
  // Warm the remote cache first.
  EXPECT_EQ(engine_.ReplicasOf(other, LogicalOid(0)).size(), 2u);
  ASSERT_TRUE(engine_.EraseContent(LogicalOid(0)).ok());
  EXPECT_FALSE(engine_.FindContent(other, LogicalOid(0)).has_value());
  EXPECT_TRUE(engine_.ReplicasOf(other, LogicalOid(0)).empty());
  EXPECT_FALSE(
      engine_.FindQosProfile(SiteId(0), PhysicalOid(0)).has_value());
  EXPECT_EQ(engine_.AllContentIds().size(), 2u);
  EXPECT_EQ(engine_.EraseContent(LogicalOid(0)).code(),
            StatusCode::kNotFound);
}

TEST_F(DistributedEngineTest, ProfileAndReplicaChangesInvalidateRemoteCaches) {
  Populate(1, 2);
  SiteId other(1);  // content 0 is owned by site 0
  // Site 1 caches content 0's bundle, which has no profile yet.
  EXPECT_FALSE(engine_.FindQosProfile(other, PhysicalOid(0)).has_value());
  QosProfile profile{0.03, 100.0, 100.0, 200.0};
  ASSERT_TRUE(engine_.SetQosProfile(PhysicalOid(0), profile).ok());
  auto found = engine_.FindQosProfile(other, PhysicalOid(0));
  ASSERT_TRUE(found.has_value());
  EXPECT_DOUBLE_EQ(found->cpu_fraction, 0.03);
  EXPECT_EQ(engine_.ReplicasOf(other, LogicalOid(0)).size(), 2u);

  ASSERT_TRUE(engine_.EraseReplica(PhysicalOid(0)).ok());
  std::vector<media::ReplicaInfo> replicas =
      engine_.ReplicasOf(other, LogicalOid(0));
  ASSERT_EQ(replicas.size(), 1u);
  EXPECT_EQ(replicas[0].id, PhysicalOid(1));
  EXPECT_FALSE(engine_.FindQosProfile(other, PhysicalOid(0)).has_value());
  // Each change forced a fresh remote fetch instead of a stale hit.
  EXPECT_EQ(engine_.stats_for(other).remote_accesses, 3u);
  EXPECT_EQ(engine_.stats_for(other).cache_hits, 1u);
}

// A catalog with sparse, out-of-order OIDs, as the row-by-row tests use.
media::VideoLibrary SparseCatalog() {
  media::VideoLibrary catalog;
  for (int64_t c : {0, 1, 2, 99, 3}) {
    catalog.contents.push_back(MakeContent(c));
    for (int64_t r = 0; r < 3; ++r) {
      catalog.replicas.push_back(MakeReplica(c * 10 + r, c, r % 3));
    }
  }
  catalog.replicas.push_back(MakeReplica(5, 0, 2));
  catalog.replicas.push_back(MakeReplica(1000, 99, 1));
  return catalog;
}

// Loads `catalog` into `engine` one row at a time through the runtime
// path, drawing profiles in the order Load draws them.
void InsertRowByRow(const media::VideoLibrary& catalog, QosSampler& sampler,
                    DistributedMetadataEngine& engine) {
  for (const media::VideoContent& content : catalog.contents) {
    ASSERT_TRUE(engine.InsertContent(content).ok());
  }
  for (const media::ReplicaInfo& replica : catalog.replicas) {
    ASSERT_TRUE(engine.InsertReplica(replica).ok());
    ASSERT_TRUE(
        engine.SetQosProfile(replica.id, sampler.SampleStreaming(replica))
            .ok());
  }
}

TEST(DistributedEngineLoadTest, AnswersExactlyLikeRowByRowInsertion) {
  const std::vector<SiteId> sites = {SiteId(0), SiteId(1), SiteId(2)};
  QosSampler::Options noisy;
  noisy.measurement_noise_sd = 0.1;  // every draw differs
  for (const media::VideoLibrary& catalog :
       {SparseCatalog(),
        media::BuildExperimentLibrary(media::LibraryOptions(), sites)}) {
    DistributedMetadataEngine::Options options;
    options.cache_capacity = 4;  // evictions happen along the way
    DistributedMetadataEngine loaded(sites, options);
    DistributedMetadataEngine inserted(sites, options);
    QosSampler load_sampler(noisy, 7);
    QosSampler insert_sampler(noisy, 7);
    ASSERT_TRUE(loaded.Load(catalog, load_sampler).ok());
    InsertRowByRow(catalog, insert_sampler, inserted);

    ASSERT_EQ(loaded.AllContentIds(), inserted.AllContentIds());
    std::vector<LogicalOid> contents = inserted.AllContentIds();
    contents.push_back(LogicalOid(50));  // never registered
    std::vector<PhysicalOid> replicas = {PhysicalOid(77)};
    for (const media::ReplicaInfo& replica : catalog.replicas) {
      replicas.push_back(replica.id);
    }
    for (SiteId from : sites) {
      for (LogicalOid id : contents) {
        SimTime loaded_latency = 0;
        SimTime inserted_latency = 0;
        auto a = loaded.FindContent(from, id, &loaded_latency);
        auto b = inserted.FindContent(from, id, &inserted_latency);
        ASSERT_EQ(a.has_value(), b.has_value());
        if (a.has_value()) {
          EXPECT_EQ(a->id, b->id);
          EXPECT_EQ(a->title, b->title);
          EXPECT_EQ(a->keywords, b->keywords);
          EXPECT_EQ(a->features, b->features);
          EXPECT_EQ(a->duration_seconds, b->duration_seconds);
          EXPECT_EQ(a->master_quality, b->master_quality);
        }
        std::vector<media::ReplicaInfo> ra =
            loaded.ReplicasOf(from, id, &loaded_latency);
        std::vector<media::ReplicaInfo> rb =
            inserted.ReplicasOf(from, id, &inserted_latency);
        ASSERT_EQ(ra.size(), rb.size());
        for (size_t i = 0; i < ra.size(); ++i) {
          EXPECT_EQ(ra[i].id, rb[i].id);
          EXPECT_EQ(ra[i].content, rb[i].content);
          EXPECT_EQ(ra[i].site, rb[i].site);
          EXPECT_EQ(ra[i].qos, rb[i].qos);
          EXPECT_EQ(ra[i].bitrate_kbps, rb[i].bitrate_kbps);
          EXPECT_EQ(ra[i].frame_seed, rb[i].frame_seed);
        }
        EXPECT_EQ(loaded_latency, inserted_latency);
      }
      for (PhysicalOid id : replicas) {
        SimTime loaded_latency = 0;
        SimTime inserted_latency = 0;
        auto a = loaded.FindQosProfile(from, id, &loaded_latency);
        auto b = inserted.FindQosProfile(from, id, &inserted_latency);
        ASSERT_EQ(a.has_value(), b.has_value());
        if (a.has_value()) {
          EXPECT_EQ(a->cpu_fraction, b->cpu_fraction);
          EXPECT_EQ(a->net_kbps, b->net_kbps);
          EXPECT_EQ(a->disk_kbps, b->disk_kbps);
          EXPECT_EQ(a->memory_kb, b->memory_kb);
        }
        EXPECT_EQ(loaded_latency, inserted_latency);
      }
    }
    for (SiteId site : sites) {
      EXPECT_EQ(loaded.stats_for(site).local_accesses,
                inserted.stats_for(site).local_accesses);
      EXPECT_EQ(loaded.stats_for(site).cache_hits,
                inserted.stats_for(site).cache_hits);
      EXPECT_EQ(loaded.stats_for(site).remote_accesses,
                inserted.stats_for(site).remote_accesses);
    }
  }
}

TEST(DistributedEngineLoadTest, RejectsWhatRowByRowInsertionRejects) {
  const std::vector<SiteId> sites = {SiteId(0), SiteId(1), SiteId(2)};
  QosSampler sampler;
  media::VideoLibrary duplicate_content = SparseCatalog();
  duplicate_content.contents.push_back(MakeContent(99));
  media::VideoLibrary orphan_replica = SparseCatalog();
  orphan_replica.replicas.push_back(MakeReplica(500, 42, 0));
  // Physical OID 10 belongs to content 1; content 2 lives at another
  // site's store, so only the engine-wide directory can see the clash.
  media::VideoLibrary duplicate_replica = SparseCatalog();
  duplicate_replica.replicas.push_back(MakeReplica(10, 2, 0));
  for (const auto& [catalog, code] :
       {std::pair(duplicate_content, StatusCode::kAlreadyExists),
        std::pair(orphan_replica, StatusCode::kFailedPrecondition),
        std::pair(duplicate_replica, StatusCode::kAlreadyExists)}) {
    DistributedMetadataEngine engine(sites,
                                     DistributedMetadataEngine::Options());
    EXPECT_EQ(engine.Load(catalog, sampler).code(), code);
  }
}

TEST_F(DistributedEngineTest, CacheEvictionUnderTinyCapacity) {
  DistributedMetadataEngine::Options options;
  options.cache_capacity = 1;
  DistributedMetadataEngine small(sites_, options);
  for (int c = 0; c < 4; ++c) {
    ASSERT_TRUE(small.InsertContent(MakeContent(c)).ok());
    ASSERT_TRUE(small.InsertReplica(MakeReplica(c * 10, c, 0)).ok());
  }
  SiteId site(1);
  // Contents 0 and 2 are remote to site 1; alternate to force eviction.
  small.ReplicasOf(site, LogicalOid(0));
  small.ReplicasOf(site, LogicalOid(2));
  small.ReplicasOf(site, LogicalOid(0));
  EXPECT_EQ(small.stats_for(site).remote_accesses, 3u);
  EXPECT_EQ(small.stats_for(site).cache_hits, 0u);
}

TEST(QosSamplerTest, AnalyticProfileMatchesCostModel) {
  media::ReplicaInfo replica = MakeReplica(1, 0, 0);
  QosSampler sampler;
  QosProfile profile = sampler.SampleStreaming(replica);
  EXPECT_NEAR(profile.net_kbps, replica.bitrate_kbps, 1e-9);
  EXPECT_NEAR(profile.disk_kbps, replica.bitrate_kbps, 1e-9);
  EXPECT_GT(profile.cpu_fraction, 0.0);
  EXPECT_LT(profile.cpu_fraction, 0.2);
  EXPECT_NEAR(profile.memory_kb, replica.bitrate_kbps * 2.0, 1e-9);
}

TEST(QosSamplerTest, MeasurementNoiseStaysBounded) {
  media::ReplicaInfo replica = MakeReplica(1, 0, 0);
  QosSampler::Options options;
  options.measurement_noise_sd = 0.1;
  QosSampler sampler(options, 5);
  for (int i = 0; i < 100; ++i) {
    QosProfile profile = sampler.SampleStreaming(replica);
    EXPECT_GE(profile.net_kbps, replica.bitrate_kbps * 0.5);
    EXPECT_LE(profile.net_kbps, replica.bitrate_kbps * 1.5);
  }
}

TEST(QosProfileTest, ToStringMentionsUnits) {
  QosProfile profile{0.02, 119.0, 119.0, 238.0};
  std::string s = profile.ToString();
  EXPECT_NE(s.find("cpu"), std::string::npos);
  EXPECT_NE(s.find("KB/s"), std::string::npos);
}

}  // namespace
}  // namespace quasaq::meta
