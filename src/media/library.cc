#include "media/library.h"

#include <cassert>
#include <cstdio>

namespace quasaq::media {

namespace {

// Topic pool for synthetic keyword metadata. Several echo the paper's
// motivating examples (medical imagery, George Bush, sunsets).
constexpr const char* kTopics[] = {
    "news",    "sunset",  "surgery", "patient", "bush",     "sports",
    "weather", "lecture", "traffic", "wildlife", "concert",  "interview",
    "ocean",   "city",    "xray",
};
constexpr size_t kNumTopics = sizeof(kTopics) / sizeof(kTopics[0]);

constexpr int kFeatureDim = 8;

}  // namespace

QualityLadder QualityLadder::Standard() {
  QualityLadder ladder;
  // Level 0 — master/DVD class, MPEG-2 with CD audio (~330 KB/s: T1/LAN).
  ladder.levels.push_back(AppQos{kResolutionDvd, 24, 23.97,
                                 VideoFormat::kMpeg2, AudioQuality::kCd});
  // Level 1 — VCD class, MPEG-1 with CD audio (~135 KB/s: fast DSL).
  ladder.levels.push_back(AppQos{kResolutionVcd, 24, 23.97,
                                 VideoFormat::kMpeg1, AudioQuality::kCd});
  // Level 2 — low-rate SIF, reduced color/rate, FM audio (~36 KB/s).
  ladder.levels.push_back(AppQos{kResolutionSif, 12, 15.0,
                                 VideoFormat::kMpeg1, AudioQuality::kFm});
  // Level 3 — QCIF thumbnail stream, speech audio (~8 KB/s: modem).
  ladder.levels.push_back(AppQos{kResolutionQcif, 12, 10.0,
                                 VideoFormat::kMpeg1, AudioQuality::kPhone});
  return ladder;
}

std::vector<const ReplicaInfo*> VideoLibrary::ReplicasOf(
    LogicalOid content) const {
  std::vector<const ReplicaInfo*> out;
  for (const ReplicaInfo& r : replicas) {
    if (r.content == content) out.push_back(&r);
  }
  return out;
}

const ReplicaInfo* VideoLibrary::FindReplica(PhysicalOid id) const {
  for (const ReplicaInfo& r : replicas) {
    if (r.id == id) return &r;
  }
  return nullptr;
}

const ReplicaInfo* VideoLibrary::MasterReplicaAt(LogicalOid content,
                                                 SiteId site) const {
  const ReplicaInfo* best = nullptr;
  for (const ReplicaInfo& replica : replicas) {
    if (replica.content != content || replica.site != site) continue;
    if (best == nullptr || best->qos.resolution.PixelCount() <
                               replica.qos.resolution.PixelCount()) {
      best = &replica;
    }
  }
  return best;
}

int QualityLadder::CheapestSatisfyingLevel(const AppQosRange& range) const {
  for (int level = static_cast<int>(levels.size()) - 1; level >= 0;
       --level) {
    if (range.Contains(levels[static_cast<size_t>(level)])) return level;
  }
  return -1;
}

VideoLibrary BuildExperimentLibrary(const LibraryOptions& options,
                                    const std::vector<SiteId>& sites) {
  assert(options.num_videos > 0);
  assert(!sites.empty());
  assert(options.min_replica_levels >= 1);
  assert(options.max_replica_levels >= options.min_replica_levels);

  Rng rng(options.seed);
  QualityLadder ladder = QualityLadder::Standard();
  assert(options.max_replica_levels <=
         static_cast<int>(ladder.levels.size()));

  VideoLibrary library;
  library.contents.reserve(static_cast<size_t>(options.num_videos));
  library.replicas.reserve(static_cast<size_t>(options.num_videos) *
                           static_cast<size_t>(options.max_replica_levels) *
                           sites.size());
  int64_t next_physical = 0;
  for (int v = 0; v < options.num_videos; ++v) {
    VideoContent content;
    content.id = LogicalOid(v);
    char title[32];
    std::snprintf(title, sizeof(title), "video%02d", v);
    content.title = title;
    // 2-3 keywords; the primary topic rotates so every topic is covered.
    content.keywords.reserve(3);
    content.keywords.push_back(kTopics[v % kNumTopics]);
    size_t extra = static_cast<size_t>(rng.UniformInt(1, 2));
    for (size_t k = 0; k < extra; ++k) {
      const char* topic =
          kTopics[static_cast<size_t>(rng.UniformInt(0, kNumTopics - 1))];
      if (topic != content.keywords.front()) content.keywords.push_back(topic);
    }
    content.features.reserve(kFeatureDim);
    for (int d = 0; d < kFeatureDim; ++d) {
      content.features.push_back(rng.NextDouble());
    }
    content.duration_seconds = rng.Uniform(options.min_duration_seconds,
                                           options.max_duration_seconds);
    content.master_quality = ladder.levels.front();

    int levels = static_cast<int>(
        rng.UniformInt(options.min_replica_levels, options.max_replica_levels));
    for (int level = 0; level < levels; ++level) {
      for (SiteId site : sites) {
        ReplicaInfo replica;
        replica.id = PhysicalOid(next_physical++);
        replica.content = content.id;
        replica.site = site;
        replica.qos = ladder.levels[static_cast<size_t>(level)];
        replica.duration_seconds = content.duration_seconds;
        // One VBR sequence per (video, level): replicas of the same
        // transcode on different sites are byte-identical copies.
        replica.frame_seed =
            options.seed * 1000003 + static_cast<uint64_t>(v) * 31 +
            static_cast<uint64_t>(level);
        FinalizeReplicaSizing(replica);
        library.replicas.push_back(replica);
      }
    }
    library.contents.push_back(std::move(content));
  }
  return library;
}

}  // namespace quasaq::media
