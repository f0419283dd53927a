#include "query_text.h"

#include <gtest/gtest.h>

#include "query/parser.h"
#include "workload/traffic.h"

namespace quasaq::perfbench {
namespace {

query::QosRequirement RoundTrip(const std::string& text) {
  Result<query::ParsedQuery> parsed = query::ParseQuery(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << text;
  if (!parsed.ok()) return {};
  EXPECT_EQ(parsed->content.title, "video07");
  return parsed->qos;
}

TEST(QueryTextTest, RendersEveryBound) {
  query::QosRequirement qos;
  qos.range.min_resolution = media::kResolutionSif;
  qos.range.max_resolution = media::kResolutionSvcd;
  qos.range.min_frame_rate = 15.0;
  qos.range.max_frame_rate = 30.0;
  qos.range.min_color_depth_bits = 12;
  qos.range.max_color_depth_bits = 24;
  qos.range.min_audio = media::AudioQuality::kFm;
  qos.range.max_audio = media::AudioQuality::kCd;
  qos.range.accepted_formats = 0x2;
  qos.min_security = media::SecurityLevel::kStrong;
  EXPECT_EQ(RenderTitleQuery("video07", qos),
            "SELECT video FROM videos WHERE TITLE = 'video07' WITH QOS "
            "(resolution >= 320x240, resolution <= 480x480, "
            "framerate >= 15, framerate <= 30, color >= 12, color <= 24, "
            "audio >= fm, audio <= cd, format IN (MPEG2), "
            "security >= strong)");
}

TEST(QueryTextTest, DefaultRequirementRoundTrips) {
  query::QosRequirement qos;
  EXPECT_TRUE(SameRequirement(RoundTrip(RenderTitleQuery("video07", qos)),
                              qos));
}

TEST(QueryTextTest, FractionalRatesAndStartupRoundTrip) {
  query::QosRequirement qos;
  qos.range.min_frame_rate = 23.97;
  qos.range.max_frame_rate = 29.97;
  qos.max_startup_seconds = 2.5;
  qos.min_security = media::SecurityLevel::kStandard;
  EXPECT_TRUE(SameRequirement(RoundTrip(RenderTitleQuery("video07", qos)),
                              qos));
}

TEST(QueryTextTest, GeneratedTrafficRoundTrips) {
  workload::TrafficOptions options;
  options.fraction_secure = 0.5;
  workload::TrafficGenerator generator(options, 15, {SiteId(0), SiteId(1)});
  for (int i = 0; i < 500; ++i) {
    const query::QosRequirement qos = generator.Next().qos;
    ASSERT_TRUE(SameRequirement(
        RoundTrip(RenderTitleQuery("video07", qos)), qos));
  }
}

TEST(QueryTextTest, SameRequirementSeesEveryField) {
  const query::QosRequirement base;
  query::QosRequirement other = base;
  EXPECT_TRUE(SameRequirement(base, other));
  other.range.max_audio = media::AudioQuality::kFm;
  EXPECT_FALSE(SameRequirement(base, other));
  other = base;
  other.range.accepted_formats = 0x1;
  EXPECT_FALSE(SameRequirement(base, other));
  other = base;
  other.max_startup_seconds = 1.0;
  EXPECT_FALSE(SameRequirement(base, other));
  other = base;
  other.min_security = media::SecurityLevel::kStandard;
  EXPECT_FALSE(SameRequirement(base, other));
}

}  // namespace
}  // namespace quasaq::perfbench
