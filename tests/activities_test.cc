#include "media/activities.h"

#include <gtest/gtest.h>

namespace quasaq::media {
namespace {

TEST(FrameDropTest, NamesAreStable) {
  EXPECT_EQ(FrameDropStrategyName(FrameDropStrategy::kNone), "no-drop");
  EXPECT_EQ(FrameDropStrategyName(FrameDropStrategy::kHalfBFrames),
            "half-B");
  EXPECT_EQ(FrameDropStrategyName(FrameDropStrategy::kAllBFrames), "all-B");
  EXPECT_EQ(FrameDropStrategyName(FrameDropStrategy::kAllBAndPFrames),
            "all-B+P");
}

TEST(FrameDropTest, NoneKeepsEverything) {
  for (FrameType type : {FrameType::kI, FrameType::kP, FrameType::kB}) {
    EXPECT_TRUE(FrameSurvivesDrop(FrameDropStrategy::kNone, type, 0));
  }
}

TEST(FrameDropTest, HalfBDropsEveryOtherB) {
  EXPECT_TRUE(
      FrameSurvivesDrop(FrameDropStrategy::kHalfBFrames, FrameType::kB, 0));
  EXPECT_FALSE(
      FrameSurvivesDrop(FrameDropStrategy::kHalfBFrames, FrameType::kB, 1));
  EXPECT_TRUE(
      FrameSurvivesDrop(FrameDropStrategy::kHalfBFrames, FrameType::kB, 2));
  EXPECT_TRUE(
      FrameSurvivesDrop(FrameDropStrategy::kHalfBFrames, FrameType::kI, 0));
  EXPECT_TRUE(
      FrameSurvivesDrop(FrameDropStrategy::kHalfBFrames, FrameType::kP, 0));
}

TEST(FrameDropTest, AllBDropsOnlyB) {
  EXPECT_FALSE(
      FrameSurvivesDrop(FrameDropStrategy::kAllBFrames, FrameType::kB, 0));
  EXPECT_TRUE(
      FrameSurvivesDrop(FrameDropStrategy::kAllBFrames, FrameType::kP, 0));
  EXPECT_TRUE(
      FrameSurvivesDrop(FrameDropStrategy::kAllBFrames, FrameType::kI, 0));
}

TEST(FrameDropTest, AllBAndPKeepsOnlyI) {
  EXPECT_FALSE(FrameSurvivesDrop(FrameDropStrategy::kAllBAndPFrames,
                                 FrameType::kB, 0));
  EXPECT_FALSE(FrameSurvivesDrop(FrameDropStrategy::kAllBAndPFrames,
                                 FrameType::kP, 0));
  EXPECT_TRUE(FrameSurvivesDrop(FrameDropStrategy::kAllBAndPFrames,
                                FrameType::kI, 0));
}

TEST(FrameDropEffectTest, StandardPatternFactors) {
  GopPattern pattern = GopPattern::Standard();
  // Weights: I=5, 4 P=12, 10 B=10; total 27.
  FrameDropEffect none = ComputeFrameDropEffect(pattern,
                                                FrameDropStrategy::kNone);
  EXPECT_DOUBLE_EQ(none.bandwidth_factor, 1.0);
  EXPECT_DOUBLE_EQ(none.frame_rate_factor, 1.0);

  FrameDropEffect all_b =
      ComputeFrameDropEffect(pattern, FrameDropStrategy::kAllBFrames);
  EXPECT_NEAR(all_b.bandwidth_factor, 17.0 / 27.0, 1e-12);
  EXPECT_NEAR(all_b.frame_rate_factor, 5.0 / 15.0, 1e-12);

  FrameDropEffect i_only =
      ComputeFrameDropEffect(pattern, FrameDropStrategy::kAllBAndPFrames);
  EXPECT_NEAR(i_only.bandwidth_factor, 5.0 / 27.0, 1e-12);
  EXPECT_NEAR(i_only.frame_rate_factor, 1.0 / 15.0, 1e-12);

  FrameDropEffect half_b =
      ComputeFrameDropEffect(pattern, FrameDropStrategy::kHalfBFrames);
  // 5 of the 10 B frames survive.
  EXPECT_NEAR(half_b.bandwidth_factor, 22.0 / 27.0, 1e-12);
  EXPECT_NEAR(half_b.frame_rate_factor, 10.0 / 15.0, 1e-12);
}

TEST(FrameDropEffectTest, FactorsAreMonotoneInAggressiveness) {
  GopPattern pattern = GopPattern::Standard();
  double previous_bw = 2.0;
  for (FrameDropStrategy strategy :
       {FrameDropStrategy::kNone, FrameDropStrategy::kHalfBFrames,
        FrameDropStrategy::kAllBFrames,
        FrameDropStrategy::kAllBAndPFrames}) {
    FrameDropEffect effect = ComputeFrameDropEffect(pattern, strategy);
    EXPECT_LT(effect.bandwidth_factor, previous_bw);
    previous_bw = effect.bandwidth_factor;
  }
}

TEST(FrameDropEffectTest, StandardTableMatchesPatternWalk) {
  for (int f = 0; f < kNumVideoFormats; ++f) {
    auto format = static_cast<VideoFormat>(f);
    for (int s = 0; s < kNumFrameDropStrategies; ++s) {
      auto strategy = static_cast<FrameDropStrategy>(s);
      FrameDropEffect walked =
          ComputeFrameDropEffect(GopPattern::StandardFor(format), strategy);
      const FrameDropEffect& table = StandardFrameDropEffect(format, strategy);
      EXPECT_EQ(table.bandwidth_factor, walked.bandwidth_factor)
          << VideoFormatName(format) << " " << FrameDropStrategyName(strategy);
      EXPECT_EQ(table.frame_rate_factor, walked.frame_rate_factor)
          << VideoFormatName(format) << " " << FrameDropStrategyName(strategy);
    }
  }
}

TEST(TranscodeTest, DisallowsUpscaling) {
  AppQos dvd{kResolutionDvd, 24, 23.97, VideoFormat::kMpeg2};
  AppQos vcd{kResolutionVcd, 24, 23.97, VideoFormat::kMpeg1};
  EXPECT_TRUE(TranscodeAllowed(dvd, vcd));
  EXPECT_FALSE(TranscodeAllowed(vcd, dvd));
}

TEST(TranscodeTest, DisallowsColorAndRateUpscaling) {
  AppQos base{kResolutionVcd, 12, 15.0, VideoFormat::kMpeg1};
  AppQos deeper = base;
  deeper.color_depth_bits = 24;
  EXPECT_FALSE(TranscodeAllowed(base, deeper));
  AppQos faster = base;
  faster.frame_rate = 23.97;
  EXPECT_FALSE(TranscodeAllowed(base, faster));
}

TEST(TranscodeTest, IdentityIsNotATranscode) {
  AppQos vcd{kResolutionVcd, 24, 23.97, VideoFormat::kMpeg1};
  EXPECT_FALSE(TranscodeAllowed(vcd, vcd));
}

TEST(TranscodeTest, FormatChangeAtSameQualityIsAllowed) {
  AppQos mpeg2{kResolutionVcd, 24, 23.97, VideoFormat::kMpeg2};
  AppQos mpeg1{kResolutionVcd, 24, 23.97, VideoFormat::kMpeg1};
  EXPECT_TRUE(TranscodeAllowed(mpeg2, mpeg1));
}

TEST(TranscodeTest, CpuCostScalesWithPixelRate) {
  AppQos dvd{kResolutionDvd, 24, 23.97, VideoFormat::kMpeg2};
  AppQos vcd{kResolutionVcd, 24, 23.97, VideoFormat::kMpeg1};
  AppQos qcif{kResolutionQcif, 12, 10.0, VideoFormat::kMpeg1};
  EXPECT_GT(TranscodeCpuMsPerSecond(dvd, vcd),
            TranscodeCpuMsPerSecond(dvd, qcif) * 0.9);
  EXPECT_GT(TranscodeCpuMsPerSecond(dvd, vcd),
            TranscodeCpuMsPerSecond(vcd, qcif));
}

TEST(EncryptionTest, StrengthOrdering) {
  EXPECT_EQ(EncryptionStrength(EncryptionAlgorithm::kNone),
            SecurityLevel::kNone);
  EXPECT_EQ(EncryptionStrength(EncryptionAlgorithm::kAlgorithm1),
            SecurityLevel::kStrong);
  EXPECT_EQ(EncryptionStrength(EncryptionAlgorithm::kAlgorithm2),
            SecurityLevel::kStandard);
  EXPECT_EQ(EncryptionStrength(EncryptionAlgorithm::kAlgorithm3),
            SecurityLevel::kStandard);
}

TEST(EncryptionTest, StrongerBlockCipherCostsMore) {
  EXPECT_DOUBLE_EQ(EncryptionCpuMsPerKb(EncryptionAlgorithm::kNone), 0.0);
  EXPECT_GT(EncryptionCpuMsPerKb(EncryptionAlgorithm::kAlgorithm1),
            EncryptionCpuMsPerKb(EncryptionAlgorithm::kAlgorithm2));
  EXPECT_GT(EncryptionCpuMsPerKb(EncryptionAlgorithm::kAlgorithm2),
            EncryptionCpuMsPerKb(EncryptionAlgorithm::kAlgorithm3));
}

TEST(StreamingCpuCostTest, FrameCostGrowsWithSize) {
  StreamingCpuCost cost;
  EXPECT_GT(cost.FrameMs(10.0), cost.FrameMs(1.0));
  EXPECT_NEAR(cost.FrameMs(0.0), cost.ms_per_frame_base, 1e-12);
}

}  // namespace
}  // namespace quasaq::media
