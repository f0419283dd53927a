#include "net/rtp.h"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "media/library.h"
#include "net/playback.h"
#include "net/topology.h"

namespace quasaq::net {
namespace {

media::ReplicaInfo VcdReplica(double duration_seconds = 60.0) {
  media::ReplicaInfo replica;
  replica.id = PhysicalOid(1);
  replica.content = LogicalOid(1);
  replica.site = SiteId(0);
  replica.qos = media::QualityLadder::Standard().levels[1];
  replica.duration_seconds = duration_seconds;
  replica.frame_seed = 77;
  media::FinalizeReplicaSizing(replica);
  return replica;
}

media::ReplicaInfo DvdReplica(double duration_seconds = 60.0) {
  media::ReplicaInfo replica = VcdReplica(duration_seconds);
  replica.id = PhysicalOid(2);
  replica.qos = media::QualityLadder::Standard().levels[0];
  media::FinalizeReplicaSizing(replica);
  return replica;
}

TEST(StreamTransformTest, DeliveredQosDefaultsToStoredQuality) {
  media::ReplicaInfo replica = VcdReplica();
  StreamTransform transform;
  EXPECT_EQ(transform.DeliveredQos(replica), replica.qos);
  transform.transcode_target = media::QualityLadder::Standard().levels[2];
  EXPECT_EQ(transform.DeliveredQos(replica),
            media::QualityLadder::Standard().levels[2]);
}

TEST(StreamCostTest, WireRateMatchesBitrateWithoutTransform) {
  media::ReplicaInfo replica = VcdReplica();
  EXPECT_EQ(CostStream(replica, StreamTransform{}, media::StreamingCpuCost{})
                .wire_rate_kbps,
            replica.bitrate_kbps);
}

TEST(StreamCostTest, DroppingReducesWireRateAndFrameRate) {
  media::ReplicaInfo replica = VcdReplica();
  StreamTransform transform;
  transform.drop = media::FrameDropStrategy::kAllBFrames;
  StreamCost cost =
      CostStream(replica, transform, media::StreamingCpuCost{});
  EXPECT_NEAR(cost.wire_rate_kbps, replica.bitrate_kbps * 17.0 / 27.0, 1e-9);
  EXPECT_NEAR(cost.delivered_qos.frame_rate, replica.qos.frame_rate / 3.0,
              1e-9);
}

TEST(StreamCostTest, TranscodeReducesWireRateToTarget) {
  media::ReplicaInfo replica = DvdReplica();
  StreamTransform transform;
  transform.transcode_target = media::QualityLadder::Standard().levels[1];
  EXPECT_EQ(
      CostStream(replica, transform, media::StreamingCpuCost{}).wire_rate_kbps,
      media::EstimateBitrateKBps(*transform.transcode_target));
}

// Reference stream costs: the same formulas, with the drop effect taken
// from a fresh walk of the format's standard GOP pattern.
struct PatternWalkCosts {
  double wire_rate_kbps = 0.0;
  double cpu_fraction = 0.0;
  media::AppQos delivered;
};

PatternWalkCosts WalkPattern(const media::ReplicaInfo& replica,
                             const StreamTransform& transform,
                             const media::StreamingCpuCost& cost) {
  media::FrameDropEffect effect = media::ComputeFrameDropEffect(
      media::GopPattern::StandardFor(replica.qos.format), transform.drop);
  PatternWalkCosts out;
  out.wire_rate_kbps =
      media::EstimateBitrateKBps(transform.DeliveredQos(replica)) *
      effect.bandwidth_factor;
  double delivered_fps = replica.qos.frame_rate * effect.frame_rate_factor;
  double mean_out_kb =
      delivered_fps > 0.0 ? out.wire_rate_kbps / delivered_fps : 0.0;
  double transcode_ms_per_second =
      transform.transcode_target.has_value()
          ? media::TranscodeCpuMsPerSecond(replica.qos,
                                           *transform.transcode_target)
          : 0.0;
  double ms_per_second =
      transcode_ms_per_second + cost.FrameMs(mean_out_kb) * delivered_fps +
      media::EncryptionCpuMsPerKb(transform.encryption) * out.wire_rate_kbps;
  out.cpu_fraction = ms_per_second / 1000.0;
  out.delivered = transform.DeliveredQos(replica);
  out.delivered.frame_rate *= effect.frame_rate_factor;
  return out;
}

TEST(StreamCostTest, TableCostsMatchPatternWalkBitForBit) {
  const media::StreamingCpuCost cost;
  for (const media::ReplicaInfo& replica : {VcdReplica(), DvdReplica()}) {
    std::vector<std::optional<media::AppQos>> targets = {std::nullopt};
    for (const media::AppQos& level :
         media::QualityLadder::Standard().levels) {
      if (media::TranscodeAllowed(replica.qos, level)) {
        targets.push_back(level);
      }
    }
    ASSERT_GE(targets.size(), 3u) << media::VideoFormatName(replica.qos.format);
    for (const std::optional<media::AppQos>& target : targets) {
      for (int drop = 0; drop < media::kNumFrameDropStrategies; ++drop) {
        for (int enc = 0; enc < media::kNumEncryptionAlgorithms; ++enc) {
          StreamTransform transform;
          transform.transcode_target = target;
          transform.drop = static_cast<media::FrameDropStrategy>(drop);
          transform.encryption = static_cast<media::EncryptionAlgorithm>(enc);
          SCOPED_TRACE(media::VideoFormatName(replica.qos.format));
          SCOPED_TRACE(testing::Message() << "target " << target.has_value()
                                          << " drop " << drop << " enc "
                                          << enc);
          PatternWalkCosts expected = WalkPattern(replica, transform, cost);
          StreamCost actual = CostStream(replica, transform, cost);
          EXPECT_EQ(actual.wire_rate_kbps, expected.wire_rate_kbps);
          EXPECT_EQ(actual.cpu_fraction, expected.cpu_fraction);
          EXPECT_EQ(actual.delivered_qos, expected.delivered);
        }
      }
    }
  }
}

TEST(StreamCostTest, CpuGrowsWithTranscodeAndEncryption) {
  media::ReplicaInfo replica = DvdReplica();
  media::StreamingCpuCost cost;
  double plain = CostStream(replica, StreamTransform{}, cost).cpu_fraction;
  StreamTransform transcoded;
  transcoded.transcode_target = media::QualityLadder::Standard().levels[1];
  EXPECT_GT(CostStream(replica, transcoded, cost).cpu_fraction, plain * 2.0);
  StreamTransform encrypted;
  encrypted.encryption = media::EncryptionAlgorithm::kAlgorithm1;
  EXPECT_GT(CostStream(replica, encrypted, cost).cpu_fraction, plain);
}

class RtpSessionTest : public ::testing::Test {
 protected:
  RtpSessionTest()
      : scheduler_(&simulator_, [] {
          res::TimeSharingCpuScheduler::Options options;
          options.context_switch_ms = 0.0;
          return options;
        }()) {}

  sim::Simulator simulator_;
  res::TimeSharingCpuScheduler scheduler_;
};

TEST_F(RtpSessionTest, DeliversEveryFrameWithoutDropping) {
  RtpSessionOptions options;
  options.max_source_frames = 150;
  RtpStreamingSession session(&simulator_, VcdReplica(), StreamTransform{},
                              options);
  session.AttachTimeSharing(&scheduler_);
  bool finished = false;
  session.Start([&finished] { finished = true; });
  simulator_.RunAll();
  EXPECT_TRUE(finished);
  EXPECT_TRUE(session.finished());
  EXPECT_EQ(session.delivered_frames(), 150);
  EXPECT_EQ(session.frame_completion_times().size(), 150u);
}

TEST_F(RtpSessionTest, InterFrameDelayMeanMatchesFrameRate) {
  RtpSessionOptions options;
  options.max_source_frames = 600;
  RtpStreamingSession session(&simulator_, VcdReplica(), StreamTransform{},
                              options);
  session.AttachTimeSharing(&scheduler_);
  session.Start();
  simulator_.RunAll();
  RunningStats stats = session.InterFrameDelayStats();
  EXPECT_NEAR(stats.mean(), 1000.0 / 23.97, 1.0);
  // VBR: inter-frame deltas vary with frame size (I >> B).
  EXPECT_GT(stats.stddev(), 10.0);
}

TEST_F(RtpSessionTest, InterGopDelayIsSmooth) {
  RtpSessionOptions options;
  options.max_source_frames = 600;
  RtpStreamingSession session(&simulator_, VcdReplica(), StreamTransform{},
                              options);
  session.AttachTimeSharing(&scheduler_);
  session.Start();
  simulator_.RunAll();
  RunningStats gop = session.InterGopDelayStats();
  EXPECT_NEAR(gop.mean(), 15.0 * 1000.0 / 23.97, 10.0);
  EXPECT_LT(gop.stddev(), gop.mean() * 0.1);
}

TEST_F(RtpSessionTest, AllBDropDeliversOneThirdOfFrames) {
  RtpSessionOptions options;
  options.max_source_frames = 300;
  StreamTransform transform;
  transform.drop = media::FrameDropStrategy::kAllBFrames;
  RtpStreamingSession session(&simulator_, VcdReplica(), transform, options);
  session.AttachTimeSharing(&scheduler_);
  session.Start();
  simulator_.RunAll();
  EXPECT_EQ(session.delivered_frames(), 100);  // I and P frames only
  EXPECT_EQ(session.source_frames(), 300);
}

TEST_F(RtpSessionTest, RecordLimitCapsStoredTimes) {
  RtpSessionOptions options;
  options.max_source_frames = 100;
  options.record_limit = 10;
  RtpStreamingSession session(&simulator_, VcdReplica(), StreamTransform{},
                              options);
  session.AttachTimeSharing(&scheduler_);
  session.Start();
  simulator_.RunAll();
  EXPECT_EQ(session.frame_completion_times().size(), 10u);
  EXPECT_EQ(session.delivered_frames(), 100);
}

TEST_F(RtpSessionTest, StopCancelsStreaming) {
  RtpSessionOptions options;
  options.max_source_frames = 1000;
  RtpStreamingSession session(&simulator_, VcdReplica(), StreamTransform{},
                              options);
  session.AttachTimeSharing(&scheduler_);
  bool finished = false;
  session.Start([&finished] { finished = true; });
  simulator_.RunUntil(SecondsToSimTime(2.0));
  int delivered = session.delivered_frames();
  EXPECT_GT(delivered, 0);
  session.Stop();
  simulator_.RunAll();
  EXPECT_FALSE(finished);
  EXPECT_LE(session.delivered_frames(), delivered + 1);
}

TEST_F(RtpSessionTest, ReservedAttachmentRespectsAdmission) {
  res::ReservationCpuScheduler reservation(
      &simulator_, res::ReservationCpuScheduler::Options());
  RtpSessionOptions options;
  options.max_source_frames = 50;
  RtpStreamingSession session(&simulator_, VcdReplica(), StreamTransform{},
                              options);
  EXPECT_FALSE(session.AttachReserved(&reservation, 5.0).ok());
  ASSERT_TRUE(session.AttachReserved(&reservation, 0.1).ok());
  session.Start();
  simulator_.RunAll();
  EXPECT_TRUE(session.finished());
  EXPECT_EQ(session.delivered_frames(), 50);
}

// A stream that holds a reservation of its own demand plus headroom
// finishes each frame's server-side work in time for a client playing
// at the stored frame rate.
TEST_F(RtpSessionTest, ReservedStreamPlaysBackCleanly) {
  res::ReservationCpuScheduler reservation(
      &simulator_, res::ReservationCpuScheduler::Options());
  media::ReplicaInfo replica = VcdReplica(/*duration_seconds=*/30.0);
  RtpStreamingSession session(&simulator_, replica, StreamTransform{},
                              RtpSessionOptions{});
  ASSERT_TRUE(
      session.AttachReserved(&reservation, session.CpuDemandFraction() * 1.2)
          .ok());
  session.Start();
  simulator_.RunAll();
  ASSERT_TRUE(session.finished());
  PlaybackOptions playback;
  playback.frame_rate = replica.qos.frame_rate;
  PlaybackReport report =
      SimulateClientPlayback(session.frame_completion_times(), playback);
  EXPECT_EQ(report.underruns, 0);
  EXPECT_DOUBLE_EQ(report.OnTimeFraction(), 1.0);
}

TEST_F(RtpSessionTest, SessionReadsItsCostFromCostStream) {
  RtpSessionOptions options;
  options.cpu_cost.ms_per_frame_base = 0.7;
  for (const media::ReplicaInfo& replica : {VcdReplica(), DvdReplica()}) {
    for (int drop = 0; drop < media::kNumFrameDropStrategies; ++drop) {
      StreamTransform transform;
      transform.drop = static_cast<media::FrameDropStrategy>(drop);
      transform.encryption = media::EncryptionAlgorithm::kAlgorithm2;
      if (replica.qos != media::QualityLadder::Standard().levels[1]) {
        transform.transcode_target =
            media::QualityLadder::Standard().levels[1];
      }
      RtpStreamingSession session(&simulator_, replica, transform, options);
      StreamCost expected = CostStream(replica, transform, options.cpu_cost);
      EXPECT_EQ(session.WireRateKbps(), expected.wire_rate_kbps);
      EXPECT_EQ(session.CpuDemandFraction(), expected.cpu_fraction);
    }
  }
}

TEST_F(RtpSessionTest, ZeroFrameSessionFinishesImmediately) {
  media::ReplicaInfo replica = VcdReplica(/*duration_seconds=*/0.0);
  RtpStreamingSession session(&simulator_, replica, StreamTransform{},
                              RtpSessionOptions{});
  session.AttachTimeSharing(&scheduler_);
  bool finished = false;
  session.Start([&finished] { finished = true; });
  EXPECT_TRUE(finished);
}

TEST(TopologyTest, PaperTestbedHasThreeServers) {
  Topology topology = Topology::PaperTestbed();
  ASSERT_EQ(topology.servers.size(), 3u);
  for (const ServerSpec& server : topology.servers) {
    EXPECT_DOUBLE_EQ(server.outbound_kbps, 3200.0);
  }
  EXPECT_NE(topology.Find(SiteId(0)), nullptr);
  EXPECT_EQ(topology.Find(SiteId(9)), nullptr);
  EXPECT_EQ(topology.SiteIds().size(), 3u);
}

}  // namespace
}  // namespace quasaq::net
