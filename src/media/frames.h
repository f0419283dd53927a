#ifndef QUASAQ_MEDIA_FRAMES_H_
#define QUASAQ_MEDIA_FRAMES_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "media/quality.h"

// MPEG frame/GOP structure. The paper's QoS experiments stream MPEG-1
// video, whose variable-bitrate nature (large I frames, small B frames)
// is the source of the "intrinsic variance" in inter-frame delay that
// Table 2 smooths out at GOP granularity. This module models a Group of
// Pictures as a typed frame pattern with per-type size weights and
// generates per-frame sizes for a target bitrate.

namespace quasaq::media {

// Coding type of one frame within a GOP.
enum class FrameType : uint8_t {
  kI = 0,  // intra-coded: largest
  kP,      // predicted
  kB,      // bi-directionally predicted: smallest, droppable first
};

/// Returns 'I' / 'P' / 'B'.
char FrameTypeChar(FrameType type);

/// Relative compressed-size weight of a frame type (I=5, P=3, B=1); the
/// classic ~5:3:1 MPEG-1 ratio.
double FrameTypeWeight(FrameType type);

// The repeating frame-type pattern of a GOP.
class GopPattern {
 public:
  /// Builds the standard 15-frame IBBPBBPBBPBBPBB pattern (N=15, M=3).
  static GopPattern Standard();

  /// The conventional pattern for a format: MPEG-1 N=15/M=3, MPEG-2
  /// N=12/M=3 (the common broadcast GOP).
  static GopPattern StandardFor(VideoFormat format);

  /// Builds N-frame pattern with a P frame every `m` positions
  /// (`m` - 1 B frames between anchors). `n` must be a multiple of `m`.
  static GopPattern Make(int n, int m);

  const std::vector<FrameType>& frames() const { return frames_; }
  int size() const { return static_cast<int>(frames_.size()); }

  /// Sum of FrameTypeWeight over the pattern (summed once, at
  /// construction).
  double TotalWeight() const { return total_weight_; }

  /// Number of frames of `type` in one GOP.
  int CountOf(FrameType type) const;

 private:
  explicit GopPattern(std::vector<FrameType> frames);

  std::vector<FrameType> frames_;
  double total_weight_ = 0.0;
};

// One concrete frame instance of a stream.
struct FrameInfo {
  FrameType type = FrameType::kI;
  double size_kb = 0.0;
  int index_in_gop = 0;
};

// Generates the per-frame sizes of a VBR stream: per-GOP bytes hit the
// target bitrate on average, with scene-level (per-GOP) and frame-level
// multiplicative noise. Deterministic given the seed.
class FrameSizeGenerator {
 public:
  struct Options {
    double gop_noise_sd = 0.15;    // scene-to-scene variation
    double frame_noise_sd = 0.20;  // frame-to-frame variation
  };

  FrameSizeGenerator(const GopPattern& pattern, double bitrate_kbps,
                     double frame_rate, uint64_t seed)
      : FrameSizeGenerator(pattern, bitrate_kbps, frame_rate, seed,
                           Options()) {}
  FrameSizeGenerator(const GopPattern& pattern, double bitrate_kbps,
                     double frame_rate, uint64_t seed,
                     const Options& options);

  /// Returns the next frame of the stream (advances the sequence).
  FrameInfo Next();

  /// Returns the mean size in KB of a frame of `type` (no noise).
  double MeanFrameSizeKb(FrameType type) const;

  const GopPattern& pattern() const { return pattern_; }

 private:
  GopPattern pattern_;
  double bitrate_kbps_;
  double frame_rate_;
  Options options_;
  Rng rng_;
  int position_ = 0;        // index within current GOP
  double gop_factor_ = 1.0;  // current scene multiplier
};

}  // namespace quasaq::media

#endif  // QUASAQ_MEDIA_FRAMES_H_
