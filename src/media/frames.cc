#include "media/frames.h"

#include <cassert>
#include <utility>

namespace quasaq::media {

char FrameTypeChar(FrameType type) {
  switch (type) {
    case FrameType::kI:
      return 'I';
    case FrameType::kP:
      return 'P';
    case FrameType::kB:
      return 'B';
  }
  return '?';
}

double FrameTypeWeight(FrameType type) {
  switch (type) {
    case FrameType::kI:
      return 5.0;
    case FrameType::kP:
      return 3.0;
    case FrameType::kB:
      return 1.0;
  }
  return 1.0;
}

GopPattern::GopPattern(std::vector<FrameType> frames)
    : frames_(std::move(frames)) {
  assert(!frames_.empty());
  assert(frames_[0] == FrameType::kI);
  for (FrameType type : frames_) total_weight_ += FrameTypeWeight(type);
}

GopPattern GopPattern::Standard() { return Make(15, 3); }

GopPattern GopPattern::StandardFor(VideoFormat format) {
  return format == VideoFormat::kMpeg2 ? Make(12, 3) : Make(15, 3);
}

GopPattern GopPattern::Make(int n, int m) {
  assert(n > 0);
  assert(m > 0);
  assert(n % m == 0);
  std::vector<FrameType> frames;
  frames.reserve(n);
  for (int i = 0; i < n; ++i) {
    if (i == 0) {
      frames.push_back(FrameType::kI);
    } else if (i % m == 0) {
      frames.push_back(FrameType::kP);
    } else {
      frames.push_back(FrameType::kB);
    }
  }
  return GopPattern(std::move(frames));
}

int GopPattern::CountOf(FrameType type) const {
  int count = 0;
  for (FrameType t : frames_) {
    if (t == type) ++count;
  }
  return count;
}

FrameSizeGenerator::FrameSizeGenerator(const GopPattern& pattern,
                                       double bitrate_kbps, double frame_rate,
                                       uint64_t seed, const Options& options)
    : pattern_(pattern),
      bitrate_kbps_(bitrate_kbps),
      frame_rate_(frame_rate),
      options_(options),
      rng_(seed) {
  assert(bitrate_kbps_ > 0.0);
  assert(frame_rate_ > 0.0);
}

double FrameSizeGenerator::MeanFrameSizeKb(FrameType type) const {
  // Bytes in one GOP at the target bitrate, split across frames by the
  // per-type weights.
  double gop_seconds = static_cast<double>(pattern_.size()) / frame_rate_;
  double gop_kb = bitrate_kbps_ * gop_seconds;
  return gop_kb * FrameTypeWeight(type) / pattern_.TotalWeight();
}

FrameInfo FrameSizeGenerator::Next() {
  if (position_ == 0) {
    gop_factor_ = rng_.ClampedNormal(1.0, options_.gop_noise_sd, 0.4, 2.0);
  }
  FrameType type = pattern_.frames()[position_];
  double noise = rng_.ClampedNormal(1.0, options_.frame_noise_sd, 0.3, 2.5);
  FrameInfo info{type, MeanFrameSizeKb(type) * gop_factor_ * noise,
                 position_};
  position_ = (position_ + 1) % pattern_.size();
  return info;
}

}  // namespace quasaq::media
