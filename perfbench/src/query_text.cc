#include "query_text.h"

#include <cstdio>

namespace quasaq::perfbench {

namespace {

std::string Number(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string_view SecurityName(media::SecurityLevel level) {
  switch (level) {
    case media::SecurityLevel::kNone:
      return "none";
    case media::SecurityLevel::kStandard:
      return "standard";
    case media::SecurityLevel::kStrong:
      return "strong";
  }
  return "none";
}

}  // namespace

std::string RenderTitleQuery(std::string_view title,
                             const query::QosRequirement& qos) {
  const media::AppQosRange& range = qos.range;
  std::string text = "SELECT video FROM videos WHERE TITLE = '";
  text += title;
  text += "' WITH QOS (resolution >= ";
  text += media::ResolutionToString(range.min_resolution);
  text += ", resolution <= ";
  text += media::ResolutionToString(range.max_resolution);
  text += ", framerate >= " + Number(range.min_frame_rate);
  text += ", framerate <= " + Number(range.max_frame_rate);
  text += ", color >= " + std::to_string(range.min_color_depth_bits);
  text += ", color <= " + std::to_string(range.max_color_depth_bits);
  text += ", audio >= ";
  text += media::AudioQualityName(range.min_audio);
  text += ", audio <= ";
  text += media::AudioQualityName(range.max_audio);
  text += ", format IN (";
  bool first = true;
  for (int f = 0; f < media::kNumVideoFormats; ++f) {
    const auto format = static_cast<media::VideoFormat>(f);
    if (!range.AcceptsFormat(format)) continue;
    if (!first) text += ", ";
    text += media::VideoFormatName(format);
    first = false;
  }
  text += "), security >= ";
  text += SecurityName(qos.min_security);
  if (qos.max_startup_seconds > 0.0) {
    text += ", startup <= " + Number(qos.max_startup_seconds);
  }
  text += ")";
  return text;
}

bool SameRequirement(const query::QosRequirement& a,
                     const query::QosRequirement& b) {
  const media::AppQosRange& x = a.range;
  const media::AppQosRange& y = b.range;
  return x.min_resolution == y.min_resolution &&
         x.max_resolution == y.max_resolution &&
         x.min_color_depth_bits == y.min_color_depth_bits &&
         x.max_color_depth_bits == y.max_color_depth_bits &&
         x.min_frame_rate == y.min_frame_rate &&
         x.max_frame_rate == y.max_frame_rate &&
         x.accepted_formats == y.accepted_formats &&
         x.min_audio == y.min_audio && x.max_audio == y.max_audio &&
         a.min_security == b.min_security &&
         a.max_startup_seconds == b.max_startup_seconds;
}

}  // namespace quasaq::perfbench
