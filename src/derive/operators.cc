#include "derive/operators.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "base/macros.h"
#include "base/simd.h"
#include "codec/color.h"
#include "codec/tjpeg.h"
#include "midi/synth.h"
#include "text/captions.h"
#include "text/font.h"

namespace tbm {

std::string_view DerivationCategoryToString(DerivationCategory category) {
  switch (category) {
    case DerivationCategory::kContent: return "change of content";
    case DerivationCategory::kTiming: return "change of timing";
    case DerivationCategory::kType: return "change of type";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Element shapes

size_t ElementShape::PayloadBytes() const {
  switch (kind) {
    case MediaKind::kImage:
      return static_cast<size_t>(Image::ExpectedBytes(width, height, model));
    case MediaKind::kAudio:
      return static_cast<size_t>(frames) * channels * sizeof(int16_t);
    default:
      return 0;
  }
}

Result<ElementShape> ShapeOfValue(const MediaValue& value) {
  ElementShape shape;
  if (const Image* image = std::get_if<Image>(&value)) {
    TBM_RETURN_IF_ERROR(image->Validate());
    shape.kind = MediaKind::kImage;
    shape.width = image->width;
    shape.height = image->height;
    shape.model = image->model;
    return shape;
  }
  if (const AudioBuffer* audio = std::get_if<AudioBuffer>(&value)) {
    TBM_RETURN_IF_ERROR(audio->Validate());
    shape.kind = MediaKind::kAudio;
    shape.sample_rate = audio->sample_rate;
    shape.channels = audio->channels;
    shape.frames = audio->FrameCount();
    return shape;
  }
  return Status::Unsupported("value kind has no element shape");
}

namespace {

// ---------------------------------------------------------------------------
// Typed argument access

template <typename T>
Result<const T*> ArgAs(const std::vector<const MediaValue*>& args, size_t i,
                       const char* what) {
  if (i >= args.size()) {
    return Status::InvalidArgument(std::string(what) + ": missing argument " +
                                   std::to_string(i));
  }
  const T* value = std::get_if<T>(args[i]);
  if (value == nullptr) {
    return Status::InvalidArgument(std::string(what) + ": argument " +
                                   std::to_string(i) + " has wrong kind");
  }
  return value;
}

// Mutable access for stage functions, which receive the single argument
// by value. Mirrors the ArgAs error text.
template <typename T>
Result<T*> StageAs(MediaValue* value, const char* what) {
  T* typed = std::get_if<T>(value);
  if (typed == nullptr) {
    return Status::InvalidArgument(std::string(what) +
                                   ": argument 0 has wrong kind");
  }
  return typed;
}

// Parameter keys are the paper's spaced names ("target peak").
int64_t ParamInt(const AttrMap& params, std::string_view name,
                 int64_t fallback) {
  auto v = params.GetInt(name);
  return v.ok() ? *v : fallback;
}

double ParamDouble(const AttrMap& params, std::string_view name,
                   double fallback) {
  auto v = params.GetDouble(name);
  return v.ok() ? *v : fallback;
}

std::string ParamString(const AttrMap& params, std::string_view name,
                        std::string fallback) {
  auto v = params.GetString(name);
  return v.ok() ? *v : fallback;
}

// ---------------------------------------------------------------------------
// Shared scalar/SIMD kernels. Stage functions and element kernels both
// route through these, so the fused and node-at-a-time paths are
// bit-identical by construction.

void ThresholdSpan(const uint8_t* in, uint8_t* out, size_t n, int64_t t) {
  if (t <= 0) {
    std::memset(out, 255, n);
  } else if (t > 255) {
    std::memset(out, 0, n);
  } else {
    simd::ThresholdBytes(in, out, n, static_cast<uint8_t>(t));
  }
}

void GainSamples(const int16_t* in, int16_t* out, size_t n, double gain) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<int16_t>(
        std::clamp(std::lround(in[i] * gain), -32768L, 32767L));
  }
}

// Fade envelope over frames [first, first + n) of a `frames`-frame
// buffer. Absolute frame indices keep the math identical no matter how
// the range is tiled.
void FadeFrames(const int16_t* in, int16_t* out, size_t first, size_t n,
                int32_t channels, int64_t frames, int64_t fade_in,
                int64_t fade_out) {
  for (size_t f = 0; f < n; ++f) {
    const int64_t frame = static_cast<int64_t>(first + f);
    double g = 1.0;
    bool scaled = false;
    if (frame < fade_in) {
      g = static_cast<double>(frame) / fade_in;
      scaled = true;
    } else if (frame >= frames - fade_out) {
      g = static_cast<double>(frames - 1 - frame) / fade_out;
      scaled = true;
    }
    const size_t base = f * channels;
    if (scaled) {
      for (int32_t c = 0; c < channels; ++c) {
        out[base + c] = static_cast<int16_t>(std::lround(in[base + c] * g));
      }
    } else if (in != out) {
      std::memcpy(out + base, in + base, channels * sizeof(int16_t));
    }
  }
}

// Interleaved fixed-bytes-per-pixel models have pixel elements; planar
// YUV models fall back to byte elements (returns 0).
size_t InterleavedBpp(ColorModel model) {
  switch (model) {
    case ColorModel::kGray8: return 1;
    case ColorModel::kRgb24: return 3;
    case ColorModel::kCmyk32: return 4;
    default: return 0;
  }
}

// ---------------------------------------------------------------------------
// Image derivations

Result<MediaValue> ColorSeparationStage(MediaValue value,
                                        const AttrMap& params) {
  TBM_ASSIGN_OR_RETURN(Image * image,
                       StageAs<Image>(&value, "color separation"));
  SeparationParams sep;
  sep.black_generation = ParamDouble(params, "black generation", 1.0);
  sep.under_color_removal = ParamDouble(params, "under color removal", 1.0);
  TBM_ASSIGN_OR_RETURN(Image cmyk, RgbToCmyk(*image, sep));
  return MediaValue(std::move(cmyk));
}

Result<ElementKernel> ColorSeparationKernel(const ElementShape& in,
                                            const AttrMap& params) {
  ElementKernel kernel;
  if (in.kind != MediaKind::kImage || in.model != ColorModel::kRgb24) {
    return kernel;
  }
  SeparationParams sep;
  sep.black_generation = ParamDouble(params, "black generation", 1.0);
  sep.under_color_removal = ParamDouble(params, "under color removal", 1.0);
  if (sep.black_generation < 0.0 || sep.black_generation > 1.0 ||
      sep.under_color_removal < 0.0 || sep.under_color_removal > 1.0) {
    return kernel;  // Whole-value path reports the parameter error.
  }
  kernel.in_bytes = 3;
  kernel.out_bytes = 4;
  kernel.count = static_cast<size_t>(in.width) * in.height;
  kernel.out_shape = in;
  kernel.out_shape.model = ColorModel::kCmyk32;
  kernel.run = [sep](const uint8_t* src, uint8_t* dst, size_t /*first*/,
                     size_t n) { RgbToCmykPixels(src, dst, n, sep); };
  return kernel;
}

Result<MediaValue> ImageFilterStage(MediaValue value, const AttrMap& params) {
  TBM_ASSIGN_OR_RETURN(Image * image, StageAs<Image>(&value, "image filter"));
  TBM_RETURN_IF_ERROR(image->Validate());
  std::string kind = ParamString(params, "kind", "invert");
  if (kind == "invert") {
    Bytes pixels = image->data.MutableCopy();
    simd::InvertBytes(pixels.data(), pixels.data(), pixels.size());
    image->data = std::move(pixels);
  } else if (kind == "threshold") {
    int64_t threshold = ParamInt(params, "threshold", 128);
    Bytes pixels = image->data.MutableCopy();
    ThresholdSpan(pixels.data(), pixels.data(), pixels.size(), threshold);
    image->data = std::move(pixels);
  } else if (kind == "box blur") {
    if (image->model != ColorModel::kRgb24) {
      return Status::InvalidArgument("box blur expects RGB input");
    }
    int64_t radius = std::max<int64_t>(1, ParamInt(params, "radius", 1));
    const int32_t w = image->width, h = image->height;
    Bytes pixels_out(image->data.size(), 0);
    for (int32_t y = 0; y < h; ++y) {
      for (int32_t x = 0; x < w; ++x) {
        for (int c = 0; c < 3; ++c) {
          int64_t sum = 0, count = 0;
          for (int32_t dy = -radius; dy <= radius; ++dy) {
            for (int32_t dx = -radius; dx <= radius; ++dx) {
              int32_t sx = x + dx, sy = y + dy;
              if (sx < 0 || sx >= w || sy < 0 || sy >= h) continue;
              sum += image->data[3 * (static_cast<size_t>(sy) * w + sx) + c];
              ++count;
            }
          }
          pixels_out[3 * (static_cast<size_t>(y) * w + x) + c] =
              static_cast<uint8_t>(sum / count);
        }
      }
    }
    image->data = std::move(pixels_out);
  } else {
    return Status::InvalidArgument("unknown image filter \"" + kind + "\"");
  }
  return value;
}

Result<ElementKernel> ImageFilterKernel(const ElementShape& in,
                                        const AttrMap& params) {
  ElementKernel kernel;
  if (in.kind != MediaKind::kImage) return kernel;
  const size_t bpp = InterleavedBpp(in.model);
  const size_t stride = bpp > 0 ? bpp : 1;
  kernel.in_bytes = stride;
  kernel.out_bytes = stride;
  kernel.count = bpp > 0 ? static_cast<size_t>(in.width) * in.height
                         : in.PayloadBytes();
  kernel.out_shape = in;
  std::string kind = ParamString(params, "kind", "invert");
  if (kind == "invert") {
    kernel.run = [stride](const uint8_t* src, uint8_t* dst, size_t /*first*/,
                          size_t n) { simd::InvertBytes(src, dst, n * stride); };
  } else if (kind == "threshold") {
    int64_t threshold = ParamInt(params, "threshold", 128);
    kernel.run = [stride, threshold](const uint8_t* src, uint8_t* dst,
                                     size_t /*first*/, size_t n) {
      ThresholdSpan(src, dst, n * stride, threshold);
    };
  }
  // box blur (neighborhood gather) and unknown kinds: run stays null so
  // the executor falls back to the whole-value path.
  return kernel;
}

Result<MediaValue> ImageReencodeStage(MediaValue value,
                                      const AttrMap& params) {
  TBM_ASSIGN_OR_RETURN(Image * image,
                       StageAs<Image>(&value, "image reencode"));
  int64_t quality = ParamInt(params, "quality", 50);
  TBM_ASSIGN_OR_RETURN(Bytes encoded,
                       TjpegEncode(*image, static_cast<int>(quality)));
  TBM_ASSIGN_OR_RETURN(Image decoded, TjpegDecode(encoded));
  return MediaValue(std::move(decoded));
}

// ---------------------------------------------------------------------------
// Audio derivations

Result<MediaValue> AudioNormalizeStage(MediaValue value,
                                       const AttrMap& params) {
  TBM_ASSIGN_OR_RETURN(AudioBuffer * audio,
                       StageAs<AudioBuffer>(&value, "audio normalization"));
  TBM_RETURN_IF_ERROR(audio->Validate());
  double target = ParamDouble(params, "target peak", 0.95);
  if (target <= 0.0 || target > 1.0) {
    return Status::InvalidArgument("target peak must be in (0, 1]");
  }
  // Paper: "parameters needed are the start and end points of the audio
  // sequence to be normalized. If no parameters are specified,
  // normalization is performed for the whole audio object."
  int64_t start = ParamInt(params, "start frame", 0);
  int64_t end = ParamInt(params, "end frame", audio->FrameCount());
  if (start < 0 || end > audio->FrameCount() || start >= end) {
    return Status::OutOfRange("normalization span out of range");
  }
  int32_t peak = 0;
  for (int64_t f = start; f < end; ++f) {
    for (int32_t c = 0; c < audio->channels; ++c) {
      peak = std::max(peak, std::abs(static_cast<int32_t>(
                                audio->samples[f * audio->channels + c])));
    }
  }
  if (peak == 0) return value;  // Silence stays silent.
  double scale = target * 32767.0 / peak;
  std::vector<int16_t> samples = audio->samples.MutableCopy();
  for (int64_t f = start; f < end; ++f) {
    for (int32_t c = 0; c < audio->channels; ++c) {
      size_t i = f * audio->channels + c;
      samples[i] = static_cast<int16_t>(std::clamp(
          std::lround(audio->samples[i] * scale), -32768L, 32767L));
    }
  }
  audio->samples = std::move(samples);
  return value;
}

Result<MediaValue> AudioGainStage(MediaValue value, const AttrMap& params) {
  TBM_ASSIGN_OR_RETURN(AudioBuffer * audio,
                       StageAs<AudioBuffer>(&value, "audio gain"));
  double gain = ParamDouble(params, "gain", 1.0);
  std::vector<int16_t> samples = audio->samples.MutableCopy();
  GainSamples(samples.data(), samples.data(), samples.size(), gain);
  audio->samples = std::move(samples);
  return value;
}

Result<ElementKernel> AudioGainKernel(const ElementShape& in,
                                      const AttrMap& params) {
  ElementKernel kernel;
  if (in.kind != MediaKind::kAudio || in.channels <= 0) return kernel;
  const int32_t channels = in.channels;
  const size_t stride = static_cast<size_t>(channels) * sizeof(int16_t);
  kernel.in_bytes = stride;
  kernel.out_bytes = stride;
  kernel.count = static_cast<size_t>(in.frames);
  kernel.out_shape = in;
  double gain = ParamDouble(params, "gain", 1.0);
  kernel.run = [channels, gain](const uint8_t* src, uint8_t* dst,
                                size_t /*first*/, size_t n) {
    GainSamples(reinterpret_cast<const int16_t*>(src),
                reinterpret_cast<int16_t*>(dst),
                n * static_cast<size_t>(channels), gain);
  };
  return kernel;
}

Result<MediaValue> OpAudioMix(const std::vector<const MediaValue*>& args,
                              const AttrMap& params) {
  TBM_ASSIGN_OR_RETURN(const AudioBuffer* a,
                       ArgAs<AudioBuffer>(args, 0, "audio mix"));
  TBM_ASSIGN_OR_RETURN(const AudioBuffer* b,
                       ArgAs<AudioBuffer>(args, 1, "audio mix"));
  if (a->sample_rate != b->sample_rate || a->channels != b->channels) {
    return Status::InvalidArgument(
        "audio mix requires matching rate and channels");
  }
  double gain_a = ParamDouble(params, "gain a", 1.0);
  double gain_b = ParamDouble(params, "gain b", 1.0);
  int64_t offset = ParamInt(params, "offset frames", 0);
  if (offset < 0) return Status::InvalidArgument("negative mix offset");
  int64_t frames = std::max(a->FrameCount(), offset + b->FrameCount());
  AudioBuffer out;
  out.sample_rate = a->sample_rate;
  out.channels = a->channels;
  std::vector<int16_t> samples(frames * a->channels, 0);
  for (int64_t f = 0; f < frames; ++f) {
    for (int32_t c = 0; c < a->channels; ++c) {
      double v = 0.0;
      if (f < a->FrameCount()) {
        v += gain_a * a->samples[f * a->channels + c];
      }
      int64_t bf = f - offset;
      if (bf >= 0 && bf < b->FrameCount()) {
        v += gain_b * b->samples[bf * b->channels + c];
      }
      samples[f * out.channels + c] = static_cast<int16_t>(
          std::clamp(std::lround(v), -32768L, 32767L));
    }
  }
  out.samples = std::move(samples);
  return MediaValue(std::move(out));
}

Result<MediaValue> OpAudioCut(const std::vector<const MediaValue*>& args,
                              const AttrMap& params) {
  TBM_ASSIGN_OR_RETURN(const AudioBuffer* audio,
                       ArgAs<AudioBuffer>(args, 0, "audio cut"));
  int64_t start = ParamInt(params, "start frame", 0);
  int64_t count = ParamInt(params, "frame count",
                           audio->FrameCount() - start);
  if (start < 0 || count < 0 || start + count > audio->FrameCount()) {
    return Status::OutOfRange("audio cut span out of range");
  }
  AudioBuffer out;
  out.sample_rate = audio->sample_rate;
  out.channels = audio->channels;
  // Timing-only change: the cut is a sub-view sharing the source samples.
  out.samples = audio->samples.Slice(start * audio->channels,
                                     count * audio->channels);
  return MediaValue(std::move(out));
}

Result<MediaValue> OpAudioConcat(const std::vector<const MediaValue*>& args,
                                 const AttrMap& params) {
  (void)params;
  TBM_ASSIGN_OR_RETURN(const AudioBuffer* a,
                       ArgAs<AudioBuffer>(args, 0, "audio concat"));
  TBM_ASSIGN_OR_RETURN(const AudioBuffer* b,
                       ArgAs<AudioBuffer>(args, 1, "audio concat"));
  if (a->sample_rate != b->sample_rate || a->channels != b->channels) {
    return Status::InvalidArgument(
        "audio concat requires matching rate and channels (the paper: an "
        "audio sequence cannot be concatenated to a video sequence)");
  }
  AudioBuffer out = *a;
  std::vector<int16_t> samples;
  samples.reserve(a->samples.size() + b->samples.size());
  samples.insert(samples.end(), a->samples.begin(), a->samples.end());
  samples.insert(samples.end(), b->samples.begin(), b->samples.end());
  out.samples = std::move(samples);
  return MediaValue(std::move(out));
}

Result<MediaValue> AudioResampleStage(MediaValue value,
                                      const AttrMap& params) {
  TBM_ASSIGN_OR_RETURN(AudioBuffer * audio,
                       StageAs<AudioBuffer>(&value, "audio resample"));
  int64_t target = ParamInt(params, "target rate", 44100);
  if (target <= 0) return Status::InvalidArgument("bad target rate");
  if (target == audio->sample_rate) return value;
  AudioBuffer out;
  out.sample_rate = target;
  out.channels = audio->channels;
  int64_t frames = audio->FrameCount() * target / audio->sample_rate;
  std::vector<int16_t> samples(frames * out.channels);
  for (int64_t f = 0; f < frames; ++f) {
    double src = static_cast<double>(f) * audio->sample_rate / target;
    int64_t i0 = static_cast<int64_t>(src);
    int64_t i1 = std::min(i0 + 1, audio->FrameCount() - 1);
    double frac = src - i0;
    for (int32_t c = 0; c < out.channels; ++c) {
      double v = (1.0 - frac) * audio->samples[i0 * audio->channels + c] +
                 frac * audio->samples[i1 * audio->channels + c];
      samples[f * out.channels + c] =
          static_cast<int16_t>(std::lround(v));
    }
  }
  out.samples = std::move(samples);
  return MediaValue(std::move(out));
}

// ---------------------------------------------------------------------------
// Video derivations

Result<MediaValue> OpVideoEdit(const std::vector<const MediaValue*>& args,
                               const AttrMap& params) {
  TBM_ASSIGN_OR_RETURN(const VideoValue* video,
                       ArgAs<VideoValue>(args, 0, "video edit"));
  int64_t start = ParamInt(params, "start frame", 0);
  int64_t count = ParamInt(params, "frame count",
                           static_cast<int64_t>(video->frames.size()) - start);
  if (start < 0 || count < 0 ||
      start + count > static_cast<int64_t>(video->frames.size())) {
    return Status::OutOfRange("video edit span out of range");
  }
  VideoValue out;
  out.frame_rate = video->frame_rate;
  out.frames.assign(video->frames.begin() + start,
                    video->frames.begin() + start + count);
  return MediaValue(std::move(out));
}

Result<MediaValue> OpVideoConcat(const std::vector<const MediaValue*>& args,
                                 const AttrMap& params) {
  (void)params;
  TBM_ASSIGN_OR_RETURN(const VideoValue* a,
                       ArgAs<VideoValue>(args, 0, "video concat"));
  TBM_ASSIGN_OR_RETURN(const VideoValue* b,
                       ArgAs<VideoValue>(args, 1, "video concat"));
  if (!(a->frame_rate == b->frame_rate)) {
    return Status::InvalidArgument("video concat requires equal frame rates");
  }
  if (!a->frames.empty() && !b->frames.empty() &&
      (a->frames.front().width != b->frames.front().width ||
       a->frames.front().height != b->frames.front().height)) {
    return Status::InvalidArgument("video concat requires equal geometry");
  }
  VideoValue out = *a;
  out.frames.insert(out.frames.end(), b->frames.begin(), b->frames.end());
  return MediaValue(std::move(out));
}

Result<MediaValue> OpVideoTransition(
    const std::vector<const MediaValue*>& args, const AttrMap& params) {
  TBM_ASSIGN_OR_RETURN(const VideoValue* a,
                       ArgAs<VideoValue>(args, 0, "video transition"));
  TBM_ASSIGN_OR_RETURN(const VideoValue* b,
                       ArgAs<VideoValue>(args, 1, "video transition"));
  if (!(a->frame_rate == b->frame_rate)) {
    return Status::InvalidArgument("transition requires equal frame rates");
  }
  const int64_t na = static_cast<int64_t>(a->frames.size());
  const int64_t nb = static_cast<int64_t>(b->frames.size());
  // Paper: "The parameters for this kind of derivation specify the type
  // of transition, its duration and the start time in both video
  // objects."
  std::string kind = ParamString(params, "kind", "fade");
  int64_t duration = ParamInt(params, "duration frames", 10);
  int64_t start_a = ParamInt(params, "start a", na - duration);
  int64_t start_b = ParamInt(params, "start b", 0);
  if (duration <= 0 || start_a < 0 || start_a + duration > na ||
      start_b < 0 || start_b + duration > nb) {
    return Status::OutOfRange("transition span out of range");
  }
  if (na > 0 && nb > 0 &&
      (a->frames.front().width != b->frames.front().width ||
       a->frames.front().height != b->frames.front().height)) {
    return Status::InvalidArgument("transition requires equal geometry");
  }

  VideoValue out;
  out.frame_rate = a->frame_rate;
  // A before the transition.
  out.frames.assign(a->frames.begin(), a->frames.begin() + start_a);
  // The transition itself.
  for (int64_t i = 0; i < duration; ++i) {
    const Image& fa = a->frames[start_a + i];
    const Image& fb = b->frames[start_b + i];
    double t = static_cast<double>(i + 1) / (duration + 1);
    Image frame = fa;
    if (kind == "fade") {
      Bytes pixels(fa.data.size(), 0);
      for (size_t p = 0; p < pixels.size(); ++p) {
        pixels[p] = static_cast<uint8_t>(
            std::lround((1.0 - t) * fa.data[p] + t * fb.data[p]));
      }
      frame.data = std::move(pixels);
    } else if (kind == "wipe") {
      // Left-to-right wipe: B replaces A up to column boundary.
      Bytes pixels = fa.data.MutableCopy();
      int32_t boundary = static_cast<int32_t>(t * frame.width);
      for (int32_t y = 0; y < frame.height; ++y) {
        for (int32_t x = 0; x < boundary; ++x) {
          for (int c = 0; c < 3; ++c) {
            size_t p = 3 * (static_cast<size_t>(y) * frame.width + x) + c;
            pixels[p] = fb.data[p];
          }
        }
      }
      frame.data = std::move(pixels);
    } else {
      return Status::InvalidArgument("unknown transition \"" + kind + "\"");
    }
    out.frames.push_back(std::move(frame));
  }
  // B after the transition.
  out.frames.insert(out.frames.end(), b->frames.begin() + start_b + duration,
                    b->frames.end());
  return MediaValue(std::move(out));
}

Result<MediaValue> OpChromaKey(const std::vector<const MediaValue*>& args,
                               const AttrMap& params) {
  TBM_ASSIGN_OR_RETURN(const VideoValue* fg,
                       ArgAs<VideoValue>(args, 0, "chroma key"));
  TBM_ASSIGN_OR_RETURN(const VideoValue* bg,
                       ArgAs<VideoValue>(args, 1, "chroma key"));
  int64_t key_r = ParamInt(params, "key r", 0);
  int64_t key_g = ParamInt(params, "key g", 255);
  int64_t key_b = ParamInt(params, "key b", 0);
  int64_t tolerance = ParamInt(params, "tolerance", 96);
  const size_t frames = std::min(fg->frames.size(), bg->frames.size());
  VideoValue out;
  out.frame_rate = fg->frame_rate;
  for (size_t i = 0; i < frames; ++i) {
    const Image& f = fg->frames[i];
    const Image& g = bg->frames[i];
    if (f.width != g.width || f.height != g.height) {
      return Status::InvalidArgument("chroma key requires equal geometry");
    }
    Image frame = f;
    Bytes pixels = f.data.MutableCopy();
    for (size_t p = 0; p + 2 < pixels.size(); p += 3) {
      int64_t dr = f.data[p] - key_r;
      int64_t dg = f.data[p + 1] - key_g;
      int64_t db = f.data[p + 2] - key_b;
      if (dr * dr + dg * dg + db * db <= tolerance * tolerance) {
        pixels[p] = g.data[p];
        pixels[p + 1] = g.data[p + 1];
        pixels[p + 2] = g.data[p + 2];
      }
    }
    frame.data = std::move(pixels);
    out.frames.push_back(std::move(frame));
  }
  return MediaValue(std::move(out));
}

Result<MediaValue> OpVideoReverse(const std::vector<const MediaValue*>& args,
                                  const AttrMap& params) {
  (void)params;
  TBM_ASSIGN_OR_RETURN(const VideoValue* video,
                       ArgAs<VideoValue>(args, 0, "video reverse"));
  // Paper §2.1 on intraframe codecs: "it is easier to rearrange the
  // order of the frames and to playback in reverse or at variable
  // rates." At the decoded level reversal is a pure reordering.
  VideoValue out;
  out.frame_rate = video->frame_rate;
  out.frames.assign(video->frames.rbegin(), video->frames.rend());
  return MediaValue(std::move(out));
}

Result<MediaValue> OpVideoSpeed(const std::vector<const MediaValue*>& args,
                                const AttrMap& params) {
  TBM_ASSIGN_OR_RETURN(const VideoValue* video,
                       ArgAs<VideoValue>(args, 0, "video speed"));
  // factor > 1 plays faster (drops frames); < 1 slower (repeats).
  int64_t num = ParamInt(params, "speed num", 1);
  int64_t den = ParamInt(params, "speed den", 1);
  if (num <= 0 || den <= 0) {
    return Status::InvalidArgument("speed factor must be positive");
  }
  const int64_t n = static_cast<int64_t>(video->frames.size());
  VideoValue out;
  out.frame_rate = video->frame_rate;
  int64_t out_frames = n * den / num;
  out.frames.reserve(out_frames);
  for (int64_t i = 0; i < out_frames; ++i) {
    int64_t src = i * num / den;
    if (src >= n) break;
    out.frames.push_back(video->frames[src]);
  }
  return MediaValue(std::move(out));
}

Result<MediaValue> AudioFadeStage(MediaValue value, const AttrMap& params) {
  TBM_ASSIGN_OR_RETURN(AudioBuffer * audio,
                       StageAs<AudioBuffer>(&value, "audio fade"));
  TBM_RETURN_IF_ERROR(audio->Validate());
  int64_t fade_in = ParamInt(params, "fade in frames", 0);
  int64_t fade_out = ParamInt(params, "fade out frames", 0);
  const int64_t frames = audio->FrameCount();
  if (fade_in < 0 || fade_out < 0 || fade_in + fade_out > frames) {
    return Status::OutOfRange("fade spans exceed the audio length");
  }
  std::vector<int16_t> samples = audio->samples.MutableCopy();
  FadeFrames(samples.data(), samples.data(), 0,
             static_cast<size_t>(frames), audio->channels, frames, fade_in,
             fade_out);
  audio->samples = std::move(samples);
  return value;
}

Result<ElementKernel> AudioFadeKernel(const ElementShape& in,
                                      const AttrMap& params) {
  ElementKernel kernel;
  if (in.kind != MediaKind::kAudio || in.channels <= 0) return kernel;
  int64_t fade_in = ParamInt(params, "fade in frames", 0);
  int64_t fade_out = ParamInt(params, "fade out frames", 0);
  const int64_t frames = in.frames;
  if (fade_in < 0 || fade_out < 0 || fade_in + fade_out > frames) {
    return kernel;  // Whole-value path reports the range error.
  }
  const int32_t channels = in.channels;
  const size_t stride = static_cast<size_t>(channels) * sizeof(int16_t);
  kernel.in_bytes = stride;
  kernel.out_bytes = stride;
  kernel.count = static_cast<size_t>(frames);
  kernel.out_shape = in;
  kernel.run = [channels, frames, fade_in, fade_out](
                   const uint8_t* src, uint8_t* dst, size_t first, size_t n) {
    FadeFrames(reinterpret_cast<const int16_t*>(src),
               reinterpret_cast<int16_t*>(dst), first, n, channels, frames,
               fade_in, fade_out);
  };
  return kernel;
}

Result<MediaValue> ImageCropStage(MediaValue value, const AttrMap& params) {
  TBM_ASSIGN_OR_RETURN(Image * image, StageAs<Image>(&value, "image crop"));
  TBM_RETURN_IF_ERROR(image->Validate());
  if (image->model != ColorModel::kRgb24 &&
      image->model != ColorModel::kGray8) {
    return Status::Unsupported("image crop expects RGB or GRAY input");
  }
  int64_t x = ParamInt(params, "x", 0);
  int64_t y = ParamInt(params, "y", 0);
  int64_t w = ParamInt(params, "width", image->width - x);
  int64_t h = ParamInt(params, "height", image->height - y);
  if (x < 0 || y < 0 || w <= 0 || h <= 0 || x + w > image->width ||
      y + h > image->height) {
    return Status::OutOfRange("crop rectangle outside the image");
  }
  const int bytes_per_pixel = image->model == ColorModel::kRgb24 ? 3 : 1;
  Image out = Image::Zero(static_cast<int32_t>(w), static_cast<int32_t>(h),
                          image->model);
  Bytes pixels_out(out.data.size(), 0);
  for (int64_t row = 0; row < h; ++row) {
    const uint8_t* src = image->data.data() +
                         bytes_per_pixel * ((y + row) * image->width + x);
    uint8_t* dst = pixels_out.data() + bytes_per_pixel * row * w;
    std::copy(src, src + bytes_per_pixel * w, dst);
  }
  out.data = std::move(pixels_out);
  return MediaValue(std::move(out));
}

Result<MediaValue> ImageScaleStage(MediaValue value, const AttrMap& params) {
  TBM_ASSIGN_OR_RETURN(Image * image, StageAs<Image>(&value, "image scale"));
  TBM_RETURN_IF_ERROR(image->Validate());
  if (image->model != ColorModel::kRgb24 &&
      image->model != ColorModel::kGray8) {
    return Status::Unsupported("image scale expects RGB or GRAY input");
  }
  int64_t w = ParamInt(params, "width", image->width / 2);
  int64_t h = ParamInt(params, "height", image->height / 2);
  if (w <= 0 || h <= 0 || w > (1 << 20) || h > (1 << 20)) {
    return Status::InvalidArgument("bad target geometry");
  }
  const int bpp = image->model == ColorModel::kRgb24 ? 3 : 1;
  Image out = Image::Zero(static_cast<int32_t>(w), static_cast<int32_t>(h),
                          image->model);
  Bytes pixels_out(out.data.size(), 0);
  // Bilinear resampling. Horizontal sample positions are independent of
  // the output row, so precompute the per-column taps once.
  std::vector<int64_t> x0s(w), x1s(w);
  std::vector<double> fxs(w);
  for (int64_t ox = 0; ox < w; ++ox) {
    double sx = (ox + 0.5) * image->width / w - 0.5;
    x0s[ox] = std::clamp<int64_t>(static_cast<int64_t>(std::floor(sx)), 0,
                                  image->width - 1);
    x1s[ox] = std::min<int64_t>(x0s[ox] + 1, image->width - 1);
    fxs[ox] = std::clamp(sx - x0s[ox], 0.0, 1.0);
  }
  for (int64_t oy = 0; oy < h; ++oy) {
    double sy = (oy + 0.5) * image->height / h - 0.5;
    int64_t y0 = std::clamp<int64_t>(static_cast<int64_t>(std::floor(sy)), 0,
                                     image->height - 1);
    int64_t y1 = std::min<int64_t>(y0 + 1, image->height - 1);
    double fy = std::clamp(sy - y0, 0.0, 1.0);
    const uint8_t* row0 = image->data.data() + bpp * y0 * image->width;
    const uint8_t* row1 = image->data.data() + bpp * y1 * image->width;
    for (int64_t ox = 0; ox < w; ++ox) {
      const int64_t x0 = x0s[ox], x1 = x1s[ox];
      const double fx = fxs[ox];
      for (int c = 0; c < bpp; ++c) {
        double v00 = row0[bpp * x0 + c];
        double v01 = row0[bpp * x1 + c];
        double v10 = row1[bpp * x0 + c];
        double v11 = row1[bpp * x1 + c];
        double v = (1 - fy) * ((1 - fx) * v00 + fx * v01) +
                   fy * ((1 - fx) * v10 + fx * v11);
        pixels_out[bpp * (oy * w + ox) + c] =
            static_cast<uint8_t>(std::lround(std::clamp(v, 0.0, 255.0)));
      }
    }
  }
  out.data = std::move(pixels_out);
  return MediaValue(std::move(out));
}

// ---------------------------------------------------------------------------
// Type-changing derivations

Result<MediaValue> OpMidiSynthesis(const std::vector<const MediaValue*>& args,
                                   const AttrMap& params) {
  TBM_ASSIGN_OR_RETURN(const MidiSequence* midi,
                       ArgAs<MidiSequence>(args, 0, "MIDI synthesis"));
  SynthParams synth;
  synth.sample_rate = ParamInt(params, "sample rate", 44100);
  synth.channels = static_cast<int32_t>(ParamInt(params, "channels", 2));
  synth.tempo_bpm = ParamDouble(params, "tempo bpm", 0.0);
  synth.gain = ParamDouble(params, "gain", 0.5);
  int64_t instrument = ParamInt(params, "instrument", 0);
  synth.default_instrument = static_cast<Instrument>(instrument % 6);
  TBM_ASSIGN_OR_RETURN(AudioBuffer audio, Synthesize(*midi, synth));
  return MediaValue(std::move(audio));
}

Result<MediaValue> OpAnimationRender(
    const std::vector<const MediaValue*>& args, const AttrMap& params) {
  TBM_ASSIGN_OR_RETURN(const AnimationScene* scene,
                       ArgAs<AnimationScene>(args, 0, "animation render"));
  int64_t count = ParamInt(params, "frame count", scene->EndTick() + 1);
  if (count <= 0) return Status::InvalidArgument("bad frame count");
  VideoValue out;
  out.frame_rate = scene->frame_rate();
  TBM_ASSIGN_OR_RETURN(out.frames, scene->RenderClip(count));
  return MediaValue(std::move(out));
}

Result<MediaValue> OpVideoPoster(const std::vector<const MediaValue*>& args,
                                 const AttrMap& params) {
  TBM_ASSIGN_OR_RETURN(const VideoValue* video,
                       ArgAs<VideoValue>(args, 0, "video poster"));
  int64_t frame = ParamInt(params, "frame", 0);
  if (frame < 0 || frame >= static_cast<int64_t>(video->frames.size())) {
    return Status::OutOfRange("poster frame out of range");
  }
  return MediaValue(video->frames[frame]);
}

Result<MediaValue> OpCaptionBurnIn(const std::vector<const MediaValue*>& args,
                                   const AttrMap& params) {
  TBM_ASSIGN_OR_RETURN(const VideoValue* video,
                       ArgAs<VideoValue>(args, 0, "caption burn-in"));
  TBM_ASSIGN_OR_RETURN(const TimedStream* caption_stream,
                       ArgAs<TimedStream>(args, 1, "caption burn-in"));
  TBM_ASSIGN_OR_RETURN(CaptionTrack track,
                       CaptionTrack::FromTimedStream(*caption_stream));
  int64_t scale = ParamInt(params, "scale", 2);
  int64_t r = ParamInt(params, "r", 255);
  int64_t g = ParamInt(params, "g", 255);
  int64_t b = ParamInt(params, "b", 255);

  TimeSystem video_time{video->frame_rate};
  VideoValue out;
  out.frame_rate = video->frame_rate;
  out.frames.reserve(video->frames.size());
  for (size_t i = 0; i < video->frames.size(); ++i) {
    Image frame = video->frames[i];
    int64_t caption_tick = video_time.ConvertTo(
        track.time_system(), static_cast<int64_t>(i), Rounding::kFloor);
    auto caption = track.At(caption_tick);
    if (caption.ok()) {
      int32_t width = font5x7::TextWidth((*caption)->text,
                                         static_cast<int>(scale));
      int32_t x = (frame.width - width) / 2;
      int32_t y = frame.height - font5x7::TextHeight(static_cast<int>(scale)) -
                  4 * static_cast<int32_t>(scale);
      TBM_RETURN_IF_ERROR(font5x7::DrawText(
          &frame, (*caption)->text, x, y, static_cast<uint8_t>(r),
          static_cast<uint8_t>(g), static_cast<uint8_t>(b),
          static_cast<int>(scale)));
    }
    out.frames.push_back(std::move(frame));
  }
  return MediaValue(std::move(out));
}

// ---------------------------------------------------------------------------
// Generic timing derivations over timed streams

Result<MediaValue> OpTemporalTranslate(
    const std::vector<const MediaValue*>& args, const AttrMap& params) {
  TBM_ASSIGN_OR_RETURN(const TimedStream* stream,
                       ArgAs<TimedStream>(args, 0, "temporal translate"));
  int64_t offset = ParamInt(params, "offset", 0);
  TimedStream out(stream->descriptor(), stream->time_system());
  for (const StreamElement& e : *stream) {
    StreamElement shifted = e;
    shifted.start += offset;
    if (shifted.start < 0) {
      return Status::OutOfRange("translate would move starts below zero");
    }
    TBM_RETURN_IF_ERROR(out.Append(std::move(shifted)));
  }
  return MediaValue(std::move(out));
}

Result<MediaValue> OpTemporalScale(const std::vector<const MediaValue*>& args,
                                   const AttrMap& params) {
  TBM_ASSIGN_OR_RETURN(const TimedStream* stream,
                       ArgAs<TimedStream>(args, 0, "temporal scale"));
  int64_t num = ParamInt(params, "scale num", 1);
  int64_t den = ParamInt(params, "scale den", 1);
  if (num <= 0 || den <= 0) {
    return Status::InvalidArgument("scale factor must be positive");
  }
  Rational factor(num, den);
  TimedStream out(stream->descriptor(), stream->time_system());
  for (const StreamElement& e : *stream) {
    StreamElement scaled = e;
    scaled.start = RescaleTicks(e.start, factor, Rounding::kNearest);
    scaled.duration = RescaleTicks(e.duration, factor, Rounding::kNearest);
    TBM_RETURN_IF_ERROR(out.Append(std::move(scaled)));
  }
  return MediaValue(std::move(out));
}

}  // namespace

Status DerivationRegistry::Register(DerivationOp op) {
  if ((op.fn == nullptr) == (op.stage_fn == nullptr)) {
    return Status::InvalidArgument("derivation \"" + op.name +
                                   "\" needs exactly one of fn and stage_fn");
  }
  if (op.stage_fn != nullptr && op.arg_kinds.size() != 1) {
    return Status::InvalidArgument("derivation \"" + op.name +
                                   "\" has a stage_fn but is not unary");
  }
  if (ops_.count(op.name) > 0) {
    return Status::AlreadyExists("derivation \"" + op.name +
                                 "\" already registered");
  }
  std::string name = op.name;
  ops_.emplace(std::move(name), std::move(op));
  return Status::OK();
}

Result<const DerivationOp*> DerivationRegistry::Find(
    const std::string& name) const {
  auto it = ops_.find(name);
  if (it == ops_.end()) {
    return Status::NotFound("unknown derivation \"" + name + "\"");
  }
  return &it->second;
}

std::vector<std::string> DerivationRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(ops_.size());
  for (const auto& [name, op] : ops_) names.push_back(name);
  return names;
}

Result<MediaValue> DerivationRegistry::Apply(
    const std::string& name, const std::vector<const MediaValue*>& args,
    const AttrMap& params) const {
  TBM_ASSIGN_OR_RETURN(const DerivationOp* op, Find(name));
  return ApplyOp(*op, args, params);
}

Result<MediaValue> DerivationRegistry::ApplyOp(
    const DerivationOp& op, const std::vector<const MediaValue*>& args,
    const AttrMap& params) const {
  if (args.size() != op.arg_kinds.size()) {
    return Status::InvalidArgument(
        "derivation \"" + op.name + "\" takes " +
        std::to_string(op.arg_kinds.size()) + " argument(s), got " +
        std::to_string(args.size()));
  }
  // The paper (§4.2): "The types of media objects participating in
  // derivations are usually constrained." Kind checks enforce exactly
  // the Table 1 signatures; generic timing derivations accept timed
  // streams of any kind.
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i] == nullptr) {
      return Status::InvalidArgument("null argument " + std::to_string(i));
    }
    if (op.stream_generic) {
      if (!std::holds_alternative<TimedStream>(*args[i])) {
        return Status::InvalidArgument(
            "generic timing derivation \"" + op.name +
            "\" requires a timed-stream argument");
      }
      continue;
    }
    MediaKind kind = KindOfValue(*args[i]);
    if (kind != op.arg_kinds[i]) {
      return Status::InvalidArgument(
          "derivation \"" + op.name + "\" argument " + std::to_string(i) +
          " must be " + std::string(MediaKindToString(op.arg_kinds[i])) +
          ", got " + std::string(MediaKindToString(kind)));
    }
  }
  if (op.stage_fn != nullptr) return op.stage_fn(MediaValue(*args[0]), params);
  return op.fn(args, params);
}

const DerivationRegistry& DerivationRegistry::Builtin() {
  static const DerivationRegistry* kRegistry = [] {
    auto* reg = new DerivationRegistry();
    auto add = [reg](std::string name, std::vector<MediaKind> args,
                     MediaKind result, DerivationCategory category,
                     std::string description, DerivationFn fn) {
      (void)reg->Register(DerivationOp{std::move(name), std::move(args),
                                       result, category,
                                       std::move(description), std::move(fn)});
    };
    // A unary content op the plan compiler may place inside a fused
    // stage: its one evaluator is the whole-value stage form, and an
    // optional element kernel runs it inside a fused element loop.
    auto add_stage = [reg](std::string name, MediaKind arg, MediaKind result,
                           DerivationCategory category,
                           std::string description, StageFn stage,
                           ElementKernelFn element) {
      DerivationOp op{std::move(name), {arg}, result, category,
                      std::move(description)};
      op.stage_fn = std::move(stage);
      op.element_fn = std::move(element);
      (void)reg->Register(std::move(op));
    };
    using MK = MediaKind;
    using DC = DerivationCategory;
    add_stage("color separation", MK::kImage, MK::kImage, DC::kContent,
              "RGB to CMYK with separation-table parameters",
              ColorSeparationStage, ColorSeparationKernel);
    add_stage("image filter", MK::kImage, MK::kImage, DC::kContent,
              "digital filters: invert, threshold, box blur", ImageFilterStage,
              ImageFilterKernel);
    add_stage("image reencode", MK::kImage, MK::kImage, DC::kContent,
              "change compression parameters (TJPEG round trip)",
              ImageReencodeStage, nullptr);
    add_stage("audio normalization", MK::kAudio, MK::kAudio, DC::kContent,
              "scale to a target peak over an optional span",
              AudioNormalizeStage, nullptr);
    add_stage("audio gain", MK::kAudio, MK::kAudio, DC::kContent,
              "constant gain", AudioGainStage, AudioGainKernel);
    add("audio mix", {MK::kAudio, MK::kAudio}, MK::kAudio, DC::kContent,
        "sum two sequences with per-input gain and offset", OpAudioMix);
    add("audio cut", {MK::kAudio}, MK::kAudio, DC::kTiming,
        "select a contiguous sample span", OpAudioCut);
    add("audio concat", {MK::kAudio, MK::kAudio}, MK::kAudio, DC::kTiming,
        "concatenate two sequences", OpAudioConcat);
    add_stage("audio resample", MK::kAudio, MK::kAudio, DC::kType,
              "change the sampling rate (encoding change)", AudioResampleStage,
              nullptr);
    add("video edit", {MK::kVideo}, MK::kVideo, DC::kTiming,
        "select and reorder frame spans via an edit list", OpVideoEdit);
    add("video concat", {MK::kVideo, MK::kVideo}, MK::kVideo, DC::kTiming,
        "concatenate two sequences", OpVideoConcat);
    add("video transition", {MK::kVideo, MK::kVideo}, MK::kVideo, DC::kContent,
        "fade or wipe between two sequences", OpVideoTransition);
    add("chroma key", {MK::kVideo, MK::kVideo}, MK::kVideo, DC::kContent,
        "replace keyed foreground pixels with a background sequence",
        OpChromaKey);
    add("video reverse", {MK::kVideo}, MK::kVideo, DC::kTiming,
        "reverse frame order (intraframe media reorder freely)",
        OpVideoReverse);
    add("video speed", {MK::kVideo}, MK::kVideo, DC::kTiming,
        "variable-rate playback by dropping or repeating frames",
        OpVideoSpeed);
    add_stage("audio fade", MK::kAudio, MK::kAudio, DC::kContent,
              "linear fade-in/fade-out envelopes", AudioFadeStage,
              AudioFadeKernel);
    add_stage("image crop", MK::kImage, MK::kImage, DC::kContent,
              "select a rectangular region", ImageCropStage, nullptr);
    add_stage("image scale", MK::kImage, MK::kImage, DC::kContent,
              "bilinear resampling to a new geometry", ImageScaleStage,
              nullptr);
    add("MIDI synthesis", {MK::kMusic}, MK::kAudio, DC::kType,
        "render music events to PCM via the wavetable synthesizer",
        OpMidiSynthesis);
    add("animation render", {MK::kAnimation}, MK::kVideo, DC::kType,
        "rasterize an animation scene to video frames", OpAnimationRender);
    add("video poster", {MK::kVideo}, MK::kImage, DC::kType,
        "extract one frame as a still image", OpVideoPoster);
    add("caption burn-in", {MK::kVideo, MK::kText}, MK::kVideo, DC::kContent,
        "rasterize a caption track onto video frames", OpCaptionBurnIn);
    auto add_generic = [reg](std::string name, std::string description,
                             DerivationFn fn) {
      (void)reg->Register(DerivationOp{
          std::move(name), {MediaKind::kVideo}, MediaKind::kVideo,
          DerivationCategory::kTiming, std::move(description), std::move(fn),
          /*stream_generic=*/true});
    };
    add_generic("temporal translate",
                "uniformly increment element start times (any timed stream)",
                OpTemporalTranslate);
    add_generic("temporal scale",
                "uniformly scale element start times and durations "
                "(any timed stream)",
                OpTemporalScale);
    return reg;
  }();
  return *kRegistry;
}

}  // namespace tbm
