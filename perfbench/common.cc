#include "common.h"

#include <malloc.h>
#include <sys/statfs.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <thread>

#include "base/crc32.h"
#include "base/io.h"
#include "base/simd.h"
#include "codec/adpcm.h"
#include "codec/pcm.h"
#include "codec/synthetic.h"
#include "codec/tjpeg.h"
#include "blob/file_store.h"
#include "db/wal/wal.h"
#include "interp/capture.h"
#include "midi/midi.h"

namespace perfbench {

namespace fs = std::filesystem;
using namespace tbm;

int ClientThreads(int cap) {
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(cores, 1, cap);
}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

size_t Rng::Weighted(std::span<const double> weights) {
  double u = Uniform() * std::accumulate(weights.begin(), weights.end(), 0.0);
  size_t i = 0;
  while (i + 1 < weights.size() && u >= weights[i]) u -= weights[i++];
  return i;
}

Popularity::Popularity(size_t n, double s, uint64_t seed) {
  double total = 0;
  for (size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
  rank_to_item_.resize(n);
  std::iota(rank_to_item_.begin(), rank_to_item_.end(), 0);
  Rng rng(seed);
  for (size_t i = n; i > 1; --i) {
    std::swap(rank_to_item_[i - 1], rank_to_item_[rng.Below(i)]);
  }
}

size_t Popularity::Sample(Rng& rng) const {
  double u = rng.Uniform();
  size_t rank = std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin();
  return rank_to_item_[std::min(rank, cdf_.size() - 1)];
}

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  sorted_ = false;
}

double Samples::Mean() const {
  if (values_.empty()) return 0.0;
  return std::accumulate(values_.begin(), values_.end(), 0.0) / values_.size();
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  size_t rank = static_cast<size_t>(std::ceil(q * values_.size()));
  return values_[std::clamp<size_t>(rank, 1, values_.size()) - 1];
}

void WindowedSamples::Append(WindowedSamples&& other) {
  parts_.push_back(std::move(other.items_));
  for (auto& part : other.parts_) parts_.push_back(std::move(part));
  other.items_.clear();
  other.parts_.clear();
}

Samples WindowedSamples::All() const {
  Samples out;
  ForEach([&out](const Item& item) { out.Add(item.value); });
  return out;
}

uint64_t WindowedSamples::Bytes() const {
  uint64_t items = 0;
  ForEach([&items](const Item&) { ++items; });
  return items * sizeof(Item);
}

namespace {

/// Share of CPU time stolen between the last sample at or before `t0`
/// and the first at or after `t1`; 0 when `cpu` does not cover them.
double StealBetween(const std::vector<CpuSample>& cpu, int64_t t0,
                    int64_t t1) {
  const CpuSample* a = nullptr;
  const CpuSample* b = nullptr;
  for (const CpuSample& s : cpu) {
    if (s.t_ns <= t0) a = &s;
    if (s.t_ns >= t1 && b == nullptr) b = &s;
  }
  if (a == nullptr || b == nullptr || b->times.total <= a->times.total) {
    return 0.0;
  }
  return static_cast<double>(b->times.steal - a->times.steal) /
         (b->times.total - a->times.total);
}

}  // namespace

WindowedSamples::Summary WindowedSamples::Summarize(
    int64_t start_ns, int64_t end_ns,
    const std::vector<std::pair<int64_t, int64_t>>& pauses,
    const std::vector<CpuSample>& cpu, double max_steal,
    size_t min_samples) const {
  Summary summary;
  if (end_ns <= start_ns) return summary;
  const size_t windows =
      static_cast<size_t>(std::max<int64_t>(1, (end_ns - start_ns) / 1'000'000'000));
  const double width_ns = static_cast<double>(end_ns - start_ns) / windows;
  std::vector<bool> stolen(windows, false);
  std::vector<double> active_ns(windows, width_ns);
  for (size_t w = 0; w < windows; ++w) {
    const int64_t t0 = start_ns + static_cast<int64_t>(width_ns * w);
    const int64_t t1 = t0 + static_cast<int64_t>(width_ns);
    stolen[w] = StealBetween(cpu, t0, t1) > max_steal;
    summary.stolen_windows += stolen[w];
    for (const auto& [p0, p1] : pauses) {
      active_ns[w] -= std::max<int64_t>(0, std::min(t1, p1) - std::max(t0, p0));
    }
  }
  if (summary.stolen_windows == windows) stolen.assign(windows, false);
  std::vector<Samples> per_window(windows);
  uint64_t bytes = 0;
  ForEach([&](const Item& item) {
    if (item.end_ns < start_ns || item.end_ns >= end_ns) return;
    const size_t w = std::min(
        windows - 1, static_cast<size_t>((item.end_ns - start_ns) / width_ns));
    if (stolen[w]) return;
    per_window[w].Add(item.value);
    bytes += item.bytes;
  });
  // The p99 is the median of the p99s of runs of consecutive windows
  // holding at least `min_samples` each, so one burst of preemption moves
  // one of them; the other figures pool every kept sample.
  Samples kept, chunk, chunk_p99;
  double seconds = 0;
  for (size_t w = 0; w < windows; ++w) {
    if (stolen[w]) continue;
    seconds += active_ns[w] / 1e9;
    kept.Append(per_window[w]);
    chunk.Append(per_window[w]);
    if (chunk.size() >= min_samples) {
      chunk_p99.Add(chunk.P99());
      chunk = Samples();
    }
  }
  summary.p50 = kept.P50();
  summary.p99 = chunk_p99.size() > 0 ? chunk_p99.P50() : kept.P99();
  summary.per_s = kept.size() / seconds;
  summary.mb_s = bytes / seconds / 1e6;
  summary.windows = windows;
  summary.samples = kept.size();
  return summary;
}

SpanRecorder::Buffer* SpanRecorder::NewBuffer() {
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(std::make_unique<Buffer>());
  return buffers_.back().get();
}

Samples SpanRecorder::Durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  Samples out;
  for (const auto& buffer : buffers_) {
    for (const Span& span : buffer->spans()) {
      if (name == span.name) out.Add((span.end_ns - span.start_ns) / 1e3);
    }
  }
  return out;
}

size_t SpanRecorder::SpanCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& buffer : buffers_) n += buffer->spans().size();
  return n;
}

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t t = 0; t < buffers_.size(); ++t) {
    for (const Span& span : buffers_[t]->spans()) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"thread\":%zu,\"op\":%llu,"
                   "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   span.name, t, static_cast<unsigned long long>(span.op),
                   static_cast<long long>(span.start_ns),
                   static_cast<long long>(span.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

void MetricSet::Set(const std::string& name, double value,
                    const std::string& unit) {
  if (!values_.count(name)) order_.push_back(name);
  values_[name] = {value, unit};
}

void MetricSet::Merge(const MetricSet& other) {
  for (const std::string& name : other.order_) {
    const auto& [value, unit] = other.values_.at(name);
    Set(name, value, unit);
  }
}

double MetricSet::Get(const std::string& name) const {
  auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second.first;
}

std::string MetricSet::Json() const {
  std::string out = "{";
  for (size_t i = 0; i < order_.size(); ++i) {
    const auto& [value, unit] = values_.at(order_[i]);
    if (i > 0) out += ", ";
    out += JsonString(order_[i]) + ": {\"value\": " + FormatNumber(value) +
           ", \"unit\": " + JsonString(unit) + "}";
  }
  return out + "}";
}

std::string MetricSet::PlainJson() const {
  std::string out = "{";
  for (size_t i = 0; i < order_.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(order_[i]) + ": " +
           FormatNumber(values_.at(order_[i]).first);
  }
  return out + "}";
}

void Tally::Fail(const std::string& why) {
  ++failed;
  if (errors.size() < 8) errors.push_back(why);
}

void Tally::Merge(const Tally& other) {
  attempted += other.attempted;
  failed += other.failed;
  for (const std::string& e : other.errors) {
    if (errors.size() < 8) errors.push_back(e);
  }
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double ResetPeakRss() {
  const double peak = PeakRssMb();
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
  return peak;
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

void RemoveTree(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
}

Result<std::unique_ptr<MediaDatabase>> OpenForBulkLoad(const std::string& dir) {
  TBM_ASSIGN_OR_RETURN(std::unique_ptr<FileBlobStore> store,
                       FileBlobStore::Open(dir));
  wal::WalOptions options;
  options.sync = wal::SyncMode::kNoSync;
  return MediaDatabase::Open(dir, std::move(store), options);
}

CpuTimes ReadCpuTimes() {
  CpuTimes t;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  // user nice system idle iowait irq softirq steal ...
  for (int i = 0; i < 8 && stat; ++i) {
    uint64_t v = 0;
    stat >> v;
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

namespace {

std::string FilesystemName(const std::string& dir) {
  struct statfs info;
  if (statfs(dir.c_str(), &info) != 0) return "unknown";
  switch (static_cast<uint64_t>(info.f_type)) {
    case 0xEF53: return "ext2/ext3/ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
    case 0x2FC12FC1: return "zfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%llx",
                    static_cast<unsigned long long>(info.f_type));
      return buf;
    }
  }
}

std::string CpuFeatures() {
  std::string out;
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  auto add = [&out](bool present, const char* name) {
    if (!present) return;
    if (!out.empty()) out += ",";
    out += name;
  };
  add(__builtin_cpu_supports("sse4.2"), "sse4.2");
  add(__builtin_cpu_supports("avx2"), "avx2");
  add(__builtin_cpu_supports("avx512f"), "avx512f");
  add(__builtin_cpu_supports("sha"), "sha");
#endif
  return out.empty() ? "none-detected" : out;
}

}  // namespace

std::string ProvenanceJson(const Options& options, const std::string& db_dir) {
#ifdef TBM_OBS_DISABLED
  const bool obs_disabled = true;
#else
  const bool obs_disabled = false;
#endif
  const wal::WalOptions wal_defaults;
  std::string out = "{";
  out += "\"commit\": " + JsonString(options.commit);
  out += ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE);
  out += ", \"cxx_flags\": " + JsonString(PERFBENCH_CXX_FLAGS);
  out += ", \"compiler\": " + JsonString(__VERSION__);
  out += ", \"nproc\": " +
         std::to_string(std::thread::hardware_concurrency());
  out += ", \"simd_isa\": " + JsonString(simd::IsaName());
  out += ", \"cpu_features\": " + JsonString(CpuFeatures());
  out += ", \"tbm_obs_disabled\": " +
         std::string(obs_disabled ? "true" : "false");
  out += ", \"db_filesystem\": " + JsonString(FilesystemName(db_dir));
  out += ", \"wal_sync_mode\": " +
         JsonString(std::string(wal_defaults.sync == wal::SyncMode::kSync
                                    ? "sync (fsync before ack)"
                                    : "nosync") +
                    " by default, used by ingest; play and materialize "
                    "bulk-load their catalogs with nosync");
  out += ", \"wal_checkpoint_threshold_bytes\": " +
         std::to_string(wal_defaults.checkpoint_threshold_bytes);
  out += ", \"blob_flush_policy\": " +
         JsonString("FileBlobStore writes and renames blob files without "
                    "fsync; only the WAL fsyncs, so a blob is durable only "
                    "as far as the OS has flushed it");
  out += ", \"seed\": " + std::to_string(options.seed);
  out += ", \"seconds\": " + FormatNumber(options.seconds);
  out += ", \"trace\": " + std::string(options.trace ? "true" : "false");
  return out + "}";
}

// ---------------------------------------------------------------------------
// Media inputs

RawMedia RawPcm(uint64_t seed, double seconds, int64_t rate, int32_t channels,
                int64_t frames_per_element) {
  RawMedia raw;
  raw.kind = RawMedia::kPcm;
  raw.audio = audiogen::Narration(rate, channels, seconds, seed);
  raw.frames_per_element = frames_per_element;
  return raw;
}

RawMedia RawAdpcm(uint64_t seed, double seconds, int64_t rate,
                  int32_t channels, int64_t frames_per_block) {
  RawMedia raw = RawPcm(seed, seconds, rate, channels, frames_per_block);
  raw.kind = RawMedia::kAdpcm;
  return raw;
}

RawMedia RawTjpegClip(uint32_t scene, int32_t width, int32_t height,
                      int64_t frames, int quality) {
  RawMedia raw;
  raw.kind = RawMedia::kTjpegVideo;
  for (int64_t i = 0; i < frames; ++i) {
    raw.frames.push_back(videogen::Frame(width, height, i, scene));
  }
  raw.quality = quality;
  return raw;
}

RawMedia RawTjpegStill(uint32_t scene, int32_t width, int32_t height,
                       int quality) {
  RawMedia raw;
  raw.kind = RawMedia::kTjpegStill;
  raw.frames.push_back(videogen::Still(width, height, scene));
  raw.quality = quality;
  return raw;
}

RawMedia RawMidi(uint64_t seed, int notes) {
  RawMedia raw;
  raw.kind = RawMedia::kMidi;
  Rng rng(seed);
  raw.midi = MidiSequence(480, 120.0);
  // A fixed rhythm with seeded pitches and velocities: every clip
  // synthesizes the same number of note-seconds.
  for (int i = 0; i < notes; ++i) {
    uint8_t note = static_cast<uint8_t>(48 + rng.Below(36));
    (void)raw.midi.AddNote(i * 240, 360, note,
                           static_cast<uint8_t>(64 + rng.Below(48)));
  }
  return raw;
}

namespace {

TimedStream EncodePcm(const AudioBuffer& audio, int64_t frames_per_element) {
  const int64_t rate = audio.sample_rate;
  const int32_t channels = audio.channels;
  MediaDescriptor desc;
  desc.type_name = "audio/pcm-block";
  desc.kind = MediaKind::kAudio;
  desc.attrs.SetInt("sample rate", rate);
  desc.attrs.SetInt("sample size", 16);
  desc.attrs.SetInt("number of channels", channels);
  desc.attrs.SetString("encoding", "PCM");
  TimedStream stream(desc, TimeSystem(rate));
  Bytes all = audio.ToBytes();
  const int64_t total = audio.FrameCount();
  const size_t frame_bytes = static_cast<size_t>(channels) * 2;
  for (int64_t f = 0; f < total; f += frames_per_element) {
    int64_t frames = std::min(frames_per_element, total - f);
    Bytes element(all.begin() + f * frame_bytes,
                  all.begin() + (f + frames) * frame_bytes);
    (void)stream.AppendContiguous(BufferSlice(std::move(element)), frames);
  }
  return stream;
}

TimedStream EncodeAdpcm(const AudioBuffer& audio, int64_t frames_per_block) {
  const int32_t channels = audio.channels;
  auto blocks = AdpcmEncode(audio, frames_per_block);
  MediaDescriptor desc;
  desc.type_name = "audio/adpcm";
  desc.kind = MediaKind::kAudio;
  desc.attrs.SetInt("sample rate", audio.sample_rate);
  desc.attrs.SetInt("number of channels", channels);
  desc.attrs.SetInt("block size", frames_per_block);
  desc.attrs.SetString("encoding", "IMA ADPCM");
  TimedStream stream(desc, TimeSystem(audio.sample_rate));
  if (!blocks.ok()) return stream;
  for (const AdpcmBlock& block : *blocks) {
    ElementDescriptor ed;
    for (int32_t c = 0; c < channels; ++c) {
      std::string suffix = c == 0 ? "" : std::to_string(c);
      ed.SetInt("predictor" + suffix, block.predictor[c]);
      ed.SetInt("step index" + suffix, block.step_index[c]);
    }
    (void)stream.AppendContiguous(BufferSlice::CopyOf(block.data.span()),
                                  block.frames, std::move(ed));
  }
  return stream;
}

TimedStream EncodeTjpegClip(const std::vector<Image>& frames, int quality) {
  MediaDescriptor desc;
  desc.type_name = "video/tjpeg";
  desc.kind = MediaKind::kVideo;
  desc.attrs.SetRational("frame rate", Rational(25));
  desc.attrs.SetInt("frame width", frames.at(0).width);
  desc.attrs.SetInt("frame height", frames.at(0).height);
  desc.attrs.SetInt("frame depth", 24);
  desc.attrs.SetString("color model", "RGB");
  desc.attrs.SetString("encoding", "YUV 4:2:0, TJPEG");
  desc.attrs.SetInt("codec quality", quality);
  TimedStream stream(desc, TimeSystem(25));
  for (const Image& frame : frames) {
    auto encoded = TjpegEncode(frame, quality);
    if (!encoded.ok()) break;
    (void)stream.AppendContiguous(BufferSlice(std::move(*encoded)), 1);
  }
  return stream;
}

TimedStream EncodeTjpegStill(const Image& still, int quality) {
  MediaDescriptor desc;
  desc.type_name = "image/tjpeg";
  desc.kind = MediaKind::kImage;
  desc.attrs.SetInt("width", still.width);
  desc.attrs.SetInt("height", still.height);
  desc.attrs.SetInt("depth", 24);
  desc.attrs.SetString("color model", "RGB");
  desc.attrs.SetString("encoding", "TJPEG");
  desc.attrs.SetInt("codec quality", quality);
  TimedStream stream(desc, TimeSystem(1));
  auto encoded = TjpegEncode(still, quality);
  if (encoded.ok()) {
    (void)stream.AppendContiguous(BufferSlice(std::move(*encoded)), 0);
  }
  return stream;
}

}  // namespace

TimedStream Encode(const RawMedia& raw) {
  switch (raw.kind) {
    case RawMedia::kPcm:
      return EncodePcm(raw.audio, raw.frames_per_element);
    case RawMedia::kAdpcm:
      return EncodeAdpcm(raw.audio, raw.frames_per_element);
    case RawMedia::kTjpegVideo:
      return EncodeTjpegClip(raw.frames, raw.quality);
    case RawMedia::kTjpegStill:
      return EncodeTjpegStill(raw.frames.at(0), raw.quality);
    case RawMedia::kMidi: {
      auto stream = raw.midi.ToEventStream();
      return stream.ok() ? std::move(*stream) : TimedStream();
    }
  }
  return TimedStream();
}

Result<Interpretation> CaptureStream(BlobStore* store,
                                     const TimedStream& stream,
                                     const std::string& name) {
  TBM_ASSIGN_OR_RETURN(CaptureSession session, CaptureSession::Begin(store));
  TBM_ASSIGN_OR_RETURN(size_t handle,
                       session.DeclareObject(name, stream.descriptor(),
                                             stream.time_system()));
  for (const StreamElement& element : stream) {
    TBM_RETURN_IF_ERROR(session.CaptureElement(handle, element.data.span(),
                                               element.start, element.duration,
                                               element.descriptor));
  }
  return session.Finish();
}

std::vector<uint32_t> ElementCrcs(const TimedStream& stream) {
  std::vector<uint32_t> out;
  out.reserve(stream.size());
  for (const StreamElement& element : stream) {
    out.push_back(Crc32(element.data.span()));
  }
  return out;
}

namespace {

class Fnv {
 public:
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const uint8_t*>(data);
    for (size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001B3ull;
    }
  }
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xCBF29CE484222325ull;
};

void HashImage(Fnv& h, const Image& image) {
  h.U64(static_cast<uint64_t>(image.width));
  h.U64(static_cast<uint64_t>(image.height));
  h.U64(static_cast<uint64_t>(image.model));
  h.Bytes(image.data.data(), image.data.size());
}

void HashAudio(Fnv& h, const AudioBuffer& audio) {
  h.U64(static_cast<uint64_t>(audio.sample_rate));
  h.U64(static_cast<uint64_t>(audio.channels));
  h.Bytes(audio.samples.data(), audio.samples.size() * sizeof(int16_t));
}

}  // namespace

uint64_t DigestAudio(const AudioBuffer& audio) {
  Fnv h;
  HashAudio(h, audio);
  return h.value();
}

uint64_t DigestImage(const Image& image) {
  Fnv h;
  HashImage(h, image);
  return h.value();
}

uint64_t Digest(const MediaValue& value) {
  Fnv h;
  h.U64(value.index());
  if (const auto* audio = std::get_if<AudioBuffer>(&value)) {
    HashAudio(h, *audio);
  } else if (const auto* video = std::get_if<VideoValue>(&value)) {
    h.U64(static_cast<uint64_t>(video->frame_rate.num()));
    h.U64(static_cast<uint64_t>(video->frame_rate.den()));
    for (const Image& frame : video->frames) HashImage(h, frame);
  } else if (const auto* image = std::get_if<Image>(&value)) {
    HashImage(h, *image);
  } else if (const auto* midi = std::get_if<MidiSequence>(&value)) {
    BinaryWriter writer;
    midi->Serialize(&writer);
    h.Bytes(writer.buffer().data(), writer.size());
  } else if (const auto* stream = std::get_if<TimedStream>(&value)) {
    for (const StreamElement& e : *stream) {
      h.U64(static_cast<uint64_t>(e.start));
      h.U64(static_cast<uint64_t>(e.duration));
      h.Bytes(e.data.data(), e.data.size());
    }
  }
  return h.value();
}

uint64_t ValueBytes(const MediaValue& value) {
  if (const auto* audio = std::get_if<AudioBuffer>(&value)) {
    return audio->samples.size() * sizeof(int16_t);
  }
  if (const auto* video = std::get_if<VideoValue>(&value)) {
    uint64_t total = 0;
    for (const Image& frame : video->frames) total += frame.data.size();
    return total;
  }
  if (const auto* image = std::get_if<Image>(&value)) return image->data.size();
  if (const auto* stream = std::get_if<TimedStream>(&value)) {
    return stream->TotalBytes();
  }
  return 0;
}

std::string Hex64(uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace perfbench
