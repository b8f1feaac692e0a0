// Shared plumbing of the repository benchmark: options, seeded
// generators, latency samples, the benchmark's own span recorder,
// result output, provenance, and the media inputs every workload
// builds from.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "base/macros.h"
#include "blob/blob_store.h"
#include "db/database.h"
#include "derive/value.h"
#include "interp/interpretation.h"
#include "midi/midi.h"
#include "stream/timed_stream.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;        ///< Working directory inside the checkout.
  std::string commit;         ///< Source revision, from the wrapper.
  std::string trace_path;     ///< Prefix of the span files a traced run writes.
};

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Client threads (and connections): `cap`, but never more than the
/// machine's cores.
int ClientThreads(int cap);

/// splitmix64: small, fast and fully determined by its seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  double Uniform() { return (Next() >> 11) * (1.0 / 9007199254740992.0); }
  uint64_t Below(uint64_t n) { return n == 0 ? 0 : Next() % n; }
  /// An index drawn with probability proportional to its weight.
  size_t Weighted(std::span<const double> weights);

 private:
  uint64_t state_;
};

/// Zipf(s) popularity over `n` items whose ranks are a seeded
/// permutation, so the seed decides which item is hot.
class Popularity {
 public:
  Popularity(size_t n, double s, uint64_t seed);
  size_t Sample(Rng& rng) const;

 private:
  std::vector<double> cdf_;
  std::vector<size_t> rank_to_item_;
};

/// Latency samples of one kind, in the unit they were added in.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other);
  size_t size() const { return values_.size(); }
  double Mean() const;
  /// Nearest-rank quantile, q in [0, 1]; 0 when empty.
  double Quantile(double q) const;
  double P50() const { return Quantile(0.5); }
  double P99() const { return Quantile(0.99); }
 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = false;
};

/// Cumulative CPU time of the machine and the part of it stolen by the
/// hypervisor, in clock ticks (zeros where /proc/stat is missing).
struct CpuTimes {
  uint64_t total = 0;
  uint64_t steal = 0;
};
CpuTimes ReadCpuTimes();

/// CpuTimes read at one instant.
struct CpuSample {
  int64_t t_ns = 0;
  CpuTimes times;
};

/// Operation latencies with their completion times and the media bytes
/// each moved, summarized over equal windows of the measured time.
class WindowedSamples {
 public:
  struct Summary {
    double p50 = 0;
    double p99 = 0;
    double per_s = 0;  ///< Operations per second.
    double mb_s = 0;   ///< Bytes per second, MB/s.
    size_t windows = 0;
    size_t stolen_windows = 0;  ///< Left out for hypervisor steal.
    size_t samples = 0;         ///< Samples the figures pool.
  };

  /// Reserves room for `expected` samples, so that growing to that many
  /// never copies the samples; untouched room is not resident.
  explicit WindowedSamples(size_t expected = 0) { items_.reserve(expected); }

  void Add(int64_t end_ns, double value, uint64_t bytes = 0) {
    items_.push_back(Item{end_ns, static_cast<float>(value),
                          static_cast<uint32_t>(bytes)});
  }
  /// Takes over `other`'s samples without copying them.
  void Append(WindowedSamples&& other);
  /// Every sample, unwindowed.
  Samples All() const;
  /// Memory the samples occupy.
  uint64_t Bytes() const;
  /// Pools the samples that end in [start_ns, end_ns), leaving out the
  /// one-second windows in which the hypervisor stole more than
  /// `max_steal` of the CPU time according to `cpu` (none when every
  /// window would be left out). Rates leave out the `pauses`. The p99 is
  /// the median p99 of runs of consecutive windows that hold at least
  /// `min_samples` samples each.
  Summary Summarize(int64_t start_ns, int64_t end_ns,
                    const std::vector<std::pair<int64_t, int64_t>>& pauses,
                    const std::vector<CpuSample>& cpu, double max_steal,
                    size_t min_samples) const;

 private:
  struct Item {
    int64_t end_ns;
    float value;
    uint32_t bytes;
  };
  template <typename Fn>
  void ForEach(Fn fn) const {
    for (const Item& item : items_) fn(item);
    for (const auto& part : parts_) {
      for (const Item& item : part) fn(item);
    }
  }
  std::vector<Item> items_;
  std::vector<std::vector<Item>> parts_;  ///< Taken over by Append.
};

/// Room each client thread reserves for its samples.
inline constexpr size_t kSamplesPerThread = 1 << 20;

/// The benchmark's own span recorder. Spans are kept in per-thread
/// buffers in memory and written out once at the end of the run; the
/// program's obs::Tracer is never used, so changes to src/obs cannot
/// move these numbers. A null buffer makes every span a no-op, which is
/// how untraced phases run.
class SpanRecorder {
 public:
  struct Span {
    const char* name;  ///< String literal: "<layer>.<call>".
    uint64_t op;       ///< The workload operation the span belongs to.
    int64_t start_ns;
    int64_t end_ns;
  };
  class Buffer {
   public:
    void Add(const char* name, uint64_t op, int64_t start, int64_t end) {
      spans_.push_back(Span{name, op, start, end});
    }
    const std::vector<Span>& spans() const { return spans_; }

   private:
    std::vector<Span> spans_;
  };

  /// A buffer owned by the recorder, for one thread.
  Buffer* NewBuffer();
  /// Durations in microseconds of every span named `name`.
  Samples Durations(const std::string& name) const;
  size_t SpanCount() const;
  /// Writes every span as one JSON object per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// Times one call into a layer when `buffer` is non-null.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder::Buffer* buffer, const char* name, uint64_t op)
      : buffer_(buffer), name_(name), op_(op),
        start_(buffer != nullptr ? NowNs() : 0) {}
  ~ScopedSpan() {
    if (buffer_ != nullptr) buffer_->Add(name_, op_, start_, NowNs());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder::Buffer* buffer_;
  const char* name_;
  uint64_t op_;
  int64_t start_;
};

/// Named numbers with units, in insertion order.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// Adds every metric of `other`, replacing same-named ones.
  void Merge(const MetricSet& other);
  double Get(const std::string& name) const;
  /// `{"name": {"value": v, "unit": "u"}, ...}`
  std::string Json() const;
  /// `{"name": v, ...}`
  std::string PlainJson() const;

 private:
  std::vector<std::string> order_;
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// Tally of workload operations and the ones that failed.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  ///< First few failure messages.
  void Fail(const std::string& why);
  void Merge(const Tally& other);
};

std::string JsonString(const std::string& s);
std::string FormatNumber(double v);

/// Peak resident set size of this process, MiB, since the start or
/// the last ResetPeakRss.
double PeakRssMb();
/// Hands the heap's free pages back to the system (malloc_trim), so the
/// inputs the benchmark has dropped stop counting, and restarts the
/// peak resident set at the current one (Linux /proc/self/clear_refs):
/// PeakRssMb then leaves out set-up. Allocator settings stay glibc's.
/// Returns the peak until then, MiB.
double ResetPeakRss();

/// Total bytes of regular files under `dir`.
uint64_t DirectoryBytes(const std::string& dir);

/// Removes `dir` and everything under it.
void RemoveTree(const std::string& dir);

/// Opens a file-backed database whose WAL writes without fsync: the
/// bulk load behind the read workloads' set-up. Their set-up time then
/// measures the program's work, not the shared disk's fsync latency.
tbm::Result<std::unique_ptr<tbm::MediaDatabase>> OpenForBulkLoad(
    const std::string& dir);



/// One JSON object describing the build and machine the numbers come
/// from; `db_dir` is a directory whose filesystem holds the databases.
std::string ProvenanceJson(const Options& options, const std::string& db_dir);

// ---------------------------------------------------------------------------
// Media inputs. The workloads' source media come from the seeded
// generators of codec/synthetic.h before anything is timed; encoding it
// with the program's codecs (Encode) is part of building a catalog.

/// Uncoded source media and the coding it gets.
struct RawMedia {
  enum Kind { kPcm, kAdpcm, kTjpegVideo, kTjpegStill, kMidi };
  Kind kind = kPcm;
  tbm::AudioBuffer audio;          ///< kPcm, kAdpcm.
  int64_t frames_per_element = 0;  ///< kPcm elements, kAdpcm blocks.
  std::vector<tbm::Image> frames;  ///< kTjpegVideo; one for kTjpegStill.
  int quality = 0;                 ///< kTjpegVideo, kTjpegStill.
  tbm::MidiSequence midi;          ///< kMidi.
};

/// PCM audio, coded as "audio/pcm-block" elements of `frames_per_element`.
RawMedia RawPcm(uint64_t seed, double seconds, int64_t rate, int32_t channels,
                int64_t frames_per_element);
/// Audio coded as IMA ADPCM blocks carrying their coder state.
RawMedia RawAdpcm(uint64_t seed, double seconds, int64_t rate,
                  int32_t channels, int64_t frames_per_block);
/// Video coded as TJPEG, one element per frame, at 25 frames/s.
RawMedia RawTjpegClip(uint32_t scene, int32_t width, int32_t height,
                      int64_t frames, int quality);
/// A still image coded as a one-element TJPEG stream.
RawMedia RawTjpegStill(uint32_t scene, int32_t width, int32_t height,
                       int quality);
/// `notes` seeded MIDI notes, coded as an event stream.
RawMedia RawMidi(uint64_t seed, int notes);

/// Codes `raw` into the stream the catalog stores.
tbm::TimedStream Encode(const RawMedia& raw);

/// Captures `stream` into a fresh BLOB of `store` as object `name`
/// through a CaptureSession (the write path every workload uses).
tbm::Result<tbm::Interpretation> CaptureStream(tbm::BlobStore* store,
                                               const tbm::TimedStream& stream,
                                               const std::string& name);

/// CRC-32 of every element payload of `stream`, in element order.
std::vector<uint32_t> ElementCrcs(const tbm::TimedStream& stream);

/// Order-sensitive 64-bit digest of a materialized value.
uint64_t Digest(const tbm::MediaValue& value);
uint64_t DigestAudio(const tbm::AudioBuffer& audio);
uint64_t DigestImage(const tbm::Image& image);
/// Bytes a materialized value occupies in working form.
uint64_t ValueBytes(const tbm::MediaValue& value);

std::string Hex64(uint64_t v);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
