// Substrate ablation: BLOB storage layout. The paper (Def. 4) treats
// BLOB layout as "a performance issue and not directly relevant to
// data modeling". This bench shows both halves of that claim on the
// three stores behind the one BlobStore interface — one in-memory
// buffer per BLOB, one file per BLOB, and content-addressed shards:
// the same bytes pushed through the same calls read back
// byte-identically from every store, while push and read throughput
// differ per layout. It also times compact-index build cost.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "blob/cas_store.h"
#include "blob/chunk_reader.h"
#include "blob/file_store.h"
#include "blob/memory_store.h"
#include "interp/index.h"

namespace tbm {
namespace {

using bench::CheckOk;
using bench::ValueOrDie;

namespace fs = std::filesystem;

enum class StoreKind { kMemory, kFile, kCas };

const char* StoreName(StoreKind kind) {
  switch (kind) {
    case StoreKind::kMemory:
      return "memory";
    case StoreKind::kFile:
      return "file";
    case StoreKind::kCas:
      return "cas";
  }
  return "?";
}

/// A fresh, empty store of `kind`; file-backed stores get their own
/// directory under the process's scratch root.
std::unique_ptr<BlobStore> MakeStore(StoreKind kind) {
  static int counter = 0;
  const std::string dir =
      (fs::temp_directory_path() /
       ("tbm_bench_blobstore_" + std::to_string(::getpid())) /
       std::to_string(counter++))
          .string();
  switch (kind) {
    case StoreKind::kMemory:
      return std::make_unique<MemoryBlobStore>();
    case StoreKind::kFile:
      return ValueOrDie(FileBlobStore::Open(dir), "open file store");
    case StoreKind::kCas:
      return ValueOrDie(CasBlobStore::Open(dir), "open cas store");
  }
  return nullptr;
}

void RemoveScratch() {
  fs::remove_all(fs::temp_directory_path() /
                 ("tbm_bench_blobstore_" + std::to_string(::getpid())));
}

Bytes Payload(size_t n, uint32_t seed = 1) {
  Bytes data(n);
  uint32_t x = seed * 2654435761u + 1;
  for (size_t i = 0; i < n; ++i) {
    x = x * 1664525u + 1013904223u;
    data[i] = static_cast<uint8_t>(x >> 24);
  }
  return data;
}

/// Pushes `data` in `span`-byte pieces, as capture does.
BlobId PushInSpans(BlobStore* store, const Bytes& data, size_t span) {
  auto push = ValueOrDie(store->StartPush(), "start push");
  for (size_t off = 0; off < data.size(); off += span) {
    size_t take = std::min(span, data.size() - off);
    CheckOk(push->Push(ByteSpan(data.data() + off, take)), "push");
  }
  return ValueOrDie(push->Finish(), "finish");
}

/// Reads BLOB `id` chunk by chunk into `out` (cleared first), so every
/// byte is touched whether the store copies or maps it.
void ReadChunked(const BlobStore& store, BlobId id, uint32_t chunk_size,
                 Bytes* out) {
  StreamReadOptions options;
  options.chunk_size = chunk_size;
  auto reader = ValueOrDie(store.OpenChunkReader(id, options), "open reader");
  out->clear();
  for (uint64_t c = 0; c < reader->chunk_count(); ++c) {
    BufferSlice chunk = ValueOrDie(reader->ReadChunk(c), "read chunk");
    out->insert(out->end(), chunk.begin(), chunk.end());
  }
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

void PrintAblation() {
  bench::Header(
      "Ablation: BLOB store layout (paper Def. 4: \"the layout of BLOBs\n"
      "is a performance issue and not directly relevant to data\n"
      "modeling\") — same interface, same bytes, different physics");

  // Distinct contents per BLOB, so the CAS store never dedups.
  constexpr int kBlobs = 4;
  constexpr size_t kBlobBytes = 8 << 20;
  constexpr size_t kSpan = 64 << 10;
  constexpr uint32_t kChunk = 256 << 10;
  std::vector<Bytes> contents;
  for (int i = 0; i < kBlobs; ++i) {
    contents.push_back(Payload(kBlobBytes, static_cast<uint32_t>(i + 1)));
  }
  const double mib = static_cast<double>(kBlobBytes) / (1024.0 * 1024.0);

  std::printf("%d BLOBs of %s each, pushed in %s spans, read back in\n"
              "%s chunks (median over BLOBs):\n",
              kBlobs, HumanBytes(kBlobBytes).c_str(),
              HumanBytes(kSpan).c_str(), HumanBytes(kChunk).c_str());
  std::printf("  %-7s %12s %12s  %s\n", "store", "push MiB/s", "read MiB/s",
              "read back");
  Bytes read_back;
  for (StoreKind kind : {StoreKind::kMemory, StoreKind::kFile,
                         StoreKind::kCas}) {
    std::unique_ptr<BlobStore> store = MakeStore(kind);
    std::vector<double> push_mibps, read_mibps;
    bool identical = true;
    for (const Bytes& data : contents) {
      auto start = std::chrono::steady_clock::now();
      BlobId id = PushInSpans(store.get(), data, kSpan);
      push_mibps.push_back(mib / SecondsSince(start));

      start = std::chrono::steady_clock::now();
      ReadChunked(*store, id, kChunk, &read_back);
      read_mibps.push_back(mib / SecondsSince(start));
      identical = identical && read_back == data;
    }
    std::printf("  %-7s %12.0f %12.0f  %s\n", StoreName(kind),
                Median(push_mibps), Median(read_mibps),
                identical ? "byte-identical" : "MISMATCH");
    if (!identical) {
      std::fprintf(stderr, "FATAL: %s store returned different bytes\n",
                   StoreName(kind));
      std::abort();
    }
  }
  RemoveScratch();
}

// --- Push throughput --------------------------------------------------------

void BM_Append(benchmark::State& state, StoreKind kind) {
  const size_t span = static_cast<size_t>(state.range(0));
  Bytes data = Payload(64 * span);
  for (auto _ : state) {
    std::unique_ptr<BlobStore> store = MakeStore(kind);
    BlobId id = PushInSpans(store.get(), data, span);
    benchmark::DoNotOptimize(store->Size(id));
    state.PauseTiming();  // Keep the scratch disk use to one store.
    store.reset();
    RemoveScratch();
    state.ResumeTiming();
  }
  state.SetBytesProcessed(state.iterations() * data.size());
}
BENCHMARK_CAPTURE(BM_Append, memory, StoreKind::kMemory)
    ->Arg(4096)
    ->Arg(65536);
BENCHMARK_CAPTURE(BM_Append, file, StoreKind::kFile)->Arg(65536);
BENCHMARK_CAPTURE(BM_Append, cas, StoreKind::kCas)->Arg(65536);

// --- Chunked sequential reads (the playback path) ---------------------------

void BM_ReadChunked(benchmark::State& state, StoreKind kind) {
  constexpr size_t kBytes = 1 << 20;
  std::unique_ptr<BlobStore> store = MakeStore(kind);
  BlobId id = ValueOrDie(store->PushAll(Payload(kBytes)), "push");
  Bytes out;
  for (auto _ : state) {
    ReadChunked(*store, id, 64 << 10, &out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * kBytes);
}
BENCHMARK_CAPTURE(BM_ReadChunked, memory, StoreKind::kMemory);
BENCHMARK_CAPTURE(BM_ReadChunked, file, StoreKind::kFile);
BENCHMARK_CAPTURE(BM_ReadChunked, cas, StoreKind::kCas);

// --- Random element-sized reads (media access pattern) ----------------------

void BM_RandomElementReads(benchmark::State& state, StoreKind kind) {
  constexpr uint64_t kBytes = 4 << 20;
  std::unique_ptr<BlobStore> store = MakeStore(kind);
  BlobId id = ValueOrDie(store->PushAll(Payload(kBytes)), "push");
  uint64_t offset = 0;
  const uint64_t element = static_cast<uint64_t>(state.range(0));
  Bytes out(element);
  for (auto _ : state) {
    auto data = store->Read(id, ByteRange{offset, element});
    CheckOk(data.status(), "read");
    // Copy out so zero-copy views and copying stores do the same work.
    std::memcpy(out.data(), data->data(), element);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
    offset = (offset + 777 * element) % (kBytes - element);
  }
  state.SetBytesProcessed(state.iterations() * element);
}
BENCHMARK_CAPTURE(BM_RandomElementReads, memory, StoreKind::kMemory)
    ->Arg(1764 * 4)
    ->Arg(20000);
BENCHMARK_CAPTURE(BM_RandomElementReads, file, StoreKind::kFile)
    ->Arg(1764 * 4)
    ->Arg(20000);
BENCHMARK_CAPTURE(BM_RandomElementReads, cas, StoreKind::kCas)
    ->Arg(1764 * 4)
    ->Arg(20000);

// --- Index construction -----------------------------------------------------

void BM_BuildCompactIndex(benchmark::State& state) {
  InterpretedObject object;
  object.name = "v";
  object.time_system = TimeSystem(25);
  const int64_t n = state.range(0);
  uint64_t offset = 0;
  for (int64_t i = 0; i < n; ++i) {
    uint64_t size = 15000 + (i * 97) % 2000;
    object.elements.push_back({i, i, 1, ByteRange{offset, size}, {}});
    offset += size;
  }
  for (auto _ : state) {
    CompactElementIndex index = CompactElementIndex::Build(object);
    benchmark::DoNotOptimize(index.MemoryBytes());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BuildCompactIndex)->Range(256, 16384);

}  // namespace
}  // namespace tbm

int main(int argc, char** argv) {
  bool stats = tbm::bench::ConsumeFlag(&argc, argv, "--stats");
  tbm::PrintAblation();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  tbm::RemoveScratch();
  if (stats) tbm::bench::PrintRegistrySnapshot();
  return 0;
}
