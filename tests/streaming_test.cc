#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <numeric>
#include <thread>

#include "base/thread_pool.h"
#include "blob/cas_store.h"
#include "blob/chunk_reader.h"
#include "blob/fault_store.h"
#include "blob/file_store.h"
#include "blob/memory_store.h"
#include "blob/prefetcher.h"
#include "blob/read_policy.h"
#include "codec/adpcm.h"
#include "codec/pcm.h"
#include "codec/synthetic.h"
#include "db/codec_bridge.h"
#include "db/database.h"
#include "interp/streaming.h"
#include "playback/streaming.h"
#include "text/captions.h"

namespace tbm {
namespace {

Bytes Pattern(size_t n, uint8_t seed = 0) {
  Bytes data(n);
  for (size_t i = 0; i < n; ++i) {
    data[i] = static_cast<uint8_t>((i * 31 + seed) & 0xFF);
  }
  return data;
}

std::string Scratch(const char* tag) {
  static int counter = 0;
  std::string dir = ::testing::TempDir() + "/streaming_" + tag + "_" +
                    std::to_string(static_cast<long>(::getpid())) + "_" +
                    std::to_string(counter++);
  std::filesystem::remove_all(dir);
  return dir;
}

// ---------------------------------------------------------------------------
// ChunkReader contract across every store.

// The parameterized test names print each value's raw bytes, so the
// explicit values keep every store's test names stable when a store is
// added or removed.
enum class StoreKind { kMemory = 0, kFile = 2, kCas = 3 };

std::unique_ptr<BlobStore> MakeStore(StoreKind kind,
                                     const std::string& scratch) {
  switch (kind) {
    case StoreKind::kMemory:
      return std::make_unique<MemoryBlobStore>();
    case StoreKind::kFile: {
      auto store = FileBlobStore::Open(scratch);
      EXPECT_TRUE(store.ok()) << store.status();
      return std::move(*store);
    }
    case StoreKind::kCas: {
      auto store = CasBlobStore::Open(scratch);
      EXPECT_TRUE(store.ok()) << store.status();
      return std::move(*store);
    }
  }
  return nullptr;
}

class ChunkReaderContract : public ::testing::TestWithParam<StoreKind> {
 protected:
  void SetUp() override {
    scratch_ = Scratch("chunks");
    store_ = MakeStore(GetParam(), scratch_);
  }

  std::string scratch_;
  std::unique_ptr<BlobStore> store_;
};

TEST_P(ChunkReaderContract, ChunksConcatenateToWholeBlob) {
  Bytes data = Pattern(5000, 7);
  auto id = store_->PushAll(data);
  ASSERT_TRUE(id.ok()) << id.status();

  for (uint64_t chunk_size : {64u, 100u, 999u, 5000u, 10000u}) {
    StreamReadOptions options;
    options.chunk_size = chunk_size;
    auto reader = store_->OpenChunkReader(*id, options);
    ASSERT_TRUE(reader.ok()) << reader.status();
    EXPECT_EQ((*reader)->blob_size(), 5000u);
    EXPECT_EQ((*reader)->chunk_size(), chunk_size);

    Bytes joined;
    for (uint64_t c = 0; c < (*reader)->chunk_count(); ++c) {
      auto chunk = (*reader)->ReadChunk(c);
      ASSERT_TRUE(chunk.ok()) << chunk.status();
      EXPECT_EQ(chunk->size(), (*reader)->ChunkRange(c).length);
      joined.insert(joined.end(), chunk->begin(), chunk->end());
    }
    EXPECT_EQ(joined, data) << "chunk_size=" << chunk_size;
    // Past-the-end chunk index is OutOfRange, not UB.
    EXPECT_TRUE((*reader)
                    ->ReadChunk((*reader)->chunk_count())
                    .status()
                    .IsOutOfRange());
  }
}

TEST_P(ChunkReaderContract, LastChunkIsTruncated) {
  auto id = store_->PushAll(Pattern(250));
  ASSERT_TRUE(id.ok()) << id.status();
  StreamReadOptions options;
  options.chunk_size = 100;
  auto reader = store_->OpenChunkReader(*id, options);
  ASSERT_TRUE(reader.ok()) << reader.status();
  const uint64_t last = (*reader)->chunk_count() - 1;
  EXPECT_EQ((*reader)->ChunkRange(last).end(), 250u);
  auto chunk = (*reader)->ReadChunk(last);
  ASSERT_TRUE(chunk.ok());
  EXPECT_LT(chunk->size(), (*reader)->chunk_size());
}

TEST_P(ChunkReaderContract, ZeroChunkSizeRejected) {
  auto id = store_->PushAll(Pattern(10));
  ASSERT_TRUE(id.ok()) << id.status();
  Interpretation interp(*id);
  InterpretedObject object;
  object.name = "v";
  object.elements.push_back({0, 0, 1, ByteRange{0, 10}, {}});
  ASSERT_TRUE(interp.AddObject(object).ok());
  // 0, and a size whose low 32 bits (64 KiB) would pass for a chunk
  // size the reader can hold.
  for (uint64_t chunk_size : {uint64_t{0}, (uint64_t{1} << 32) + 65536}) {
    StreamReadOptions options;
    options.chunk_size = chunk_size;
    EXPECT_TRUE(
        store_->OpenChunkReader(*id, options).status().IsInvalidArgument())
        << chunk_size;
    EXPECT_TRUE(ElementStream::Open(*store_, interp, "v", options)
                    .status()
                    .IsInvalidArgument())
        << chunk_size;
  }
}

INSTANTIATE_TEST_SUITE_P(AllStores, ChunkReaderContract,
                         ::testing::Values(StoreKind::kMemory,
                                           StoreKind::kFile,
                                           StoreKind::kCas));

// The CAS store behind the fault decorator: chunked reads still pass
// through retry/backoff, and injected faults recover against the
// mmap-backed read path.
TEST(CasStreamingTest, FaultWrappedCasRecoversWithRetries) {
  auto cas = CasBlobStore::Open(Scratch("cas_fault"));
  ASSERT_TRUE(cas.ok()) << cas.status();
  auto fault = std::make_unique<FaultInjectingStore>(std::move(*cas));
  Bytes data = Pattern(3000, 5);
  auto id = fault->PushAll(data);
  ASSERT_TRUE(id.ok()) << id.status();

  fault->FailNextReads(2);
  ReadPolicy policy;
  policy.max_retries = 3;
  policy.backoff_initial_us = 10.0;  // Keep the test quick.
  policy.backoff_max_us = 50.0;
  auto read = ReadWithPolicy(*fault, *id, ByteRange{0, 3000}, policy);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(*read, data);
  EXPECT_EQ(fault->injected_read_faults(), 2u);
}

// Concurrent pulls of the same CAS blob from many threads (in the CI
// TSan filter): every reader sees identical bytes, all zero-copy views
// of one shared mmap.
TEST(CasStreamingTest, ConcurrentPullsShareOneMapping) {
  auto cas = CasBlobStore::Open(Scratch("cas_pulls"));
  ASSERT_TRUE(cas.ok()) << cas.status();
  CasBlobStore* store = cas->get();
  Bytes data = Pattern(64 * 1024, 11);
  auto id = store->PushAll(data);
  ASSERT_TRUE(id.ok()) << id.status();

  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<BufferSlice> slices(kThreads);
  std::vector<Status> statuses(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 50; ++i) {
        uint64_t offset = static_cast<uint64_t>((t * 997 + i * 131) %
                                                (64 * 1024 - 256));
        auto read = store->Read(*id, ByteRange{offset, 256});
        if (!read.ok()) {
          statuses[t] = read.status();
          return;
        }
        if (!std::equal(read->begin(), read->end(),
                        data.begin() + static_cast<long>(offset))) {
          statuses[t] = Status::Internal("bytes mismatch");
          return;
        }
        slices[t] = *read;  // Keep the last slice alive past the loop.
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(statuses[t].ok()) << statuses[t];
  }
  // All views alias the single mapping.
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_TRUE(slices[t].SharesBufferWith(slices[0]));
  }
}

// ---------------------------------------------------------------------------
// Retry / backoff / timeout under scripted fault sequences.

ReadPolicy FastRetryPolicy(int retries) {
  ReadPolicy policy;
  policy.max_retries = retries;
  policy.backoff_initial_us = 10.0;  // Keep tests quick.
  policy.backoff_max_us = 50.0;
  return policy;
}

TEST(ReadPolicyTest, RetriesRecoverFromTransientFaults) {
  auto fault =
      std::make_unique<FaultInjectingStore>(std::make_unique<MemoryBlobStore>());
  Bytes data = Pattern(300);
  auto id = fault->PushAll(data);
  ASSERT_TRUE(id.ok());

  fault->FailNextReads(2);
  auto read = ReadWithPolicy(*fault, *id, ByteRange{0, 300},
                             FastRetryPolicy(3));
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(*read, data);
  EXPECT_EQ(fault->injected_read_faults(), 2u);
  EXPECT_EQ(fault->reads_seen(), 3u);  // 2 failures + 1 success.
}

TEST(ReadPolicyTest, GivesUpWhenRetriesExhausted) {
  auto fault =
      std::make_unique<FaultInjectingStore>(std::make_unique<MemoryBlobStore>());
  auto id = fault->PushAll(Pattern(10));
  ASSERT_TRUE(id.ok());

  fault->FailNextReads(5);
  auto read = ReadWithPolicy(*fault, *id, ByteRange{0, 10},
                             FastRetryPolicy(2));
  ASSERT_FALSE(read.ok());
  EXPECT_TRUE(read.status().IsIOError());
  EXPECT_EQ(fault->reads_seen(), 3u);  // 1 attempt + 2 retries, all failed.
}

TEST(ReadPolicyTest, DefiniteErrorsAreNotRetried) {
  auto fault =
      std::make_unique<FaultInjectingStore>(std::make_unique<MemoryBlobStore>());
  auto read = ReadWithPolicy(*fault, 999, ByteRange{0, 10},
                             FastRetryPolicy(5));
  ASSERT_FALSE(read.ok());
  EXPECT_TRUE(read.status().IsNotFound());
  EXPECT_EQ(fault->reads_seen(), 1u);  // No retry can make the BLOB appear.
}

TEST(ReadPolicyTest, CorruptionIsNotRetried) {
  FaultConfig config;
  config.code = StatusCode::kCorruption;
  auto fault = std::make_unique<FaultInjectingStore>(
      std::make_unique<MemoryBlobStore>(), config);
  auto id = fault->PushAll(Pattern(10));
  ASSERT_TRUE(id.ok());

  fault->FailNextReads(1);
  auto read =
      ReadWithPolicy(*fault, *id, ByteRange{0, 10}, FastRetryPolicy(3));
  EXPECT_TRUE(read.status().IsCorruption());  // A re-read cannot clear it.
  EXPECT_EQ(fault->reads_seen(), 1u);
}

TEST(ReadPolicyTest, TimeoutBoundsTotalRetryBudget) {
  FaultConfig config;
  config.read_fault_rate = 1.0;  // Every read fails.
  auto fault = std::make_unique<FaultInjectingStore>(
      std::make_unique<MemoryBlobStore>(), config);
  auto id = fault->inner()->PushAll(Pattern(10));
  ASSERT_TRUE(id.ok());

  ReadPolicy policy;
  policy.max_retries = 1'000'000;
  policy.backoff_initial_us = 2'000.0;
  policy.backoff_multiplier = 1.0;
  policy.timeout_us = 10'000.0;
  auto read = ReadWithPolicy(*fault, *id, ByteRange{0, 10}, policy);
  ASSERT_FALSE(read.ok());
  // The budget, not the retry count, stopped it: far fewer than the
  // allowed million attempts ran.
  EXPECT_LT(fault->reads_seen(), 100u);
}

// ---------------------------------------------------------------------------
// AsyncPrefetcher (in the CI TSan filter).

class PrefetcherTest : public ::testing::Test {};

// Every chunk of `reader`, in order: the plan of a whole-BLOB read.
std::vector<uint64_t> AllChunks(const ChunkReader& reader) {
  std::vector<uint64_t> chunks(reader.chunk_count());
  std::iota(chunks.begin(), chunks.end(), 0);
  return chunks;
}

TEST(PrefetcherTest, DeliversIdenticalBytesAcrossDepths) {
  MemoryBlobStore store;
  Bytes data = Pattern(40'000, 3);
  auto id = store.PushAll(data);
  ASSERT_TRUE(id.ok());

  ThreadPool pool(4);
  for (int depth : {0, 1, 4, 16}) {
    StreamReadOptions options;
    options.chunk_size = 1024;
    options.prefetch_depth = depth;
    options.pool = depth == 0 ? nullptr : &pool;
    auto reader = store.OpenChunkReader(*id, options);
    ASSERT_TRUE(reader.ok());
    std::vector<uint64_t> chunks = AllChunks(**reader);
    AsyncPrefetcher prefetcher(std::move(*reader), options,
                               std::move(chunks));
    Bytes joined;
    while (!prefetcher.Done()) {
      auto chunk = prefetcher.Next();
      ASSERT_TRUE(chunk.ok()) << chunk.status();
      joined.insert(joined.end(), chunk->begin(), chunk->end());
    }
    EXPECT_EQ(joined, data) << "depth=" << depth;
    PrefetchStats stats = prefetcher.stats();
    EXPECT_EQ(stats.chunks_delivered, prefetcher.chunks().size());
    EXPECT_EQ(stats.bytes_delivered, data.size());
    EXPECT_EQ(stats.read_errors, 0u);
    EXPECT_TRUE(prefetcher.Next().status().IsOutOfRange());
  }
}

TEST(PrefetcherTest, TightByteBudgetStillCompletes) {
  MemoryBlobStore store;
  Bytes data = Pattern(10'000, 9);
  auto id = store.PushAll(data);
  ASSERT_TRUE(id.ok());

  ThreadPool pool(4);
  StreamReadOptions options;
  options.chunk_size = 512;
  options.prefetch_depth = 8;
  options.max_inflight_bytes = 1;  // Every chunk exceeds the budget.
  options.pool = &pool;
  auto reader = store.OpenChunkReader(*id, options);
  ASSERT_TRUE(reader.ok());
  std::vector<uint64_t> chunks = AllChunks(**reader);
  AsyncPrefetcher prefetcher(std::move(*reader), options, std::move(chunks));
  Bytes joined;
  while (!prefetcher.Done()) {
    auto chunk = prefetcher.Next();
    ASSERT_TRUE(chunk.ok()) << chunk.status();
    joined.insert(joined.end(), chunk->begin(), chunk->end());
  }
  EXPECT_EQ(joined, data);
}

TEST(PrefetcherTest, ReadErrorsSurfacePerChunk) {
  auto fault =
      std::make_unique<FaultInjectingStore>(std::make_unique<MemoryBlobStore>());
  auto id = fault->PushAll(Pattern(4096));
  ASSERT_TRUE(id.ok());

  // 4 chunks, no retries, and synchronous mode (no pool) so exactly
  // the first chunk read hits the fault.
  StreamReadOptions options;
  options.chunk_size = 1024;
  auto reader = fault->OpenChunkReader(*id, options);
  ASSERT_TRUE(reader.ok());
  fault->FailNextReads(1);

  std::vector<uint64_t> chunks = AllChunks(**reader);
  AsyncPrefetcher prefetcher(std::move(*reader), options, std::move(chunks));
  int failures = 0, successes = 0;
  while (!prefetcher.Done()) {
    auto chunk = prefetcher.Next();
    chunk.ok() ? ++successes : ++failures;
  }
  EXPECT_EQ(failures, 1);
  EXPECT_EQ(successes, 3);
  EXPECT_EQ(prefetcher.stats().read_errors, 1u);
}

// ---------------------------------------------------------------------------
// ElementStream + streamed playback under injected faults (in the CI
// TSan filter).

Interpretation ContiguousInterp(BlobStore* store, int elements,
                                size_t element_bytes, BlobId* blob_out) {
  auto push = store->StartPush();
  EXPECT_TRUE(push.ok());
  InterpretedObject object;
  object.name = "v";
  object.descriptor.type_name = "application/test";
  object.descriptor.kind = MediaKind::kVideo;
  object.time_system = TimeSystem(25);
  for (int i = 0; i < elements; ++i) {
    Bytes data = Pattern(element_bytes, static_cast<uint8_t>(i));
    EXPECT_TRUE((*push)->Push(data).ok());
    object.elements.push_back(
        {i, i, 1, ByteRange{i * element_bytes, element_bytes}, {}});
  }
  auto id = (*push)->Finish();
  EXPECT_TRUE(id.ok());
  Interpretation interp(*id);
  EXPECT_TRUE(interp.AddObject(std::move(object)).ok());
  if (blob_out != nullptr) *blob_out = *id;
  return interp;
}

// The reference expansion: one Interpretation::ReadElement per element,
// independent of ElementStream's chunk window.
TimedStream ReadElementLoop(const BlobStore& store,
                            const Interpretation& interp,
                            const std::string& name, size_t first = 0,
                            size_t count = SIZE_MAX) {
  const InterpretedObject* object = *interp.FindObject(name);
  TimedStream out(object->descriptor, object->time_system);
  for (size_t i = first; i < object->elements.size() && i - first < count;
       ++i) {
    auto element = interp.ReadElement(store, name, static_cast<int64_t>(i));
    EXPECT_TRUE(element.ok()) << element.status();
    EXPECT_TRUE(out.Append(std::move(*element)).ok());
  }
  return out;
}

void ExpectSameElements(const TimedStream& got, const TimedStream& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got.at(i).data, want.at(i).data) << "element " << i;
    EXPECT_EQ(got.at(i).start, want.at(i).start) << "element " << i;
    EXPECT_EQ(got.at(i).duration, want.at(i).duration) << "element " << i;
  }
}

TEST(StreamingFaultTest, StreamedMaterializeMatchesDirect) {
  MemoryBlobStore store;
  Interpretation interp = ContiguousInterp(&store, 40, 997, nullptr);
  TimedStream direct = ReadElementLoop(store, interp, "v");

  ThreadPool pool(4);
  for (uint64_t chunk_size : {64u, 1000u, 100'000u}) {
    for (int depth : {0, 1, 4}) {
      StreamReadOptions options;
      options.chunk_size = chunk_size;
      options.prefetch_depth = depth;
      options.pool = depth == 0 ? nullptr : &pool;
      auto streamed = MaterializeStreamed(store, interp, "v", options);
      ASSERT_TRUE(streamed.ok()) << streamed.status();
      ExpectSameElements(*streamed, direct);
    }
  }
}

TEST(StreamingFaultTest, OutOfOrderPlacementsStream) {
  // Key-first layout: element 0's bytes live at the END of the BLOB
  // (paper §4.2's out-of-order placement freedom).
  MemoryBlobStore store;
  Bytes body = Pattern(9000, 5);
  Bytes key = Pattern(1000, 6);
  auto push = store.StartPush();
  ASSERT_TRUE(push.ok());
  ASSERT_TRUE((*push)->Push(body).ok());
  ASSERT_TRUE((*push)->Push(key).ok());
  auto id = (*push)->Finish();
  ASSERT_TRUE(id.ok());

  Interpretation interp(*id);
  InterpretedObject object;
  object.name = "v";
  object.descriptor.type_name = "application/test";
  object.time_system = TimeSystem(25);
  object.elements.push_back({0, 0, 1, ByteRange{9000, 1000}, {}});  // Key.
  for (int i = 0; i < 9; ++i) {
    object.elements.push_back(
        {i + 1, i + 1, 1, ByteRange{i * 1000u, 1000u}, {}});
  }
  ASSERT_TRUE(interp.AddObject(std::move(object)).ok());

  TimedStream direct = ReadElementLoop(store, interp, "v");
  ThreadPool pool(2);
  StreamReadOptions options;
  options.chunk_size = 1000;
  options.pool = &pool;
  auto streamed = MaterializeStreamed(store, interp, "v", options);
  ASSERT_TRUE(streamed.ok()) << streamed.status();
  ExpectSameElements(*streamed, direct);
}

// ---------------------------------------------------------------------------
// Span and offset reads: an ElementStream starts reading at the chunk
// holding the lowest offset its selected elements need.

TEST(StreamingReadRangeTest, TailSpanReadsOnlyTailChunks) {
  FaultInjectingStore store(std::make_unique<MemoryBlobStore>());
  BlobId blob;
  Interpretation interp = ContiguousInterp(store.inner(), 200, 100, &blob);
  // Elements 190..199 = ticks [190, 200) = bytes [19000, 20000), which
  // 256-byte chunks 74..78 cover.
  const TickSpan tail{190, 10};
  TimedStream want = ReadElementLoop(store, interp, "v", 190, 10);

  ThreadPool pool(2);
  for (int depth : {0, 4}) {
    StreamReadOptions options;
    options.chunk_size = 256;
    options.prefetch_depth = depth;
    options.pool = depth == 0 ? nullptr : &pool;
    const uint64_t before = store.reads_seen();
    auto got = MaterializeStreamed(store, interp, "v", options, tail);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(store.reads_seen() - before, 5u) << "depth " << depth;
    ExpectSameElements(*got, want);
  }
}

TEST(StreamingReadRangeTest, MidBlobSpanReadsOnlyItsChunks) {
  FaultInjectingStore store(std::make_unique<MemoryBlobStore>());
  Interpretation interp = ContiguousInterp(store.inner(), 200, 100, nullptr);
  // Elements 50..59 = bytes [5000, 6000), which 256-byte chunks 19..23
  // cover. Readahead stops there, 176 chunks before the BLOB ends.
  const TickSpan middle{50, 10};
  TimedStream want = ReadElementLoop(store, interp, "v", 50, 10);

  ThreadPool pool(2);
  for (int depth : {0, 4}) {
    StreamReadOptions options;
    options.chunk_size = 256;
    options.prefetch_depth = depth;
    options.pool = depth == 0 ? nullptr : &pool;
    const uint64_t before = store.reads_seen();
    auto got = MaterializeStreamed(store, interp, "v", options, middle);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(store.reads_seen() - before, 5u) << "depth " << depth;
    ExpectSameElements(*got, want);
  }
}

TEST(StreamingReadRangeTest, StrideOverLargeElementsSkipsUnselectedChunks) {
  FaultInjectingStore store(std::make_unique<MemoryBlobStore>());
  // 32 elements of 1024 bytes: each fills exactly four 256-byte chunks.
  Interpretation interp = ContiguousInterp(store.inner(), 32, 1024, nullptr);

  ThreadPool pool(2);
  for (int depth : {0, 4}) {
    StreamReadOptions options;
    options.chunk_size = 256;
    options.prefetch_depth = depth;
    options.pool = depth == 0 ? nullptr : &pool;
    const uint64_t before = store.reads_seen();
    auto stream = ElementStream::Open(store, interp, "v", options, {},
                                      ElementSelection{.first = 1, .stride = 4});
    ASSERT_TRUE(stream.ok()) << stream.status();
    std::vector<size_t> got;
    while (!(*stream)->Done()) {
      const size_t index = (*stream)->position();
      auto element = (*stream)->Next();
      ASSERT_TRUE(element.ok()) << element.status();
      auto want = interp.ReadElement(*store.inner(), "v",
                                     static_cast<int64_t>(index));
      ASSERT_TRUE(want.ok());
      EXPECT_EQ(element->data, want->data) << "element " << index;
      EXPECT_EQ(element->start, want->start);
      got.push_back(index);
    }
    EXPECT_EQ(got, (std::vector<size_t>{1, 5, 9, 13, 17, 21, 25, 29}));
    // 8 selected elements x 4 chunks; the other 96 chunks are never read.
    EXPECT_EQ(store.reads_seen() - before, 32u) << "depth " << depth;
    EXPECT_EQ((*stream)->stats().fallback_element_reads, 0u);
  }
  EXPECT_TRUE(ElementStream::Open(store, interp, "v", {}, {},
                                  ElementSelection{.stride = 0})
                  .status()
                  .IsInvalidArgument());
}

TEST(StreamingReadRangeTest, SecondObjectSkipsFirstObjectsBytes) {
  // Two objects back to back in one BLOB: "a" holds bytes [0, 5000),
  // "b" bytes [5000, 8000).
  FaultInjectingStore store(std::make_unique<MemoryBlobStore>());
  auto push = store.inner()->StartPush();
  ASSERT_TRUE(push.ok());
  Interpretation interp;
  uint64_t offset = 0;
  for (auto [name, count] : {std::pair{"a", 50}, std::pair{"b", 30}}) {
    InterpretedObject object;
    object.name = name;
    object.descriptor.type_name = "application/test";
    object.time_system = TimeSystem(25);
    for (int i = 0; i < count; ++i) {
      ASSERT_TRUE((*push)->Push(Pattern(100, static_cast<uint8_t>(i))).ok());
      object.elements.push_back({i, i, 1, ByteRange{offset, 100}, {}});
      offset += 100;
    }
    ASSERT_TRUE(interp.AddObject(std::move(object)).ok());
  }
  auto blob = (*push)->Finish();
  ASSERT_TRUE(blob.ok());
  interp.set_blob(*blob);
  TimedStream want = ReadElementLoop(store, interp, "b");

  StreamReadOptions options;
  options.chunk_size = 1000;
  options.prefetch_depth = 0;
  const uint64_t before = store.reads_seen();
  auto got = MaterializeStreamed(store, interp, "b", options);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(store.reads_seen() - before, 3u);  // Chunks 5, 6 and 7.
  ExpectSameElements(*got, want);
}

TEST(StreamingFaultTest, FailedChunkFallsBackToDirectRead) {
  auto fault =
      std::make_unique<FaultInjectingStore>(std::make_unique<MemoryBlobStore>());
  BlobId blob;
  Interpretation interp = ContiguousInterp(fault->inner(), 10, 1000, &blob);
  interp.set_blob(blob);

  fault->FailNextReads(1);  // First chunk read fails; no retries set.
  StreamReadOptions options;
  options.chunk_size = 1000;
  options.prefetch_depth = 0;
  auto stream = ElementStream::Open(*fault, interp, "v", options);
  ASSERT_TRUE(stream.ok());
  Bytes expected = Pattern(1000, 0);
  auto first = (*stream)->Next();
  ASSERT_TRUE(first.ok()) << first.status();  // Recovered via fallback.
  EXPECT_EQ(first->data, expected);
  EXPECT_GE((*stream)->stats().fallback_element_reads, 1u);
  while (!(*stream)->Done()) {
    auto element = (*stream)->Next();
    ASSERT_TRUE(element.ok()) << element.status();
  }
}

TEST(StreamingFaultTest, ZeroAbortsAtFivePercentFaultRate) {
  // Acceptance criterion: 5% transient read-fault rate, retries on —
  // every element is delivered and playback never aborts.
  FaultConfig config;
  config.read_fault_rate = 0.05;
  config.seed = 1234;
  auto fault = std::make_unique<FaultInjectingStore>(
      std::make_unique<MemoryBlobStore>(), config);
  BlobId blob;
  Interpretation interp = ContiguousInterp(fault->inner(), 100, 2000, &blob);
  interp.set_blob(blob);

  ThreadPool pool(4);
  StreamReadOptions options;
  options.chunk_size = 4096;
  options.prefetch_depth = 4;
  options.pool = &pool;
  options.policy = FastRetryPolicy(8);

  auto report = PlayStreamed(*fault, interp, {"v"}, PlaybackConfig{}, options);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->elements_skipped, 0u) << "playback dropped elements";
  EXPECT_EQ(report->playback.total_elements, 100);
  EXPECT_GT(fault->injected_read_faults(), 0u)
      << "fault injection never fired; the test is vacuous";
  ASSERT_EQ(report->read_stats.size(), 1u);
  EXPECT_EQ(report->read_stats[0].elements_delivered, 100u);
}

// ---------------------------------------------------------------------------
// Database-level wiring: injected stores and the streamed read path.

TEST(DatabaseStreamingTest, InjectedFaultStoreComposes) {
  FaultConfig config;
  config.read_fault_rate = 0.05;
  config.seed = 77;
  auto db = MediaDatabase::CreateWithStore(
      std::make_unique<FaultInjectingStore>(
          std::make_unique<MemoryBlobStore>(), config));

  VideoValue video;
  video.frame_rate = Rational(25);
  video.frames = videogen::Clip(32, 24, 8, 2);
  auto interp = StoreValue(db->blob_store(), MediaValue(video), "clip");
  ASSERT_TRUE(interp.ok()) << interp.status();
  auto interp_id = db->AddInterpretation("clip_interp", std::move(*interp));
  ASSERT_TRUE(interp_id.ok());
  auto media_id = db->AddMediaObject("clip_media", *interp_id, "clip");
  ASSERT_TRUE(media_id.ok());

  // The default read options are synchronous and retry nothing;
  // tolerate a fault here by retrying the whole call (bounded).
  EXPECT_EQ(db->read_options().prefetch_depth, 0);
  auto sync = db->MaterializeStream(*media_id);
  for (int i = 0; i < 20 && !sync.ok(); ++i) {
    sync = db->MaterializeStream(*media_id);
  }
  ASSERT_TRUE(sync.ok()) << sync.status();

  // Readahead with retries: materialization survives the 5% fault rate
  // and matches the synchronous read element for element.
  StreamReadOptions options;
  options.prefetch_depth = 4;
  options.policy = FastRetryPolicy(8);
  db->set_read_options(options);
  EXPECT_EQ(db->read_options().prefetch_depth, 4);
  auto streamed = db->MaterializeStream(*media_id);
  ASSERT_TRUE(streamed.ok()) << streamed.status();
  ExpectSameElements(*streamed, *sync);
}

TEST(DatabaseStreamingTest, OpenWithInjectedFileStorePersists) {
  std::string dir = Scratch("dbinject");
  BlobId blob_id;
  {
    auto file_store = FileBlobStore::Open(dir);
    ASSERT_TRUE(file_store.ok());
    auto db = MediaDatabase::Open(
        dir, std::make_unique<FaultInjectingStore>(std::move(*file_store)));
    ASSERT_TRUE(db.ok()) << db.status();
    Interpretation interp =
        ContiguousInterp((*db)->blob_store(), 5, 100, &blob_id);
    ASSERT_TRUE((*db)->AddInterpretation("i", std::move(interp)).ok());
    ASSERT_TRUE((*db)->Checkpoint().ok());
  }
  // Reopen with the plain convenience factory: same catalog, same data.
  auto reopened = MediaDatabase::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  auto id = (*reopened)->FindByName("i");
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE((*reopened)->blob_store()->Exists(blob_id));
}

// ---------------------------------------------------------------------------
// One decoder over two sources: decoding a drained stream and decoding
// straight off an ElementStream agree for every type the bridge knows.

std::string Fingerprint(const TimedStream& stream) {
  std::string out = stream.descriptor().type_name;
  for (const StreamElement& e : stream) {
    out += '|' + std::to_string(e.start) + "+" + std::to_string(e.duration) +
           ":" + e.descriptor.ToString() + ":" +
           std::string(e.data.begin(), e.data.end());
  }
  return out;
}

std::string Fingerprint(const Image& image) {
  return std::to_string(image.width) + "x" + std::to_string(image.height) +
         "/" + std::to_string(static_cast<int>(image.model)) + ":" +
         std::string(image.data.begin(), image.data.end());
}

/// Canonical text of a decoded value: equal values, equal text.
std::string Fingerprint(const MediaValue& value) {
  struct Visitor {
    std::string operator()(const AudioBuffer& audio) {
      Bytes bytes = audio.ToBytes();
      return std::to_string(audio.sample_rate) + "/" +
             std::to_string(audio.channels) + ":" +
             std::string(bytes.begin(), bytes.end());
    }
    std::string operator()(const VideoValue& video) {
      std::string out = video.frame_rate.ToString();
      for (const Image& frame : video.frames) out += '|' + Fingerprint(frame);
      return out;
    }
    std::string operator()(const Image& image) { return Fingerprint(image); }
    std::string operator()(const MidiSequence& midi) {
      auto stream = midi.ToEventStream();
      return stream.ok() ? Fingerprint(*stream) : stream.status().ToString();
    }
    std::string operator()(const AnimationScene& scene) {
      auto stream = scene.ToSceneStream();
      return stream.ok() ? Fingerprint(*stream) : stream.status().ToString();
    }
    std::string operator()(const TimedStream& stream) {
      return Fingerprint(stream);
    }
  };
  return std::visit(Visitor{}, value);
}

/// A value whose stored form has media type `type`, and the options
/// that store it so.
MediaValue ValueOfType(const std::string& type, StoreOptions* options) {
  VideoValue video;
  video.frame_rate = Rational(25);
  video.frames = videogen::Clip(32, 24, 9, 4);
  AudioBuffer audio = audiogen::Sine(8000, 2, 440.0, 0.5, 0.3);
  if (type == "audio/pcm" || type == "audio/adpcm") {
    // Stored verbatim: the bridge only writes these as foreign streams.
    MediaDescriptor desc;
    desc.type_name = type;
    desc.kind = MediaKind::kAudio;
    desc.attrs.SetInt("sample rate", audio.sample_rate);
    desc.attrs.SetInt("number of channels", audio.channels);
    TimedStream stream(desc, TimeSystem(audio.sample_rate));
    if (type == "audio/pcm") {
      Bytes bytes = audio.ToBytes();
      for (size_t at = 0; at < bytes.size(); at += 1000) {
        size_t n = std::min<size_t>(1000, bytes.size() - at);
        EXPECT_TRUE(stream
                        .AppendContiguous(Bytes(bytes.begin() + at,
                                                bytes.begin() + at + n),
                                          static_cast<int64_t>(n / 4))
                        .ok());
      }
    } else {
      auto blocks = AdpcmEncode(audio, 256);
      EXPECT_TRUE(blocks.ok());
      for (const AdpcmBlock& block : *blocks) {
        ElementDescriptor ed;
        for (int c = 0; c < audio.channels; ++c) {
          std::string suffix = c == 0 ? "" : std::to_string(c);
          ed.SetInt("predictor" + suffix, block.predictor[c]);
          ed.SetInt("step index" + suffix, block.step_index[c]);
        }
        EXPECT_TRUE(
            stream.AppendContiguous(block.data, block.frames, std::move(ed))
                .ok());
      }
    }
    return stream;
  }
  if (type == "audio/pcm-block") return audio;
  if (type.starts_with("video/")) {
    options->video_codec = type.substr(6);
    options->key_interval = 4;
    options->bidirectional = true;  // Out-of-order placements for TMPEG.
    return video;
  }
  if (type.starts_with("image/")) {
    options->video_codec = type.substr(6);
    return videogen::Still(48, 32, 3);
  }
  if (type == "music/midi") {
    MidiSequence midi(480, 120.0);
    for (int i = 0; i < 40; ++i) {
      EXPECT_TRUE(midi.AddNote(i * 120, 240, static_cast<uint8_t>(48 + i))
                      .ok());
    }
    return midi;
  }
  if (type == "animation/scene") {
    AnimationScene scene(64, 48, Rational(25));
    SceneObject ball;
    ball.id = 1;
    EXPECT_TRUE(scene.AddObject(ball).ok());
    for (int i = 0; i < 20; ++i) {
      EXPECT_TRUE(scene.AddMovement({i * 10, 8, 1, 2.0 * i, 30}).ok());
    }
    return scene;
  }
  CaptionTrack track(TimeSystem(25));
  for (int i = 0; i < 30; ++i) {
    EXPECT_TRUE(track.Add(i * 20, 15, "CAPTION " + std::to_string(i)).ok());
  }
  return *track.ToTimedStream();
}

class DecodeParityTest : public ::testing::TestWithParam<std::string> {};

TEST_P(DecodeParityTest, DecodeStreamedMatchesDecodeStream) {
  MemoryBlobStore store;
  StoreOptions store_options;
  MediaValue value = ValueOfType(GetParam(), &store_options);
  auto interp = StoreValue(&store, value, "obj", store_options);
  ASSERT_TRUE(interp.ok()) << interp.status();
  ASSERT_EQ((*interp->FindObject("obj"))->descriptor.type_name, GetParam());

  auto drained = MaterializeStreamed(store, *interp, "obj");
  ASSERT_TRUE(drained.ok()) << drained.status();
  auto direct = DecodeStream(*drained);
  ASSERT_TRUE(direct.ok()) << direct.status();

  ThreadPool pool(2);
  StreamReadOptions options;
  options.chunk_size = 2048;
  options.pool = &pool;
  ElementStreamStats stats;
  auto streamed = DecodeStreamed(store, *interp, "obj", options, &stats);
  ASSERT_TRUE(streamed.ok()) << streamed.status();
  EXPECT_EQ(stats.elements_delivered, drained->size());
  EXPECT_EQ(Fingerprint(*streamed), Fingerprint(*direct));
}

INSTANTIATE_TEST_SUITE_P(
    AllBridgeTypes, DecodeParityTest,
    ::testing::Values("audio/pcm", "audio/pcm-block", "audio/adpcm",
                      "video/raw", "video/tjpeg", "video/tmpeg", "image/raw",
                      "image/tjpeg", "music/midi", "animation/scene",
                      "text/captions"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '/' || c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace tbm
