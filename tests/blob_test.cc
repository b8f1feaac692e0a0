#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <functional>

#include "blob/cas_store.h"
#include "blob/file_store.h"
#include "blob/memory_store.h"

namespace tbm {
namespace {

Bytes Pattern(size_t n, uint8_t seed = 0) {
  Bytes data(n);
  for (size_t i = 0; i < n; ++i) {
    data[i] = static_cast<uint8_t>((i * 31 + seed) & 0xFF);
  }
  return data;
}

// ---------------------------------------------------------------------------
// Contract suite run against every BlobStore implementation. The
// streaming push API is the only write surface, so the whole contract
// — including the content-addressed store — runs through it.

// The parameterized test names print each value's raw bytes, so the
// explicit values keep every store's test names stable when a store is
// added or removed.
enum class StoreKind { kMemory = 0, kFile = 3, kCas = 4 };

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

class BlobStoreContract : public ::testing::TestWithParam<StoreKind> {
 protected:
  void SetUp() override {
    // Keyed by pid as well: ctest runs each test in its own process,
    // so a per-process counter alone collides under `ctest -j`.
    scratch_ = ::testing::TempDir() + "/blobstore_" +
               std::to_string(static_cast<long>(::getpid())) + "_" +
               std::to_string(static_cast<int>(GetParam())) + "_" +
               std::to_string(counter_++);
    std::filesystem::remove_all(scratch_);
    store_ = MakeStore(GetParam(), scratch_);
  }

  static int counter_;
  std::string scratch_;
  std::unique_ptr<BlobStore> store_;
};

int BlobStoreContract::counter_ = 0;

TEST_P(BlobStoreContract, PushRead) {
  Bytes data = Pattern(1000);
  auto id = store_->PushAll(data);
  ASSERT_TRUE(id.ok()) << id.status();
  EXPECT_EQ(*store_->Size(*id), 1000u);
  EXPECT_EQ(*store_->ReadAll(*id), data);
}

TEST_P(BlobStoreContract, ChunkedPushAccumulates) {
  Bytes a = Pattern(300, 1), b = Pattern(500, 2), c = Pattern(7, 3);
  auto push = store_->StartPush();
  ASSERT_TRUE(push.ok());
  ASSERT_TRUE((*push)->Push(a).ok());
  ASSERT_TRUE((*push)->Push(b).ok());
  ASSERT_TRUE((*push)->Push(c).ok());
  auto id = (*push)->Finish();
  ASSERT_TRUE(id.ok());
  Bytes expected = a;
  expected.insert(expected.end(), b.begin(), b.end());
  expected.insert(expected.end(), c.begin(), c.end());
  EXPECT_EQ(*store_->ReadAll(*id), expected);
}

TEST_P(BlobStoreContract, RangedReads) {
  Bytes data = Pattern(5000);
  auto id = store_->PushAll(data);
  ASSERT_TRUE(id.ok());
  // Various offsets including page-straddling ones.
  for (auto [offset, length] : std::vector<std::pair<uint64_t, uint64_t>>{
           {0, 1}, {0, 5000}, {4999, 1}, {100, 200}, {50, 70}, {4000, 1000}}) {
    auto read = store_->Read(*id, ByteRange{offset, length});
    ASSERT_TRUE(read.ok()) << read.status();
    EXPECT_EQ(*read, Bytes(data.begin() + offset,
                           data.begin() + offset + length));
  }
}

TEST_P(BlobStoreContract, EmptyRead) {
  auto id = store_->PushAll(Pattern(10));
  ASSERT_TRUE(id.ok());
  auto read = store_->Read(*id, ByteRange{5, 0});
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->empty());
}

TEST_P(BlobStoreContract, ReadPastEndIsOutOfRange) {
  auto id = store_->PushAll(Pattern(100));
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(store_->Read(*id, ByteRange{50, 51}).status().IsOutOfRange());
  EXPECT_TRUE(store_->Read(*id, ByteRange{101, 1}).status().IsOutOfRange());
}

TEST_P(BlobStoreContract, MissingBlobIsNotFound) {
  EXPECT_TRUE(store_->Read(999, ByteRange{0, 1}).status().IsNotFound());
  EXPECT_TRUE(store_->Size(999).status().IsNotFound());
  EXPECT_TRUE(store_->Delete(999).IsNotFound());
  EXPECT_FALSE(store_->Exists(999));
}

TEST_P(BlobStoreContract, DeleteRemoves) {
  auto id = store_->PushAll(Pattern(100));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(store_->Delete(*id).ok());
  EXPECT_FALSE(store_->Exists(*id));
  EXPECT_TRUE(store_->ReadAll(*id).status().IsNotFound());
}

TEST_P(BlobStoreContract, ListIsAscendingLiveIds) {
  // Distinct content so the content-addressed store assigns three
  // distinct ids too.
  auto a = store_->PushAll(Pattern(32, 1));
  auto b = store_->PushAll(Pattern(32, 2));
  auto c = store_->PushAll(Pattern(32, 3));
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  ASSERT_TRUE(store_->Delete(*b).ok());
  std::vector<BlobId> expected = {*a, *c};
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(store_->List(), expected);
}

TEST_P(BlobStoreContract, ManyBlobsIndependent) {
  std::vector<BlobId> ids;
  for (int i = 0; i < 20; ++i) {
    auto id = store_->PushAll(Pattern(100 + i * 13, i));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(*store_->ReadAll(ids[i]), Pattern(100 + i * 13, i));
  }
}

TEST_P(BlobStoreContract, StreamingPushRoundTrip) {
  Bytes data = Pattern(10'000, 1);
  auto push = store_->StartPush();
  ASSERT_TRUE(push.ok()) << push.status();
  EXPECT_EQ((*push)->bytes_pushed(), 0u);
  // Uneven chunk sizes straddle page and hash-block boundaries.
  size_t offset = 0;
  for (size_t chunk : {1ul, 55ul, 56ul, 57ul, 4096ul, 5735ul}) {
    ASSERT_TRUE((*push)->Push(ByteSpan(data.data() + offset, chunk)).ok());
    offset += chunk;
  }
  ASSERT_EQ(offset, data.size());
  EXPECT_EQ((*push)->bytes_pushed(), data.size());

  auto id = (*push)->Finish();
  ASSERT_TRUE(id.ok()) << id.status();
  EXPECT_TRUE(store_->Exists(*id));
  EXPECT_EQ(*store_->Size(*id), data.size());
  EXPECT_EQ(*store_->ReadAll(*id), data);
}

TEST_P(BlobStoreContract, EmptyPush) {
  auto push = store_->StartPush();
  ASSERT_TRUE(push.ok());
  auto id = (*push)->Finish();
  ASSERT_TRUE(id.ok()) << id.status();
  EXPECT_EQ(*store_->Size(*id), 0u);
}

TEST_P(BlobStoreContract, BlobInvisibleUntilFinish) {
  auto push = store_->StartPush();
  ASSERT_TRUE(push.ok());
  ASSERT_TRUE((*push)->Push(Pattern(500, 3)).ok());
  // Nothing published yet: the store's view is unchanged mid-push.
  EXPECT_TRUE(store_->List().empty());
  auto id = (*push)->Finish();
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(store_->List(), std::vector<BlobId>{*id});
}

TEST_P(BlobStoreContract, AbortLeavesNoTrace) {
  auto anchor = store_->PushAll(Pattern(100, 4));
  ASSERT_TRUE(anchor.ok());
  auto before = store_->List();

  auto push = store_->StartPush();
  ASSERT_TRUE(push.ok());
  ASSERT_TRUE((*push)->Push(Pattern(1000, 5)).ok());
  EXPECT_TRUE((*push)->Abort().ok());
  EXPECT_TRUE((*push)->Abort().ok());  // Idempotent.
  EXPECT_EQ(store_->List(), before);

  // A handle dropped without Finish aborts implicitly.
  {
    auto dropped = store_->StartPush();
    ASSERT_TRUE(dropped.ok());
    ASSERT_TRUE((*dropped)->Push(Pattern(50, 6)).ok());
  }
  EXPECT_EQ(store_->List(), before);
}

TEST_P(BlobStoreContract, HandleStateMachine) {
  auto push = store_->StartPush();
  ASSERT_TRUE(push.ok());
  ASSERT_TRUE((*push)->Push(Pattern(10)).ok());
  ASSERT_TRUE((*push)->Finish().ok());
  EXPECT_TRUE((*push)->Push(Pattern(1)).IsFailedPrecondition());
  EXPECT_TRUE((*push)->Finish().status().IsFailedPrecondition());

  auto aborted = store_->StartPush();
  ASSERT_TRUE(aborted.ok());
  ASSERT_TRUE((*aborted)->Abort().ok());
  EXPECT_TRUE((*aborted)->Push(Pattern(1)).IsFailedPrecondition());
  EXPECT_TRUE((*aborted)->Finish().status().IsFailedPrecondition());
}

TEST_P(BlobStoreContract, ListIsAscendingAfterPushAndDelete) {
  // List() returns live ids in ascending order for every store; the
  // conformance test pushes distinct content so the CAS store assigns
  // distinct ids too.
  std::vector<BlobId> ids;
  for (int i = 0; i < 8; ++i) {
    auto id = store_->PushAll(Pattern(64 + i, static_cast<uint8_t>(i)));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  ASSERT_TRUE(store_->Delete(ids[2]).ok());
  ASSERT_TRUE(store_->Delete(ids[5]).ok());
  ids.erase(ids.begin() + 5);
  ids.erase(ids.begin() + 2);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(store_->List(), ids);
  // Strictly increasing (no duplicates).
  EXPECT_TRUE(std::adjacent_find(ids.begin(), ids.end(),
                                 std::greater_equal<BlobId>()) == ids.end());
}

INSTANTIATE_TEST_SUITE_P(AllStores, BlobStoreContract,
                         ::testing::Values(StoreKind::kMemory,
                                           StoreKind::kFile,
                                           StoreKind::kCas));

// ---------------------------------------------------------------------------
// FileBlobStore reopen

TEST(FileStoreTest, SurvivesReopen) {
  std::string dir = ::testing::TempDir() + "/tbm_filestore_reopen";
  std::filesystem::remove_all(dir);
  BlobId id;
  {
    auto store = FileBlobStore::Open(dir);
    ASSERT_TRUE(store.ok());
    auto pushed = (*store)->PushAll(Pattern(777));
    ASSERT_TRUE(pushed.ok());
    id = *pushed;
  }
  auto store = FileBlobStore::Open(dir);
  ASSERT_TRUE(store.ok());
  EXPECT_TRUE((*store)->Exists(id));
  EXPECT_EQ(*(*store)->ReadAll(id), Pattern(777));
  // New ids don't collide with recovered ones.
  auto fresh = (*store)->PushAll(Pattern(5));
  ASSERT_TRUE(fresh.ok());
  EXPECT_GT(*fresh, id);
}

}  // namespace
}  // namespace tbm
