#include "blob/memory_store.h"

#include "base/macros.h"
#include "blob/store_metrics.h"

namespace tbm {

namespace {
Status NoSuchBlob(BlobId id) {
  return Status::NotFound("no such BLOB: " + std::to_string(id));
}
}  // namespace

/// Push handle of MemoryBlobStore: accumulates into a private byte
/// vector and publishes it as the BLOB's buffer at Finish. The store is
/// only touched at publish time, so a dropped handle costs nothing.
class MemoryPushHandle final : public PushHandle {
 public:
  explicit MemoryPushHandle(MemoryBlobStore* store) : store_(store) {}

  ~MemoryPushHandle() override { Abort(); }

  Status Push(ByteSpan data) override {
    if (store_ == nullptr) {
      return Status::FailedPrecondition("push already finished or aborted");
    }
    const auto& metrics = blob_internal::StoreMetrics::Get();
    metrics.appends->Add();
    metrics.bytes_written->Add(data.size());
    bytes_.insert(bytes_.end(), data.begin(), data.end());
    return Status::OK();
  }

  Result<BlobId> Finish() override {
    if (store_ == nullptr) {
      return Status::FailedPrecondition("push already finished or aborted");
    }
    BlobId id = store_->Publish(Buffer::FromBytes(std::move(bytes_)));
    store_ = nullptr;
    return id;
  }

  Status Abort() override {
    store_ = nullptr;
    bytes_ = Bytes();
    return Status::OK();
  }

  uint64_t bytes_pushed() const override { return bytes_.size(); }

 private:
  MemoryBlobStore* store_;  ///< Null once finished or aborted.
  Bytes bytes_;
};

Result<std::unique_ptr<PushHandle>> MemoryBlobStore::StartPush() {
  return std::unique_ptr<PushHandle>(std::make_unique<MemoryPushHandle>(this));
}

BlobId MemoryBlobStore::Publish(BufferRef buffer) {
  BlobId id = next_id_++;
  blobs_.emplace(id, std::move(buffer));
  return id;
}

Result<BufferSlice> MemoryBlobStore::Read(BlobId id, ByteRange range) const {
  const auto& metrics = blob_internal::StoreMetrics::Get();
  metrics.reads->Add();
  metrics.bytes_read->Add(range.length);
  auto it = blobs_.find(id);
  if (it == blobs_.end()) return NoSuchBlob(id);
  const BufferRef& blob = it->second;
  TBM_RETURN_IF_ERROR(range.Validate());
  if (range.end() > blob->size()) {
    return Status::OutOfRange(
        "read past end of BLOB " + std::to_string(id) + ": [" +
        std::to_string(range.offset) + ", " + std::to_string(range.end()) +
        ") of " + std::to_string(blob->size()));
  }
  return BufferSlice(blob, range.offset, range.length);
}

Result<uint64_t> MemoryBlobStore::Size(BlobId id) const {
  auto it = blobs_.find(id);
  if (it == blobs_.end()) return NoSuchBlob(id);
  return it->second->size();
}

Status MemoryBlobStore::Delete(BlobId id) {
  if (blobs_.erase(id) == 0) return NoSuchBlob(id);
  return Status::OK();
}

bool MemoryBlobStore::Exists(BlobId id) const { return blobs_.count(id) > 0; }

std::vector<BlobId> MemoryBlobStore::List() const {
  std::vector<BlobId> ids;
  ids.reserve(blobs_.size());
  for (const auto& [id, data] : blobs_) ids.push_back(id);
  return ids;
}

}  // namespace tbm
