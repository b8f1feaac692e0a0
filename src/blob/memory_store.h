#ifndef TBM_BLOB_MEMORY_STORE_H_
#define TBM_BLOB_MEMORY_STORE_H_

#include <map>

#include "blob/blob_store.h"

namespace tbm {

/// BLOB store keeping each BLOB as one contiguous in-memory buffer.
///
/// This is the "contiguous layout" end of the layout spectrum: a push
/// accumulates into one growing vector, reads are zero-copy. Used as
/// the baseline in the storage-layout ablation bench and as the default
/// store in tests and examples.
///
/// Each BLOB is one ref-counted, never rewritten buffer. Reads return
/// slices of it, so outstanding slices stay valid across deletes and
/// even destruction of the store.
class MemoryBlobStore : public BlobStore {
 public:
  MemoryBlobStore() = default;

  /// Streaming push. The handle accumulates into a private buffer and
  /// publishes atomically at Finish(): the BLOB is invisible to reads
  /// until then, and an aborted push leaves the store untouched.
  Result<std::unique_ptr<PushHandle>> StartPush() override;

  Result<BufferSlice> Read(BlobId id, ByteRange range) const override;
  Result<uint64_t> Size(BlobId id) const override;
  Status Delete(BlobId id) override;
  bool Exists(BlobId id) const override;
  std::vector<BlobId> List() const override;

 private:
  friend class MemoryPushHandle;

  /// Registers a fully pushed buffer as a new BLOB and returns its id.
  BlobId Publish(BufferRef buffer);

  std::map<BlobId, BufferRef> blobs_;
  BlobId next_id_ = 1;
};

}  // namespace tbm

#endif  // TBM_BLOB_MEMORY_STORE_H_
