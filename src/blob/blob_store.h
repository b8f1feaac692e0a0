#ifndef TBM_BLOB_BLOB_STORE_H_
#define TBM_BLOB_BLOB_STORE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "base/buffer.h"
#include "base/bytes.h"
#include "base/result.h"
#include "base/status.h"

namespace tbm {

/// Identifier of a BLOB within a store.
using BlobId = uint64_t;
inline constexpr BlobId kInvalidBlobId = 0;

class ChunkReader;
struct StreamReadOptions;

/// A streaming BLOB ingest in progress — the write half of the store
/// API. Obtained from `BlobStore::StartPush()`; bytes are streamed in
/// with `Push()` and the BLOB id materializes at `Finish()`:
///
///   TBM_ASSIGN_OR_RETURN(auto push, store->StartPush());
///   TBM_RETURN_IF_ERROR(push->Push(first_span));
///   TBM_RETURN_IF_ERROR(push->Push(next_span));
///   TBM_ASSIGN_OR_RETURN(BlobId id, push->Finish());
///
/// The handle owns an *unpublished* BLOB: until Finish() returns, the
/// BLOB is invisible to Read/Size/Exists/List and has no id. This is
/// what lets the content-addressed store assign ids by content hash
/// (the id cannot exist before the last byte arrives) and lets every
/// store publish atomically — an aborted or dropped handle leaves no
/// trace.
///
/// State machine: streaming → finished | aborted. Push() and Finish()
/// return FailedPrecondition once the handle has finished or aborted;
/// Finish() on an already-finished handle does not mint a second BLOB.
/// Destroying a still-streaming handle aborts it (releasing any staged
/// storage).
///
/// Handles follow their store's write contract: for the mutable stores
/// a handle counts as "the writer" (one writer at a time, external
/// synchronization against readers). CasBlobStore strengthens this —
/// any number of concurrent pushes, pulls, and sweeps are safe.
class PushHandle {
 public:
  virtual ~PushHandle() = default;

  /// Appends `data` to the BLOB being pushed.
  virtual Status Push(ByteSpan data) = 0;

  /// Publishes the BLOB and returns its id. The handle is consumed.
  virtual Result<BlobId> Finish() = 0;

  /// Discards the push, releasing staged storage. Idempotent; also
  /// invoked by the destructor if the handle was never finished.
  virtual Status Abort() = 0;

  /// Bytes pushed so far.
  virtual uint64_t bytes_pushed() const = 0;
};

/// A BLOB (paper Definition 4): an attribute value that appears to
/// applications as a sequence of bytes, with streamed-write and
/// random-read access.
///
/// Per the paper, insertion/deletion of byte spans is deliberately not
/// offered: time-based media is edited non-destructively through
/// derivation objects (Def. 6), never by rewriting BLOB bytes. The
/// physical layout of a BLOB (one in-memory buffer, one file, or
/// content-addressed shards) is a performance concern hidden behind
/// this interface; see MemoryBlobStore, FileBlobStore and
/// CasBlobStore. Stores compose as decorators over this interface —
/// FaultInjectingStore wraps any BlobStore, and MediaDatabase accepts
/// an injected store — so new backends slot in without touching
/// consumers.
///
/// Writes go through the streaming push API (`StartPush` →
/// `PushHandle`): ingest is a stream of spans and the BLOB id is
/// assigned at `Finish()`. This is the only write surface — the
/// historical two-phase `Create()` + `Append()` shim is gone, which
/// is what lets the content-addressed store exist at all (an id
/// derived from content cannot precede the content).
///
/// Thread-safety contract: const methods (Read, Size, Exists, List,
/// OpenChunkReader) may be called from multiple threads concurrently —
/// the AsyncPrefetcher depends on this to overlap chunk fetches —
/// provided no thread is concurrently mutating the store (an open
/// push handle, Delete). Mixing readers with a writer
/// requires external synchronization, as with standard containers.
/// CasBlobStore strengthens this to full internal synchronization.
class BlobStore {
 public:
  virtual ~BlobStore() = default;

  /// Begins a streaming push of a new BLOB (see PushHandle). The
  /// returned handle borrows the store: it must not outlive it.
  virtual Result<std::unique_ptr<PushHandle>> StartPush() = 0;

  /// Convenience: pushes `data` as one complete BLOB.
  Result<BlobId> PushAll(ByteSpan data);

  /// Reads the byte range `range` of BLOB `id`. The full range must be
  /// inside the BLOB; returns OutOfRange otherwise.
  ///
  /// The result is a zero-copy view where the store can serve one
  /// (MemoryBlobStore aliases its backing buffer; CasBlobStore aliases
  /// its memory-mapped shard file) and an owned buffer otherwise.
  /// Either way the slice keeps its bytes alive on its own — it
  /// remains valid after the BLOB is deleted or the store destroyed.
  virtual Result<BufferSlice> Read(BlobId id, ByteRange range) const = 0;

  /// Current size of BLOB `id` in bytes.
  virtual Result<uint64_t> Size(BlobId id) const = 0;

  /// Removes BLOB `id`, reclaiming its storage. On the deduplicating
  /// store this drops one reference; bytes are reclaimed when the last
  /// reference is gone.
  virtual Status Delete(BlobId id) = 0;

  /// True iff a BLOB with this id exists.
  virtual bool Exists(BlobId id) const = 0;

  /// Ids of all live BLOBs.
  ///
  /// Ordering contract: ascending by id, no duplicates. Every store
  /// implements this ordering (the cross-store conformance test in
  /// tests/blob_test.cc enforces it), so consumers may binary-search
  /// the result or merge listings from several stores without
  /// re-sorting.
  virtual std::vector<BlobId> List() const = 0;

  /// Convenience: reads the whole BLOB.
  Result<BufferSlice> ReadAll(BlobId id) const;

  /// Opens a streaming view of BLOB `id` serving fixed-size chunks on
  /// demand (see blob/chunk_reader.h). Each chunk is a policy-governed
  /// `Read` of this store, so decorators such as FaultInjectingStore
  /// see every chunk read. The reader borrows the store: keep the store
  /// alive and unmutated while reading.
  Result<std::unique_ptr<ChunkReader>> OpenChunkReader(
      BlobId id, const StreamReadOptions& options) const;
};

}  // namespace tbm

#endif  // TBM_BLOB_BLOB_STORE_H_
