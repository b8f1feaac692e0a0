#include "blob/chunk_reader.h"

#include <cstdint>
#include <string>

#include "base/macros.h"
#include "blob/blob_store.h"

namespace tbm {

Result<BufferSlice> ChunkReader::ReadChunk(uint64_t index) const {
  if (index >= chunk_count()) {
    return Status::OutOfRange("chunk " + std::to_string(index) +
                              " out of range (BLOB has " +
                              std::to_string(chunk_count()) + " chunks)");
  }
  return ReadWithPolicy(*store_, id_, ChunkRange(index), options_.policy);
}

Status StreamReadOptions::Validate() const {
  if (chunk_size == 0 || chunk_size > UINT32_MAX) {
    return Status::InvalidArgument("chunk_size " + std::to_string(chunk_size) +
                                   " is outside [1, 2^32)");
  }
  return Status::OK();
}

Result<std::unique_ptr<ChunkReader>> BlobStore::OpenChunkReader(
    BlobId id, const StreamReadOptions& options) const {
  TBM_RETURN_IF_ERROR(options.Validate());
  TBM_ASSIGN_OR_RETURN(uint64_t size, Size(id));
  return std::unique_ptr<ChunkReader>(
      new ChunkReader(this, id, size, options));
}

}  // namespace tbm
