#ifndef TBM_DB_CATALOG_IO_H_
#define TBM_DB_CATALOG_IO_H_

/// Binary (de)serialization of catalog entries, shared by the snapshot
/// writer (Checkpoint()) and the write-ahead log, whose upsert
/// records carry one full entry each. Keeping a single codec means a
/// replayed record and a snapshotted row can never diverge.

#include "base/io.h"
#include "db/database.h"

namespace tbm {

/// Appends one catalog entry to `writer` (self-delimiting).
void SerializeCatalogEntry(const CatalogEntry& entry, BinaryWriter* writer);

/// Reads one catalog entry; Corruption on malformed input.
Result<CatalogEntry> DeserializeCatalogEntry(BinaryReader* reader);

}  // namespace tbm

#endif  // TBM_DB_CATALOG_IO_H_
