#ifndef TBM_INTERP_INTERPRETATION_H_
#define TBM_INTERP_INTERPRETATION_H_

#include <string>
#include <vector>

#include "base/io.h"
#include "blob/blob_store.h"
#include "stream/timed_stream.h"

namespace tbm {

/// Placement of one media element inside a BLOB — one row of the
/// paper's logical table
/// `video1(elementNumber, startTime, duration, elementDescriptor,
///         elementSize, blobPlacement)`.
struct ElementPlacement {
  int64_t element_number = 0;  ///< Order within the sequence.
  int64_t start = 0;           ///< Start time (discrete ticks).
  int64_t duration = 0;        ///< Duration (discrete ticks).
  ByteRange placement;         ///< Where the element's bytes live.
  ElementDescriptor descriptor;

  friend bool operator==(const ElementPlacement&,
                         const ElementPlacement&) = default;
};

/// One media object identified within a BLOB by an interpretation:
/// its descriptor, time system, and per-element placement table.
///
/// Element placements are kept in element-number order. Their BLOB
/// byte ranges need not be contiguous or in element order — this is
/// what lets one interpretation describe interleaved, padded and
/// out-of-order (key-first) layouts without copying data.
struct InterpretedObject {
  std::string name;  ///< e.g. "video1" — unique within the interpretation.
  MediaDescriptor descriptor;
  TimeSystem time_system;
  std::vector<ElementPlacement> elements;

  /// Total payload bytes (sum of placement lengths).
  uint64_t PayloadBytes() const;

  /// Stream span end: max(start + duration).
  int64_t EndTime() const;
};

/// An interpretation (paper Definition 5): a mapping from a BLOB to a
/// set of media objects, specifying for each object its descriptor and
/// placement, and for sequences each element's order, start time,
/// duration and element descriptor.
///
/// Interpretation is the bridge between the two views of multimedia
/// data (§4.1): below it, the BLOB is an uninterpreted byte sequence
/// that can be copied and deleted; above it, media objects are
/// intricately structured aggregates that can be queried, presented
/// and edited. The indexes that implement the mapping are hidden; what
/// applications see are media elements and their descriptors.
class Interpretation {
 public:
  Interpretation() = default;
  explicit Interpretation(BlobId blob) : blob_(blob) {}

  BlobId blob() const { return blob_; }
  void set_blob(BlobId blob) { blob_ = blob; }

  /// Adds a media object; AlreadyExists on duplicate names,
  /// InvalidArgument if element numbers are not 0..n-1 in order or
  /// start times are not non-decreasing (Def. 3).
  Status AddObject(InterpretedObject object);

  const std::vector<InterpretedObject>& objects() const { return objects_; }

  Result<const InterpretedObject*> FindObject(const std::string& name) const;

  /// Verifies every placement lies within a BLOB of `blob_size` bytes.
  Status ValidateAgainstBlobSize(uint64_t blob_size) const;

  /// Reads a single element by element number (random access; the
  /// sequential expansion of an object, whole or over a span, is
  /// ElementStream in interp/streaming.h).
  Result<StreamElement> ReadElement(const BlobStore& store,
                                    const std::string& name,
                                    int64_t element_number) const;

  /// Constructs a new interpretation exposing only the named objects —
  /// the paper's "alternative view of the BLOB (e.g., only the audio
  /// sequence is visible)".
  Result<Interpretation> Restrict(
      const std::vector<std::string>& names) const;

  /// Total bytes covered by element placements, as a fraction of
  /// `blob_size` — everything else is padding or unreferenced data.
  double Coverage(uint64_t blob_size) const;

  void Serialize(BinaryWriter* writer) const;
  static Result<Interpretation> Deserialize(BinaryReader* reader);

 private:
  BlobId blob_ = kInvalidBlobId;
  std::vector<InterpretedObject> objects_;
};

}  // namespace tbm

#endif  // TBM_INTERP_INTERPRETATION_H_
