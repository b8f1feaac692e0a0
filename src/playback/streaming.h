#ifndef TBM_PLAYBACK_STREAMING_H_
#define TBM_PLAYBACK_STREAMING_H_

#include <string>
#include <vector>

#include "blob/blob_store.h"
#include "interp/streaming.h"
#include "playback/admission.h"
#include "playback/simulator.h"

namespace tbm {

/// Outcome of a streamed playback run: the simulator's report plus the
/// read-side counters that only exist on the streaming path.
struct StreamedPlaybackReport {
  PlaybackReport playback;

  /// One entry per played object, in argument order.
  std::vector<ElementStreamStats> read_stats;

  /// Wall time spent delivering elements from the store (the span the
  /// prefetcher can hide I/O inside).
  uint64_t fetch_wall_us = 0;

  /// Elements dropped because their read failed even after the
  /// ReadPolicy's retries. Playback continues without them — a missing
  /// frame is a glitch, not an abort (the paper's soft deadlines).
  uint64_t elements_skipped = 0;
};

/// Rate profile computed from an object's placement table alone — no
/// media bytes are read. This is the metadata-only path admission
/// control wants: element sizes and start times live in the
/// interpretation, so a server can book a session before touching the
/// BLOB.
RateProfile MeasureRateProfileFromPlacements(const InterpretedObject& object);

/// Plays the named objects through the discrete-event simulator,
/// fetching every element via an ElementStream (chunked reads with
/// asynchronous readahead per `read_options`). Element read failures
/// are skipped, not fatal; `elements_skipped` counts them.
Result<StreamedPlaybackReport> PlayStreamed(
    const BlobStore& store, const Interpretation& interpretation,
    const std::vector<std::string>& names, const PlaybackConfig& config = {},
    const StreamReadOptions& read_options = {});

}  // namespace tbm

#endif  // TBM_PLAYBACK_STREAMING_H_
