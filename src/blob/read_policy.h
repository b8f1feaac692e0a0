#ifndef TBM_BLOB_READ_POLICY_H_
#define TBM_BLOB_READ_POLICY_H_

#include <cstdint>

#include "base/buffer.h"
#include "base/bytes.h"
#include "base/result.h"
#include "base/status.h"

namespace tbm {

class BlobStore;
using BlobId = uint64_t;

/// Robustness policy for a single logical read against a BlobStore.
///
/// Playback consumes timed streams at a constant rate; a transient
/// store failure (a failed device read, a saturated device, an injected
/// fault) should cost a retry, not abort the whole presentation. A
/// ReadPolicy bounds that tolerance: up to `max_retries` re-attempts
/// with exponential backoff, all within a total `timeout_us` budget.
///
/// Retries apply only to *transient* errors: IOError and
/// ResourceExhausted. Definite errors — NotFound, OutOfRange,
/// InvalidArgument, Corruption — are returned immediately: retrying
/// cannot make a missing BLOB appear, and a re-read of a corrupt
/// stored BLOB returns the same bytes.
struct ReadPolicy {
  /// Re-attempts after the first failed read. 0 = fail fast.
  int max_retries = 0;

  /// Delay before the first retry, microseconds.
  double backoff_initial_us = 500.0;

  /// Multiplier applied to the delay after every retry.
  double backoff_multiplier = 2.0;

  /// Upper bound on a single backoff delay, microseconds.
  double backoff_max_us = 50'000.0;

  /// Total time budget for the read across all attempts and backoff
  /// sleeps, microseconds. 0 = unbounded. The budget is checked
  /// between attempts; a synchronous store read in progress is never
  /// interrupted, so the bound is approximate by one attempt.
  double timeout_us = 0.0;
};

/// Reads `range` of BLOB `id` from `store` under `policy`: transient
/// failures are retried with exponential backoff until they succeed,
/// the retry budget is exhausted, or the timeout expires. The returned
/// error is the last attempt's, with retry context prepended.
///
/// Retry counts land in the obs registry ("blob.read_retries",
/// "blob.read_gave_up").
Result<BufferSlice> ReadWithPolicy(const BlobStore& store, BlobId id,
                                   ByteRange range, const ReadPolicy& policy);

}  // namespace tbm

#endif  // TBM_BLOB_READ_POLICY_H_
