#ifndef TBM_SERVE_SESSION_H_
#define TBM_SERVE_SESSION_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "blob/blob_store.h"
#include "interp/interpretation.h"
#include "interp/streaming.h"
#include "obs/flight.h"
#include "serve/protocol.h"

namespace tbm::serve {

/// Per-client state machine of the media service:
///
///   OPEN -> ADMITTED -> STREAMING -> { DONE, DEGRADED, EVICTED }
///
/// A session is created only after admission control books its rate
/// (so OPEN -> ADMITTED happens at construction) and reads its one
/// interpreted object through one ElementStream, whatever its stride
/// and however it got to its position: chunked reads with asynchronous
/// readahead on the server's I/O pool, the retry policy absorbing
/// transient store faults. A SEEK or a degrade repositions the stream
/// (a new start element, or a doubled stride), which drops its chunk
/// window; the stream then reads only the chunks its selected elements
/// touch. Degrading halves the bytes sent; the bytes read fall with the
/// stride only once the selected elements are more than a chunk apart.
/// Below that, a strided session still reads every chunk, in fewer and
/// larger reads than one read per element (DESIGN.md §11 measures it).
///
/// An element read that still fails after retries is skipped, not
/// fatal — the session completes with `elements_skipped` > 0 and ends
/// DEGRADED instead of DONE. Sessions are driven by one server
/// handler at a time; only `state()`, `trace_id()` and the
/// mutex-guarded flight recorder are safe to use concurrently.
class Session {
 public:
  struct Config {
    uint32_t stride = 1;
    double booked_bytes_per_second = 0.0;
    /// Identity of the multiplexed stream this session serves: the
    /// server connection and the stream id within it. Flight-recorder
    /// labels and dumps are keyed by these, so an eviction post-mortem
    /// names the stream, not just the socket. 0/0 = standalone (tests
    /// that drive a Session directly).
    uint64_t connection_id = 0;
    uint64_t stream_id = 0;
    /// Read options for the session's element stream. `pool` should be
    /// the server's I/O pool (not its worker pool — handler tasks block
    /// on reads, so sharing one pool would deadlock).
    StreamReadOptions read_options;
  };

  /// Opens a session on `interpretation`'s object `stream_name`.
  /// `store` must outlive the session; the session's element stream
  /// copies the placement table.
  static Result<std::unique_ptr<Session>> Create(
      uint64_t id, std::string object_name, const BlobStore* store,
      const Interpretation& interpretation, const std::string& stream_name,
      Config config);

  uint64_t id() const { return id_; }
  uint64_t connection_id() const { return config_.connection_id; }
  uint64_t stream_id() const { return config_.stream_id; }
  const std::string& object_name() const { return object_name_; }
  SessionState state() const {
    return state_.load(std::memory_order_acquire);
  }
  uint32_t stride() const { return stream_->stride(); }
  bool degraded() const { return degraded_; }
  double booked_bytes_per_second() const { return booked_; }
  void set_booked_bytes_per_second(double rate) { booked_ = rate; }

  uint64_t element_count() const { return stream_->size(); }
  uint64_t payload_bytes() const { return stream_->object().PayloadBytes(); }

  /// Adopts the client's trace id (from OPEN's trace context), so the
  /// session's flight-recorder dumps can name the trace to pull up in
  /// the merged timeline. 0 = no cross-boundary trace.
  void AdoptTrace(uint64_t trace_id);
  uint64_t trace_id() const { return trace_id_; }

  /// The session's flight recorder: recent state transitions, faults,
  /// degradations, slow reads. The server adds its own events (e.g.
  /// deadline misses) through this.
  obs::FlightRecorder* flight() { return &flight_; }

  /// Flight-recorder dump for this session, headed by its identity
  /// (id, object, state, stride, trace id) and `cause`.
  std::string DumpFlight(std::string_view cause) const;

  /// Delivers up to `max_elements` next elements (also bounded by a
  /// 4 MiB byte cap, which a single larger element may exceed alone),
  /// advancing the session by its stride. Sets `end_of_stream` — and
  /// moves the session to its terminal DONE / DEGRADED state — when the
  /// last element has been delivered.
  /// Returns FailedPrecondition once the session is terminal.
  Result<ReadBatch> ReadNext(uint64_t max_elements);

  /// Repositions the element stream to `element` (OutOfRange past the
  /// end), keeping the stride.
  Result<uint64_t> SeekTo(uint64_t element);

  /// Halves the session's fidelity: repositions the element stream at
  /// the current element with a doubled stride. The caller re-books the
  /// admission ledger. The session will finish DEGRADED.
  void Degrade();

  /// Terminal transition for server-initiated removal (slow client,
  /// shutdown). Irreversible. `cause` must have static storage
  /// duration (a literal); it lands in the flight recorder.
  void MarkEvicted(const char* cause = "server-initiated eviction");

  /// Client closed before the stream ended: terminal DONE/DEGRADED at
  /// whatever position it reached. No-op if already terminal.
  void MarkClosed();

  SessionStatsWire StatsWire() const;

 private:
  Session(uint64_t id, std::string object_name,
          std::unique_ptr<ElementStream> stream, Config config);

  bool Terminal() const {
    SessionState s = state();
    return s == SessionState::kDone || s == SessionState::kDegraded ||
           s == SessionState::kEvicted;
  }

  /// Moves to the terminal completed state (DONE, or DEGRADED when
  /// fidelity was reduced or elements were skipped).
  void Finish();

  const uint64_t id_;
  const std::string object_name_;
  Config config_;

  std::atomic<SessionState> state_{SessionState::kAdmitted};
  bool degraded_ = false;
  double booked_ = 0.0;
  uint64_t trace_id_ = 0;
  obs::FlightRecorder flight_;

  /// The session's only reader; its position() is the next element to
  /// deliver and its stride() the session's.
  const std::unique_ptr<ElementStream> stream_;

  uint64_t delivered_ = 0;
  uint64_t skipped_ = 0;
  uint64_t bytes_sent_ = 0;
};

}  // namespace tbm::serve

#endif  // TBM_SERVE_SESSION_H_
