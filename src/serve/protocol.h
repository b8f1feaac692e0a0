#ifndef TBM_SERVE_PROTOCOL_H_
#define TBM_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "base/buffer.h"
#include "base/bytes.h"
#include "base/io.h"
#include "base/result.h"
#include "base/status.h"
#include "obs/metrics.h"

namespace tbm::serve {

/// Wire protocol of the media service: length-prefixed binary frames
/// carrying one request or response each. A frame is
///
///   u32 payload length (little-endian) | payload
///
/// and the payload is a BinaryWriter encoding (LEB128 varints,
/// length-prefixed strings) of one of the message structs below. The
/// protocol is deliberately session-synchronous — one outstanding
/// request per connection — because a continuous-media session is a
/// pipeline, not an RPC fan-out: ordering is the contract.

/// Frames larger than this are rejected before allocation — the guard
/// against a malformed or hostile length prefix.
inline constexpr uint32_t kMaxFrameBytes = 64u << 20;

/// Request verbs.
enum class RequestType : uint8_t {
  kOpen = 1,   ///< Open a session on a named media object.
  kRead = 2,   ///< Deliver the next batch of elements.
  kSeek = 3,   ///< Reposition to an element number.
  kStats = 4,  ///< Session counters and state.
  kClose = 5,  ///< End the session.
  kTelemetry = 6,  ///< Server-wide metrics snapshot (no session needed).
  /// One-way flow-control credit (streams opened with a window only):
  /// grants the server `window_delta` more bytes of READ data on this
  /// stream. The server never responds to WINDOW — it is pure credit,
  /// not an RPC — so it rides alongside the one-outstanding-request-
  /// per-stream discipline rather than inside it.
  kWindow = 7,
};

std::string_view RequestTypeToString(RequestType type);

/// Cross-boundary trace context carried on a request: the client's
/// trace id and the span the server-side work should parent into.
/// trace_id 0 means "absent" (e.g. the client was built with
/// TBM_OBS_DISABLED), so presence costs nothing on the wire.
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t parent_span_id = 0;

  bool present() const { return trace_id != 0; }
};

/// Per-stream quality-of-service parameters, carried on OPEN as
/// extension tag 2 (`varint max_stride | varint window_bytes`).
/// Everything here defaults to "server decides": an OPEN without the
/// extension gets the server's stride ladder and no flow-control
/// window. Every stream's data frames share one round-robin per
/// connection; a stream's service level is its admitted data rate.
struct StreamQos {
  /// Deepest stride the client will accept before it would rather be
  /// denied. 0 = server's configured ladder (ServeConfig::max_stride).
  uint32_t max_stride = 0;
  /// Initial flow-control window, bytes of READ payload the server
  /// may have in flight before it must wait for WINDOW credits.
  /// 0 = no flow control: READ data is sent as soon as it is ready.
  uint64_t window_bytes = 0;

  bool present() const { return max_stride != 0 || window_bytes != 0; }
};

/// One client request. Only the fields for `type` are meaningful.
///
/// After the per-type fields, a request payload may carry an
/// *extension block*: repeated `u8 tag | length-prefixed body` pairs.
/// Decoders skip unknown tags (forward compatibility: an old server
/// ignores extensions a new client sends), and reject tag 0 and
/// truncated bodies as corruption. Tag 1 is the trace context, tag 2
/// the per-stream QoS parameters on OPEN.
struct Request {
  RequestType type = RequestType::kStats;
  uint64_t session_id = 0;   ///< 0 until OPEN assigns one.
  std::string object_name;   ///< kOpen: catalog name of the media object.
  uint64_t max_elements = 1; ///< kRead: batch size cap.
  uint64_t target_element = 0;  ///< kSeek: element number to resume at.
  uint64_t window_delta = 0;    ///< kWindow: flow-control credit, bytes.
  TraceContext trace;        ///< Extension tag 1; encoded only if present().
  StreamQos qos;             ///< Extension tag 2; encoded only if present().
};

/// Session lifecycle (the serve state machine). OPEN connections
/// advance ADMITTED -> STREAMING and end in exactly one terminal
/// state: DONE (every element delivered at admitted fidelity),
/// DEGRADED (completed, but at reduced fidelity — a coarser stride or
/// skipped elements), or EVICTED (removed by the server: the client
/// was too slow or vanished).
enum class SessionState : uint8_t {
  kOpen = 0,
  kAdmitted = 1,
  kStreaming = 2,
  kDone = 3,
  kDegraded = 4,
  kEvicted = 5,
};

std::string_view SessionStateToString(SessionState state);

/// One delivered element: its number, timing, and payload bytes. On
/// the server the payload aliases the chunk the element stream read,
/// so its bytes are first copied when the response is encoded.
struct WireElement {
  uint64_t element_number = 0;
  int64_t start = 0;     ///< Start time, ticks of the object's time system.
  int64_t duration = 0;  ///< Duration in ticks.
  BufferSlice payload;
};

/// OPEN response body.
struct OpenInfo {
  uint64_t session_id = 0;
  uint64_t element_count = 0;   ///< Elements in the object.
  uint64_t payload_bytes = 0;   ///< Total media bytes at full fidelity.
  uint32_t stride = 1;          ///< Admitted stride (1 = full fidelity).
  double booked_bytes_per_second = 0.0;
};

/// READ response body.
struct ReadBatch {
  std::vector<WireElement> elements;
  bool end_of_stream = false;
  uint32_t stride = 1;  ///< Stride in force (may coarsen mid-session).
};

/// STATS response body.
struct SessionStatsWire {
  SessionState state = SessionState::kOpen;
  uint64_t elements_delivered = 0;
  uint64_t elements_skipped = 0;  ///< Read failures skipped past.
  uint64_t bytes_sent = 0;
  uint32_t stride = 1;
};

/// One server response: the echoed request type, a status, and — when
/// the status is OK — the body for that request type.
struct Response {
  RequestType type = RequestType::kStats;
  Status status;
  OpenInfo open;
  ReadBatch read;
  uint64_t seek_position = 0;
  SessionStatsWire stats;
  /// kTelemetry: point-in-time copy of the server's metrics registry.
  /// MetricsSnapshot is plain data in both build modes, so a disabled
  /// client can still decode an enabled server's telemetry.
  obs::MetricsSnapshot telemetry;
};

/// Serializes a request / response into a frame *payload* (no length
/// prefix; the transport layer frames it).
Bytes EncodeRequest(const Request& request);
Bytes EncodeResponse(const Response& response);

/// Parses a frame payload. Corruption on truncated or over-long
/// input, InvalidArgument on unknown enum values — a malformed frame
/// never crashes the peer.
Result<Request> DecodeRequest(ByteSpan payload);
Result<Response> DecodeResponse(ByteSpan payload);

}  // namespace tbm::serve

#endif  // TBM_SERVE_PROTOCOL_H_
