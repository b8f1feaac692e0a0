#ifndef TBM_SERVE_CONNECTION_H_
#define TBM_SERVE_CONNECTION_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "obs/trace.h"
#include "serve/framing.h"
#include "serve/protocol.h"
#include "serve/transport.h"

namespace tbm::serve {

class StreamHandle;

/// Client half of the multiplexed serve protocol: one connection
/// carries many concurrent streams, each opened with its own QoS
/// parameters and driven independently.
///
///   auto connection = Connect(std::move(transport));
///   auto stream = connection->OpenStream("concert", {.max_stride = 2});
///   while (auto batch = (*stream)->Read(8)) { ...; if (end) break; }
///   (*stream)->Close();
///
/// A background pump thread reads frames off the transport and demuxes
/// them to per-stream inboxes by stream id, so N threads can each
/// drive their own StreamHandle concurrently — the per-stream
/// discipline stays "one outstanding request", the connection-level
/// discipline does not. Writes are serialized internally.
///
/// Flow control: a stream opened with `StreamQos::window_bytes > 0`
/// grants the server that many bytes of READ payload in flight;
/// StreamHandle::Read replenishes the window automatically as batches
/// are consumed. A paused consumer therefore stalls only its own
/// stream — the server parks that stream's frames and keeps serving
/// the connection's other streams.
///
/// Every connection mints one trace id; each round trip records a
/// client-side span in that trace and ships the context to the
/// server.
///
/// Thread safety: OpenStream / Telemetry / ok() may be called from any
/// thread. A StreamHandle must not outlive its Connection.
class Connection {
 public:
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Opens a new multiplexed stream on the named catalog media object.
  /// The server's admission decision comes back in `info().stride`
  /// (> 1 = admitted degraded). Fails without disturbing other
  /// streams if the server denies admission.
  Result<std::unique_ptr<StreamHandle>> OpenStream(
      const std::string& object_name, StreamQos qos = {});

  /// Point-in-time copy of the server's metrics registry. Needs no
  /// open stream; serialized internally.
  Result<obs::MetricsSnapshot> Telemetry();

  /// OK while the transport and pump are healthy; the first transport
  /// error (or server hangup) sticks and fails every in-flight and
  /// future round trip with it.
  Status ok() const;

  /// The trace id this connection's round-trip spans record into
  /// (0 in TBM_OBS_DISABLED builds).
  uint64_t trace_id() const { return trace_id_; }

 private:
  friend class StreamHandle;
  friend std::unique_ptr<Connection> Connect(
      std::unique_ptr<Transport> transport);

  /// One stream's response mailbox. The pump pushes decoded-frame
  /// payloads; the stream's driver thread pops them.
  struct Inbox {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Bytes> payloads;
  };

  explicit Connection(std::unique_ptr<Transport> transport);

  void Pump();
  void Fail(Status status);

  /// Sends one encoded wire frame (serialized against other writers).
  Status SendWire(Bytes wire);

  /// Sends `request` on stream `stream_id` and waits for the response
  /// frame on its inbox, wrapped in a client-side span carrying this
  /// connection's trace context. `payload_bytes`, if non-null,
  /// receives the response frame's payload size — the quantity flow
  /// control is denominated in.
  Result<Response> RoundTrip(uint64_t stream_id, Request request,
                             size_t* payload_bytes = nullptr);

  /// Sends a fire-and-forget request (WINDOW) on `stream_id`.
  Status SendOneWay(uint64_t stream_id, const Request& request);

  std::shared_ptr<Inbox> InboxFor(uint64_t stream_id);
  void ForgetStream(uint64_t stream_id);

  std::unique_ptr<Transport> transport_;
  const uint64_t trace_id_;

  std::mutex write_mu_;      ///< Serializes frame writes.
  std::mutex telemetry_mu_;  ///< One outstanding TELEMETRY at a time.

  mutable std::mutex mu_;  ///< Guards inboxes_, next_stream_id_, status_.
  std::map<uint64_t, std::shared_ptr<Inbox>> inboxes_;
  uint64_t next_stream_id_ = 1;  ///< 0 is the control pseudo-stream.
  Status status_;

  std::thread pump_;
};

/// Establishes a multiplexed client connection over `transport` and
/// starts its demux pump.
std::unique_ptr<Connection> Connect(std::unique_ptr<Transport> transport);

/// One open stream on a Connection: the client-side handle for a
/// server session. Synchronous and single-driver by design — one
/// outstanding request per stream keeps the session an ordered
/// pipeline; concurrency comes from opening more streams.
class StreamHandle {
 public:
  /// Closes the stream on the server (best effort) if still open.
  ~StreamHandle();

  StreamHandle(const StreamHandle&) = delete;
  StreamHandle& operator=(const StreamHandle&) = delete;

  /// Fetches the next batch (at most `max_elements`; the server may
  /// send fewer). `end_of_stream` marks the final batch. Replenishes
  /// the flow-control window for the consumed batch when the stream
  /// was opened with one.
  Result<ReadBatch> Read(uint64_t max_elements);

  /// Repositions to `element`; returns the server-confirmed position.
  Result<uint64_t> Seek(uint64_t element);

  /// Session counters and state as the server sees them.
  Result<SessionStatsWire> Stats();

  /// Ends the stream. Idempotent; the connection and its other
  /// streams stay usable.
  Status Close();

  /// Grants the server `bytes` of additional flow-control window.
  /// Read() does this automatically; manual credit is for consumers
  /// that want to open the window ahead of demand.
  Status GrantWindow(uint64_t bytes);

  const OpenInfo& info() const { return info_; }
  uint64_t stream_id() const { return stream_id_; }
  uint64_t session_id() const { return info_.session_id; }
  const StreamQos& qos() const { return qos_; }

 private:
  friend class Connection;

  StreamHandle(Connection* connection, uint64_t stream_id, StreamQos qos,
               OpenInfo info)
      : connection_(connection),
        stream_id_(stream_id),
        qos_(qos),
        info_(info) {}

  Connection* connection_;
  const uint64_t stream_id_;
  const StreamQos qos_;
  const OpenInfo info_;
  bool closed_ = false;
};

}  // namespace tbm::serve

#endif  // TBM_SERVE_CONNECTION_H_
