#include "serve/server.h"

#include <algorithm>
#include <array>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <limits>
#include <utility>

#include "base/macros.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "playback/streaming.h"

namespace tbm::serve {

namespace {

/// Server-side cap on elements per READ response.
constexpr uint64_t kReadBatchCap = 64;

/// Worker-queue depth beyond which the server is under pressure: new
/// streams are admitted pre-degraded (stride >= 2) so existing ones keep
/// their fidelity.
constexpr int kQueueHighWatermark = 32;

/// Most recent flight-recorder dumps the server retains.
constexpr size_t kFlightDumpCap = 32;

/// Process-wide serve metrics.
struct ServeMetrics {
  obs::Gauge* sessions;     ///< Open streams (one session each).
  obs::Gauge* connections;  ///< Adopted transports.
  obs::Counter* admitted;
  obs::Counter* denied;
  obs::Counter* degraded;
  obs::Counter* evicted;
  obs::Histogram* request_us;
  /// Requests queued behind a stream's outstanding worker task at the
  /// moment they arrive — the per-stream backlog, the multiplexed
  /// successor of the old per-connection queue-depth signal.
  obs::Histogram* stream_queue_depth;

  static const ServeMetrics& Get() {
    static const ServeMetrics metrics = [] {
      auto& registry = obs::Registry::Global();
      return ServeMetrics{registry.gauge("serve.sessions"),
                          registry.gauge("serve.connections"),
                          registry.counter("serve.admitted"),
                          registry.counter("serve.denied"),
                          registry.counter("serve.degraded"),
                          registry.counter("serve.evicted"),
                          registry.histogram("serve.request_us"),
                          registry.histogram("serve.stream_queue_depth")};
    }();
    return metrics;
  }
};

/// Per-QoS-class SLO instruments, labeled `{qos=<class>}` in the
/// registry. A class is the stream's stride tier: s1 is full
/// fidelity, s2/s4/s8 the degradation ladder, s16plus anything
/// coarser — so a dashboard shows whether degraded streams still
/// meet their (reduced) contracts, not just a blended average.
struct QosSlice {
  obs::Counter* admitted;
  obs::Counter* degraded;
  obs::Counter* evicted;
  obs::Counter* deadline_miss;
  obs::Counter* read_bytes;
  obs::Histogram* read_us;  ///< READ receipt -> response sent, µs.
};

const QosSlice& QosForStride(uint32_t stride) {
  static constexpr const char* kClasses[] = {"s1", "s2", "s4", "s8",
                                             "s16plus"};
  static const std::array<QosSlice, 5> slices = [] {
    auto& registry = obs::Registry::Global();
    std::array<QosSlice, 5> out;
    for (size_t i = 0; i < out.size(); ++i) {
      const char* qos = kClasses[i];
      out[i] = QosSlice{registry.counter("serve.admitted", "qos", qos),
                        registry.counter("serve.degraded", "qos", qos),
                        registry.counter("serve.evicted", "qos", qos),
                        registry.counter("serve.deadline_miss", "qos", qos),
                        registry.counter("serve.read_bytes", "qos", qos),
                        registry.histogram("serve.read_us", "qos", qos)};
    }
    return out;
  }();
  if (stride <= 1) return slices[0];
  if (stride == 2) return slices[1];
  if (stride <= 4) return slices[2];
  if (stride <= 8) return slices[3];
  return slices[4];
}

const char* ServerSpanName(RequestType type) {
  switch (type) {
    case RequestType::kOpen:
      return "serve.open";
    case RequestType::kRead:
      return "serve.read";
    case RequestType::kSeek:
      return "serve.seek";
    case RequestType::kStats:
      return "serve.stats";
    case RequestType::kClose:
      return "serve.close";
    case RequestType::kTelemetry:
      return "serve.telemetry";
    case RequestType::kWindow:
      return "serve.window";
  }
  return "serve.request";
}

uint64_t ElapsedUsSince(int64_t start_ns) {
  return static_cast<uint64_t>(
             std::max<int64_t>(0, obs::NowTicksNs() - start_ns)) /
         1000;
}

}  // namespace

// ---------------------------------------------------------------------------
// ByteBudget

ByteBudget::ByteBudget(double rate, uint64_t burst)
    : rate_(rate),
      burst_(static_cast<double>(burst)),
      tokens_(static_cast<double>(burst)),
      last_(std::chrono::steady_clock::now()) {}

void ByteBudget::Refill() {
  auto now = std::chrono::steady_clock::now();
  double elapsed = std::chrono::duration<double>(now - last_).count();
  last_ = now;
  tokens_ = std::min(burst_, tokens_ + elapsed * rate_);
}

bool ByteBudget::TryAcquire(uint64_t bytes) {
  if (rate_ <= 0) return true;
  std::lock_guard<std::mutex> lock(mu_);
  Refill();
  double cost = static_cast<double>(bytes);
  if (tokens_ < cost) return false;
  tokens_ -= cost;
  return true;
}

void ByteBudget::ForceAcquire(uint64_t bytes) {
  if (rate_ <= 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  Refill();
  tokens_ -= static_cast<double>(bytes);
}

// ---------------------------------------------------------------------------
// MediaServer::Connection

/// One adopted connection: the transport, inbound frame assembly, the
/// outbound writer, and the stream table. Everything here is owned by
/// the reactor loop thread; the struct doubles as the reactor handler
/// for its transport.
struct MediaServer::Connection final : Reactor::Handler {
  MediaServer* server = nullptr;
  uint64_t id = 0;          ///< Key in connections_.
  uint64_t reactor_id = 0;  ///< Registration with the reactor.
  std::shared_ptr<Transport> transport;
  FrameAssembler assembler;
  FrameWriter writer;
  std::map<uint64_t, std::unique_ptr<Stream>> streams;
  /// Round-robin of streams with queued data frames, each id at most
  /// once. Entries may be stale (stream removed since enqueue); the
  /// scheduler validates on pop.
  std::deque<uint64_t> rr;
  uint32_t interest = kTransportReadable;
  bool pace_timer_armed = false;
  /// Write-progress tracking for slow-client detection: bytes the
  /// writer has handed to the transport, and the last sweep's marker.
  uint64_t total_flushed = 0;
  uint64_t progress_marker = 0;
  std::chrono::steady_clock::time_point progress_stamp{};

  void OnReadable() override { server->OnConnReadable(this); }
  void OnWritable() override { server->OnConnWritable(this); }
};

// ---------------------------------------------------------------------------
// MediaServer

MediaServer::MediaServer(const MediaDatabase* db, ServeConfig config)
    : db_(db),
      config_(config),
      admission_(config.capacity_bytes_per_second,
                 AdmissionController::Policy::kAverageRate),
      budget_(config.capacity_bytes_per_second,
              static_cast<uint64_t>(
                  std::max(1.0, config.capacity_bytes_per_second / 4))),
      worker_pool_(std::max(1, config.worker_threads)),
      io_pool_(std::max(1, config.io_threads)) {
  config_.read_options.pool = &io_pool_;
  // The stall sweep re-arms itself for the server's lifetime; it is
  // the slow-client detector (the reactor never blocks on a send).
  auto sweep = std::max<std::chrono::milliseconds>(
      std::chrono::milliseconds(10), config_.stall_timeout / 4);
  reactor_.PostDelayed(sweep, [this] { CheckStalls(); });
}

MediaServer::~MediaServer() { Stop(); }

Status MediaServer::Serve(std::unique_ptr<Transport> transport) {
  if (stopping_.load(std::memory_order_acquire)) {
    transport->Close();
    return Status::FailedPrecondition("server is stopping");
  }
  size_t cap = config_.max_connections != 0 ? config_.max_connections
                                            : config_.max_sessions;
  if (active_connections_.fetch_add(1) >= cap) {
    active_connections_.fetch_sub(1);
    transport->Close();
    return Status::ResourceExhausted("connection table full (" +
                                     std::to_string(cap) + ")");
  }
  // The transport crosses to the loop thread in a shared_ptr because
  // std::function requires copyable captures; Connection takes it over.
  std::shared_ptr<Transport> shared(std::move(transport));
  reactor_.Post([this, shared] {
    if (stopping_.load(std::memory_order_acquire)) {
      shared->Close();
      active_connections_.fetch_sub(1);
      return;
    }
    auto conn = std::make_unique<Connection>();
    conn->server = this;
    conn->id = next_conn_id_.fetch_add(1);
    conn->transport = shared;
    Connection* raw = conn.get();
    connections_[raw->id] = std::move(conn);
    ServeMetrics::Get().connections->Add(1);
    raw->reactor_id =
        reactor_.Register(raw->transport.get(), raw, raw->interest);
  });
  return Status::OK();
}

void MediaServer::Stop() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) {
    reactor_.Stop();
    return;
  }
  // Tear every connection down on the loop, then stop the loop.
  struct Latch {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
  };
  auto latch = std::make_shared<Latch>();
  reactor_.Post([this, latch] {
    std::vector<uint64_t> ids;
    ids.reserve(connections_.size());
    for (const auto& [id, conn] : connections_) ids.push_back(id);
    for (uint64_t id : ids) {
      auto it = connections_.find(id);
      if (it != connections_.end()) {
        TeardownConnection(it->second.get(), "server stopping");
      }
    }
    {
      std::lock_guard<std::mutex> lock(latch->mu);
      latch->done = true;
    }
    latch->cv.notify_all();
  });
  {
    std::unique_lock<std::mutex> lock(latch->mu);
    latch->cv.wait(lock, [&] { return latch->done; });
  }
  reactor_.Stop();
}

// ---------------------------------------------------------------------------
// Inbound path (loop thread)

void MediaServer::OnConnReadable(Connection* conn) {
  uint8_t buf[16384];
  for (;;) {
    auto n = conn->transport->ReadSome(buf, sizeof(buf));
    if (!n.ok()) {
      // EOF or connection error: streams still open did not finish.
      TeardownConnection(conn, "connection lost before end of stream");
      return;
    }
    if (*n == 0) break;  // Drained for now.
    conn->assembler.Ingest(ByteSpan(buf, *n));
    for (;;) {
      auto next = conn->assembler.Next();
      if (!next.ok()) {
        // Unframeable byte stream (hostile or corrupt input): there
        // is no frame boundary to resynchronize on. Drop the client.
        TeardownConnection(conn, "unframeable input");
        return;
      }
      if (!next->has_value()) break;
      if (!ProcessFrame(conn, std::move(**next))) return;
    }
  }
  PumpWrites(conn);
}

void MediaServer::OnConnWritable(Connection* conn) { PumpWrites(conn); }

bool MediaServer::ProcessFrame(Connection* conn, Frame frame) {
  stat_requests_.fetch_add(1);
  int64_t received_ns = obs::NowTicksNs();
  const uint64_t sid = frame.header.stream_id;

  auto decoded = DecodeRequest(frame.payload);
  if (!decoded.ok()) {
    // Malformed payload on an intact frame boundary: report on the
    // stream, keep the connection.
    Response response;
    response.status = decoded.status();
    EnqueueControl(conn, sid, response, received_ns);
    return true;
  }
  Request request = std::move(*decoded);

  switch (request.type) {
    case RequestType::kWindow: {
      // One-way flow-control credit: never queued behind a busy
      // stream, never answered. Unknown or uncontrolled streams
      // ignore it (the client may credit a stream the server already
      // closed — that is a race, not an error).
      auto it = conn->streams.find(sid);
      if (it != conn->streams.end() && it->second->flow_controlled) {
        Stream* stream = it->second.get();
        int64_t delta = request.window_delta >
                                static_cast<uint64_t>(
                                    std::numeric_limits<int64_t>::max())
                            ? std::numeric_limits<int64_t>::max()
                            : static_cast<int64_t>(request.window_delta);
        if (stream->window > std::numeric_limits<int64_t>::max() - delta) {
          stream->window = std::numeric_limits<int64_t>::max();
        } else {
          stream->window += delta;
        }
        stream->stall_since = {};
        if (!stream->data_frames.empty()) EnterRoundRobin(conn, stream);
      }
      return true;
    }
    case RequestType::kTelemetry: {
      // Needs no stream: a scraper connects, asks, and hangs up.
      const TraceContext& trace = request.trace;
      obs::ScopedSpan span(ServerSpanName(request.type), trace.trace_id,
                           trace.present() ? trace.parent_span_id : 0);
      Response response;
      response.type = RequestType::kTelemetry;
      response.telemetry = obs::Registry::Global().Snapshot();
      EnqueueControl(conn, sid, response, received_ns);
      return true;
    }
    case RequestType::kOpen: {
      Response response;
      response.type = RequestType::kOpen;
      if (conn->streams.count(sid) != 0) {
        response.status = Status::InvalidArgument("duplicate stream id " +
                                                  std::to_string(sid));
        EnqueueControl(conn, sid, response, received_ns);
        return true;
      }
      if (conn->streams.size() >= config_.max_streams_per_connection) {
        response.status = Status::ResourceExhausted(
            "stream table full (" +
            std::to_string(config_.max_streams_per_connection) +
            " per connection)");
        EnqueueControl(conn, sid, response, received_ns);
        return true;
      }
      if (active_streams_.load() >= config_.max_sessions) {
        stat_denied_.fetch_add(1);
        ServeMetrics::Get().denied->Add();
        response.status = Status::ResourceExhausted(
            "session table full (" + std::to_string(config_.max_sessions) +
            ")");
        EnqueueControl(conn, sid, response, received_ns);
        return true;
      }
      auto stream = std::make_unique<Stream>();
      stream->id = sid;
      stream->flow_controlled = request.qos.window_bytes > 0;
      stream->window = static_cast<int64_t>(
          std::min<uint64_t>(request.qos.window_bytes,
                             std::numeric_limits<int64_t>::max()));
      stream->busy = true;  // The OPEN worker task is the first driver.
      conn->streams[sid] = std::move(stream);
      active_streams_.fetch_add(1);
      uint64_t conn_id = conn->id;
      worker_pool_.Submit([this, conn_id, sid, request = std::move(request),
                           received_ns]() mutable {
        RunOpen(conn_id, sid, std::move(request), received_ns);
      });
      return true;
    }
    default: {
      auto it = conn->streams.find(sid);
      if (it == conn->streams.end()) {
        Response response;
        response.type = request.type;
        if (request.type != RequestType::kClose) {
          response.status = Status::FailedPrecondition("no open session");
        }  // Closing an unopened stream is a no-op.
        EnqueueControl(conn, sid, response, received_ns);
        return true;
      }
      ExecuteOrQueue(conn, it->second.get(), std::move(request), received_ns);
      return true;
    }
  }
}

void MediaServer::ExecuteOrQueue(Connection* conn, Stream* stream,
                                 Request request, int64_t received_ns) {
  if (stream->busy) {
    // Sessions are single-driver: one outstanding worker task per
    // stream. Later requests wait their turn here.
    stream->pending.emplace_back(std::move(request), received_ns);
    ServeMetrics::Get().stream_queue_depth->Record(stream->pending.size());
    return;
  }
  Execute(conn, stream, request, received_ns);
}

void MediaServer::Execute(Connection* conn, Stream* stream,
                          const Request& request, int64_t received_ns) {
  Response response;
  response.type = request.type;
  Session* session = stream->session.get();

  // Every post-OPEN verb must address the session on this stream.
  if (session != nullptr && request.session_id != 0 &&
      request.session_id != session->id()) {
    response.status = Status::InvalidArgument(
        "session id " + std::to_string(request.session_id) +
        " does not match this connection's session " +
        std::to_string(session->id()));
    EnqueueControl(conn, stream->id, response, received_ns);
    return;
  }

  const TraceContext& trace = request.trace;
  switch (request.type) {
    case RequestType::kRead: {
      if (session == nullptr) {
        response.status = Status::FailedPrecondition("no open session");
        EnqueueControl(conn, stream->id, response, received_ns);
        return;
      }
      uint64_t max_elements = std::clamp<uint64_t>(request.max_elements, 1,
                                                   kReadBatchCap);
      stream->busy = true;
      worker_pool_.Submit([this, conn_id = conn->id, sid = stream->id,
                           session = stream->session, max_elements, trace,
                           received_ns] {
        RunRead(conn_id, sid, session, max_elements, trace, received_ns);
      });
      return;
    }
    case RequestType::kSeek: {
      obs::ScopedSpan span(ServerSpanName(request.type), trace.trace_id,
                           trace.present() ? trace.parent_span_id : 0);
      if (session == nullptr) {
        response.status = Status::FailedPrecondition("no open session");
      } else {
        auto position = session->SeekTo(request.target_element);
        if (!position.ok()) {
          response.status = position.status();
        } else {
          response.seek_position = *position;
        }
      }
      EnqueueControl(conn, stream->id, response, received_ns);
      return;
    }
    case RequestType::kStats: {
      obs::ScopedSpan span(ServerSpanName(request.type), trace.trace_id,
                           trace.present() ? trace.parent_span_id : 0);
      if (session == nullptr) {
        response.status = Status::FailedPrecondition("no open session");
      } else {
        response.stats = session->StatsWire();
      }
      EnqueueControl(conn, stream->id, response, received_ns);
      return;
    }
    case RequestType::kClose: {
      obs::ScopedSpan span(ServerSpanName(request.type), trace.trace_id,
                           trace.present() ? trace.parent_span_id : 0);
      if (session != nullptr) {
        session->MarkClosed();
      }
      // The OK lands on the wire before the stream entry (and any
      // still-queued data frames) is dropped.
      EnqueueControl(conn, stream->id, response, received_ns);
      RemoveStream(conn, stream->id, "client closed", /*evict=*/false);
      return;  // `stream` is gone.
    }
    default: {
      // OPEN never reaches Execute (handled at ProcessFrame); WINDOW
      // and TELEMETRY are never queued.
      response.status = Status::Internal("unhandled request type");
      EnqueueControl(conn, stream->id, response, received_ns);
      return;
    }
  }
}

void MediaServer::DrainPending(Connection* conn, Stream* stream) {
  uint64_t sid = stream->id;
  for (;;) {
    auto it = conn->streams.find(sid);
    if (it == conn->streams.end()) return;  // A pending CLOSE removed it.
    Stream* s = it->second.get();
    if (s->busy || s->pending.empty()) return;
    auto [request, received_ns] = std::move(s->pending.front());
    s->pending.pop_front();
    Execute(conn, s, request, received_ns);
  }
}

// ---------------------------------------------------------------------------
// Worker tasks

void MediaServer::RunOpen(uint64_t conn_id, uint64_t stream_id,
                          Request request, int64_t received_ns) {
  // The server-side span adopts the client's trace context when
  // present, so a merged collection shows server work nested inside
  // client wait.
  const TraceContext& trace = request.trace;
  obs::ScopedSpan span(ServerSpanName(RequestType::kOpen), trace.trace_id,
                       trace.present() ? trace.parent_span_id : 0);
  obs::ScopedTimerUs timer(ServeMetrics::Get().request_us);

  Response response;
  response.type = RequestType::kOpen;
  std::shared_ptr<Session> session;
  std::string admission_key;

  do {
    // Resolve the catalog name to an interpreted object.
    auto object_id = db_->FindByName(request.object_name);
    if (!object_id.ok()) {
      response.status = object_id.status();
      break;
    }
    auto entry = db_->Get(*object_id);
    if (!entry.ok()) {
      response.status = entry.status();
      break;
    }
    if ((*entry)->kind != CatalogKind::kMediaObject) {
      response.status = Status::InvalidArgument(
          "\"" + request.object_name + "\" is a " +
          std::string(CatalogKindToString((*entry)->kind)) +
          ", not a media object");
      break;
    }
    auto interp_entry = db_->Get((*entry)->interpretation_ref);
    if (!interp_entry.ok()) {
      response.status = interp_entry.status();
      break;
    }
    const Interpretation& interpretation = (*interp_entry)->interpretation;
    auto object = interpretation.FindObject((*entry)->stream_name);
    if (!object.ok()) {
      response.status = object.status();
      break;
    }

    // Metadata-only admission: the rate profile comes from the
    // placement table; no media bytes are read to decide.
    RateProfile profile = MeasureRateProfileFromPlacements(**object);

    // Pressure-aware ladder: when the worker queue is backed up, new
    // streams start pre-degraded so existing ones keep their fidelity.
    int base_stride = 1;
    if (worker_pool_.queue_depth() > kQueueHighWatermark) {
      base_stride = 2;
    }
    // The stream's QoS caps how deep the ladder may go: a stream that
    // asked for at most stride 2 is denied rather than opened at 4.
    int max_stride = std::max(1, config_.max_stride);
    if (request.qos.max_stride != 0) {
      max_stride = std::min<int>(
          max_stride, static_cast<int>(std::max<uint64_t>(
                          1, request.qos.max_stride)));
    }
    RateProfile ladder = profile;
    ladder.average_bytes_per_second /= base_stride;
    ladder.peak_bytes_per_second /= base_stride;

    uint64_t session_id = next_session_id_.fetch_add(1);
    std::string key = "s" + std::to_string(session_id);
    AdmissionController::AdmitDecision decision;
    {
      std::lock_guard<std::mutex> lock(admission_mu_);
      auto admitted = admission_.AdmitDegrading(
          key, ladder, std::max(1, max_stride / base_stride));
      if (!admitted.ok()) {
        stat_denied_.fetch_add(1);
        ServeMetrics::Get().denied->Add();
        response.status = admitted.status();
        break;
      }
      decision = *admitted;
    }
    uint32_t stride = static_cast<uint32_t>(decision.stride * base_stride);

    Session::Config session_config;
    session_config.stride = stride;
    session_config.booked_bytes_per_second = decision.booked_bytes_per_second;
    session_config.connection_id = conn_id;
    session_config.stream_id = stream_id;
    session_config.read_options = config_.read_options;
    auto created =
        Session::Create(session_id, request.object_name, db_->blob_store(),
                        interpretation, (*entry)->stream_name, session_config);
    if (!created.ok()) {
      std::lock_guard<std::mutex> lock(admission_mu_);
      (void)admission_.Release(key);
      response.status = created.status();
      break;
    }
    session = std::shared_ptr<Session>(std::move(*created));
    admission_key = std::move(key);
    // The session remembers which client trace it serves, so its
    // flight-recorder dumps can name the timeline to pull up.
    session->AdoptTrace(request.trace.trace_id);

    stat_admitted_.fetch_add(1);
    ServeMetrics::Get().admitted->Add();
    ServeMetrics::Get().sessions->Add(1);
    QosForStride(stride).admitted->Add();
    if (stride > 1) {
      stat_degraded_.fetch_add(1);
      ServeMetrics::Get().degraded->Add();
      QosForStride(stride).degraded->Add();
    }

    response.open.session_id = session_id;
    response.open.element_count = session->element_count();
    response.open.payload_bytes = session->payload_bytes();
    response.open.stride = stride;
    response.open.booked_bytes_per_second = decision.booked_bytes_per_second;
  } while (false);

  reactor_.Post([this, conn_id, stream_id, response = std::move(response),
                 session = std::move(session),
                 admission_key = std::move(admission_key), received_ns] {
    FinishOpen(conn_id, stream_id, response, session, admission_key,
               received_ns);
  });
}

void MediaServer::RunRead(uint64_t conn_id, uint64_t stream_id,
                          std::shared_ptr<Session> session,
                          uint64_t max_elements, TraceContext trace,
                          int64_t received_ns) {
  obs::ScopedSpan span(ServerSpanName(RequestType::kRead), trace.trace_id,
                       trace.present() ? trace.parent_span_id : 0);
  obs::ScopedTimerUs timer(ServeMetrics::Get().request_us);
  Response response;
  response.type = RequestType::kRead;
  {
    obs::ScopedSpan read_span("serve.read_next");
    auto batch = session->ReadNext(max_elements);
    if (!batch.ok()) {
      response.status = batch.status();
    } else {
      response.read = std::move(*batch);
    }
  }
  OutFrame frame;
  frame.received_ns = received_ns;
  if (response.status.ok()) {
    // Encoded here, not on the loop thread, so the batch's payload
    // slices (and the chunks they pin) are released before the
    // completion is posted.
    Bytes payload = EncodeResponse(response);
    frame.payload_bytes = payload.size();
    frame.wire = EncodeFrame(FrameHeader{.stream_id = stream_id}, payload);
    frame.stride = response.read.stride;
    frame.end_of_stream = response.read.end_of_stream;
    response.read = ReadBatch{};
  }
  reactor_.Post([this, conn_id, stream_id, response = std::move(response),
                 frame = std::move(frame)]() mutable {
    FinishRead(conn_id, stream_id, std::move(response), std::move(frame));
  });
}

// ---------------------------------------------------------------------------
// Worker completions (loop thread)

void MediaServer::FinishOpen(uint64_t conn_id, uint64_t stream_id,
                             Response response,
                             std::shared_ptr<Session> session,
                             std::string admission_key, int64_t received_ns) {
  auto conn_it = connections_.find(conn_id);
  Connection* conn =
      conn_it != connections_.end() ? conn_it->second.get() : nullptr;
  Stream* stream = nullptr;
  if (conn != nullptr) {
    auto it = conn->streams.find(stream_id);
    if (it != conn->streams.end()) stream = it->second.get();
  }
  if (stream == nullptr) {
    // The connection (or stream) died while the OPEN ran: unwind the
    // booking the worker made; the accounting for the eviction already
    // happened at removal.
    if (session != nullptr && !admission_key.empty()) {
      std::lock_guard<std::mutex> lock(admission_mu_);
      (void)admission_.Release(admission_key);
      ServeMetrics::Get().sessions->Add(-1);
    }
    return;
  }

  stream->busy = false;
  if (!response.status.ok()) {
    // Denied or failed OPEN: answer, then drop the provisional entry.
    EnqueueControl(conn, stream->id, response, received_ns);
    RemoveStream(conn, stream_id, nullptr, /*evict=*/false);
    PumpWrites(conn);
    return;
  }

  stream->session = std::move(session);
  stream->admission_key = std::move(admission_key);
  stream->booked = true;
  EnqueueControl(conn, stream->id, response, received_ns);
  DrainPending(conn, stream);
  PumpWrites(conn);
}

void MediaServer::FinishRead(uint64_t conn_id, uint64_t stream_id,
                             Response response, OutFrame frame) {
  auto conn_it = connections_.find(conn_id);
  if (conn_it == connections_.end()) return;
  Connection* conn = conn_it->second.get();
  auto it = conn->streams.find(stream_id);
  if (it == conn->streams.end()) return;  // Evicted while the read ran.
  Stream* stream = it->second.get();

  stream->busy = false;
  if (stream->degrade_pending) {
    // Pacing wanted a degrade while the worker held the session;
    // apply it now that the stream is quiescent.
    stream->degrade_pending = false;
    DegradeStream(stream);
  }
  if (!response.status.ok()) {
    EnqueueControl(conn, stream->id, response, frame.received_ns);
  } else {
    EnqueueData(conn, stream, std::move(frame));
  }
  DrainPending(conn, stream);
  PumpWrites(conn);
}

// ---------------------------------------------------------------------------
// Outbound path (loop thread)

void MediaServer::EnqueueControl(Connection* conn, uint64_t stream_id,
                                 const Response& response,
                                 int64_t received_ns) {
  Bytes payload = EncodeResponse(response);
  FrameHeader header;
  header.stream_id = stream_id;
  size_t payload_bytes = payload.size();
  // Control frames bypass the data scheduler: they are small, carry
  // no media bytes (no pacing), and answering promptly is what keeps
  // a multiplexed client responsive while big READs drain.
  conn->writer.Enqueue(EncodeFrame(header, payload), [this, payload_bytes] {
    stat_response_bytes_.fetch_add(payload_bytes);
  });
  ServeMetrics::Get().request_us->Record(ElapsedUsSince(received_ns));
}

void MediaServer::EnqueueData(Connection* conn, Stream* stream,
                              OutFrame frame) {
  const int64_t received_ns = frame.received_ns;
  stream->data_frames.push_back(std::move(frame));
  EnterRoundRobin(conn, stream);
  ServeMetrics::Get().request_us->Record(ElapsedUsSince(received_ns));
}

void MediaServer::EnterRoundRobin(Connection* conn, Stream* stream) {
  if (std::find(conn->rr.begin(), conn->rr.end(), stream->id) ==
      conn->rr.end()) {
    conn->rr.push_back(stream->id);
  }
}

bool MediaServer::TrySendData(Connection* conn, Stream* stream) {
  OutFrame& frame = stream->data_frames.front();

  // Flow control: the client must have granted window for the payload.
  if (stream->flow_controlled &&
      stream->window < static_cast<int64_t>(frame.payload_bytes)) {
    if (stream->stall_since == std::chrono::steady_clock::time_point{}) {
      stream->stall_since = std::chrono::steady_clock::now();
    }
    return false;
  }

  // Global pacing: the byte budget is the server's real aggregate
  // capacity. A dry bucket degrades the stream once (halving its
  // future demand), then defers the frame — but never past
  // budget_wait: past the grace deadline it force-acquires, and the
  // negative balance slows everyone a little instead of one stream a
  // lot.
  if (!budget_.TryAcquire(frame.payload_bytes)) {
    if (!frame.pace_degraded) {
      frame.pace_degraded = true;
      if (stream->busy) {
        stream->degrade_pending = true;  // Session held by a worker.
      } else {
        DegradeStream(stream);
      }
    }
    auto now = std::chrono::steady_clock::now();
    if (frame.pace_deadline == std::chrono::steady_clock::time_point{}) {
      frame.pace_deadline = now + config_.budget_wait;
    }
    if (now < frame.pace_deadline) {
      ArmPaceTimer(conn);
      return false;
    }
    budget_.ForceAcquire(frame.payload_bytes);
  }

  if (stream->flow_controlled) {
    stream->window -= static_cast<int64_t>(frame.payload_bytes);
  }
  stream->stall_since = {};

  // SLO accounting fires when the frame's last byte reaches the
  // transport: latency the client actually observes, labeled by the
  // QoS class in force for the batch. The callback runs inside
  // Flush() on the loop thread — accounting only, no teardown.
  auto on_sent = [this, conn_id = conn->id, sid = stream->id,
                  payload_bytes = frame.payload_bytes,
                  received_ns = frame.received_ns, stride = frame.stride,
                  end_of_stream = frame.end_of_stream,
                  session = stream->session] {
    stat_response_bytes_.fetch_add(payload_bytes);
    const QosSlice& qos = QosForStride(stride);
    uint64_t elapsed_us = ElapsedUsSince(received_ns);
    qos.read_us->Record(elapsed_us);
    qos.read_bytes->Add(payload_bytes);
    uint64_t deadline_us = config_.read_deadline_us;
    if (deadline_us == 0 && session != nullptr &&
        session->booked_bytes_per_second() > 0) {
      deadline_us =
          static_cast<uint64_t>(1e6 * static_cast<double>(payload_bytes) /
                                session->booked_bytes_per_second());
    }
    if (deadline_us != 0 && elapsed_us > deadline_us) {
      qos.deadline_miss->Add();
      if (session != nullptr) {
        session->flight()->Record(obs::FlightEventType::kNote,
                                  "read deadline missed", elapsed_us,
                                  deadline_us);
      }
    }
    if (end_of_stream) {
      // The stream completed: release capacity the moment the last
      // frame is handed off rather than holding it until CLOSE.
      auto conn_it = connections_.find(conn_id);
      if (conn_it != connections_.end()) {
        auto stream_it = conn_it->second->streams.find(sid);
        if (stream_it != conn_it->second->streams.end()) {
          ReleaseBooking(stream_it->second.get());
        }
      }
    }
  };
  conn->writer.Enqueue(std::move(frame.wire), std::move(on_sent));
  stream->data_frames.pop_front();
  return true;
}

MediaServer::Stream* MediaServer::PickNextDataStream(Connection* conn) {
  std::deque<uint64_t>& rr = conn->rr;
  // One full rotation; streams that cannot send right now (window
  // empty, paced) keep their place for the next pump.
  for (size_t remaining = rr.size(); remaining > 0; --remaining) {
    uint64_t sid = rr.front();
    rr.pop_front();
    auto it = conn->streams.find(sid);
    if (it == conn->streams.end()) continue;  // Stale: stream removed.
    Stream* stream = it->second.get();
    if (stream->data_frames.empty()) continue;
    const bool sent = TrySendData(conn, stream);
    // Round-robin: a stream that sent, or is blocked, goes to the back
    // while it still has data queued.
    if (!stream->data_frames.empty()) rr.push_back(sid);
    if (sent) return stream;
  }
  return nullptr;
}

void MediaServer::PumpWrites(Connection* conn) {
  for (;;) {
    auto flushed = conn->writer.Flush(*conn->transport);
    if (!flushed.ok()) {
      TeardownConnection(conn, "send failed (connection lost)");
      return;
    }
    conn->total_flushed += *flushed;
    if (!conn->writer.empty()) break;  // Transport would block.
    // Writer drained: schedule the next data frame, round-robin over
    // the streams. Control frames never wait here — they go straight
    // into the writer at enqueue time.
    if (PickNextDataStream(conn) == nullptr) break;
  }
  UpdateConnInterest(conn);
}

void MediaServer::ArmPaceTimer(Connection* conn) {
  if (conn->pace_timer_armed) return;
  conn->pace_timer_armed = true;
  // Re-check the budget on refill granularity, not budget_wait: the
  // bucket may refill enough for the frame long before the grace
  // deadline.
  auto delay = std::min<std::chrono::milliseconds>(
      std::chrono::milliseconds(20), std::max<std::chrono::milliseconds>(
                                         std::chrono::milliseconds(1),
                                         config_.budget_wait));
  reactor_.PostDelayed(delay, [this, conn_id = conn->id] {
    auto it = connections_.find(conn_id);
    if (it == connections_.end()) return;
    it->second->pace_timer_armed = false;
    PumpWrites(it->second.get());
  });
}

void MediaServer::UpdateConnInterest(Connection* conn) {
  uint32_t want = kTransportReadable;
  if (!conn->writer.empty()) want |= kTransportWritable;
  if (want != conn->interest) {
    conn->interest = want;
    reactor_.UpdateInterest(conn->reactor_id, want);
  }
}

// ---------------------------------------------------------------------------
// Teardown (loop thread)

void MediaServer::RemoveStream(Connection* conn, uint64_t stream_id,
                               const char* cause, bool evict) {
  auto it = conn->streams.find(stream_id);
  if (it == conn->streams.end()) return;
  Stream* stream = it->second.get();

  if (stream->session != nullptr) {
    Session* session = stream->session.get();
    SessionState state = session->state();
    bool terminal = state == SessionState::kDone ||
                    state == SessionState::kDegraded ||
                    state == SessionState::kEvicted;
    if (evict && !terminal) {
      const char* why = cause != nullptr ? cause : "server-initiated eviction";
      session->MarkEvicted(why);
      stat_evicted_.fetch_add(1);
      ServeMetrics::Get().evicted->Add();
      QosForStride(session->stride()).evicted->Add();
      StoreFlightDump(session->DumpFlight(why));
    } else if (session->StatsWire().elements_skipped > 0) {
      // Completed, but lossily: keep the post-mortem even though
      // nothing was evicted.
      StoreFlightDump(session->DumpFlight("completed with skipped elements"));
    }
    ServeMetrics::Get().sessions->Add(-1);
  }
  ReleaseBooking(stream);
  active_streams_.fetch_sub(1);
  conn->streams.erase(it);
  // Round-robin entries for this id go stale and are skipped on pop.
}

void MediaServer::TeardownConnection(Connection* conn, const char* cause) {
  std::vector<uint64_t> ids;
  ids.reserve(conn->streams.size());
  for (const auto& [sid, stream] : conn->streams) ids.push_back(sid);
  for (uint64_t sid : ids) RemoveStream(conn, sid, cause, /*evict=*/true);

  reactor_.Deregister(conn->reactor_id);
  conn->transport->Close();
  active_connections_.fetch_sub(1);
  ServeMetrics::Get().connections->Add(-1);
  connections_.erase(conn->id);  // Destroys `conn`.
}

void MediaServer::CheckStalls() {
  if (stopping_.load(std::memory_order_acquire)) return;
  auto now = std::chrono::steady_clock::now();

  std::vector<uint64_t> dead_conns;
  for (auto& [conn_id, conn] : connections_) {
    // Connection-level: the transport has accepted nothing for a full
    // stall_timeout while we had bytes to give it.
    if (!conn->writer.empty()) {
      if (conn->progress_stamp == std::chrono::steady_clock::time_point{} ||
          conn->total_flushed != conn->progress_marker) {
        conn->progress_marker = conn->total_flushed;
        conn->progress_stamp = now;
      } else if (now - conn->progress_stamp >= config_.stall_timeout) {
        dead_conns.push_back(conn_id);
        continue;
      }
    } else {
      conn->progress_stamp = {};
    }
    // Stream-level: data queued but the client has granted no window.
    std::vector<uint64_t> dead_streams;
    for (const auto& [sid, stream] : conn->streams) {
      if (stream->stall_since != std::chrono::steady_clock::time_point{} &&
          now - stream->stall_since >= config_.stall_timeout) {
        dead_streams.push_back(sid);
      }
    }
    for (uint64_t sid : dead_streams) {
      RemoveStream(conn.get(), sid,
                   "flow-control window stalled (slow client)",
                   /*evict=*/true);
    }
  }
  for (uint64_t conn_id : dead_conns) {
    auto it = connections_.find(conn_id);
    if (it != connections_.end()) {
      TeardownConnection(it->second.get(),
                         "send stalled past timeout (slow client)");
    }
  }

  auto sweep = std::max<std::chrono::milliseconds>(
      std::chrono::milliseconds(10), config_.stall_timeout / 4);
  reactor_.PostDelayed(sweep, [this] { CheckStalls(); });
}

// ---------------------------------------------------------------------------
// Shared helpers

void MediaServer::DegradeStream(Stream* stream) {
  Session* session = stream->session.get();
  if (session == nullptr) return;
  if (session->stride() >=
      static_cast<uint32_t>(std::max(1, config_.max_stride))) {
    return;  // Already at the thinnest tier.
  }
  session->Degrade();
  double new_rate = session->booked_bytes_per_second() / 2.0;
  {
    std::lock_guard<std::mutex> lock(admission_mu_);
    if (admission_.Rebook(stream->admission_key, new_rate).ok()) {
      session->set_booked_bytes_per_second(new_rate);
    }
  }
  stat_degraded_.fetch_add(1);
  ServeMetrics::Get().degraded->Add();
  QosForStride(session->stride()).degraded->Add();
}

void MediaServer::ReleaseBooking(Stream* stream) {
  if (!stream->booked) return;
  std::lock_guard<std::mutex> lock(admission_mu_);
  (void)admission_.Release(stream->admission_key);
  stream->booked = false;
}

ServerStatsSnapshot MediaServer::stats() const {
  ServerStatsSnapshot snapshot;
  snapshot.sessions_admitted = stat_admitted_.load();
  snapshot.sessions_degraded = stat_degraded_.load();
  snapshot.sessions_denied = stat_denied_.load();
  snapshot.sessions_evicted = stat_evicted_.load();
  snapshot.requests = stat_requests_.load();
  snapshot.response_bytes = stat_response_bytes_.load();
  snapshot.active_sessions = active_streams_.load();
  snapshot.active_connections = active_connections_.load();
  return snapshot;
}

std::vector<std::string> MediaServer::flight_dumps() const {
  std::lock_guard<std::mutex> lock(flight_mu_);
  return flight_dumps_;
}

void MediaServer::StoreFlightDump(std::string dump) {
  if (dump.empty()) return;  // TBM_OBS_DISABLED: recorders are empty.
  std::lock_guard<std::mutex> lock(flight_mu_);
  if (flight_dumps_.size() >= kFlightDumpCap) {
    flight_dumps_.erase(flight_dumps_.begin());
  }
  flight_dumps_.push_back(std::move(dump));
}

}  // namespace tbm::serve
