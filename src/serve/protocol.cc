#include "serve/protocol.h"

#include <utility>

#include "base/macros.h"

namespace tbm::serve {

namespace {

constexpr uint8_t kMaxRequestType =
    static_cast<uint8_t>(RequestType::kWindow);
constexpr uint8_t kMaxStatusCode = static_cast<uint8_t>(StatusCode::kInternal);
constexpr uint8_t kMaxSessionState =
    static_cast<uint8_t>(SessionState::kEvicted);

/// Request extension-block tags (see Request doc comment).
constexpr uint8_t kExtTagTrace = 1;
constexpr uint8_t kExtTagQos = 2;

/// A hostile TELEMETRY frame could claim an absurd per-histogram
/// bucket count; anything past this is corrupt, not just future.
constexpr uint64_t kMaxWireHistogramBuckets = 4096;

Status TrailingBytes(size_t n) {
  return Status::Corruption("frame has " + std::to_string(n) +
                            " trailing bytes");
}

/// Writes the request extension block: nothing when no extension is
/// present, else repeated (tag, length-prefixed body) pairs.
void EncodeRequestExtensions(BinaryWriter* writer, const Request& request) {
  if (request.trace.present()) {
    BinaryWriter body;
    body.WriteVarU64(request.trace.trace_id);
    body.WriteVarU64(request.trace.parent_span_id);
    writer->WriteU8(kExtTagTrace);
    writer->WriteBytes(body.buffer());
  }
  if (request.type == RequestType::kOpen && request.qos.present()) {
    BinaryWriter body;
    body.WriteVarU64(request.qos.max_stride);
    body.WriteVarU64(request.qos.window_bytes);
    writer->WriteU8(kExtTagQos);
    writer->WriteBytes(body.buffer());
  }
}

/// Consumes the rest of the payload as an extension block. Unknown
/// tags are skipped whole (their length prefix tells us how much);
/// known tags must parse exactly.
Status DecodeRequestExtensions(BinaryReader* reader, Request* request) {
  while (!reader->AtEnd()) {
    TBM_ASSIGN_OR_RETURN(uint8_t tag, reader->ReadU8());
    if (tag == 0) return Status::Corruption("zero extension tag");
    TBM_ASSIGN_OR_RETURN(Bytes body, reader->ReadBytes());
    if (tag == kExtTagTrace) {
      BinaryReader body_reader(body);
      TBM_ASSIGN_OR_RETURN(request->trace.trace_id, body_reader.ReadVarU64());
      TBM_ASSIGN_OR_RETURN(request->trace.parent_span_id,
                           body_reader.ReadVarU64());
      if (!body_reader.AtEnd()) {
        return Status::Corruption("trace extension has " +
                                  std::to_string(body_reader.remaining()) +
                                  " trailing bytes");
      }
    } else if (tag == kExtTagQos) {
      BinaryReader body_reader(body);
      TBM_ASSIGN_OR_RETURN(uint64_t max_stride, body_reader.ReadVarU64());
      if (max_stride > UINT32_MAX) {
        return Status::Corruption("qos max_stride overflows u32");
      }
      request->qos.max_stride = static_cast<uint32_t>(max_stride);
      TBM_ASSIGN_OR_RETURN(request->qos.window_bytes,
                           body_reader.ReadVarU64());
      if (!body_reader.AtEnd()) {
        return Status::Corruption("qos extension has " +
                                  std::to_string(body_reader.remaining()) +
                                  " trailing bytes");
      }
    }
    // Unknown tags: body already consumed; skip (forward compat).
  }
  return Status::OK();
}

void EncodeTelemetry(BinaryWriter* writer,
                     const obs::MetricsSnapshot& snapshot) {
  writer->WriteVarU64(snapshot.counters.size());
  for (const auto& [name, value] : snapshot.counters) {
    writer->WriteString(name);
    writer->WriteVarU64(value);
  }
  writer->WriteVarU64(snapshot.gauges.size());
  for (const auto& [name, value] : snapshot.gauges) {
    writer->WriteString(name);
    writer->WriteVarI64(value);
  }
  writer->WriteVarU64(snapshot.histograms.size());
  for (const auto& [name, h] : snapshot.histograms) {
    writer->WriteString(name);
    writer->WriteVarU64(h.count);
    writer->WriteVarU64(h.sum);
    writer->WriteVarU64(h.min);
    writer->WriteVarU64(h.max);
    writer->WriteVarU64(h.buckets.size());
    for (uint64_t bucket : h.buckets) writer->WriteVarU64(bucket);
  }
}

Status DecodeTelemetry(BinaryReader* reader, obs::MetricsSnapshot* snapshot) {
  TBM_ASSIGN_OR_RETURN(uint64_t counter_count, reader->ReadVarU64());
  if (counter_count > reader->remaining()) {
    // Every entry costs at least two bytes (name length + value), so a
    // count beyond the remaining payload is corrupt — reject before
    // looping over it.
    return Status::Corruption("counter count " +
                              std::to_string(counter_count) +
                              " exceeds frame size");
  }
  for (uint64_t i = 0; i < counter_count; ++i) {
    TBM_ASSIGN_OR_RETURN(std::string name, reader->ReadString());
    TBM_ASSIGN_OR_RETURN(uint64_t value, reader->ReadVarU64());
    snapshot->counters.emplace(std::move(name), value);
  }
  TBM_ASSIGN_OR_RETURN(uint64_t gauge_count, reader->ReadVarU64());
  if (gauge_count > reader->remaining()) {
    return Status::Corruption("gauge count " + std::to_string(gauge_count) +
                              " exceeds frame size");
  }
  for (uint64_t i = 0; i < gauge_count; ++i) {
    TBM_ASSIGN_OR_RETURN(std::string name, reader->ReadString());
    TBM_ASSIGN_OR_RETURN(int64_t value, reader->ReadVarI64());
    snapshot->gauges.emplace(std::move(name), value);
  }
  TBM_ASSIGN_OR_RETURN(uint64_t histogram_count, reader->ReadVarU64());
  if (histogram_count > reader->remaining()) {
    return Status::Corruption("histogram count " +
                              std::to_string(histogram_count) +
                              " exceeds frame size");
  }
  for (uint64_t i = 0; i < histogram_count; ++i) {
    TBM_ASSIGN_OR_RETURN(std::string name, reader->ReadString());
    obs::HistogramSnapshot h;
    TBM_ASSIGN_OR_RETURN(h.count, reader->ReadVarU64());
    TBM_ASSIGN_OR_RETURN(h.sum, reader->ReadVarU64());
    TBM_ASSIGN_OR_RETURN(h.min, reader->ReadVarU64());
    TBM_ASSIGN_OR_RETURN(h.max, reader->ReadVarU64());
    TBM_ASSIGN_OR_RETURN(uint64_t bucket_count, reader->ReadVarU64());
    if (bucket_count > kMaxWireHistogramBuckets) {
      return Status::Corruption("histogram bucket count " +
                                std::to_string(bucket_count) +
                                " exceeds limit");
    }
    // A peer with a different bucket layout stays decodable: take what
    // fits, drain the rest.
    for (uint64_t b = 0; b < bucket_count; ++b) {
      TBM_ASSIGN_OR_RETURN(uint64_t bucket, reader->ReadVarU64());
      if (b < h.buckets.size()) h.buckets[b] = bucket;
    }
    snapshot->histograms.emplace(std::move(name), h);
  }
  return Status::OK();
}

}  // namespace

std::string_view RequestTypeToString(RequestType type) {
  switch (type) {
    case RequestType::kOpen:
      return "OPEN";
    case RequestType::kRead:
      return "READ";
    case RequestType::kSeek:
      return "SEEK";
    case RequestType::kStats:
      return "STATS";
    case RequestType::kClose:
      return "CLOSE";
    case RequestType::kTelemetry:
      return "TELEMETRY";
    case RequestType::kWindow:
      return "WINDOW";
  }
  return "?";
}

std::string_view SessionStateToString(SessionState state) {
  switch (state) {
    case SessionState::kOpen:
      return "OPEN";
    case SessionState::kAdmitted:
      return "ADMITTED";
    case SessionState::kStreaming:
      return "STREAMING";
    case SessionState::kDone:
      return "DONE";
    case SessionState::kDegraded:
      return "DEGRADED";
    case SessionState::kEvicted:
      return "EVICTED";
  }
  return "?";
}

Bytes EncodeRequest(const Request& request) {
  BinaryWriter writer;
  writer.WriteU8(static_cast<uint8_t>(request.type));
  writer.WriteVarU64(request.session_id);
  switch (request.type) {
    case RequestType::kOpen:
      writer.WriteString(request.object_name);
      break;
    case RequestType::kRead:
      writer.WriteVarU64(request.max_elements);
      break;
    case RequestType::kSeek:
      writer.WriteVarU64(request.target_element);
      break;
    case RequestType::kWindow:
      writer.WriteVarU64(request.window_delta);
      break;
    case RequestType::kStats:
    case RequestType::kClose:
    case RequestType::kTelemetry:
      break;
  }
  EncodeRequestExtensions(&writer, request);
  return writer.TakeBuffer();
}

Result<Request> DecodeRequest(ByteSpan payload) {
  BinaryReader reader(payload);
  Request request;
  TBM_ASSIGN_OR_RETURN(uint8_t type, reader.ReadU8());
  if (type == 0 || type > kMaxRequestType) {
    return Status::InvalidArgument("unknown request type " +
                                   std::to_string(type));
  }
  request.type = static_cast<RequestType>(type);
  TBM_ASSIGN_OR_RETURN(request.session_id, reader.ReadVarU64());
  switch (request.type) {
    case RequestType::kOpen: {
      TBM_ASSIGN_OR_RETURN(request.object_name, reader.ReadString());
      break;
    }
    case RequestType::kRead: {
      TBM_ASSIGN_OR_RETURN(request.max_elements, reader.ReadVarU64());
      break;
    }
    case RequestType::kSeek: {
      TBM_ASSIGN_OR_RETURN(request.target_element, reader.ReadVarU64());
      break;
    }
    case RequestType::kWindow: {
      TBM_ASSIGN_OR_RETURN(request.window_delta, reader.ReadVarU64());
      break;
    }
    case RequestType::kStats:
    case RequestType::kClose:
    case RequestType::kTelemetry:
      break;
  }
  TBM_RETURN_IF_ERROR(DecodeRequestExtensions(&reader, &request));
  return request;
}

Bytes EncodeResponse(const Response& response) {
  BinaryWriter writer;
  writer.WriteU8(static_cast<uint8_t>(response.type));
  writer.WriteU8(static_cast<uint8_t>(response.status.code()));
  writer.WriteString(response.status.ok() ? std::string_view()
                                          : response.status.message());
  if (!response.status.ok()) return writer.TakeBuffer();
  switch (response.type) {
    case RequestType::kOpen:
      writer.WriteVarU64(response.open.session_id);
      writer.WriteVarU64(response.open.element_count);
      writer.WriteVarU64(response.open.payload_bytes);
      writer.WriteU32(response.open.stride);
      writer.WriteF64(response.open.booked_bytes_per_second);
      break;
    case RequestType::kRead:
      writer.WriteU8(response.read.end_of_stream ? 1 : 0);
      writer.WriteU32(response.read.stride);
      writer.WriteVarU64(response.read.elements.size());
      for (const WireElement& element : response.read.elements) {
        writer.WriteVarU64(element.element_number);
        writer.WriteVarI64(element.start);
        writer.WriteVarI64(element.duration);
        writer.WriteBytes(element.payload);
      }
      break;
    case RequestType::kSeek:
      writer.WriteVarU64(response.seek_position);
      break;
    case RequestType::kStats:
      writer.WriteU8(static_cast<uint8_t>(response.stats.state));
      writer.WriteVarU64(response.stats.elements_delivered);
      writer.WriteVarU64(response.stats.elements_skipped);
      writer.WriteVarU64(response.stats.bytes_sent);
      writer.WriteU32(response.stats.stride);
      break;
    case RequestType::kClose:
    case RequestType::kWindow:  // WINDOW has no response; empty body.
      break;
    case RequestType::kTelemetry:
      EncodeTelemetry(&writer, response.telemetry);
      break;
  }
  return writer.TakeBuffer();
}

Result<Response> DecodeResponse(ByteSpan payload) {
  BinaryReader reader(payload);
  Response response;
  TBM_ASSIGN_OR_RETURN(uint8_t type, reader.ReadU8());
  if (type == 0 || type > kMaxRequestType) {
    return Status::InvalidArgument("unknown response type " +
                                   std::to_string(type));
  }
  response.type = static_cast<RequestType>(type);
  TBM_ASSIGN_OR_RETURN(uint8_t code, reader.ReadU8());
  if (code > kMaxStatusCode) {
    return Status::InvalidArgument("unknown status code " +
                                   std::to_string(code));
  }
  TBM_ASSIGN_OR_RETURN(std::string message, reader.ReadString());
  if (code != 0) {
    response.status = Status(static_cast<StatusCode>(code), std::move(message));
    if (!reader.AtEnd()) return TrailingBytes(reader.remaining());
    return response;
  }
  switch (response.type) {
    case RequestType::kOpen: {
      TBM_ASSIGN_OR_RETURN(response.open.session_id, reader.ReadVarU64());
      TBM_ASSIGN_OR_RETURN(response.open.element_count, reader.ReadVarU64());
      TBM_ASSIGN_OR_RETURN(response.open.payload_bytes, reader.ReadVarU64());
      TBM_ASSIGN_OR_RETURN(response.open.stride, reader.ReadU32());
      TBM_ASSIGN_OR_RETURN(response.open.booked_bytes_per_second,
                           reader.ReadF64());
      break;
    }
    case RequestType::kRead: {
      TBM_ASSIGN_OR_RETURN(uint8_t end, reader.ReadU8());
      response.read.end_of_stream = end != 0;
      TBM_ASSIGN_OR_RETURN(response.read.stride, reader.ReadU32());
      TBM_ASSIGN_OR_RETURN(uint64_t count, reader.ReadVarU64());
      if (count > reader.remaining()) {
        // Every element costs at least one byte on the wire, so a count
        // beyond the remaining payload is corrupt — reject before
        // reserving memory for it.
        return Status::Corruption("element count " + std::to_string(count) +
                                  " exceeds frame size");
      }
      response.read.elements.reserve(count);
      for (uint64_t i = 0; i < count; ++i) {
        WireElement element;
        TBM_ASSIGN_OR_RETURN(element.element_number, reader.ReadVarU64());
        TBM_ASSIGN_OR_RETURN(element.start, reader.ReadVarI64());
        TBM_ASSIGN_OR_RETURN(element.duration, reader.ReadVarI64());
        TBM_ASSIGN_OR_RETURN(element.payload, reader.ReadBytes());
        response.read.elements.push_back(std::move(element));
      }
      break;
    }
    case RequestType::kSeek: {
      TBM_ASSIGN_OR_RETURN(response.seek_position, reader.ReadVarU64());
      break;
    }
    case RequestType::kStats: {
      TBM_ASSIGN_OR_RETURN(uint8_t state, reader.ReadU8());
      if (state > kMaxSessionState) {
        return Status::InvalidArgument("unknown session state " +
                                       std::to_string(state));
      }
      response.stats.state = static_cast<SessionState>(state);
      TBM_ASSIGN_OR_RETURN(response.stats.elements_delivered,
                           reader.ReadVarU64());
      TBM_ASSIGN_OR_RETURN(response.stats.elements_skipped,
                           reader.ReadVarU64());
      TBM_ASSIGN_OR_RETURN(response.stats.bytes_sent, reader.ReadVarU64());
      TBM_ASSIGN_OR_RETURN(response.stats.stride, reader.ReadU32());
      break;
    }
    case RequestType::kClose:
    case RequestType::kWindow:
      break;
    case RequestType::kTelemetry: {
      TBM_RETURN_IF_ERROR(DecodeTelemetry(&reader, &response.telemetry));
      break;
    }
  }
  if (!reader.AtEnd()) return TrailingBytes(reader.remaining());
  return response;
}

}  // namespace tbm::serve
