#include "serve/framing.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>

#include "base/macros.h"

namespace tbm::serve {

namespace {

uint32_t LoadU32LE(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

void StoreU32LE(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
  p[2] = static_cast<uint8_t>(v >> 16);
  p[3] = static_cast<uint8_t>(v >> 24);
}

/// Writes the kFrameV2HeaderBytes envelope at `out`.
void WriteEnvelope(const FrameHeader& header, uint8_t* out) {
  out[0] = kFrameV2Marker;
  out[1] = header.flags;
  StoreU32LE(out + 2, static_cast<uint32_t>(header.stream_id));
}

}  // namespace

Bytes EncodeFrameBody(const FrameHeader& header, ByteSpan payload) {
  Bytes body(kFrameV2HeaderBytes + payload.size());
  WriteEnvelope(header, body.data());
  if (!payload.empty()) {
    std::memcpy(body.data() + kFrameV2HeaderBytes, payload.data(),
                payload.size());
  }
  return body;
}

Bytes EncodeFrame(const FrameHeader& header, ByteSpan payload) {
  // Length prefix, envelope and payload go into one buffer: the payload
  // is copied once.
  Bytes wire(4 + kFrameV2HeaderBytes + payload.size());
  StoreU32LE(wire.data(),
             static_cast<uint32_t>(kFrameV2HeaderBytes + payload.size()));
  WriteEnvelope(header, wire.data() + 4);
  if (!payload.empty()) {
    std::memcpy(wire.data() + 4 + kFrameV2HeaderBytes, payload.data(),
                payload.size());
  }
  return wire;
}

Result<Frame> DecodeFrameBody(ByteSpan body) {
  if (body.empty()) {
    return Status::Corruption("empty frame body");
  }
  uint8_t first = body[0];
  if (first != kFrameV2Marker) {
    return Status::InvalidArgument(
        "unknown frame version byte 0x" + [&] {
          static const char* hex = "0123456789abcdef";
          std::string s;
          s += hex[first >> 4];
          s += hex[first & 0xF];
          return s;
        }());
  }
  if (body.size() < kFrameV2HeaderBytes) {
    return Status::Corruption("truncated frame header: " +
                              std::to_string(body.size()) + " of " +
                              std::to_string(kFrameV2HeaderBytes) + " bytes");
  }
  Frame frame;
  frame.header.flags = body[1];
  if (frame.header.flags != 0) {
    return Status::InvalidArgument(
        "reserved frame flags set: " + std::to_string(frame.header.flags));
  }
  frame.header.stream_id = LoadU32LE(body.data() + 2);
  frame.payload.assign(body.begin() + kFrameV2HeaderBytes, body.end());
  return frame;
}

FrameAssembler::FrameAssembler(uint32_t max_frame) : max_frame_(max_frame) {}

void FrameAssembler::Ingest(ByteSpan bytes) {
  // Compact lazily: only when the consumed prefix dominates the
  // buffer, so steady-state ingest is append-only.
  if (head_ > 4096 && head_ > buffer_.size() / 2) {
    buffer_.erase(buffer_.begin(), buffer_.begin() + head_);
    head_ = 0;
  }
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

Result<std::optional<Frame>> FrameAssembler::Next() {
  if (!poisoned_.ok()) return poisoned_;
  size_t available = buffer_.size() - head_;
  if (available < 4) return std::optional<Frame>(std::nullopt);
  uint32_t length = LoadU32LE(buffer_.data() + head_);
  if (length > max_frame_) {
    poisoned_ = Status::Corruption(
        "frame length " + std::to_string(length) + " exceeds limit " +
        std::to_string(max_frame_));
    return poisoned_;
  }
  if (available < 4 + static_cast<size_t>(length)) {
    return std::optional<Frame>(std::nullopt);
  }
  ByteSpan body(buffer_.data() + head_ + 4, length);
  auto frame = DecodeFrameBody(body);
  if (!frame.ok()) {
    poisoned_ = frame.status();
    return poisoned_;
  }
  head_ += 4 + length;
  return std::optional<Frame>(*std::move(frame));
}

void FrameWriter::Enqueue(Bytes wire, SentFn on_sent) {
  queued_bytes_ += wire.size();
  queue_.push_back(Pending{std::move(wire), 0, std::move(on_sent)});
}

Result<size_t> FrameWriter::Flush(Transport& transport) {
  size_t written = 0;
  while (!queue_.empty()) {
    Pending& front = queue_.front();
    while (front.offset < front.wire.size()) {
      TBM_ASSIGN_OR_RETURN(
          size_t n, transport.WriteSome(ByteSpan(
                        front.wire.data() + front.offset,
                        front.wire.size() - front.offset)));
      if (n == 0) return written;  // Would block; resume on next Flush.
      front.offset += n;
      written += n;
      queued_bytes_ -= n;
    }
    SentFn on_sent = std::move(front.on_sent);
    queue_.pop_front();
    if (on_sent) on_sent();
  }
  return written;
}

}  // namespace tbm::serve
