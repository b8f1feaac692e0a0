// Tests of the multiplexed (v2) serve wire format and the reactor's
// stream multiplexing: hostile-input decode fuzz for the versioned
// frame envelope (truncation at every cut, unknown version bytes,
// reserved flags, oversized length prefixes, duplicate stream ids),
// and end-to-end runs with many concurrent streams on one connection —
// bit-exact payloads, independent per-stream flow-control stalls,
// window-stall eviction that leaves sibling streams untouched, and a
// 256-stream stress across four connections.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "base/macros.h"
#include "blob/memory_store.h"
#include "db/database.h"
#include "interp/capture.h"
#include "serve/connection.h"
#include "serve/framing.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/transport.h"

namespace tbm {
namespace serve {
namespace {

constexpr int kElements = 32;
constexpr int kElementBytes = 1000;

Bytes ElementPayload(int index) {
  Bytes bytes(kElementBytes);
  for (int j = 0; j < kElementBytes; ++j) {
    bytes[static_cast<size_t>(j)] =
        static_cast<uint8_t>(index * 131 + j * 7 + 3);
  }
  return bytes;
}

// One media object "clip": kElements elements of kElementBytes, 10
// ticks/s (10 000 bytes/s average rate).
std::unique_ptr<MediaDatabase> BuildMultiplexDb() {
  auto db = MediaDatabase::CreateWithStore(std::make_unique<MemoryBlobStore>());
  auto capture = CaptureSession::Begin(db->blob_store());
  EXPECT_TRUE(capture.ok());
  MediaDescriptor descriptor;
  descriptor.type_name = "audio/pcm-block";
  descriptor.kind = MediaKind::kAudio;
  auto handle = capture->DeclareObject("clip", descriptor, TimeSystem(10));
  EXPECT_TRUE(handle.ok());
  for (int i = 0; i < kElements; ++i) {
    EXPECT_TRUE(capture->CaptureContiguous(*handle, ElementPayload(i), 1).ok());
  }
  auto interpretation = capture->Finish();
  EXPECT_TRUE(interpretation.ok());
  auto interp_id = db->AddInterpretation("clip_interp", *interpretation);
  EXPECT_TRUE(interp_id.ok());
  EXPECT_TRUE(db->AddMediaObject("clip", *interp_id, "clip").ok());
  return db;
}

// Sends `request` as a frame on `stream_id` over a raw transport.
Status SendV2(Transport& transport, uint64_t stream_id,
              const Request& request) {
  FrameHeader header;
  header.stream_id = stream_id;
  return WriteFrame(transport, EncodeFrameBody(header, EncodeRequest(request)));
}

// Receives one frame and decodes it as a response, returning the
// stream id it arrived on.
Result<std::pair<uint64_t, Response>> RecvV2(Transport& transport) {
  TBM_ASSIGN_OR_RETURN(Bytes body, ReadFrame(transport, kMaxFrameBytes));
  TBM_ASSIGN_OR_RETURN(Frame frame, DecodeFrameBody(body));
  TBM_ASSIGN_OR_RETURN(Response response, DecodeResponse(frame.payload));
  return std::make_pair(frame.header.stream_id, std::move(response));
}

// ---------------------------------------------------------------------------
// Frame envelope: round trips

TEST(FramingTest, V2EnvelopeRoundTrips) {
  Bytes payload = {0x01, 0x02, 0x03, 0x04};
  FrameHeader header;
  header.stream_id = 0xDEADBEEF;
  Bytes body = EncodeFrameBody(header, payload);
  ASSERT_EQ(body.size(), kFrameV2HeaderBytes + payload.size());
  EXPECT_EQ(body[0], kFrameV2Marker);
  auto frame = DecodeFrameBody(body);
  ASSERT_TRUE(frame.ok()) << frame.status().message();
  EXPECT_EQ(frame->header.flags, 0);
  EXPECT_EQ(frame->header.stream_id, 0xDEADBEEFu);
  EXPECT_EQ(frame->payload, payload);

  // An empty payload is legal in an envelope.
  auto empty = DecodeFrameBody(EncodeFrameBody(header, {}));
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->payload.empty());
  EXPECT_EQ(empty->header.stream_id, 0xDEADBEEFu);
}

// ---------------------------------------------------------------------------
// Frame envelope: hostile input

TEST(FramingFuzzTest, UnknownVersionBytesRejected) {
  // Every first byte but the marker is an unknown version — including
  // 0x01..0x3F, the request/response type tags, so a bare protocol
  // payload without an envelope is rejected rather than guessed at.
  for (int first = 0; first <= 0xFF; ++first) {
    if (first == kFrameV2Marker) continue;
    Bytes body = {0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01};
    body[0] = static_cast<uint8_t>(first);
    auto frame = DecodeFrameBody(body);
    ASSERT_FALSE(frame.ok()) << "first=" << first;
    EXPECT_EQ(frame.status().code(), StatusCode::kInvalidArgument)
        << "first=" << first;
  }
  // Empty bodies are unframeable too.
  EXPECT_FALSE(DecodeFrameBody(ByteSpan()).ok());
}

TEST(FramingFuzzTest, NonzeroReservedFlagsRejected) {
  FrameHeader header;
  header.stream_id = 3;
  Bytes inner = {0x05, 0x00};
  Bytes body = EncodeFrameBody(header, inner);
  for (uint8_t flags : {uint8_t{0x01}, uint8_t{0x80}, uint8_t{0xFF}}) {
    body[1] = flags;
    auto frame = DecodeFrameBody(body);
    ASSERT_FALSE(frame.ok()) << "flags=" << int{flags};
    EXPECT_EQ(frame.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(FramingFuzzTest, V2BodyTruncatedAtEveryCut) {
  // Build a real v2 OPEN frame body, then cut it at every length.
  Request open;
  open.type = RequestType::kOpen;
  open.object_name = "clip";
  open.qos.window_bytes = 4096;
  FrameHeader header;
  header.stream_id = 12;
  Bytes body = EncodeFrameBody(header, EncodeRequest(open));

  for (size_t length = 0; length < body.size(); ++length) {
    ByteSpan cut(body.data(), length);
    auto frame = DecodeFrameBody(cut);
    if (length < kFrameV2HeaderBytes) {
      // Too short for the envelope itself (an empty cut is an unknown
      // version; a partial header is corruption).
      ASSERT_FALSE(frame.ok()) << "cut=" << length;
    } else {
      // Envelope decodes; the truncated payload must then either fail
      // the protocol decoder or decode to the untampered base fields
      // (a cut landing exactly between optional extension pairs is a
      // legal end of payload). What it must never do is silently
      // yield corrupted fields.
      ASSERT_TRUE(frame.ok()) << "cut=" << length;
      EXPECT_EQ(frame->header.stream_id, 12u);
      auto decoded = DecodeRequest(frame->payload);
      if (decoded.ok()) {
        EXPECT_EQ(decoded->type, RequestType::kOpen) << "cut=" << length;
        EXPECT_EQ(decoded->object_name, "clip") << "cut=" << length;
      }
    }
  }
}

TEST(FramingFuzzTest, AssemblerOversizedLengthPoisonsStream) {
  FrameAssembler assembler(/*max_frame=*/1 << 10);
  uint32_t huge = 1 << 20;
  uint8_t prefix[4];
  std::memcpy(prefix, &huge, sizeof(huge));
  assembler.Ingest(ByteSpan(prefix, 4));
  auto poisoned = assembler.Next();
  ASSERT_FALSE(poisoned.ok());
  EXPECT_EQ(poisoned.status().code(), StatusCode::kCorruption);

  // The stream stays poisoned even if valid frames follow.
  FrameHeader header;
  header.stream_id = 1;
  Bytes valid = {0x01};
  assembler.Ingest(EncodeFrame(header, valid));
  EXPECT_FALSE(assembler.Next().ok());
}

TEST(FramingFuzzTest, AssemblerUnknownVersionPoisonsStream) {
  // 0x77, and every type tag 0x01..0x3F sent as a bare body.
  std::vector<uint8_t> firsts = {0x77};
  for (uint8_t tag = 0x01; tag <= 0x3F; ++tag) firsts.push_back(tag);
  FrameHeader header;
  header.stream_id = 1;
  for (uint8_t first : firsts) {
    FrameAssembler assembler;
    Bytes wire = {4, 0, 0, 0, first, 1, 2, 3};  // Length 4.
    assembler.Ingest(wire);
    auto poisoned = assembler.Next();
    ASSERT_FALSE(poisoned.ok()) << "first=" << int{first};
    EXPECT_EQ(poisoned.status().code(), StatusCode::kInvalidArgument);
    // A valid frame after the bad one does not unpoison the stream.
    assembler.Ingest(EncodeFrame(header, Bytes{0x01}));
    EXPECT_FALSE(assembler.Next().ok()) << "first=" << int{first};
  }
}

TEST(FramingFuzzTest, AssemblerReassemblesByteAtATime) {
  // Three frames — stream 0, stream 9, stream 0x01020304 — fed one
  // byte at a time: every possible cut point is exercised and each
  // frame must come out whole, in order, on the right stream.
  FrameHeader first;
  first.stream_id = 0;
  FrameHeader second;
  second.stream_id = 9;
  FrameHeader third;
  third.stream_id = 0x01020304;
  Bytes p1 = {0x03, 0xAA};
  Bytes p2 = ElementPayload(1);
  Bytes p3 = {};

  Bytes wire;
  for (const Bytes& piece : {EncodeFrame(first, p1), EncodeFrame(second, p2),
                             EncodeFrame(third, p3)}) {
    wire.insert(wire.end(), piece.begin(), piece.end());
  }

  FrameAssembler assembler;
  std::vector<Frame> frames;
  for (uint8_t byte : wire) {
    assembler.Ingest(ByteSpan(&byte, 1));
    for (;;) {
      auto next = assembler.Next();
      ASSERT_TRUE(next.ok()) << next.status().message();
      if (!next->has_value()) break;
      frames.push_back(std::move(**next));
    }
  }
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].header.stream_id, 0u);
  EXPECT_EQ(frames[0].payload, p1);
  EXPECT_EQ(frames[1].header.stream_id, 9u);
  EXPECT_EQ(frames[1].payload, p2);
  EXPECT_EQ(frames[2].header.stream_id, 0x01020304u);
  EXPECT_TRUE(frames[2].payload.empty());
  EXPECT_EQ(assembler.buffered_bytes(), 0u);
}

// ---------------------------------------------------------------------------
// Server: duplicate stream ids

TEST(MultiplexServerTest, DuplicateStreamIdDrawsErrorNotTeardown) {
  auto db = BuildMultiplexDb();
  MediaServer server(db.get());
  auto [client_end, server_end] = CreateLoopbackPair();
  ASSERT_TRUE(server.Serve(std::move(server_end)).ok());

  Request open;
  open.type = RequestType::kOpen;
  open.object_name = "clip";

  ASSERT_TRUE(SendV2(*client_end, 5, open).ok());
  auto first = RecvV2(*client_end);
  ASSERT_TRUE(first.ok()) << first.status().message();
  EXPECT_EQ(first->first, 5u);
  ASSERT_TRUE(first->second.status.ok()) << first->second.status.message();

  // A second OPEN on the same stream id is a protocol error scoped to
  // that request: the response names the id and the connection lives.
  ASSERT_TRUE(SendV2(*client_end, 5, open).ok());
  auto duplicate = RecvV2(*client_end);
  ASSERT_TRUE(duplicate.ok());
  EXPECT_EQ(duplicate->first, 5u);
  EXPECT_EQ(duplicate->second.status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(duplicate->second.status.message().find("duplicate stream id 5"),
            std::string::npos)
      << duplicate->second.status.message();

  // The connection is still healthy: a fresh id opens fine.
  ASSERT_TRUE(SendV2(*client_end, 6, open).ok());
  auto fresh = RecvV2(*client_end);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->first, 6u);
  EXPECT_TRUE(fresh->second.status.ok()) << fresh->second.status.message();
  EXPECT_EQ(server.stats().sessions_admitted, 2u);
}

// ---------------------------------------------------------------------------
// Connection/StreamHandle: many streams, one connection

TEST(MultiplexTest, SixteenStreamsInterleaveBitExact) {
  auto db = BuildMultiplexDb();
  ServeConfig config;
  config.capacity_bytes_per_second = 8.0 * 1024 * 1024;
  MediaServer server(db.get(), config);
  auto [client_end, server_end] = CreateLoopbackPair();
  ASSERT_TRUE(server.Serve(std::move(server_end)).ok());
  auto connection = Connect(std::move(client_end));

  constexpr int kStreams = 16;
  struct Driver {
    std::unique_ptr<StreamHandle> stream;
    std::vector<uint64_t> numbers;
    bool done = false;
  };
  std::vector<Driver> drivers(kStreams);
  for (int i = 0; i < kStreams; ++i) {
    auto stream = connection->OpenStream("clip");
    ASSERT_TRUE(stream.ok()) << stream.status().message();
    EXPECT_EQ((*stream)->info().element_count,
              static_cast<uint64_t>(kElements));
    drivers[static_cast<size_t>(i)].stream = std::move(*stream);
  }
  ASSERT_EQ(server.stats().active_sessions, static_cast<uint64_t>(kStreams));

  // Drive all sixteen streams round-robin from one thread, a few
  // elements at a time, so their READs interleave on the connection.
  int remaining = kStreams;
  while (remaining > 0) {
    for (Driver& driver : drivers) {
      if (driver.done) continue;
      auto batch = driver.stream->Read(4);
      ASSERT_TRUE(batch.ok()) << batch.status().message();
      for (const WireElement& element : batch->elements) {
        EXPECT_EQ(element.payload,
                  ElementPayload(static_cast<int>(element.element_number)))
            << "stream " << driver.stream->stream_id() << " element "
            << element.element_number;
        driver.numbers.push_back(element.element_number);
      }
      if (batch->end_of_stream) {
        driver.done = true;
        --remaining;
      }
    }
  }
  for (Driver& driver : drivers) {
    ASSERT_EQ(driver.numbers.size(), static_cast<size_t>(kElements));
    for (int i = 0; i < kElements; ++i) {
      EXPECT_EQ(driver.numbers[static_cast<size_t>(i)],
                static_cast<uint64_t>(i));
    }
    EXPECT_TRUE(driver.stream->Close().ok());
  }
  EXPECT_EQ(server.stats().sessions_evicted, 0u);
  EXPECT_EQ(server.stats().sessions_admitted, static_cast<uint64_t>(kStreams));
}

TEST(MultiplexTest, WindowStallBlocksOnlyItsOwnStream) {
  auto db = BuildMultiplexDb();
  ServeConfig config;
  config.stall_timeout = std::chrono::seconds(10);  // No eviction here.
  MediaServer server(db.get(), config);
  auto [client_end, server_end] = CreateLoopbackPair();
  ASSERT_TRUE(server.Serve(std::move(server_end)).ok());
  auto connection = Connect(std::move(client_end));

  // Stream A grants a window smaller than one element: its first READ
  // response parks on the server until more credit arrives.
  StreamQos tight;
  tight.window_bytes = 100;
  auto stalled = connection->OpenStream("clip", tight);
  ASSERT_TRUE(stalled.ok()) << stalled.status().message();

  std::atomic<bool> unblocked{false};
  std::vector<uint64_t> stalled_numbers;
  std::thread blocked_reader([&] {
    auto batch = (*stalled)->Read(2);
    ASSERT_TRUE(batch.ok()) << batch.status().message();
    for (const WireElement& element : batch->elements) {
      EXPECT_EQ(element.payload,
                ElementPayload(static_cast<int>(element.element_number)));
      stalled_numbers.push_back(element.element_number);
    }
    unblocked.store(true);
  });

  // Stream B — same connection, no flow control — streams the whole
  // object to completion while A is parked.
  auto free_flowing = connection->OpenStream("clip");
  ASSERT_TRUE(free_flowing.ok());
  int delivered = 0;
  bool end_of_stream = false;
  while (!end_of_stream) {
    auto batch = (*free_flowing)->Read(8);
    ASSERT_TRUE(batch.ok()) << batch.status().message();
    delivered += static_cast<int>(batch->elements.size());
    end_of_stream = batch->end_of_stream;
  }
  EXPECT_EQ(delivered, kElements);
  EXPECT_FALSE(unblocked.load());  // A is still parked on its window.

  // Granting credit releases exactly the parked stream.
  ASSERT_TRUE((*stalled)->GrantWindow(1 << 20).ok());
  blocked_reader.join();
  EXPECT_TRUE(unblocked.load());
  ASSERT_FALSE(stalled_numbers.empty());
  EXPECT_EQ(stalled_numbers[0], 0u);

  EXPECT_TRUE((*stalled)->Close().ok());
  EXPECT_TRUE((*free_flowing)->Close().ok());
  EXPECT_EQ(server.stats().sessions_evicted, 0u);
}

TEST(MultiplexTest, WindowStallPastTimeoutEvictsOnlyThatStream) {
  auto db = BuildMultiplexDb();
  ServeConfig config;
  config.stall_timeout = std::chrono::milliseconds(100);
  MediaServer server(db.get(), config);
  auto [client_end, server_end] = CreateLoopbackPair();
  ASSERT_TRUE(server.Serve(std::move(server_end)).ok());

  // Raw v2 frames: the stalled stream's READ response will never
  // arrive (it parks, then the stream is evicted), so a blocking
  // client handle would wedge — drive the wire by hand instead.
  Request open_tight;
  open_tight.type = RequestType::kOpen;
  open_tight.object_name = "clip";
  open_tight.qos.window_bytes = 100;  // Less than one element.
  ASSERT_TRUE(SendV2(*client_end, 1, open_tight).ok());
  auto opened_tight = RecvV2(*client_end);
  ASSERT_TRUE(opened_tight.ok());
  ASSERT_TRUE(opened_tight->second.status.ok())
      << opened_tight->second.status.message();
  uint64_t tight_session = opened_tight->second.open.session_id;

  Request open_free;
  open_free.type = RequestType::kOpen;
  open_free.object_name = "clip";
  ASSERT_TRUE(SendV2(*client_end, 2, open_free).ok());
  auto opened_free = RecvV2(*client_end);
  ASSERT_TRUE(opened_free.ok());
  ASSERT_TRUE(opened_free->second.status.ok());
  uint64_t free_session = opened_free->second.open.session_id;

  // READ on the tight stream: the response parks on the empty window
  // and the stall clock starts.
  Request read_tight;
  read_tight.type = RequestType::kRead;
  read_tight.session_id = tight_session;
  read_tight.max_elements = 2;
  ASSERT_TRUE(SendV2(*client_end, 1, read_tight).ok());

  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.stats().sessions_evicted == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server.stats().sessions_evicted, 1u);

  // The sibling stream on the same connection is untouched: it still
  // answers READs with bit-exact payloads.
  Request read_free;
  read_free.type = RequestType::kRead;
  read_free.session_id = free_session;
  read_free.max_elements = 4;
  ASSERT_TRUE(SendV2(*client_end, 2, read_free).ok());
  auto batch = RecvV2(*client_end);
  ASSERT_TRUE(batch.ok()) << batch.status().message();
  EXPECT_EQ(batch->first, 2u);
  ASSERT_TRUE(batch->second.status.ok()) << batch->second.status.message();
  ASSERT_EQ(batch->second.read.elements.size(), 4u);
  for (const WireElement& element : batch->second.read.elements) {
    EXPECT_EQ(element.payload,
              ElementPayload(static_cast<int>(element.element_number)));
  }

#ifndef TBM_OBS_DISABLED
  // The eviction dump names the stream and the flow-control cause.
  std::vector<std::string> dumps = server.flight_dumps();
  ASSERT_FALSE(dumps.empty());
  EXPECT_NE(dumps[0].find("stream=1"), std::string::npos) << dumps[0];
  EXPECT_NE(dumps[0].find("state=EVICTED"), std::string::npos) << dumps[0];
  EXPECT_NE(dumps[0].find("flow-control window stalled (slow client)"),
            std::string::npos)
      << dumps[0];
#endif
}

// ---------------------------------------------------------------------------
// Stress: 256 streams across four connections

TEST(MultiplexStressTest, TwoFiftySixStreamsAcrossFourConnections) {
  auto db = BuildMultiplexDb();
  ServeConfig config;
  config.max_sessions = 512;
  config.max_streams_per_connection = 64;
  config.capacity_bytes_per_second = 64.0 * 1024 * 1024;
  config.worker_threads = 4;
  MediaServer server(db.get(), config);

  constexpr int kConnections = 4;
  constexpr int kStreamsPerConnection = 64;
  std::vector<std::unique_ptr<Connection>> connections;
  for (int c = 0; c < kConnections; ++c) {
    auto [client_end, server_end] = CreateLoopbackPair();
    ASSERT_TRUE(server.Serve(std::move(server_end)).ok());
    connections.push_back(Connect(std::move(client_end)));
  }

  std::atomic<int> failures{0};
  std::atomic<int> payload_mismatches{0};
  std::atomic<int> completed{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      Connection* connection = connections[static_cast<size_t>(c)].get();
      struct Driver {
        std::unique_ptr<StreamHandle> stream;
        uint64_t next_expected = 0;
        bool done = false;
      };
      std::vector<Driver> drivers(kStreamsPerConnection);
      for (int i = 0; i < kStreamsPerConnection; ++i) {
        auto stream = connection->OpenStream("clip");
        if (!stream.ok()) {
          failures.fetch_add(1);
          return;
        }
        drivers[static_cast<size_t>(i)].stream = std::move(*stream);
      }
      int remaining = kStreamsPerConnection;
      while (remaining > 0) {
        for (Driver& driver : drivers) {
          if (driver.done) continue;
          auto batch = driver.stream->Read(8);
          if (!batch.ok()) {
            failures.fetch_add(1);
            return;
          }
          for (const WireElement& element : batch->elements) {
            if (element.element_number != driver.next_expected ||
                element.payload !=
                    ElementPayload(
                        static_cast<int>(element.element_number))) {
              payload_mismatches.fetch_add(1);
            }
            ++driver.next_expected;
          }
          if (batch->end_of_stream) {
            driver.done = true;
            --remaining;
            if (driver.next_expected == static_cast<uint64_t>(kElements)) {
              completed.fetch_add(1);
            }
            (void)driver.stream->Close();
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(payload_mismatches.load(), 0);
  EXPECT_EQ(completed.load(), kConnections * kStreamsPerConnection);
  ServerStatsSnapshot snapshot = server.stats();
  EXPECT_EQ(snapshot.sessions_admitted,
            static_cast<uint64_t>(kConnections * kStreamsPerConnection));
  EXPECT_EQ(snapshot.sessions_evicted, 0u);
  EXPECT_EQ(snapshot.active_sessions, 0u);
}

}  // namespace
}  // namespace serve
}  // namespace tbm
