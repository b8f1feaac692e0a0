// Tests of the serve layer: wire protocol round-trips and malformed
// frames, loopback transport semantics (non-blocking readiness,
// backpressure, close), the session state machine, and the server
// end-to-end over loopback — including degrade-before-deny admission,
// slow-client eviction, and a 16-session concurrent run with injected
// read faults. Multi-stream multiplexing is covered separately in
// multiplex_test.cc.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "base/macros.h"
#include "blob/fault_store.h"
#include "blob/memory_store.h"
#include "db/database.h"
#include "interp/capture.h"
#include "serve/connection.h"
#include "serve/framing.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/session.h"
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

// Builds a database over `store` holding one media object "clip" of
// kElements elements (kElementBytes each, 1 tick apart at 10 ticks/s:
// an average rate of 10 000 bytes/s).
std::unique_ptr<MediaDatabase> BuildServeDbOn(std::unique_ptr<BlobStore> store) {
  auto db = MediaDatabase::CreateWithStore(std::move(store));
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

// BuildServeDbOn over an in-memory store. With `read_fault_rate` > 0 the
// store is wrapped in a FaultInjectingStore.
std::unique_ptr<MediaDatabase> BuildServeDb(double read_fault_rate = 0.0) {
  std::unique_ptr<BlobStore> store = std::make_unique<MemoryBlobStore>();
  if (read_fault_rate > 0.0) {
    FaultConfig faults;
    faults.read_fault_rate = read_fault_rate;
    faults.seed = 11;
    store = std::make_unique<FaultInjectingStore>(std::move(store), faults);
  }
  return BuildServeDbOn(std::move(store));
}

// A database whose media object "clip" has one element per entry of
// `sizes`, element i filled with the byte i.
std::unique_ptr<MediaDatabase> BuildSizedDb(const std::vector<size_t>& sizes) {
  auto db = MediaDatabase::CreateWithStore(std::make_unique<MemoryBlobStore>());
  auto capture = CaptureSession::Begin(db->blob_store());
  EXPECT_TRUE(capture.ok());
  MediaDescriptor descriptor;
  descriptor.type_name = "audio/pcm-block";
  descriptor.kind = MediaKind::kAudio;
  auto handle = capture->DeclareObject("clip", descriptor, TimeSystem(10));
  EXPECT_TRUE(handle.ok());
  for (size_t i = 0; i < sizes.size(); ++i) {
    Bytes payload(sizes[i], static_cast<uint8_t>(i));
    EXPECT_TRUE(capture->CaptureContiguous(*handle, payload, 1).ok());
  }
  auto interpretation = capture->Finish();
  EXPECT_TRUE(interpretation.ok());
  auto interp_id = db->AddInterpretation("clip_interp", *interpretation);
  EXPECT_TRUE(interp_id.ok());
  EXPECT_TRUE(db->AddMediaObject("clip", *interp_id, "clip").ok());
  return db;
}

// The stream id the raw-frame tests address every request to.
constexpr uint64_t kRawStream = 1;

// Sends `payload` in a frame envelope on kRawStream over a raw
// transport, with no Connection (and no pump thread) in between.
Status SendRaw(Transport& transport, ByteSpan payload) {
  FrameHeader header;
  header.stream_id = kRawStream;
  return WriteFrame(transport, EncodeFrameBody(header, payload));
}

// One request/response exchange on kRawStream over a raw transport.
Result<Response> RawRoundTrip(Transport& transport, const Request& request) {
  TBM_RETURN_IF_ERROR(SendRaw(transport, EncodeRequest(request)));
  TBM_ASSIGN_OR_RETURN(Bytes body, ReadFrame(transport, kMaxFrameBytes));
  TBM_ASSIGN_OR_RETURN(Frame frame, DecodeFrameBody(body));
  EXPECT_EQ(frame.header.stream_id, kRawStream);  // Answered on its stream.
  return DecodeResponse(frame.payload);
}

// ---------------------------------------------------------------------------
// Protocol encode/decode

TEST(ServeProtocolTest, RequestRoundTripsAllTypes) {
  Request open;
  open.type = RequestType::kOpen;
  open.object_name = "clip";
  Request read;
  read.type = RequestType::kRead;
  read.session_id = 7;
  read.max_elements = 16;
  Request seek;
  seek.type = RequestType::kSeek;
  seek.session_id = 7;
  seek.target_element = 29;
  Request stats;
  stats.type = RequestType::kStats;
  stats.session_id = 7;
  Request close;
  close.type = RequestType::kClose;
  close.session_id = 7;
  Request window;
  window.type = RequestType::kWindow;
  window.session_id = 7;
  window.window_delta = 65536;

  for (const Request& request : {open, read, seek, stats, close, window}) {
    auto decoded = DecodeRequest(EncodeRequest(request));
    ASSERT_TRUE(decoded.ok()) << decoded.status().message();
    EXPECT_EQ(decoded->type, request.type);
    EXPECT_EQ(decoded->session_id, request.session_id);
    EXPECT_EQ(decoded->object_name, request.object_name);
    if (request.type == RequestType::kRead) {
      EXPECT_EQ(decoded->max_elements, request.max_elements);
    }
    if (request.type == RequestType::kSeek) {
      EXPECT_EQ(decoded->target_element, request.target_element);
    }
    if (request.type == RequestType::kWindow) {
      EXPECT_EQ(decoded->window_delta, request.window_delta);
    }
  }
}

TEST(ServeProtocolTest, QosExtensionRoundTrips) {
  Request open;
  open.type = RequestType::kOpen;
  open.object_name = "clip";
  open.qos.max_stride = 4;
  open.qos.window_bytes = 1 << 16;
  auto decoded = DecodeRequest(EncodeRequest(open));
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(decoded->qos.max_stride, 4u);
  EXPECT_EQ(decoded->qos.window_bytes, uint64_t{1} << 16);
}

// The QoS body once led with a u8 write priority. Such a body must fail
// the trailing-bytes check rather than be read with its fields shifted.
TEST(ServeProtocolTest, QosBodyWithPriorityByteIsCorruption) {
  Request plain;
  plain.type = RequestType::kOpen;
  plain.object_name = "clip";
  for (uint64_t window : {uint64_t{0}, uint64_t{1} << 16}) {
    BinaryWriter body;
    body.WriteU8(4);  // priority
    body.WriteVarU64(2);  // max_stride
    body.WriteVarU64(window);
    BinaryWriter payload;
    payload.WriteRaw(EncodeRequest(plain));
    payload.WriteU8(2);  // QoS extension tag
    payload.WriteBytes(body.buffer());
    auto decoded = DecodeRequest(payload.buffer());
    ASSERT_FALSE(decoded.ok()) << "window " << window;
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption)
        << decoded.status();
  }
}

TEST(ServeProtocolTest, ResponseRoundTripsBodies) {
  Response open;
  open.type = RequestType::kOpen;
  open.open = {42, 32, 32000, 2, 5000.0};
  auto open_rt = DecodeResponse(EncodeResponse(open));
  ASSERT_TRUE(open_rt.ok());
  EXPECT_EQ(open_rt->open.session_id, 42u);
  EXPECT_EQ(open_rt->open.element_count, 32u);
  EXPECT_EQ(open_rt->open.payload_bytes, 32000u);
  EXPECT_EQ(open_rt->open.stride, 2u);
  EXPECT_DOUBLE_EQ(open_rt->open.booked_bytes_per_second, 5000.0);

  Response read;
  read.type = RequestType::kRead;
  read.read.end_of_stream = true;
  read.read.stride = 4;
  WireElement element;
  element.element_number = 12;
  element.start = 12;
  element.duration = 1;
  element.payload = ElementPayload(12);
  read.read.elements.push_back(element);
  auto read_rt = DecodeResponse(EncodeResponse(read));
  ASSERT_TRUE(read_rt.ok());
  EXPECT_TRUE(read_rt->read.end_of_stream);
  EXPECT_EQ(read_rt->read.stride, 4u);
  ASSERT_EQ(read_rt->read.elements.size(), 1u);
  EXPECT_EQ(read_rt->read.elements[0].element_number, 12u);
  EXPECT_EQ(read_rt->read.elements[0].payload, ElementPayload(12));

  Response stats;
  stats.type = RequestType::kStats;
  stats.stats = {SessionState::kDegraded, 16, 1, 16000, 2};
  auto stats_rt = DecodeResponse(EncodeResponse(stats));
  ASSERT_TRUE(stats_rt.ok());
  EXPECT_EQ(stats_rt->stats.state, SessionState::kDegraded);
  EXPECT_EQ(stats_rt->stats.elements_delivered, 16u);
  EXPECT_EQ(stats_rt->stats.elements_skipped, 1u);
  EXPECT_EQ(stats_rt->stats.stride, 2u);

  Response error;
  error.type = RequestType::kOpen;
  error.status = Status::NotFound("no such object");
  auto error_rt = DecodeResponse(EncodeResponse(error));
  ASSERT_TRUE(error_rt.ok());
  EXPECT_EQ(error_rt->status.code(), StatusCode::kNotFound);
  EXPECT_EQ(error_rt->status.message(), "no such object");
}

TEST(ServeProtocolTest, TruncatedPayloadIsCorruption) {
  Request request;
  request.type = RequestType::kOpen;
  request.object_name = "clip";
  Bytes payload = EncodeRequest(request);
  for (size_t cut = 1; cut < payload.size(); ++cut) {
    auto decoded =
        DecodeRequest(ByteSpan(payload.data(), payload.size() - cut));
    EXPECT_FALSE(decoded.ok()) << "cut=" << cut;
  }
}

TEST(ServeProtocolTest, TrailingBytesRejected) {
  Request request;
  request.type = RequestType::kStats;
  request.session_id = 3;
  Bytes payload = EncodeRequest(request);
  payload.push_back(0xAA);
  auto decoded = DecodeRequest(payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

TEST(ServeProtocolTest, UnknownEnumValuesRejected) {
  // Request type 0 and 0x77 are outside the verb set.
  for (uint8_t type : {uint8_t{0}, uint8_t{0x77}}) {
    Bytes payload = {type, 0};
    auto decoded = DecodeRequest(payload);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }

  // Unknown wire status code.
  BinaryWriter bad_code;
  bad_code.WriteU8(static_cast<uint8_t>(RequestType::kClose));
  bad_code.WriteU8(200);
  bad_code.WriteString("x");
  auto code_rt = DecodeResponse(bad_code.TakeBuffer());
  ASSERT_FALSE(code_rt.ok());
  EXPECT_EQ(code_rt.status().code(), StatusCode::kInvalidArgument);

  // Unknown session state in a STATS body.
  BinaryWriter bad_state;
  bad_state.WriteU8(static_cast<uint8_t>(RequestType::kStats));
  bad_state.WriteU8(0);
  bad_state.WriteString("");
  bad_state.WriteU8(9);  // No such SessionState.
  auto state_rt = DecodeResponse(bad_state.TakeBuffer());
  ASSERT_FALSE(state_rt.ok());
  EXPECT_EQ(state_rt.status().code(), StatusCode::kInvalidArgument);
}

TEST(ServeProtocolTest, ElementCountBeyondFrameIsCorruption) {
  // A READ body claiming millions of elements in a near-empty frame
  // must be rejected before any allocation is sized from it.
  BinaryWriter writer;
  writer.WriteU8(static_cast<uint8_t>(RequestType::kRead));
  writer.WriteU8(0);
  writer.WriteString("");
  writer.WriteU8(0);        // end_of_stream
  writer.WriteU32(1);       // stride
  writer.WriteVarU64(1u << 24);  // element count, but no elements follow
  auto decoded = DecodeResponse(writer.TakeBuffer());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

// ---------------------------------------------------------------------------
// Loopback transport (non-blocking readiness interface)

TEST(LoopbackTransportTest, FramesRoundTrip) {
  auto [a, b] = CreateLoopbackPair();
  Bytes payload = ElementPayload(5);
  ASSERT_TRUE(WriteFrame(*a, payload).ok());
  auto received = ReadFrame(*b);
  ASSERT_TRUE(received.ok());
  EXPECT_EQ(*received, payload);

  // Empty frames are legal.
  ASSERT_TRUE(WriteFrame(*b, {}).ok());
  auto empty = ReadFrame(*a);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

TEST(LoopbackTransportTest, OversizedLengthPrefixRejected) {
  auto [a, b] = CreateLoopbackPair();
  uint8_t prefix[4] = {0xFF, 0xFF, 0xFF, 0x7F};
  ASSERT_TRUE(BlockingSend(*a, ByteSpan(prefix, 4),
                           std::chrono::milliseconds(1000))
                  .ok());
  auto frame = ReadFrame(*b, /*max_frame=*/1 << 20);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kCorruption);
}

TEST(LoopbackTransportTest, WriteSomeReportsWouldBlockWhenFull) {
  LoopbackOptions options;
  options.buffer_bytes = 64;
  auto [a, b] = CreateLoopbackPair(options);
  Bytes big(1024, 0x5A);

  // The buffer takes the first 64 bytes, then would-block (0).
  auto first = a->WriteSome(big);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, 64u);
  auto blocked = a->WriteSome(ByteSpan(big.data() + 64, big.size() - 64));
  ASSERT_TRUE(blocked.ok());
  EXPECT_EQ(*blocked, 0u);
  EXPECT_EQ(a->Poll() & kTransportWritable, 0u);

  // A bounded blocking send on the clogged pipe gives up with
  // ResourceExhausted rather than hanging.
  Status timed_out =
      BlockingSend(*a, big, std::chrono::milliseconds(30));
  ASSERT_FALSE(timed_out.ok());
  EXPECT_EQ(timed_out.code(), StatusCode::kResourceExhausted);

  // Draining the consumer side restores writability and wakes the
  // waker.
  std::atomic<int> wakes{0};
  a->SetWaker([&] { wakes.fetch_add(1); });
  Bytes sink(64);
  auto drained = b->ReadSome(sink.data(), sink.size());
  ASSERT_TRUE(drained.ok());
  EXPECT_EQ(*drained, 64u);
  EXPECT_NE(a->Poll() & kTransportWritable, 0u);
  EXPECT_GT(wakes.load(), 0);
}

TEST(LoopbackTransportTest, ReadSomeReportsWouldBlockWhenEmpty) {
  auto [a, b] = CreateLoopbackPair();
  uint8_t byte;
  auto empty = b->ReadSome(&byte, 1);
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(*empty, 0u);
  EXPECT_EQ(b->Poll() & kTransportReadable, 0u);

  std::atomic<int> wakes{0};
  b->SetWaker([&] { wakes.fetch_add(1); });
  Bytes data = {9};
  ASSERT_TRUE(BlockingSend(*a, data, std::chrono::milliseconds(100)).ok());
  EXPECT_NE(b->Poll() & kTransportReadable, 0u);
  EXPECT_GT(wakes.load(), 0);
  auto got = b->ReadSome(&byte, 1);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, 1u);
  EXPECT_EQ(byte, 9);
}

TEST(LoopbackTransportTest, CloseUnblocksRecvAndFailsSend) {
  auto [a, b] = CreateLoopbackPair();
  std::atomic<bool> failed{false};
  std::thread receiver([&] {
    uint8_t byte;
    Status status =
        BlockingRecv(*b, &byte, 1, std::chrono::milliseconds(5000));
    failed.store(!status.ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  a->Close();
  receiver.join();
  EXPECT_TRUE(failed.load());
  Bytes data = {1, 2, 3};
  EXPECT_EQ(
      BlockingSend(*a, data, std::chrono::milliseconds(100)).code(),
      StatusCode::kIOError);
  EXPECT_NE(a->Poll() & kTransportClosed, 0u);
}

// ---------------------------------------------------------------------------
// Session state machine (driven directly, no server)

TEST(ServeSessionTest, StridedSessionSkipsAndFinishesDegraded) {
  auto db = BuildServeDb();
  auto interp_id = db->FindByName("clip_interp");
  ASSERT_TRUE(interp_id.ok());
  auto entry = db->Get(*interp_id);
  ASSERT_TRUE(entry.ok());

  Session::Config config;
  config.stride = 4;
  auto session = Session::Create(1, "clip", db->blob_store(),
                                 (*entry)->interpretation, "clip", config);
  ASSERT_TRUE(session.ok()) << session.status().message();
  EXPECT_EQ((*session)->state(), SessionState::kAdmitted);
  EXPECT_TRUE((*session)->degraded());

  std::vector<uint64_t> numbers;
  for (;;) {
    auto batch = (*session)->ReadNext(64);
    ASSERT_TRUE(batch.ok()) << batch.status().message();
    for (const WireElement& element : batch->elements) {
      numbers.push_back(element.element_number);
      EXPECT_EQ(element.payload,
                ElementPayload(static_cast<int>(element.element_number)));
    }
    if (batch->end_of_stream) break;
  }
  EXPECT_EQ(numbers, (std::vector<uint64_t>{0, 4, 8, 12, 16, 20, 24, 28}));
  EXPECT_EQ((*session)->state(), SessionState::kDegraded);

  // Terminal sessions refuse further reads and seeks.
  EXPECT_EQ((*session)->ReadNext(1).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ((*session)->SeekTo(0).status().code(),
            StatusCode::kFailedPrecondition);
}

// One session, one reader: a stride-1 read, a seek and a degrade all go
// through the session's element stream, which reads whole chunks (here
// 4 elements each) over a store with scripted transient faults. An
// element whose chunk and fallback reads both fail after the retry is
// skipped and counted; every other element arrives bit-exact.
TEST(ServeSessionTest, SeekAndDegradeStreamThroughFaults) {
  auto store =
      std::make_unique<FaultInjectingStore>(std::make_unique<MemoryBlobStore>());
  FaultInjectingStore* faults = store.get();
  auto db = BuildServeDbOn(std::move(store));
  auto entry = db->Get(*db->FindByName("clip_interp"));
  ASSERT_TRUE(entry.ok());
  Session::Config config;
  config.read_options.chunk_size = 4 * kElementBytes;
  config.read_options.policy.max_retries = 1;
  config.read_options.policy.backoff_initial_us = 0;
  auto session = Session::Create(3, "clip", db->blob_store(),
                                 (*entry)->interpretation, "clip", config);
  ASSERT_TRUE(session.ok()) << session.status();

  std::vector<uint64_t> delivered;
  auto read = [&](uint64_t max_elements) {
    auto batch = (*session)->ReadNext(max_elements);
    ASSERT_TRUE(batch.ok()) << batch.status();
    for (const WireElement& element : batch->elements) {
      EXPECT_EQ(element.payload,
                ElementPayload(static_cast<int>(element.element_number)))
          << "element " << element.element_number;
      delivered.push_back(element.element_number);
    }
  };
  const uint64_t reads_before = faults->reads_seen();
  // Elements 0..3 from chunk 0, whose first read fails and is retried.
  faults->FailNextReads(1);
  read(4);
  EXPECT_EQ(faults->reads_seen() - reads_before, 2u);

  // 12..14 from chunk 3, after a seek.
  ASSERT_TRUE((*session)->SeekTo(12).ok());
  read(3);
  EXPECT_EQ(faults->reads_seen() - reads_before, 3u);

  // Stride 2 from element 15: chunks 3..7. Chunk 3 fails twice, then so
  // does element 15's fallback read, so 15 is skipped; 17..31 stream
  // from chunks 4..7.
  (*session)->Degrade();
  EXPECT_EQ((*session)->stride(), 2u);
  faults->FailNextReads(4);
  while ((*session)->state() == SessionState::kStreaming) read(4);
  EXPECT_EQ(faults->reads_seen() - reads_before, 3u + 4u + 4u);

  std::vector<uint64_t> want = {0, 1, 2, 3, 12, 13, 14};
  for (uint64_t e = 17; e < kElements; e += 2) want.push_back(e);
  EXPECT_EQ(delivered, want);
  SessionStatsWire stats = (*session)->StatsWire();
  EXPECT_EQ(stats.elements_delivered, want.size());
  EXPECT_EQ(stats.elements_skipped, 1u);
  EXPECT_EQ(stats.state, SessionState::kDegraded);
  EXPECT_EQ(stats.stride, 2u);
}

TEST(ServeSessionTest, SeekOutOfRangeAndEviction) {
  auto db = BuildServeDb();
  auto entry = db->Get(*db->FindByName("clip_interp"));
  ASSERT_TRUE(entry.ok());
  Session::Config config;
  auto session = Session::Create(2, "clip", db->blob_store(),
                                 (*entry)->interpretation, "clip", config);
  ASSERT_TRUE(session.ok());
  EXPECT_EQ((*session)->SeekTo(kElements).status().code(),
            StatusCode::kOutOfRange);
  auto position = (*session)->SeekTo(30);
  ASSERT_TRUE(position.ok());
  EXPECT_EQ(*position, 30u);
  (*session)->MarkEvicted();
  EXPECT_EQ((*session)->state(), SessionState::kEvicted);
  EXPECT_EQ((*session)->ReadNext(1).status().code(),
            StatusCode::kFailedPrecondition);
}

// A READ batch stops before the element that would take it past 4 MiB;
// an element larger than that still goes out, alone in its batch.
TEST(ServeSessionTest, BatchesStopAtFourMebibytes) {
  constexpr size_t kMiB = 1 << 20;
  auto db = BuildSizedDb({3 * kMiB / 2, 3 * kMiB / 2, 3 * kMiB / 2, 5 * kMiB});
  auto entry = db->Get(*db->FindByName("clip_interp"));
  ASSERT_TRUE(entry.ok());
  auto session = Session::Create(4, "clip", db->blob_store(),
                                 (*entry)->interpretation, "clip", {});
  ASSERT_TRUE(session.ok()) << session.status();

  std::vector<std::vector<uint64_t>> batches;
  for (;;) {
    auto batch = (*session)->ReadNext(64);
    ASSERT_TRUE(batch.ok()) << batch.status();
    std::vector<uint64_t> numbers;
    for (const WireElement& element : batch->elements) {
      numbers.push_back(element.element_number);
    }
    batches.push_back(numbers);
    if (batch->end_of_stream) break;
  }
  EXPECT_EQ(batches, (std::vector<std::vector<uint64_t>>{{0, 1}, {2}, {3}}));
}

// ---------------------------------------------------------------------------
// Server end-to-end over loopback

TEST(MediaServerTest, ReadBatchIsCappedAtSixtyFourElements) {
  auto db = BuildSizedDb(std::vector<size_t>(100, 16));
  MediaServer server(db.get());
  auto [client_end, server_end] = CreateLoopbackPair();
  ASSERT_TRUE(server.Serve(std::move(server_end)).ok());
  auto connection = Connect(std::move(client_end));
  auto stream = connection->OpenStream("clip");
  ASSERT_TRUE(stream.ok()) << stream.status();

  auto first = (*stream)->Read(1000);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->elements.size(), 64u);
  EXPECT_FALSE(first->end_of_stream);
  auto rest = (*stream)->Read(1000);
  ASSERT_TRUE(rest.ok()) << rest.status();
  EXPECT_EQ(rest->elements.size(), 36u);
  EXPECT_TRUE(rest->end_of_stream);
  EXPECT_TRUE((*stream)->Close().ok());
}

TEST(MediaServerTest, StreamsWholeObjectAndFinishesDone) {
  auto db = BuildServeDb();
  MediaServer server(db.get());
  auto [client_end, server_end] = CreateLoopbackPair();
  ASSERT_TRUE(server.Serve(std::move(server_end)).ok());

  auto connection = Connect(std::move(client_end));
  auto stream = connection->OpenStream("clip");
  ASSERT_TRUE(stream.ok()) << stream.status().message();
  const OpenInfo& open = (*stream)->info();
  EXPECT_EQ(open.element_count, static_cast<uint64_t>(kElements));
  EXPECT_EQ(open.payload_bytes,
            static_cast<uint64_t>(kElements) * kElementBytes);
  EXPECT_EQ(open.stride, 1u);
  EXPECT_GT(open.booked_bytes_per_second, 0.0);

  std::vector<uint64_t> numbers;
  bool end_of_stream = false;
  while (!end_of_stream) {
    auto batch = (*stream)->Read(8);
    ASSERT_TRUE(batch.ok()) << batch.status().message();
    for (const WireElement& element : batch->elements) {
      EXPECT_EQ(element.payload,
                ElementPayload(static_cast<int>(element.element_number)));
      numbers.push_back(element.element_number);
    }
    end_of_stream = batch->end_of_stream;
  }
  ASSERT_EQ(numbers.size(), static_cast<size_t>(kElements));
  for (int i = 0; i < kElements; ++i) {
    EXPECT_EQ(numbers[static_cast<size_t>(i)], static_cast<uint64_t>(i));
  }

  auto stats = (*stream)->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->state, SessionState::kDone);
  EXPECT_EQ(stats->elements_delivered, static_cast<uint64_t>(kElements));
  EXPECT_EQ(stats->elements_skipped, 0u);
  EXPECT_TRUE((*stream)->Close().ok());

  server.Stop();
  ServerStatsSnapshot snapshot = server.stats();
  EXPECT_EQ(snapshot.sessions_admitted, 1u);
  EXPECT_EQ(snapshot.sessions_denied, 0u);
  EXPECT_EQ(snapshot.sessions_evicted, 0u);
}

TEST(MediaServerTest, SeekResumesFromTarget) {
  auto db = BuildServeDb();
  MediaServer server(db.get());
  auto [client_end, server_end] = CreateLoopbackPair();
  ASSERT_TRUE(server.Serve(std::move(server_end)).ok());
  auto connection = Connect(std::move(client_end));
  auto stream = connection->OpenStream("clip");
  ASSERT_TRUE(stream.ok()) << stream.status().message();
  auto first = (*stream)->Read(4);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->elements.size(), 4u);

  auto position = (*stream)->Seek(30);
  ASSERT_TRUE(position.ok());
  EXPECT_EQ(*position, 30u);
  auto tail = (*stream)->Read(8);
  ASSERT_TRUE(tail.ok());
  ASSERT_EQ(tail->elements.size(), 2u);
  EXPECT_EQ(tail->elements[0].element_number, 30u);
  EXPECT_EQ(tail->elements[1].element_number, 31u);
  EXPECT_TRUE(tail->end_of_stream);
  EXPECT_TRUE((*stream)->Close().ok());
}

TEST(MediaServerTest, ErrorsAreWireStatusesNotDisconnects) {
  // Driven entirely over raw frames on one stream id, with no client
  // library in between to paper over what the server sends back.
  auto db = BuildServeDb();
  MediaServer server(db.get());
  auto [client_end, server_end] = CreateLoopbackPair();
  ASSERT_TRUE(server.Serve(std::move(server_end)).ok());

  // READ before OPEN.
  Request read;
  read.type = RequestType::kRead;
  read.max_elements = 1;
  auto early = RawRoundTrip(*client_end, read);
  ASSERT_TRUE(early.ok()) << early.status().message();
  EXPECT_EQ(early->status.code(), StatusCode::kFailedPrecondition);

  // OPEN of a name that is not in the catalog.
  Request missing;
  missing.type = RequestType::kOpen;
  missing.object_name = "nope";
  auto not_found = RawRoundTrip(*client_end, missing);
  ASSERT_TRUE(not_found.ok());
  EXPECT_EQ(not_found->status.code(), StatusCode::kNotFound);

  // A malformed payload inside a well-formed frame draws an error
  // response and leaves the connection usable.
  Bytes garbage = {0x01, 0xDE, 0xAD};
  ASSERT_TRUE(SendRaw(*client_end, garbage).ok());
  auto raw = ReadFrame(*client_end, kMaxFrameBytes);
  ASSERT_TRUE(raw.ok());
  auto frame = DecodeFrameBody(*raw);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->header.stream_id, kRawStream);
  auto decoded = DecodeResponse(frame->payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_FALSE(decoded->status.ok());

  // The connection still works: a real OPEN succeeds.
  Request open;
  open.type = RequestType::kOpen;
  open.object_name = "clip";
  auto opened = RawRoundTrip(*client_end, open);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  ASSERT_TRUE(opened->status.ok()) << opened->status.message();
  uint64_t session_id = opened->open.session_id;

  // A second OPEN on the same stream id is refused.
  auto second = RawRoundTrip(*client_end, open);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(second->status.message().find("duplicate stream id"),
            std::string::npos);

  // A request addressing a different session id is refused.
  Request mismatch;
  mismatch.type = RequestType::kRead;
  mismatch.session_id = session_id + 99;
  mismatch.max_elements = 1;
  auto refused = RawRoundTrip(*client_end, mismatch);
  ASSERT_TRUE(refused.ok());
  EXPECT_EQ(refused->status.code(), StatusCode::kInvalidArgument);

  Request close;
  close.type = RequestType::kClose;
  close.session_id = session_id;
  auto closed = RawRoundTrip(*client_end, close);
  ASSERT_TRUE(closed.ok());
  EXPECT_TRUE(closed->status.ok());
}

TEST(MediaServerTest, AdmissionDegradesBeforeDenying) {
  auto db = BuildServeDb();
  ServeConfig config;
  // The clip's average rate is 10 000 bytes/s. 26 000 admits two at
  // full fidelity, a third only at stride 2 (5 000), and nothing more
  // even at the deepest tier.
  config.capacity_bytes_per_second = 26000;
  config.max_stride = 8;
  MediaServer server(db.get(), config);

  // Declared before `streams` so every StreamHandle dies before its
  // Connection.
  std::vector<std::unique_ptr<Connection>> connections;
  std::vector<std::unique_ptr<StreamHandle>> streams;
  std::vector<uint32_t> strides;
  bool denied = false;
  for (int i = 0; i < 4; ++i) {
    auto [client_end, server_end] = CreateLoopbackPair();
    ASSERT_TRUE(server.Serve(std::move(server_end)).ok());
    connections.push_back(Connect(std::move(client_end)));
    auto stream = connections.back()->OpenStream("clip");
    if (stream.ok()) {
      // Every admission so far must precede the first denial: degrade
      // comes before deny.
      EXPECT_FALSE(denied);
      strides.push_back((*stream)->info().stride);
      streams.push_back(std::move(*stream));
    } else {
      EXPECT_EQ(stream.status().code(), StatusCode::kResourceExhausted);
      denied = true;
    }
  }
  EXPECT_EQ(strides, (std::vector<uint32_t>{1, 1, 2}));
  EXPECT_TRUE(denied);

  ServerStatsSnapshot snapshot = server.stats();
  EXPECT_EQ(snapshot.sessions_admitted, 3u);
  EXPECT_EQ(snapshot.sessions_degraded, 1u);
  EXPECT_EQ(snapshot.sessions_denied, 1u);

  // Capacity released by a CLOSE readmits at full fidelity.
  ASSERT_TRUE(streams[0]->Close().ok());
  auto [client_end, server_end] = CreateLoopbackPair();
  ASSERT_TRUE(server.Serve(std::move(server_end)).ok());
  auto fresh = Connect(std::move(client_end));
  auto reopened = fresh->OpenStream("clip");
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  EXPECT_EQ((*reopened)->info().stride, 1u);
  EXPECT_TRUE((*reopened)->Close().ok());
}

TEST(MediaServerTest, SlowClientIsEvicted) {
  auto db = BuildServeDb();
  ServeConfig config;
  config.stall_timeout = std::chrono::milliseconds(100);
  MediaServer server(db.get(), config);
  LoopbackOptions options;
  options.buffer_bytes = 128;  // Smaller than one element payload.
  auto [client_end, server_end] = CreateLoopbackPair(options);
  ASSERT_TRUE(server.Serve(std::move(server_end)).ok());

  Request open;
  open.type = RequestType::kOpen;
  open.object_name = "clip";
  auto opened = RawRoundTrip(*client_end, open);
  ASSERT_TRUE(opened.ok());
  ASSERT_TRUE(opened->status.ok()) << opened->status.message();

  // Ask for a batch far larger than the transport buffer and never
  // drain it: the server's writes stall past the timeout and the
  // connection is torn down, evicting the stream.
  Request request;
  request.type = RequestType::kRead;
  request.session_id = opened->open.session_id;
  request.max_elements = 16;
  ASSERT_TRUE(SendRaw(*client_end, EncodeRequest(request)).ok());

  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.stats().sessions_evicted == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server.stats().sessions_evicted, 1u);

  // The server hung up; once the buffered bytes drain, reads fail.
  Bytes sink(1u << 16);
  Status gone = Status::OK();
  while (gone.ok()) {
    gone = BlockingRecv(*client_end, sink.data(), sink.size(),
                        std::chrono::milliseconds(1000));
  }
  EXPECT_FALSE(gone.ok());
}

TEST(MediaServerTest, ConnectionTableCapacityIsEnforced) {
  auto db = BuildServeDb();
  ServeConfig config;
  config.max_sessions = 2;  // max_connections defaults to this too.
  MediaServer server(db.get(), config);
  auto [c1, s1] = CreateLoopbackPair();
  auto [c2, s2] = CreateLoopbackPair();
  auto [c3, s3] = CreateLoopbackPair();
  ASSERT_TRUE(server.Serve(std::move(s1)).ok());
  ASSERT_TRUE(server.Serve(std::move(s2)).ok());
  Status full = server.Serve(std::move(s3));
  ASSERT_FALSE(full.ok());
  EXPECT_EQ(full.code(), StatusCode::kResourceExhausted);
}

// ---------------------------------------------------------------------------
// Concurrency under injected faults

TEST(MediaServerConcurrencyTest, SixteenSessionsWithFaultsAllComplete) {
  auto db = BuildServeDb(/*read_fault_rate=*/0.05);
  ServeConfig config;
  config.capacity_bytes_per_second = 8.0 * 1024 * 1024;
  config.worker_threads = 4;
  config.io_threads = 2;
  config.read_options.policy.max_retries = 4;
  config.read_options.policy.backoff_initial_us = 50.0;
  MediaServer server(db.get(), config);

  constexpr int kSessions = 16;
  std::vector<std::thread> threads;
  std::vector<SessionState> final_states(kSessions, SessionState::kOpen);
  // Not vector<bool>: each thread writes its own slot, and the packed
  // bits of vector<bool> would make those writes share bytes.
  std::vector<char> payloads_ok(kSessions, 0);
  std::atomic<int> failures{0};

  for (int i = 0; i < kSessions; ++i) {
    auto [client_end, server_end] = CreateLoopbackPair();
    ASSERT_TRUE(server.Serve(std::move(server_end)).ok());
    threads.emplace_back([&, i, endpoint = std::move(client_end)]() mutable {
      auto connection = Connect(std::move(endpoint));
      auto stream = connection->OpenStream("clip");
      if (!stream.ok()) {
        failures.fetch_add(1);
        return;
      }
      bool all_payloads_ok = true;
      bool end_of_stream = false;
      for (int rounds = 0; !end_of_stream && rounds < 256; ++rounds) {
        auto batch = (*stream)->Read(8);
        if (!batch.ok()) {
          failures.fetch_add(1);
          return;
        }
        for (const WireElement& element : batch->elements) {
          if (element.payload !=
              ElementPayload(static_cast<int>(element.element_number))) {
            all_payloads_ok = false;
          }
        }
        end_of_stream = batch->end_of_stream;
      }
      auto stats = (*stream)->Stats();
      if (!stats.ok()) {
        failures.fetch_add(1);
        return;
      }
      final_states[static_cast<size_t>(i)] = stats->state;
      payloads_ok[static_cast<size_t>(i)] = all_payloads_ok;
      (void)(*stream)->Close();
    });
  }
  for (std::thread& thread : threads) thread.join();
  server.Stop();

  EXPECT_EQ(failures.load(), 0);
  for (int i = 0; i < kSessions; ++i) {
    SessionState state = final_states[static_cast<size_t>(i)];
    EXPECT_TRUE(state == SessionState::kDone ||
                state == SessionState::kDegraded)
        << "session " << i << " ended " << SessionStateToString(state);
    EXPECT_TRUE(payloads_ok[static_cast<size_t>(i)]) << "session " << i;
  }
  ServerStatsSnapshot snapshot = server.stats();
  EXPECT_EQ(snapshot.sessions_admitted, static_cast<uint64_t>(kSessions));
  EXPECT_EQ(snapshot.sessions_evicted, 0u);
  EXPECT_EQ(snapshot.active_sessions, 0u);
}

}  // namespace
}  // namespace serve
}  // namespace tbm
