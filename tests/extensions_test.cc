// Tests for the extension features: edit lists compiled to derivation
// objects (§4.2), rights/authorization (§6 future work), activity-based
// flows (§6 / ref [5]), interchange export, and the extended derivation
// operators.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>

#include "codec/color.h"
#include "codec/export.h"
#include "codec/layered.h"
#include "codec/pcm.h"
#include "codec/synthetic.h"
#include "db/database.h"
#include "db/edit_list.h"
#include "db/rights.h"
#include "playback/activity.h"

namespace tbm {
namespace {

const DerivationRegistry& Reg() { return DerivationRegistry::Builtin(); }

Result<ObjectId> IngestVideo(MediaDatabase* db, const std::string& name,
                             uint32_t scene, int64_t frames) {
  VideoValue video;
  video.frame_rate = Rational(25);
  video.frames = videogen::Clip(48, 32, frames, scene);
  StoreOptions options;
  options.video_codec = "raw";
  auto interp = StoreValue(db->blob_store(), video, name, options);
  if (!interp.ok()) return interp.status();
  auto interp_id = db->AddInterpretation(name + "_interp", *interp);
  if (!interp_id.ok()) return interp_id.status();
  return db->AddMediaObject(name, *interp_id, name);
}

// ---------------------------------------------------------------------------
// EditList

TEST(EditListTest, ValidationRules) {
  EditList list;
  EXPECT_TRUE(list.AddSelection(1, 10, 10).IsInvalidArgument());  // Empty.
  EXPECT_TRUE(list.AddSelection(1, -1, 5).IsInvalidArgument());
  // First selection cannot carry a transition.
  EXPECT_TRUE(list.AddSelection(1, 0, 10, EditList::Join::kFade, 5)
                  .IsInvalidArgument());
  ASSERT_TRUE(list.AddSelection(1, 0, 10).ok());
  // Transition requires positive frames and fitting selections.
  EXPECT_TRUE(list.AddSelection(1, 0, 10, EditList::Join::kFade, 0)
                  .IsInvalidArgument());
  EXPECT_TRUE(list.AddSelection(1, 0, 4, EditList::Join::kFade, 5)
                  .IsInvalidArgument());  // Shorter than transition.
  ASSERT_TRUE(list.AddSelection(1, 0, 10, EditList::Join::kFade, 5).ok());
  EXPECT_EQ(list.OutputFrames(), 10 + 10 - 5);
}

TEST(EditListTest, TimecodeAddressing) {
  EditList list;
  // 00:00:01:00 .. 00:00:02:00 at 25 fps = frames [25, 50).
  ASSERT_TRUE(list.AddSelectionTimecode(1, "00:00:01:00", "00:00:02:00", 25)
                  .ok());
  EXPECT_EQ(list.entries()[0].in_frame, 25);
  EXPECT_EQ(list.entries()[0].out_frame, 50);
  EXPECT_TRUE(list.AddSelectionTimecode(1, "garbage", "00:00:02:00", 25)
                  .IsInvalidArgument());
}

TEST(EditListTest, CompilesAndExpands) {
  auto db = MediaDatabase::CreateInMemory();
  auto video = IngestVideo(db.get(), "tape", 5, 100);
  ASSERT_TRUE(video.ok());

  EditList list;
  ASSERT_TRUE(list.AddSelection(*video, 0, 30).ok());
  ASSERT_TRUE(list.AddSelection(*video, 50, 80).ok());  // Plain cut.
  ASSERT_TRUE(
      list.AddSelection(*video, 10, 40, EditList::Join::kFade, 10).ok());
  EXPECT_EQ(list.OutputFrames(), 30 + 30 + 30 - 10);

  auto program = list.Compile(db.get(), "program");
  ASSERT_TRUE(program.ok()) << program.status();
  auto value = db->Materialize(*program);
  ASSERT_TRUE(value.ok()) << value.status();
  EXPECT_EQ(std::get<VideoValue>(*value).frames.size(),
            static_cast<size_t>(list.OutputFrames()));

  // The compiled program is pure metadata.
  auto record = db->DerivationRecordBytes(*program);
  ASSERT_TRUE(record.ok());
  EXPECT_LT(*record, 1000u);
  // Sources untouched.
  auto source = db->MaterializeStream(*video);
  ASSERT_TRUE(source.ok());
  EXPECT_EQ(source->size(), 100u);
}

TEST(EditListTest, EmptyCompileFails) {
  auto db = MediaDatabase::CreateInMemory();
  EditList list;
  EXPECT_TRUE(list.Compile(db.get(), "x").status().IsFailedPrecondition());
}

TEST(EditListTest, WipeJoin) {
  auto db = MediaDatabase::CreateInMemory();
  auto a = IngestVideo(db.get(), "a", 1, 40);
  auto b = IngestVideo(db.get(), "b", 2, 40);
  ASSERT_TRUE(a.ok() && b.ok());
  EditList list;
  ASSERT_TRUE(list.AddSelection(*a, 0, 20).ok());
  ASSERT_TRUE(list.AddSelection(*b, 0, 20, EditList::Join::kWipe, 6).ok());
  auto program = list.Compile(db.get(), "wiped");
  ASSERT_TRUE(program.ok());
  auto value = db->Materialize(*program);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(std::get<VideoValue>(*value).frames.size(), 34u);
}

// ---------------------------------------------------------------------------
// Rights

TEST(RightsTest, UnprotectedIsOpen) {
  RightsManager rights;
  EXPECT_TRUE(rights.Check(1, "anyone", MediaOperation::kDelete).ok());
  EXPECT_FALSE(rights.IsProtected(1));
}

TEST(RightsTest, OwnerAlwaysAllowed) {
  RightsManager rights;
  ASSERT_TRUE(rights.Protect(1, "alice", "(c) 1994 alice").ok());
  for (auto op : {MediaOperation::kRead, MediaOperation::kDerive,
                  MediaOperation::kCompose, MediaOperation::kModify,
                  MediaOperation::kDelete}) {
    EXPECT_TRUE(rights.Check(1, "alice", op).ok());
    EXPECT_TRUE(rights.Check(1, "bob", op).IsFailedPrecondition());
  }
}

TEST(RightsTest, GrantsAndWildcards) {
  RightsManager rights;
  ASSERT_TRUE(rights.Protect(1, "alice").ok());
  ASSERT_TRUE(rights.Grant(1, "bob", MaskOf(MediaOperation::kRead) |
                                         MaskOf(MediaOperation::kDerive))
                  .ok());
  ASSERT_TRUE(rights.Grant(1, "*", MaskOf(MediaOperation::kRead)).ok());
  EXPECT_TRUE(rights.Check(1, "bob", MediaOperation::kDerive).ok());
  EXPECT_TRUE(rights.Check(1, "bob", MediaOperation::kDelete)
                  .IsFailedPrecondition());
  // Wildcard covers strangers for read only.
  EXPECT_TRUE(rights.Check(1, "carol", MediaOperation::kRead).ok());
  EXPECT_TRUE(rights.Check(1, "carol", MediaOperation::kDerive)
                  .IsFailedPrecondition());
  // Revocation.
  ASSERT_TRUE(rights.Revoke(1, "bob").ok());
  EXPECT_TRUE(rights.Check(1, "bob", MediaOperation::kDerive)
                  .IsFailedPrecondition());
  EXPECT_TRUE(rights.Check(1, "bob", MediaOperation::kRead).ok());  // Via "*".
  EXPECT_TRUE(rights.Revoke(1, "bob").IsNotFound());
}

TEST(RightsTest, OwnershipTransfer) {
  RightsManager rights;
  ASSERT_TRUE(rights.Protect(1, "alice").ok());
  ASSERT_TRUE(rights.TransferOwnership(1, "bob").ok());
  EXPECT_TRUE(rights.Check(1, "bob", MediaOperation::kDelete).ok());
  EXPECT_TRUE(
      rights.Check(1, "alice", MediaOperation::kDelete).IsFailedPrecondition());
}

TEST(RightsTest, DerivedCopyrightNotice) {
  RightsManager rights;
  ASSERT_TRUE(rights.Protect(1, "alice", "(c) alice 1994").ok());
  ASSERT_TRUE(rights.Protect(2, "bob", "(c) bob 1993").ok());
  std::string notice = rights.DeriveCopyrightNotice({1, 2, 3});
  EXPECT_NE(notice.find("(c) alice 1994"), std::string::npos);
  EXPECT_NE(notice.find("(c) bob 1993"), std::string::npos);
  EXPECT_TRUE(rights.DeriveCopyrightNotice({3, 4}).empty());
}

TEST(RightsTest, SerializeRoundTrip) {
  RightsManager rights;
  ASSERT_TRUE(rights.Protect(7, "alice", "(c) alice").ok());
  ASSERT_TRUE(rights.Grant(7, "bob", kAllOperations).ok());
  BinaryWriter writer;
  rights.Serialize(&writer);
  BinaryReader reader(writer.buffer());
  auto restored = RightsManager::Deserialize(&reader);
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(restored->IsProtected(7));
  EXPECT_TRUE(restored->Check(7, "bob", MediaOperation::kDelete).ok());
  EXPECT_TRUE(restored->Check(7, "carol", MediaOperation::kRead)
                  .IsFailedPrecondition());
}

TEST(RightsTest, DoubleProtectFails) {
  RightsManager rights;
  ASSERT_TRUE(rights.Protect(1, "alice").ok());
  EXPECT_TRUE(rights.Protect(1, "bob").IsAlreadyExists());
  EXPECT_TRUE(rights.Protect(2, "").IsInvalidArgument());
  EXPECT_TRUE(rights.Grant(99, "bob", 1).IsNotFound());
}

// ---------------------------------------------------------------------------
// Activities

MediaDescriptor AudioDesc() {
  MediaDescriptor desc;
  desc.type_name = "audio/pcm-block";
  desc.kind = MediaKind::kAudio;
  return desc;
}

TimedStream BlockStream(int64_t blocks, int64_t duration, uint8_t fill) {
  TimedStream stream(AudioDesc(), TimeSystem(1000));
  for (int64_t i = 0; i < blocks; ++i) {
    EXPECT_TRUE(stream.AppendContiguous(Bytes(100, fill), duration).ok());
  }
  return stream;
}

TEST(ActivityTest, SourceStreamsAllElements) {
  TimedStream stream = BlockStream(10, 5, 1);
  StreamSource source(&stream);
  FlowStats stats;
  auto out = RunToStream(&source, &stats);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 10u);
  EXPECT_EQ(stats.elements, 10);
  EXPECT_EQ(stats.bytes, 1000u);
  // Exhausted source keeps returning NotFound.
  EXPECT_TRUE(source.Next().status().IsNotFound());
}

TEST(ActivityTest, TransformAppliesPerElement) {
  TimedStream stream = BlockStream(5, 5, 1);
  auto pipeline = std::make_unique<TransformActivity>(
      std::make_unique<StreamSource>(&stream),
      [](StreamElement element) -> Result<StreamElement> {
        Bytes doubled = element.data.MutableCopy();
        for (uint8_t& byte : doubled) byte *= 2;
        element.data = std::move(doubled);
        return element;
      });
  auto out = RunToStream(pipeline.get());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->at(3).data[0], 2);
}

TEST(ActivityTest, TransformErrorsAbortFlow) {
  TimedStream stream = BlockStream(5, 5, 1);
  TransformActivity failing(
      std::make_unique<StreamSource>(&stream),
      [](StreamElement element) -> Result<StreamElement> {
        if (element.start >= 10) return Status::Corruption("boom");
        return element;
      });
  auto out = RunToStream(&failing);
  EXPECT_TRUE(out.status().IsCorruption());
}

TEST(ActivityTest, SpanFilterIsStreamingDurationQuery) {
  TimedStream stream = BlockStream(20, 5, 1);  // Spans [0, 100).
  SpanFilterActivity filter(std::make_unique<StreamSource>(&stream),
                            TickSpan{25, 30});
  auto out = RunToStream(&filter);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 6u);  // Elements at 25..50.
  EXPECT_EQ(out->StartTime(), 25);
}

TEST(ActivityTest, MergeInterleavesByStartTime) {
  // Audio blocks every 10 ticks, "video" elements every 25.
  TimedStream a = BlockStream(10, 10, 1);
  TimedStream b(AudioDesc(), TimeSystem(1000));
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(b.AppendContiguous(Bytes(50, 9), 25).ok());
  }
  MergeActivity merge(std::make_unique<StreamSource>(&a),
                      std::make_unique<StreamSource>(&b));
  auto out = RunToStream(&merge);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 14u);
  // Starts are non-decreasing (Def. 3 holds across the merge).
  for (size_t i = 1; i < out->size(); ++i) {
    EXPECT_LE(out->at(i - 1).start, out->at(i).start);
  }
}

TEST(ActivityTest, MergeRequiresSameTimeSystem) {
  TimedStream a = BlockStream(2, 10, 1);
  TimedStream b(AudioDesc(), TimeSystem(44100));
  ASSERT_TRUE(b.AppendContiguous(Bytes(10, 2), 1).ok());
  MergeActivity merge(std::make_unique<StreamSource>(&a),
                      std::make_unique<StreamSource>(&b));
  EXPECT_TRUE(merge.Next().status().IsInvalidArgument());
}

TEST(ActivityTest, DrainCountsWithoutStoring) {
  TimedStream stream = BlockStream(100, 1, 3);
  StreamSource source(&stream);
  auto stats = Drain(&source);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->elements, 100);
  EXPECT_EQ(stats->bytes, 10000u);
}

// ---------------------------------------------------------------------------
// Export formats

TEST(ExportTest, PnmRoundTrip) {
  std::string path = ::testing::TempDir() + "/tbm_test.ppm";
  Image image = videogen::Still(40, 30, 3);
  ASSERT_TRUE(WritePnm(image, path).ok());
  auto restored = ReadPnm(path);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->width, 40);
  EXPECT_EQ(restored->data, image.data);
}

TEST(ExportTest, PgmRoundTrip) {
  std::string path = ::testing::TempDir() + "/tbm_test.pgm";
  auto gray = RgbToGray(videogen::Still(25, 17, 5));
  ASSERT_TRUE(gray.ok());
  ASSERT_TRUE(WritePnm(*gray, path).ok());
  auto restored = ReadPnm(path);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->model, ColorModel::kGray8);
  EXPECT_EQ(restored->data, gray->data);
}

TEST(ExportTest, WavRoundTrip) {
  std::string path = ::testing::TempDir() + "/tbm_test.wav";
  AudioBuffer audio = audiogen::Sine(22050, 2, 440.0, 0.5, 0.25);
  ASSERT_TRUE(WriteWav(audio, path).ok());
  auto restored = ReadWav(path);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->sample_rate, 22050);
  EXPECT_EQ(restored->channels, 2);
  EXPECT_EQ(restored->samples, audio.samples);
}

TEST(ExportTest, RejectsGarbage) {
  std::string path = ::testing::TempDir() + "/tbm_garbage.bin";
  Bytes garbage = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  ASSERT_TRUE(WriteFile(path, garbage).ok());
  EXPECT_FALSE(ReadPnm(path).ok());
  EXPECT_FALSE(ReadWav(path).ok());
  Image yuv = Image::Zero(8, 8, ColorModel::kYuv420);
  EXPECT_TRUE(WritePnm(yuv, path).IsUnsupported());
}

// ---------------------------------------------------------------------------
// Extended derivation operators

VideoValue SmallVideo(int64_t frames, uint32_t scene = 3) {
  VideoValue video;
  video.frame_rate = Rational(25);
  video.frames = videogen::Clip(48, 32, frames, scene);
  return video;
}

TEST(ExtendedOpsTest, VideoReverse) {
  MediaValue video = SmallVideo(10);
  auto out = Reg().Apply("video reverse", {&video}, AttrMap{});
  ASSERT_TRUE(out.ok());
  const VideoValue& original = std::get<VideoValue>(video);
  const VideoValue& reversed = std::get<VideoValue>(*out);
  EXPECT_EQ(reversed.frames.front().data, original.frames.back().data);
  EXPECT_EQ(reversed.frames.back().data, original.frames.front().data);
  // Reversing twice is identity.
  auto twice = Reg().Apply("video reverse", {&*out}, AttrMap{});
  ASSERT_TRUE(twice.ok());
  EXPECT_EQ(std::get<VideoValue>(*twice).frames[4].data,
            original.frames[4].data);
}

TEST(ExtendedOpsTest, VideoSpeed) {
  MediaValue video = SmallVideo(20);
  AttrMap double_speed;
  double_speed.SetInt("speed num", 2);
  double_speed.SetInt("speed den", 1);
  auto fast = Reg().Apply("video speed", {&video}, double_speed);
  ASSERT_TRUE(fast.ok());
  EXPECT_EQ(std::get<VideoValue>(*fast).frames.size(), 10u);
  AttrMap half_speed;
  half_speed.SetInt("speed num", 1);
  half_speed.SetInt("speed den", 2);
  auto slow = Reg().Apply("video speed", {&video}, half_speed);
  ASSERT_TRUE(slow.ok());
  EXPECT_EQ(std::get<VideoValue>(*slow).frames.size(), 40u);
  // Slow motion repeats frames.
  EXPECT_EQ(std::get<VideoValue>(*slow).frames[0].data,
            std::get<VideoValue>(*slow).frames[1].data);
  AttrMap bad;
  bad.SetInt("speed num", 0);
  EXPECT_TRUE(
      Reg().Apply("video speed", {&video}, bad).status().IsInvalidArgument());
}

TEST(ExtendedOpsTest, AudioFade) {
  MediaValue audio = audiogen::Sine(8000, 1, 440, 0.8, 1.0);
  AttrMap params;
  params.SetInt("fade in frames", 2000);
  params.SetInt("fade out frames", 2000);
  auto out = Reg().Apply("audio fade", {&audio}, params);
  ASSERT_TRUE(out.ok());
  const AudioBuffer& faded = std::get<AudioBuffer>(*out);
  const AudioBuffer& original = std::get<AudioBuffer>(audio);
  // Quiet at the very edges, untouched in the middle.
  EXPECT_EQ(faded.samples[0], 0);
  EXPECT_LT(std::abs(faded.samples[100]), std::abs(original.samples[100]) + 1);
  EXPECT_EQ(faded.samples[4000], original.samples[4000]);
  EXPECT_EQ(faded.samples[7999], 0);
  params.SetInt("fade in frames", 9000);
  EXPECT_TRUE(
      Reg().Apply("audio fade", {&audio}, params).status().IsOutOfRange());
}

TEST(ExtendedOpsTest, ImageCrop) {
  MediaValue image = videogen::Still(64, 48, 7);
  AttrMap params;
  params.SetInt("x", 10);
  params.SetInt("y", 8);
  params.SetInt("width", 20);
  params.SetInt("height", 16);
  auto out = Reg().Apply("image crop", {&image}, params);
  ASSERT_TRUE(out.ok());
  const Image& cropped = std::get<Image>(*out);
  EXPECT_EQ(cropped.width, 20);
  EXPECT_EQ(cropped.height, 16);
  const Image& original = std::get<Image>(image);
  // Pixel (0,0) of the crop is pixel (10,8) of the original.
  EXPECT_EQ(cropped.data[0], original.data[3 * (8 * 64 + 10)]);
  params.SetInt("width", 600);
  EXPECT_TRUE(
      Reg().Apply("image crop", {&image}, params).status().IsOutOfRange());
}

TEST(ExtendedOpsTest, ImageScale) {
  MediaValue image = videogen::Still(64, 48, 9);
  AttrMap params;
  params.SetInt("width", 32);
  params.SetInt("height", 24);
  auto out = Reg().Apply("image scale", {&image}, params);
  ASSERT_TRUE(out.ok());
  const Image& scaled = std::get<Image>(*out);
  EXPECT_EQ(scaled.width, 32);
  EXPECT_EQ(scaled.height, 24);
  // Upscale back: still recognizably the same picture.
  AttrMap up;
  up.SetInt("width", 64);
  up.SetInt("height", 48);
  auto restored = Reg().Apply("image scale", {&*out}, up);
  ASSERT_TRUE(restored.ok());
  EXPECT_GT(*Psnr(std::get<Image>(image), std::get<Image>(*restored)), 20.0);
}

// ---------------------------------------------------------------------------
// Rights integrated into the database

TEST(DbRightsTest, MaterializeForEnforcesTransitiveRead) {
  auto db = MediaDatabase::CreateInMemory();
  auto video = IngestVideo(db.get(), "tape", 5, 20);
  ASSERT_TRUE(video.ok());
  AttrMap params;
  params.SetInt("start frame", 0);
  params.SetInt("frame count", 10);
  auto cut = db->AddDerivedObject("cut", "video edit", {*video}, params);
  ASSERT_TRUE(cut.ok());

  ASSERT_TRUE(db->rights().Protect(*video, "alice", "(c) alice").ok());
  // Alice can read her own material through the derivation.
  EXPECT_TRUE(db->MaterializeFor(*cut, "alice").ok());
  // Bob cannot: the *input* is protected even though the derived
  // object is not.
  EXPECT_TRUE(
      db->MaterializeFor(*cut, "bob").status().IsFailedPrecondition());
  // Granting read fixes it.
  ASSERT_TRUE(
      db->rights().Grant(*video, "bob", MaskOf(MediaOperation::kRead)).ok());
  EXPECT_TRUE(db->MaterializeFor(*cut, "bob").ok());
}

TEST(DbRightsTest, DeriveForPropagatesCopyright) {
  auto db = MediaDatabase::CreateInMemory();
  auto video = IngestVideo(db.get(), "tape", 5, 20);
  ASSERT_TRUE(video.ok());
  ASSERT_TRUE(
      db->rights().Protect(*video, "alice", "(c) 1994 alice films").ok());
  AttrMap params;
  params.SetInt("start frame", 0);
  params.SetInt("frame count", 5);
  // Bob has no derive grant.
  EXPECT_TRUE(db->AddDerivedObjectFor("bob", "bobcut", "video edit", {*video},
                                      params)
                  .status()
                  .IsFailedPrecondition());
  ASSERT_TRUE(
      db->rights().Grant(*video, "bob", MaskOf(MediaOperation::kDerive)).ok());
  auto cut = db->AddDerivedObjectFor("bob", "bobcut", "video edit", {*video},
                                     params);
  ASSERT_TRUE(cut.ok());
  auto entry = db->Get(*cut);
  ASSERT_TRUE(entry.ok());
  auto notice = (*entry)->attrs.GetString("copyright");
  ASSERT_TRUE(notice.ok());
  EXPECT_NE(notice->find("(c) 1994 alice films"), std::string::npos);
}

TEST(DbRightsTest, RightsSurviveReopen) {
  std::string dir = ::testing::TempDir() + "/tbm_db_rights_persist";
  std::filesystem::remove_all(dir);
  ObjectId video = 0;
  {
    auto db = MediaDatabase::Open(dir);
    ASSERT_TRUE(db.ok());
    auto v = IngestVideo(db->get(), "tape", 5, 10);
    ASSERT_TRUE(v.ok());
    video = *v;
    ASSERT_TRUE((*db)->rights().Protect(video, "alice", "(c) alice").ok());
    ASSERT_TRUE((*db)
                    ->rights()
                    .Grant(video, "bob", MaskOf(MediaOperation::kRead))
                    .ok());
    ASSERT_TRUE((*db)->Checkpoint().ok());
  }
  auto db = MediaDatabase::Open(dir);
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_TRUE((*db)->rights().IsProtected(video));
  EXPECT_TRUE((*db)->MaterializeFor(video, "bob").ok());
  EXPECT_TRUE(
      (*db)->MaterializeFor(video, "carol").status().IsFailedPrecondition());
}

// ---------------------------------------------------------------------------
// Descriptor and duration queries

TEST(DbQueryTest, SelectByDescriptorAttribute) {
  auto db = MediaDatabase::CreateInMemory();
  auto small = IngestVideo(db.get(), "small", 1, 10);
  ASSERT_TRUE(small.ok());
  // A taller clip.
  VideoValue tall;
  tall.frame_rate = Rational(25);
  tall.frames = videogen::Clip(48, 64, 10, 2);
  StoreOptions options;
  options.video_codec = "raw";
  auto interp = StoreValue(db->blob_store(), tall, "tall", options);
  ASSERT_TRUE(interp.ok());
  auto interp_id = db->AddInterpretation("tall_interp", *interp);
  ASSERT_TRUE(interp_id.ok());
  auto tall_id = db->AddMediaObject("tall", *interp_id, "tall");
  ASSERT_TRUE(tall_id.ok());

  auto hits = db->SelectByDescriptor(
      "frame height", [](const AttrValue& value) {
        return std::holds_alternative<int64_t>(value) &&
               std::get<int64_t>(value) >= 48;
      });
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], *tall_id);
}

TEST(DbQueryTest, AttrIndexMatchesScanAndTracksUpdates) {
  auto db = MediaDatabase::CreateInMemory();
  for (int i = 0; i < 20; ++i) {
    AttrMap attrs;
    attrs.SetString("language", i % 3 == 0 ? "German" : "English");
    attrs.SetInt("year", 1990 + i % 5);
    auto id = db->AddEntity('e' + std::to_string(i), attrs);
    ASSERT_TRUE(id.ok());
  }
  // Scan result before indexing.
  auto scan = db->SelectByAttr("language", AttrValue(std::string("German")));
  ASSERT_TRUE(db->CreateAttrIndex("language").ok());
  EXPECT_TRUE(db->HasAttrIndex("language"));
  auto indexed =
      db->SelectByAttr("language", AttrValue(std::string("German")));
  EXPECT_EQ(indexed, scan);

  // Updates keep the index consistent.
  ObjectId first = scan.front();
  ASSERT_TRUE(
      db->SetAttr(first, "language", AttrValue(std::string("French"))).ok());
  auto german =
      db->SelectByAttr("language", AttrValue(std::string("German")));
  EXPECT_EQ(german.size(), scan.size() - 1);
  auto french =
      db->SelectByAttr("language", AttrValue(std::string("French")));
  ASSERT_EQ(french.size(), 1u);
  EXPECT_EQ(french[0], first);

  // Inserts after index creation are indexed.
  AttrMap attrs;
  attrs.SetString("language", "French");
  auto fresh = db->AddEntity("fresh", attrs);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(
      db->SelectByAttr("language", AttrValue(std::string("French"))).size(),
      2u);

  // Removal unindexes.
  ASSERT_TRUE(db->Remove(*fresh).ok());
  EXPECT_EQ(
      db->SelectByAttr("language", AttrValue(std::string("French"))).size(),
      1u);

  // Typed values don't collide: int 1990 vs string "1990".
  ASSERT_TRUE(db->CreateAttrIndex("year").ok());
  auto by_year = db->SelectByAttr("year", AttrValue(int64_t{1990}));
  EXPECT_FALSE(by_year.empty());
  EXPECT_TRUE(
      db->SelectByAttr("year", AttrValue(std::string("1990"))).empty());

  ASSERT_TRUE(db->DropAttrIndex("language").ok());
  EXPECT_FALSE(db->HasAttrIndex("language"));
  EXPECT_TRUE(db->DropAttrIndex("language").IsNotFound());
  // Post-drop queries fall back to scanning with identical results.
  EXPECT_EQ(
      db->SelectByAttr("language", AttrValue(std::string("French"))).size(),
      1u);
}

TEST(DbQueryTest, SelectByDuration) {
  auto db = MediaDatabase::CreateInMemory();
  auto short_clip = IngestVideo(db.get(), "short", 1, 10);   // 0.4 s.
  auto long_clip = IngestVideo(db.get(), "long", 2, 100);    // 4 s.
  ASSERT_TRUE(short_clip.ok() && long_clip.ok());
  auto hits = db->SelectByDuration(1.0, 10.0);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], *long_clip);
  hits = db->SelectByDuration(0.0, 0.5);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], *short_clip);
  EXPECT_TRUE(db->SelectByDuration(100.0, 200.0).empty());
}

// ---------------------------------------------------------------------------
// Multiple interpretations of one BLOB (paper §4.1)

TEST(AlternativeInterpretationTest, SecondInterpretationOfSameBlob) {
  // "Definition 5 does not preclude a BLOB from having more than one
  // interpretation ... a second interpretation can be formed simply by
  // removing table entries or changing their element number."
  auto db = MediaDatabase::CreateInMemory();
  auto video = IngestVideo(db.get(), "full", 5, 20);
  ASSERT_TRUE(video.ok());
  auto entry = db->Get(*video);
  ASSERT_TRUE(entry.ok());
  auto interp_entry = db->Get((*entry)->interpretation_ref);
  ASSERT_TRUE(interp_entry.ok());
  const Interpretation& original = (*interp_entry)->interpretation;
  auto source = original.FindObject("full");
  ASSERT_TRUE(source.ok());

  // Build an alternative interpretation over the SAME BLOB exposing
  // only every other frame, renumbered — an "edited view" without
  // touching a byte.
  Interpretation alternative(original.blob());
  InterpretedObject halved;
  halved.name = "every_other";
  halved.descriptor = (*source)->descriptor;
  halved.time_system = (*source)->time_system;
  int64_t n = 0;
  for (size_t i = 0; i < (*source)->elements.size(); i += 2) {
    ElementPlacement p = (*source)->elements[i];
    p.element_number = n;
    p.start = n;
    ++n;
    halved.elements.push_back(std::move(p));
  }
  ASSERT_TRUE(alternative.AddObject(std::move(halved)).ok());
  auto alt_id = db->AddInterpretation("alt_interp", alternative);
  ASSERT_TRUE(alt_id.ok());
  auto alt_video = db->AddMediaObject("every_other", *alt_id, "every_other");
  ASSERT_TRUE(alt_video.ok());

  auto stream = db->MaterializeStream(*alt_video);
  ASSERT_TRUE(stream.ok());
  EXPECT_EQ(stream->size(), 10u);
  // Element 1 of the view is frame 2 of the original.
  auto full_stream = db->MaterializeStream(*video);
  ASSERT_TRUE(full_stream.ok());
  EXPECT_EQ(stream->at(1).data, full_stream->at(2).data);
}

// ---------------------------------------------------------------------------
// Layered (scalable) image coding

TEST(LayeredTest, BaseIsSmallAndRecognizable) {
  Image image = videogen::Still(128, 96, 21);
  auto layered = LayeredEncode(image);
  ASSERT_TRUE(layered.ok()) << layered.status();
  // Base layer alone is much smaller than the whole encoding.
  EXPECT_LT(layered->base.size(),
            (layered->base.size() + layered->enhancement.size()) / 2 + 1);
  auto preview = LayeredDecodeBase(*layered);
  ASSERT_TRUE(preview.ok());
  EXPECT_EQ(preview->width, 128);
  EXPECT_EQ(preview->height, 96);
  // The preview is the right picture (well above noise floor)...
  double base_psnr = *Psnr(image, *preview);
  EXPECT_GT(base_psnr, 20.0);
  // ...and the enhancement layer strictly improves on it.
  auto full = LayeredDecodeFull(*layered);
  ASSERT_TRUE(full.ok());
  double full_psnr = *Psnr(image, *full);
  EXPECT_GT(full_psnr, base_psnr + 2.0);
  EXPECT_GT(full_psnr, 30.0);
}

TEST(LayeredTest, ScalabilityClaimHolds) {
  // Paper §2.2: reduced fidelity by ignoring parts of the storage
  // unit. Reading only the base layer touches a minority of the bytes.
  Image image = videogen::Still(256, 192, 8);
  auto layered = LayeredEncode(image);
  ASSERT_TRUE(layered.ok());
  double base_fraction =
      static_cast<double>(layered->base.size()) /
      (layered->base.size() + layered->enhancement.size());
  EXPECT_LT(base_fraction, 0.5);
  EXPECT_GT(base_fraction, 0.02);
}

TEST(LayeredTest, InputValidation) {
  Image tiny = Image::Zero(1, 1, ColorModel::kRgb24);
  EXPECT_TRUE(LayeredEncode(tiny).status().IsInvalidArgument());
  Image gray = Image::Zero(16, 16, ColorModel::kGray8);
  EXPECT_TRUE(LayeredEncode(gray).status().IsInvalidArgument());
  // Corrupt enhancement fails cleanly; base still decodes.
  Image image = videogen::Still(64, 48, 3);
  auto layered = LayeredEncode(image);
  ASSERT_TRUE(layered.ok());
  layered->enhancement.resize(4);
  EXPECT_TRUE(LayeredDecodeBase(*layered).ok());
  EXPECT_FALSE(LayeredDecodeFull(*layered).ok());
}

TEST(LayeredTest, OddGeometry) {
  Image image = videogen::Still(63, 41, 4);
  auto layered = LayeredEncode(image);
  ASSERT_TRUE(layered.ok());
  auto full = LayeredDecodeFull(*layered);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->width, 63);
  EXPECT_EQ(full->height, 41);
}

// ---------------------------------------------------------------------------
// Composition sync rules

TEST(SyncRuleTest, ValidatesDeclaredRelations) {
  DerivationGraph graph;
  NodeId music = graph.AddLeaf(audiogen::Sine(8000, 1, 440, 0.4, 4.0),
                               "music");
  NodeId narration = graph.AddLeaf(audiogen::Sine(8000, 1, 220, 0.4, 2.0),
                                   "narration");
  MultimediaObject mm("m", &graph);
  ASSERT_TRUE(mm.AddComponent("c1", music, Rational(0)).ok());
  ASSERT_TRUE(mm.AddComponent("c2", narration, Rational(1)).ok());
  // Narration [1,3] during music [0,4].
  ASSERT_TRUE(
      mm.RequireRelation("c2", "c1", IntervalRelation::kDuring).ok());
  EXPECT_TRUE(mm.ValidateRelations().ok());
  // A rule that doesn't hold is reported.
  ASSERT_TRUE(mm.RequireRelation("c2", "c1", IntervalRelation::kEquals).ok());
  Status status = mm.ValidateRelations();
  EXPECT_TRUE(status.IsFailedPrecondition());
  EXPECT_NE(status.message().find("equals"), std::string::npos);
  // Unknown components rejected at declaration time.
  EXPECT_TRUE(
      mm.RequireRelation("c9", "c1", IntervalRelation::kEquals).IsNotFound());
}

TEST(ExtendedOpsTest, NewOpsAreRegisteredWithCategories) {
  for (const char* name : {"video reverse", "video speed"}) {
    auto op = Reg().Find(name);
    ASSERT_TRUE(op.ok()) << name;
    EXPECT_EQ((*op)->category, DerivationCategory::kTiming) << name;
  }
  for (const char* name : {"audio fade", "image crop", "image scale"}) {
    auto op = Reg().Find(name);
    ASSERT_TRUE(op.ok()) << name;
    EXPECT_EQ((*op)->category, DerivationCategory::kContent) << name;
  }
}

}  // namespace
}  // namespace tbm
