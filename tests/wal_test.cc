// Durability tests for the transactional catalog (DESIGN.md §16):
// write-ahead logging, group commit, checkpointing, and crash
// recovery. Crashes are injected in-process: an armed CrashSchedule
// freezes the WAL at a chosen boundary (discarding unsynced buffers,
// failing every later operation), which models a killed process while
// staying deterministic and sanitizer-friendly.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "base/crc32.h"
#include "base/io.h"
#include "blob/memory_store.h"
#include "db/database.h"

namespace tbm {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  return dir;
}

Result<std::unique_ptr<MediaDatabase>> OpenDb(
    const std::string& dir, wal::WalOptions options = {}) {
  return MediaDatabase::Open(dir, std::make_unique<MemoryBlobStore>(),
                             options);
}

std::vector<std::string> WalSegmentFiles(const std::string& dir) {
  std::vector<std::string> segments;
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::string name = entry.path().filename().string();
    if (name.rfind("wal-", 0) == 0) segments.push_back(entry.path().string());
  }
  return segments;
}

// ---------------------------------------------------------------------------
// Durability basics

TEST(WalTest, MutationsDurableWithoutSave) {
  std::string dir = FreshDir("wal_no_save");
  {
    auto db = OpenDb(dir);
    ASSERT_TRUE(db.ok()) << db.status();
    ASSERT_TRUE((*db)->AddEntity("a", {}).ok());
    ASSERT_TRUE((*db)->AddEntity("b", {}).ok());
    ASSERT_TRUE((*db)->AddEntity("c", {}).ok());
    // No Save() — the WAL alone must carry these.
  }
  auto db = OpenDb(dir);
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_TRUE((*db)->FindByName("a").ok());
  EXPECT_TRUE((*db)->FindByName("b").ok());
  EXPECT_TRUE((*db)->FindByName("c").ok());
  wal::RecoveryStats stats = (*db)->recovery_stats();
  EXPECT_EQ(stats.snapshot_lsn, 0u);
  EXPECT_EQ(stats.replayed, 3u);
  EXPECT_EQ(stats.skipped, 0u);
  EXPECT_FALSE(stats.torn_tail);
}

TEST(WalTest, StatusTracksDurability) {
  std::string dir = FreshDir("wal_status");
  auto db = OpenDb(dir);
  ASSERT_TRUE(db.ok()) << db.status();
  ASSERT_TRUE((*db)->AddEntity("a", {}).ok());
  ASSERT_TRUE((*db)->AddEntity("b", {}).ok());
  wal::WalStatus status = (*db)->wal_status();
  EXPECT_TRUE(status.enabled);
  EXPECT_EQ(status.last_lsn, 2u);
  // Every acknowledged commit is fsynced.
  EXPECT_EQ(status.durable_lsn, status.last_lsn);
  EXPECT_EQ(status.segments, 1u);
  EXPECT_GT(status.wal_bytes, 0u);
}

TEST(WalTest, InMemoryHasNoWal) {
  auto db = MediaDatabase::CreateInMemory();
  ASSERT_TRUE(db->AddEntity("a", {}).ok());
  EXPECT_FALSE(db->wal_status().enabled);
  EXPECT_EQ(db->recovery_stats().replayed, 0u);
  EXPECT_TRUE(db->Save().IsFailedPrecondition());
}

TEST(WalTest, LoggedRightsMutatorsAreDurable) {
  std::string dir = FreshDir("wal_rights");
  ObjectId id = 0;
  {
    auto db = OpenDb(dir);
    ASSERT_TRUE(db.ok()) << db.status();
    auto added = (*db)->AddEntity("guarded", {});
    ASSERT_TRUE(added.ok());
    id = *added;
    ASSERT_TRUE((*db)->ProtectObject(id, "alice", "(c) alice").ok());
    ASSERT_TRUE(
        (*db)->GrantRights(id, "bob", MaskOf(MediaOperation::kRead)).ok());
  }
  auto db = OpenDb(dir);
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_TRUE((*db)->rights().IsProtected(id));
  EXPECT_TRUE(
      (*db)->rights().Check(id, "bob", MediaOperation::kRead).ok());
  EXPECT_TRUE(
      (*db)->rights().Check(id, "eve", MediaOperation::kRead).IsFailedPrecondition());
}

TEST(WalTest, UpdateDerivedParamsIsLogged) {
  std::string dir = FreshDir("wal_params");
  // An entity cannot take derived params.
  {
    auto db = OpenDb(dir);
    ASSERT_TRUE(db.ok()) << db.status();
    auto entity = (*db)->AddEntity("plain", {});
    ASSERT_TRUE(entity.ok());
    EXPECT_TRUE(
        (*db)->UpdateDerivedParams(*entity, {}).IsInvalidArgument());
  }
}

// ---------------------------------------------------------------------------
// Checkpointing

TEST(WalTest, CheckpointTruncatesLog) {
  std::string dir = FreshDir("wal_ckpt");
  {
    auto db = OpenDb(dir);
    ASSERT_TRUE(db.ok()) << db.status();
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE((*db)->AddEntity("pre" + std::to_string(i), {}).ok());
    }
    ASSERT_TRUE((*db)->Checkpoint().ok());
    wal::WalStatus status = (*db)->wal_status();
    EXPECT_EQ(status.checkpoint_lsn, 5u);
    EXPECT_EQ(status.checkpoint_count, 1u);
    ASSERT_TRUE((*db)->AddEntity("post0", {}).ok());
    ASSERT_TRUE((*db)->AddEntity("post1", {}).ok());
  }
  auto db = OpenDb(dir);
  ASSERT_TRUE(db.ok()) << db.status();
  wal::RecoveryStats stats = (*db)->recovery_stats();
  EXPECT_EQ(stats.snapshot_lsn, 5u);
  EXPECT_EQ(stats.replayed, 2u);  // Only the two post-checkpoint adds.
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE((*db)->FindByName("pre" + std::to_string(i)).ok());
  }
  EXPECT_TRUE((*db)->FindByName("post0").ok());
  EXPECT_TRUE((*db)->FindByName("post1").ok());
}

TEST(WalTest, AutoCheckpointAtThreshold) {
  std::string dir = FreshDir("wal_auto_ckpt");
  wal::WalOptions options;
  options.checkpoint_threshold_bytes = 512;
  {
    auto db = OpenDb(dir, options);
    ASSERT_TRUE(db.ok()) << db.status();
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE((*db)->AddEntity('e' + std::to_string(i), {}).ok());
    }
    EXPECT_GT((*db)->wal_status().checkpoint_count, 0u);
    // The log never grows far past the threshold.
    EXPECT_LT((*db)->wal_status().wal_bytes, 4096u);
  }
  auto db = OpenDb(dir);
  ASSERT_TRUE(db.ok()) << db.status();
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE((*db)->FindByName('e' + std::to_string(i)).ok());
  }
}

TEST(WalTest, SaveIsCheckpointNow) {
  std::string dir = FreshDir("wal_save");
  {
    auto db = OpenDb(dir);
    ASSERT_TRUE(db.ok()) << db.status();
    ASSERT_TRUE((*db)->AddEntity("a", {}).ok());
    ASSERT_TRUE((*db)->Save().ok());
  }
  auto db = OpenDb(dir);
  ASSERT_TRUE(db.ok()) << db.status();
  // Everything was folded into the snapshot; nothing to replay.
  EXPECT_EQ((*db)->recovery_stats().replayed, 0u);
  EXPECT_EQ((*db)->recovery_stats().snapshot_lsn, 1u);
  EXPECT_TRUE((*db)->FindByName("a").ok());
}

// ---------------------------------------------------------------------------
// Single-writer lock

TEST(WalTest, SecondOpenFailsWhileLocked) {
  std::string dir = FreshDir("wal_lock");
  auto first = OpenDb(dir);
  ASSERT_TRUE(first.ok()) << first.status();
  auto second = OpenDb(dir);
  EXPECT_TRUE(second.status().IsFailedPrecondition()) << second.status();
  first->reset();  // Releases the flock.
  auto third = OpenDb(dir);
  EXPECT_TRUE(third.ok()) << third.status();
}

// ---------------------------------------------------------------------------
// Corruption handling

TEST(WalTest, TornTailDiscardedCleanly) {
  std::string dir = FreshDir("wal_torn");
  {
    auto db = OpenDb(dir);
    ASSERT_TRUE(db.ok()) << db.status();
    ASSERT_TRUE((*db)->AddEntity("a", {}).ok());
    ASSERT_TRUE((*db)->AddEntity("b", {}).ok());
    ASSERT_TRUE((*db)->AddEntity("c", {}).ok());
  }
  // Simulate a crash mid-append: garbage after the last valid record.
  auto segments = WalSegmentFiles(dir);
  ASSERT_EQ(segments.size(), 1u);
  {
    std::ofstream out(segments[0], std::ios::binary | std::ios::app);
    out << "torn-half-record-garbage";
  }
  auto db = OpenDb(dir);
  ASSERT_TRUE(db.ok()) << db.status();
  wal::RecoveryStats stats = (*db)->recovery_stats();
  EXPECT_TRUE(stats.torn_tail);
  EXPECT_GT(stats.discarded_bytes, 0u);
  EXPECT_EQ(stats.replayed, 3u);  // Valid prefix fully recovered.
  EXPECT_TRUE((*db)->FindByName("a").ok());
  EXPECT_TRUE((*db)->FindByName("c").ok());
  // The repaired log accepts and persists new transactions.
  ASSERT_TRUE((*db)->AddEntity("after", {}).ok());
}

TEST(WalTest, BitFlipDropsTailRecords) {
  std::string dir = FreshDir("wal_bitflip");
  {
    auto db = OpenDb(dir);
    ASSERT_TRUE(db.ok()) << db.status();
    ASSERT_TRUE((*db)->AddEntity("a", {}).ok());
    ASSERT_TRUE((*db)->AddEntity("b", {}).ok());
    ASSERT_TRUE((*db)->AddEntity("c", {}).ok());
  }
  auto segments = WalSegmentFiles(dir);
  ASSERT_EQ(segments.size(), 1u);
  auto bytes = ReadFileBytes(segments[0]);
  ASSERT_TRUE(bytes.ok());
  // Corrupt the last record's payload: its checksum must catch it.
  (*bytes)[bytes->size() - 4] ^= 0xFF;
  ASSERT_TRUE(WriteFile(segments[0], *bytes).ok());
  auto db = OpenDb(dir);
  ASSERT_TRUE(db.ok()) << db.status();
  wal::RecoveryStats stats = (*db)->recovery_stats();
  EXPECT_TRUE(stats.torn_tail);
  EXPECT_EQ(stats.replayed, 2u);
  EXPECT_TRUE((*db)->FindByName("a").ok());
  EXPECT_TRUE((*db)->FindByName("b").ok());
  EXPECT_TRUE((*db)->FindByName("c").status().IsNotFound());
}

TEST(WalTest, SuperblockCorruptionDetected) {
  std::string dir = FreshDir("wal_super_corrupt");
  {
    auto db = OpenDb(dir);
    ASSERT_TRUE(db.ok()) << db.status();
    ASSERT_TRUE((*db)->AddEntity("a", {}).ok());
    ASSERT_TRUE((*db)->Checkpoint().ok());
  }
  std::string path = wal::SuperblockPath(dir);
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  (*bytes)[bytes->size() - 1] ^= 0xFF;
  ASSERT_TRUE(WriteFile(path, *bytes).ok());
  EXPECT_TRUE(OpenDb(dir).status().IsCorruption());
}

TEST(WalTest, SnapshotOlderThanSuperblockDetected) {
  std::string dir = FreshDir("wal_stale_snapshot");
  Bytes old_snapshot;
  {
    auto db = OpenDb(dir);
    ASSERT_TRUE(db.ok()) << db.status();
    ASSERT_TRUE((*db)->AddEntity("a", {}).ok());
    ASSERT_TRUE((*db)->Checkpoint().ok());
    auto bytes = ReadFileBytes(MediaDatabase::CatalogPath(dir));
    ASSERT_TRUE(bytes.ok());
    old_snapshot = *bytes;
    ASSERT_TRUE((*db)->AddEntity("b", {}).ok());
    ASSERT_TRUE((*db)->Checkpoint().ok());
  }
  // Roll the snapshot back behind the superblock — e.g. a botched
  // manual restore. Recovery must refuse rather than silently lose
  // the checkpointed mutations.
  ASSERT_TRUE(WriteFile(MediaDatabase::CatalogPath(dir), old_snapshot).ok());
  EXPECT_TRUE(OpenDb(dir).status().IsCorruption());
}

TEST(WalTest, LegacyV2SnapshotLoads) {
  std::string dir = FreshDir("wal_legacy");
  fs::create_directories(dir);
  // Handcraft a pre-WAL (version 2) snapshot: {next_id, count=0,
  // rights} — a valid empty catalog with no applied LSN field.
  BinaryWriter body;
  body.WriteU64(7);     // next_id
  body.WriteVarU64(0);  // no entries
  RightsManager().Serialize(&body);
  BinaryWriter file;
  file.WriteU32(0x544D'4244u);  // catalog magic
  file.WriteU32(2);             // version 2
  file.WriteU32(Crc32(body.buffer()));
  file.WriteRaw(body.buffer());
  ASSERT_TRUE(WriteFile(MediaDatabase::CatalogPath(dir), file.buffer()).ok());
  auto db = OpenDb(dir);
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_EQ((*db)->size(), 0u);
  // Ids continue from the legacy next_id and new writes are durable.
  auto id = (*db)->AddEntity("upgraded", {});
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 7u);
  db->reset();
  auto reopened = OpenDb(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_TRUE((*reopened)->FindByName("upgraded").ok());
}

// Handcrafts a WAL segment file: header {magic, version, start_lsn}
// followed by kOpRemove records (of ids that never exist, so replaying
// them is a no-op) for the given LSNs.
void WriteTestSegment(const std::string& dir, uint64_t start_lsn,
                      const std::vector<uint64_t>& lsns) {
  BinaryWriter file;
  file.WriteU32(0x5442'574Cu);  // segment magic "TBWL"
  file.WriteU32(1);             // segment version
  file.WriteU64(start_lsn);
  for (uint64_t lsn : lsns) {
    BinaryWriter payload;
    payload.WriteU8(2);            // kOpRemove
    payload.WriteU64(900 + lsn);   // an id the catalog never holds
    BinaryWriter checked;
    checked.WriteU64(lsn);
    checked.WriteRaw(payload.buffer());
    file.WriteU32(static_cast<uint32_t>(payload.size()));
    file.WriteU32(Crc32(checked.buffer()));
    file.WriteRaw(checked.buffer());
  }
  ASSERT_TRUE(WriteFile(wal::WalManager::SegmentPath(dir, start_lsn),
                        file.buffer())
                  .ok());
}

// A segment overlapping its predecessor with fewer records must not
// drag the scan cursor backwards — that would misread the following
// legitimate segment as a sequence gap and delete its valid records.
TEST(WalTest, OverlappingSegmentsDoNotCreateFalseGap) {
  std::string dir = FreshDir("wal_overlap");
  fs::create_directories(dir);
  WriteTestSegment(dir, 1, {1, 2, 3});
  WriteTestSegment(dir, 2, {2});  // Overlapping, shorter.
  WriteTestSegment(dir, 4, {4});  // Legitimate successor.
  {
    auto db = OpenDb(dir);
    ASSERT_TRUE(db.ok()) << db.status();
    wal::RecoveryStats stats = (*db)->recovery_stats();
    EXPECT_EQ(stats.replayed, 4u);  // LSNs 1-4; the duplicate is skipped.
    EXPECT_FALSE(stats.torn_tail);
    EXPECT_TRUE(fs::exists(wal::WalManager::SegmentPath(dir, 4)));
    ASSERT_TRUE((*db)->AddEntity("after", {}).ok());
  }
  auto db = OpenDb(dir);
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_TRUE((*db)->FindByName("after").ok());
}

// ---------------------------------------------------------------------------
// Injected crashes

TEST(WalTest, CrashFreezesFurtherMutations) {
  std::string dir = FreshDir("wal_freeze");
  wal::CrashSchedule crash;
  {
    auto db = OpenDb(dir, {.crash = &crash});
    ASSERT_TRUE(db.ok()) << db.status();
    ASSERT_TRUE((*db)->AddEntity("before", {}).ok());
    crash.ArmAtPoint("wal.sync_begin");
    EXPECT_FALSE((*db)->AddEntity("torn", {}).ok());
    // Sticky: the frozen database rejects everything until reopen.
    EXPECT_TRUE((*db)->AddEntity("again", {}).status().IsIOError());
    EXPECT_TRUE((*db)->Checkpoint().IsIOError());
  }
  auto db = OpenDb(dir);
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_TRUE((*db)->FindByName("before").ok());
  EXPECT_TRUE((*db)->FindByName("torn").status().IsNotFound());
  EXPECT_TRUE((*db)->AddEntity("after", {}).ok());
}

// A checkpoint that crashes after writing catalog.tbm.ckpt leaves the
// temp file behind. It must not poison the next checkpoint: recovery
// sweeps it, and the temp writer truncates rather than appends, so the
// published snapshot is never a stale-new concatenation whose CRC
// cannot match the superblock.
TEST(WalTest, StaleCheckpointTempIsHarmless) {
  std::string dir = FreshDir("wal_stale_ckpt");
  wal::CrashSchedule crash;
  {
    auto db = OpenDb(dir, {.crash = &crash});
    ASSERT_TRUE(db.ok()) << db.status();
    ASSERT_TRUE((*db)->AddEntity("a", {}).ok());
    crash.ArmAtPoint("ckpt.temp_written");
    EXPECT_FALSE((*db)->Checkpoint().ok());
  }
  ASSERT_TRUE(fs::exists(MediaDatabase::CatalogPath(dir) + ".ckpt"));
  {
    auto db = OpenDb(dir);
    ASSERT_TRUE(db.ok()) << db.status();
    EXPECT_FALSE(fs::exists(MediaDatabase::CatalogPath(dir) + ".ckpt"));
    ASSERT_TRUE((*db)->AddEntity("b", {}).ok());
    ASSERT_TRUE((*db)->Checkpoint().ok());
  }
  auto db = OpenDb(dir);
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_EQ((*db)->recovery_stats().snapshot_lsn, 2u);
  EXPECT_TRUE((*db)->FindByName("a").ok());
  EXPECT_TRUE((*db)->FindByName("b").ok());
}

// A commit the caller was told failed must not stay visible to readers
// of this handle: the in-memory apply is rolled back.
TEST(WalTest, FailedCommitIsNotVisibleInProcess) {
  std::string dir = FreshDir("wal_rollback");
  wal::CrashSchedule crash;
  auto db = OpenDb(dir, {.crash = &crash});
  ASSERT_TRUE(db.ok()) << db.status();
  auto keep = (*db)->AddEntity("keep", {});
  ASSERT_TRUE(keep.ok());

  // Crash during the phantom insert's write+fsync.
  crash.ArmAtPoint("wal.sync_begin");
  EXPECT_FALSE((*db)->AddEntity("phantom", {}).ok());
  EXPECT_TRUE((*db)->FindByName("phantom").status().IsNotFound());
  EXPECT_TRUE((*db)->FindByName("keep").ok());

  // Against the frozen WAL every later mutator fails — and leaves no
  // trace, whether it failed before its apply (catalog ops log first)
  // or after (rights ops restore their pre-image).
  EXPECT_FALSE((*db)->SetAttr(*keep, "rating", int64_t{5}).ok());
  auto entry = (*db)->Get(*keep);
  ASSERT_TRUE(entry.ok());
  EXPECT_FALSE((*entry)->attrs.GetInt("rating").ok());
  EXPECT_FALSE((*db)->ProtectObject(*keep, "alice").ok());
  EXPECT_FALSE((*db)->rights().IsProtected(*keep));
  EXPECT_FALSE((*db)->Remove(*keep).ok());
  EXPECT_TRUE((*db)->FindByName("keep").ok());
}

// The same rollback contract for updates: the prior row (not an empty
// one) comes back.
TEST(WalTest, FailedUpdateRestoresPriorRow) {
  std::string dir = FreshDir("wal_rollback_update");
  wal::CrashSchedule crash;
  auto db = OpenDb(dir, {.crash = &crash});
  ASSERT_TRUE(db.ok()) << db.status();
  auto id = (*db)->AddEntity("e", {});
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE((*db)->SetAttr(*id, "rating", int64_t{1}).ok());
  crash.ArmAtPoint("wal.sync_begin");
  EXPECT_FALSE((*db)->SetAttr(*id, "rating", int64_t{2}).ok());
  auto entry = (*db)->Get(*id);
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(*(*entry)->attrs.GetInt("rating"), 1);
}

TEST(WalTest, FailedRightsCommitRestoresTable) {
  std::string dir = FreshDir("wal_rollback_rights");
  wal::CrashSchedule crash;
  auto db = OpenDb(dir, {.crash = &crash});
  ASSERT_TRUE(db.ok()) << db.status();
  auto id = (*db)->AddEntity("guarded", {});
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE((*db)->ProtectObject(*id, "alice").ok());
  crash.ArmAtPoint("wal.sync_begin");
  EXPECT_FALSE(
      (*db)->GrantRights(*id, "bob", MaskOf(MediaOperation::kRead)).ok());
  // The failed grant is gone; the earlier protection survives.
  EXPECT_TRUE((*db)->rights().IsProtected(*id));
  EXPECT_FALSE((*db)->rights().Check(*id, "bob", MediaOperation::kRead).ok());
}

// The crash-matrix workload: a fixed single-threaded transaction
// script with a checkpoint in the middle, run under a CrashSchedule.
// Records the fate of every operation. At most one operation is
// *ambiguous* — the one in flight when the crash fired; its record may
// or may not have reached disk (crashing at wal.sync_end leaves it
// durable but unacknowledged). Every later operation fails against the
// frozen WAL before logging anything, so it is guaranteed absent.
struct WorkloadResult {
  std::vector<std::string> acked_adds;
  std::vector<std::string> failed_adds;
  int attr = -1;    // -1 skipped, 0 failed, 1 acknowledged
  int removed = -1;
  int rights = -1;
  std::string first_failure;  // The one ambiguous operation ("" if clean).
  bool crashed = false;
};

WorkloadResult RunCrashWorkload(const std::string& dir,
                                wal::CrashSchedule* crash) {
  WorkloadResult result;
  auto note_failure = [&result](const std::string& op) {
    if (result.first_failure.empty()) result.first_failure = op;
    result.crashed = true;
  };
  wal::WalOptions options;
  options.checkpoint_threshold_bytes = 0;  // Only the scripted checkpoint.
  options.crash = crash;
  auto db = OpenDb(dir, options);
  EXPECT_TRUE(db.ok()) << db.status();
  if (!db.ok()) {
    result.crashed = true;
    return result;
  }
  auto add = [&](const std::string& name) -> ObjectId {
    auto id = (*db)->AddEntity(name, {});
    if (!id.ok()) {
      result.failed_adds.push_back(name);
      note_failure("add:" + name);
      return kInvalidObjectId;
    }
    result.acked_adds.push_back(name);
    return *id;
  };
  ObjectId e1 = add("e1");
  ObjectId e2 = add("e2");
  if (e1 != kInvalidObjectId) {
    result.attr = (*db)->SetAttr(e1, "rating", int64_t{5}).ok() ? 1 : 0;
    if (result.attr == 0) note_failure("attr");
  }
  if (!(*db)->Checkpoint().ok()) note_failure("checkpoint");
  add("e3");
  if (e2 != kInvalidObjectId) {
    result.removed = (*db)->Remove(e2).ok() ? 1 : 0;
    if (result.removed == 0) note_failure("remove");
  }
  if (e1 != kInvalidObjectId) {
    result.rights = (*db)->ProtectObject(e1, "alice").ok() ? 1 : 0;
    if (result.rights == 0) note_failure("rights");
  }
  add("e4");
  return result;
}

// Reopens the directory and asserts the atomicity contract: every
// acknowledged operation survived, every failed operation other than
// the ambiguous in-flight one left no trace, the catalog is internally
// consistent, and the database accepts new transactions.
void VerifyRecovered(const std::string& dir, const WorkloadResult& result,
                     const std::string& context) {
  SCOPED_TRACE(context);
  {
    auto db = OpenDb(dir);
    ASSERT_TRUE(db.ok()) << db.status();
    const bool remove_ambiguous = result.first_failure == "remove";
    for (const std::string& name : result.acked_adds) {
      if (name == "e2" && (result.removed == 1 || remove_ambiguous)) continue;
      EXPECT_TRUE((*db)->FindByName(name).ok())
          << "acknowledged add lost: " << name;
    }
    for (const std::string& name : result.failed_adds) {
      if ("add:" + name == result.first_failure) continue;  // In flight.
      EXPECT_TRUE((*db)->FindByName(name).status().IsNotFound())
          << "unacknowledged add leaked: " << name;
    }
    if (result.removed == 1) {
      EXPECT_TRUE((*db)->FindByName("e2").status().IsNotFound());
    } else if (result.removed == 0 && !remove_ambiguous) {
      EXPECT_TRUE((*db)->FindByName("e2").ok())
          << "failed remove erased its target";
    }
    if (result.attr == 1) {
      auto e1 = (*db)->FindByName("e1");
      ASSERT_TRUE(e1.ok());
      auto entry = (*db)->Get(*e1);
      ASSERT_TRUE(entry.ok());
      EXPECT_EQ(*(*entry)->attrs.GetInt("rating"), 5);
    } else if (result.attr == 0 && result.first_failure != "attr") {
      auto e1 = (*db)->FindByName("e1");
      ASSERT_TRUE(e1.ok());
      auto entry = (*db)->Get(*e1);
      ASSERT_TRUE(entry.ok());
      EXPECT_FALSE((*entry)->attrs.GetInt("rating").ok())
          << "failed SetAttr leaked";
    }
    if (result.rights == 1) {
      auto e1 = (*db)->FindByName("e1");
      ASSERT_TRUE(e1.ok());
      EXPECT_TRUE((*db)->rights().IsProtected(*e1));
    } else if (result.rights == 0 && result.first_failure != "rights") {
      auto e1 = (*db)->FindByName("e1");
      if (e1.ok()) {
        EXPECT_FALSE((*db)->rights().IsProtected(*e1));
      }
    }
    // Structural consistency: every row resolves both ways.
    for (ObjectId id : (*db)->List()) {
      auto entry = (*db)->Get(id);
      ASSERT_TRUE(entry.ok());
      auto by_name = (*db)->FindByName((*entry)->name);
      ASSERT_TRUE(by_name.ok());
      EXPECT_EQ(*by_name, id);
    }
    EXPECT_TRUE((*db)->AddEntity("post_recovery", {}).ok());
  }
  // And the post-recovery transaction is itself durable.
  auto db = OpenDb(dir);
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_TRUE((*db)->FindByName("post_recovery").ok());
}

TEST(WalCrashMatrixTest, EveryBoundaryRecoversConsistently) {
  // Dry run: count the crash boundaries the workload crosses.
  std::string dry_dir = FreshDir("wal_matrix_dry");
  wal::CrashSchedule dry;
  WorkloadResult clean = RunCrashWorkload(dry_dir, &dry);
  ASSERT_FALSE(clean.crashed);
  ASSERT_GT(dry.hits(), 10u);
  VerifyRecovered(dry_dir, clean, "dry run");

  // Kill the process at every boundary in turn; each run must recover
  // to a consistent catalog containing all acknowledged operations.
  for (uint64_t k = 1; k <= dry.hits(); ++k) {
    std::string dir = FreshDir("wal_matrix_" + std::to_string(k));
    wal::CrashSchedule crash;
    crash.ArmAtHit(k);
    WorkloadResult result = RunCrashWorkload(dir, &crash);
    EXPECT_TRUE(crash.crashed());
    EXPECT_TRUE(result.crashed);
    ASSERT_FALSE(crash.trace().empty());
    VerifyRecovered(dir, result,
                    "crash at hit " + std::to_string(k) + " (" +
                        crash.trace().back() + ")");
  }
}

// ---------------------------------------------------------------------------
// Group commit under concurrency (exercised by the TSan CI job)

TEST(WalConcurrencyTest, ConcurrentWritersAllDurable) {
  std::string dir = FreshDir("wal_concurrent");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 25;
  {
    auto db = OpenDb(dir);
    ASSERT_TRUE(db.ok()) << db.status();
    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t) {
      writers.emplace_back([&db, t] {
        for (int i = 0; i < kPerThread; ++i) {
          auto id = (*db)->AddEntity(
              'w' + std::to_string(t) + '_' + std::to_string(i), {});
          ASSERT_TRUE(id.ok()) << id.status();
        }
      });
    }
    for (std::thread& writer : writers) writer.join();
    wal::WalStatus status = (*db)->wal_status();
    EXPECT_EQ(status.last_lsn, uint64_t{kThreads * kPerThread});
    EXPECT_EQ(status.durable_lsn, status.last_lsn);
    EXPECT_EQ((*db)->size(), size_t{kThreads * kPerThread});
  }
  auto db = OpenDb(dir);
  ASSERT_TRUE(db.ok()) << db.status();
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      EXPECT_TRUE(
          (*db)
              ->FindByName('w' + std::to_string(t) + '_' + std::to_string(i))
              .ok());
    }
  }
}

TEST(WalConcurrencyTest, WritersRaceCheckpoints) {
  std::string dir = FreshDir("wal_ckpt_race");
  auto db = OpenDb(dir);
  ASSERT_TRUE(db.ok()) << db.status();
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&db, t] {
      for (int i = 0; i < 20; ++i) {
        auto id = (*db)->AddEntity(
            'r' + std::to_string(t) + '_' + std::to_string(i), {});
        ASSERT_TRUE(id.ok()) << id.status();
      }
    });
  }
  workers.emplace_back([&db] {
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE((*db)->Checkpoint().ok());
    }
  });
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ((*db)->size(), 80u);
  wal::WalStatus status = (*db)->wal_status();
  EXPECT_EQ(status.durable_lsn, status.last_lsn);
  EXPECT_GE(status.checkpoint_count, 5u);
}

}  // namespace
}  // namespace tbm
