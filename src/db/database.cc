#include "db/database.h"

#include <algorithm>
#include <filesystem>
#include <set>

#include "base/crc32.h"
#include "base/macros.h"
#include "blob/cas_store.h"
#include "blob/file_store.h"
#include "blob/memory_store.h"
#include "db/catalog_io.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace tbm {

namespace {
constexpr uint32_t kCatalogMagic = 0x544D'4244u;  // "TBMDB"-ish.
// v2 appends the rights table; v3 prepends the snapshot's applied LSN
// (the durable-catalog handshake — see DESIGN.md §16).
constexpr uint32_t kCatalogVersion = 3;

// WAL record op codes. A payload is {u8 op, op-specific body}.
constexpr uint8_t kOpUpsert = 1;  ///< Body: one full catalog entry.
constexpr uint8_t kOpRemove = 2;  ///< Body: u64 object id.
constexpr uint8_t kOpRights = 3;  ///< Body: the full rights table.
}  // namespace

std::string_view CatalogKindToString(CatalogKind kind) {
  switch (kind) {
    case CatalogKind::kEntity: return "entity";
    case CatalogKind::kInterpretation: return "interpretation";
    case CatalogKind::kMediaObject: return "media object";
    case CatalogKind::kDerivedObject: return "derived object";
    case CatalogKind::kMultimediaObject: return "multimedia object";
  }
  return "unknown";
}

Result<std::unique_ptr<MediaDatabase>> MediaDatabase::Open(
    const std::string& dir) {
  TBM_ASSIGN_OR_RETURN(std::unique_ptr<FileBlobStore> store,
                       FileBlobStore::Open(dir));
  return Open(dir, std::move(store));
}

Result<std::unique_ptr<MediaDatabase>> MediaDatabase::Open(
    const std::string& dir, std::unique_ptr<BlobStore> store) {
  return Open(dir, std::move(store), wal::WalOptions{});
}

Result<std::unique_ptr<MediaDatabase>> MediaDatabase::Open(
    const std::string& dir, std::unique_ptr<BlobStore> store,
    wal::WalOptions options) {
  if (store == nullptr) {
    return Status::InvalidArgument("blob store must not be null");
  }
  if (dir.empty()) {
    return Status::InvalidArgument("database directory must not be empty");
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  auto db = std::unique_ptr<MediaDatabase>(
      new MediaDatabase(std::move(store), dir));
  // Single-writer guard first: a second process (or handle) fails fast
  // with FailedPrecondition instead of racing the WAL.
  TBM_ASSIGN_OR_RETURN(db->lock_, FileLock::Acquire(LockPath(dir)));
  TBM_ASSIGN_OR_RETURN(db->wal_, wal::WalManager::Open(dir, options));
  TBM_RETURN_IF_ERROR(db->Recover());
  return db;
}

std::unique_ptr<MediaDatabase> MediaDatabase::CreateInMemory() {
  return CreateWithStore(std::make_unique<MemoryBlobStore>());
}

std::unique_ptr<MediaDatabase> MediaDatabase::CreateWithStore(
    std::unique_ptr<BlobStore> store) {
  return std::unique_ptr<MediaDatabase>(
      new MediaDatabase(std::move(store), ""));
}

void MediaDatabase::set_read_options(StreamReadOptions options) {
  read_options_ = options;
}

StreamReadOptions MediaDatabase::ResolvedReadOptions() const {
  StreamReadOptions options = read_options_;
  if (options.pool == nullptr && options.prefetch_depth > 0) {
    std::lock_guard<std::mutex> lock(io_pool_mu_);
    if (io_pool_ == nullptr) {
      io_pool_ = std::make_unique<ThreadPool>(
          std::min(4, ThreadPool::DefaultThreads()));
    }
    options.pool = io_pool_.get();
  }
  return options;
}

// ---------------------------------------------------------------------------
// Transaction plumbing

Result<uint64_t> MediaDatabase::LogUpsertLocked(const CatalogEntry& entry) {
  if (wal_ == nullptr) return uint64_t{0};
  BinaryWriter payload;
  payload.WriteU8(kOpUpsert);
  SerializeCatalogEntry(entry, &payload);
  return wal_->Append(payload.buffer());
}

Result<uint64_t> MediaDatabase::LogRemoveLocked(ObjectId id) {
  if (wal_ == nullptr) return uint64_t{0};
  BinaryWriter payload;
  payload.WriteU8(kOpRemove);
  payload.WriteU64(id);
  return wal_->Append(payload.buffer());
}

Result<uint64_t> MediaDatabase::LogRightsLocked() {
  if (wal_ == nullptr) return uint64_t{0};
  BinaryWriter payload;
  payload.WriteU8(kOpRights);
  rights_.Serialize(&payload);
  return wal_->Append(payload.buffer());
}

Status MediaDatabase::FinishCommit(uint64_t lsn) {
  if (wal_ == nullptr || lsn == 0) return Status::OK();
  static obs::Histogram* const commit_us =
      obs::Registry::Global().histogram("wal.commit_us");
  static obs::Counter* const txns =
      obs::Registry::Global().counter("db.txns");
  {
    obs::ScopedTimerUs timer(commit_us);
    TBM_RETURN_IF_ERROR(wal_->WaitDurable(lsn));
  }
  txns->Add();
  MaybeAutoCheckpoint();
  return Status::OK();
}

Status MediaDatabase::FinishCommitOrRollback(
    uint64_t lsn, ObjectId id, std::shared_ptr<const CatalogEntry> prior) {
  Status durable = FinishCommit(lsn);
  if (durable.ok()) return durable;
  // The WAL rejected the commit: the caller gets an error, so readers
  // of this handle must not keep seeing the change. The record may
  // still have reached disk (durable but unacknowledged); the frozen
  // WAL blocks every further mutation, and reopening the directory
  // resolves the ambiguity (see the class comment).
  std::lock_guard<std::mutex> lock(catalog_mu_);
  if (prior != nullptr) {
    ApplyUpsertLocked(std::move(prior));
  } else {
    ApplyRemoveLocked(id);
  }
  return durable;
}

Status MediaDatabase::CommitRightsChange(
    const std::function<Status(RightsManager&)>& mutate) {
  uint64_t lsn = 0;
  RightsManager prior;
  {
    std::lock_guard<std::mutex> lock(catalog_mu_);
    prior = rights_;
    Status mutated = mutate(rights_);
    if (!mutated.ok()) {
      rights_ = std::move(prior);
      return mutated;
    }
    auto logged = LogRightsLocked();
    if (!logged.ok()) {
      rights_ = std::move(prior);
      return logged.status();
    }
    lsn = *logged;
  }
  Status durable = FinishCommit(lsn);
  if (!durable.ok()) {
    std::lock_guard<std::mutex> lock(catalog_mu_);
    rights_ = std::move(prior);
  }
  return durable;
}

void MediaDatabase::MaybeAutoCheckpoint() const {
  if (wal_ == nullptr) return;
  uint64_t threshold = wal_->options().checkpoint_threshold_bytes;
  if (threshold == 0) return;
  if (wal_->bytes_since_checkpoint() < threshold) return;
  std::unique_lock<std::mutex> lk(checkpoint_mu_, std::try_to_lock);
  if (!lk.owns_lock()) return;  // A checkpoint is already running.
  if (wal_->bytes_since_checkpoint() < threshold) return;
  // Best effort: a failed checkpoint freezes the WAL and surfaces on
  // the next mutation; the commit that triggered us is already durable.
  (void)CheckpointLocked();
}

void MediaDatabase::ApplyUpsertLocked(
    std::shared_ptr<const CatalogEntry> entry) {
  auto it = catalog_.find(entry->id);
  if (it != catalog_.end()) {
    IndexRemove(*it->second);
    by_name_.erase(it->second->name);
  }
  by_name_[entry->name] = entry->id;
  IndexInsert(*entry);
  if (entry->id >= next_id_) next_id_ = entry->id + 1;
  catalog_[entry->id] = std::move(entry);
}

void MediaDatabase::ApplyRemoveLocked(ObjectId id) {
  auto it = catalog_.find(id);
  if (it == catalog_.end()) return;
  by_name_.erase(it->second->name);
  IndexRemove(*it->second);
  catalog_.erase(it);
}

Status MediaDatabase::ApplyWalRecord(const wal::WalRecord& record) {
  BinaryReader reader(record.payload);
  TBM_ASSIGN_OR_RETURN(uint8_t op, reader.ReadU8());
  switch (op) {
    case kOpUpsert: {
      TBM_ASSIGN_OR_RETURN(CatalogEntry entry,
                           DeserializeCatalogEntry(&reader));
      ApplyUpsertLocked(std::make_shared<const CatalogEntry>(std::move(entry)));
      return Status::OK();
    }
    case kOpRemove: {
      TBM_ASSIGN_OR_RETURN(ObjectId id, reader.ReadU64());
      ApplyRemoveLocked(id);
      return Status::OK();
    }
    case kOpRights: {
      TBM_ASSIGN_OR_RETURN(rights_, RightsManager::Deserialize(&reader));
      return Status::OK();
    }
    default:
      return Status::Corruption("unknown WAL op " + std::to_string(op) +
                                " at LSN " + std::to_string(record.lsn));
  }
}

// ---------------------------------------------------------------------------
// Catalog writes

Status MediaDatabase::CheckNameFreeLocked(const std::string& name) const {
  if (name.empty()) {
    return Status::InvalidArgument("object name must not be empty");
  }
  if (by_name_.count(name) > 0) {
    return Status::AlreadyExists("catalog name \"" + name + "\" in use");
  }
  return Status::OK();
}

std::string MediaDatabase::IndexKey(const AttrValue& value) {
  // Canonical byte form: type tag + serialized payload.
  BinaryWriter writer;
  writer.WriteU8(static_cast<uint8_t>(TypeOf(value)));
  writer.WriteString(AttrValueToString(value));
  return std::string(reinterpret_cast<const char*>(writer.buffer().data()),
                     writer.size());
}

void MediaDatabase::IndexInsert(const CatalogEntry& entry) {
  for (auto& [attr, index] : attr_indexes_) {
    auto value = entry.attrs.Get(attr);
    if (value.ok()) index.emplace(IndexKey(*value), entry.id);
  }
}

void MediaDatabase::IndexRemove(const CatalogEntry& entry) {
  for (auto& [attr, index] : attr_indexes_) {
    auto value = entry.attrs.Get(attr);
    if (!value.ok()) continue;
    auto [begin, end] = index.equal_range(IndexKey(*value));
    for (auto it = begin; it != end; ++it) {
      if (it->second == entry.id) {
        index.erase(it);
        break;
      }
    }
  }
}

Status MediaDatabase::CheckRefsLocked(const CatalogEntry& entry) const {
  switch (entry.kind) {
    case CatalogKind::kMediaObject: {
      TBM_ASSIGN_OR_RETURN(const CatalogEntry* interp,
                           Get(entry.interpretation_ref));
      if (interp->kind != CatalogKind::kInterpretation) {
        return Status::InvalidArgument(
            "object " + std::to_string(entry.interpretation_ref) +
            " is not an interpretation");
      }
      return interp->interpretation.FindObject(entry.stream_name).status();
    }
    case CatalogKind::kDerivedObject:
      for (ObjectId input : entry.inputs) {
        TBM_ASSIGN_OR_RETURN(const CatalogEntry* ref, Get(input));
        if (ref->kind != CatalogKind::kMediaObject &&
            ref->kind != CatalogKind::kDerivedObject) {
          return Status::InvalidArgument(
              "derivation input " + std::to_string(input) +
              " must be a media or derived object, is " +
              std::string(CatalogKindToString(ref->kind)));
        }
      }
      return Status::OK();
    case CatalogKind::kMultimediaObject:
      for (const StoredComponent& component : entry.components) {
        TBM_ASSIGN_OR_RETURN(const CatalogEntry* ref, Get(component.media));
        if (ref->kind != CatalogKind::kMediaObject &&
            ref->kind != CatalogKind::kDerivedObject) {
          return Status::InvalidArgument(
              "component \"" + component.name +
              "\" must reference a media or derived object");
        }
      }
      return Status::OK();
    default:
      return Status::OK();
  }
}

Result<ObjectId> MediaDatabase::Insert(CatalogEntry entry) {
  uint64_t lsn = 0;
  ObjectId id = kInvalidObjectId;
  {
    std::lock_guard<std::mutex> lock(catalog_mu_);
    TBM_RETURN_IF_ERROR(CheckNameFreeLocked(entry.name));
    TBM_RETURN_IF_ERROR(CheckRefsLocked(entry));
    entry.id = next_id_;
    id = entry.id;
    auto shared = std::make_shared<const CatalogEntry>(std::move(entry));
    TBM_ASSIGN_OR_RETURN(lsn, LogUpsertLocked(*shared));
    ApplyUpsertLocked(std::move(shared));
  }
  TBM_RETURN_IF_ERROR(FinishCommitOrRollback(lsn, id, nullptr));
  return id;
}

Result<ObjectId> MediaDatabase::AddEntity(const std::string& name,
                                          AttrMap attrs) {
  CatalogEntry entry;
  entry.kind = CatalogKind::kEntity;
  entry.name = name;
  entry.attrs = std::move(attrs);
  return Insert(std::move(entry));
}

Result<ObjectId> MediaDatabase::AddInterpretation(
    const std::string& name, Interpretation interpretation) {
  if (!store_->Exists(interpretation.blob())) {
    return Status::NotFound("interpretation references unknown BLOB " +
                            std::to_string(interpretation.blob()));
  }
  TBM_ASSIGN_OR_RETURN(uint64_t blob_size,
                       store_->Size(interpretation.blob()));
  TBM_RETURN_IF_ERROR(interpretation.ValidateAgainstBlobSize(blob_size));
  CatalogEntry entry;
  entry.kind = CatalogKind::kInterpretation;
  entry.name = name;
  entry.interpretation = std::move(interpretation);
  return Insert(std::move(entry));
}

Result<ObjectId> MediaDatabase::AddMediaObject(const std::string& name,
                                               ObjectId interpretation_id,
                                               const std::string& stream_name,
                                               AttrMap attrs) {
  CatalogEntry entry;
  entry.kind = CatalogKind::kMediaObject;
  entry.name = name;
  entry.attrs = std::move(attrs);
  entry.interpretation_ref = interpretation_id;
  entry.stream_name = stream_name;
  return Insert(std::move(entry));
}

Result<ObjectId> MediaDatabase::AddDerivedObject(const std::string& name,
                                                 const std::string& op,
                                                 std::vector<ObjectId> inputs,
                                                 AttrMap params,
                                                 AttrMap attrs) {
  TBM_RETURN_IF_ERROR(DerivationRegistry::Builtin().Find(op).status());
  CatalogEntry entry;
  entry.kind = CatalogKind::kDerivedObject;
  entry.name = name;
  entry.attrs = std::move(attrs);
  entry.op = op;
  entry.inputs = std::move(inputs);
  entry.params = std::move(params);
  return Insert(std::move(entry));
}

Result<ObjectId> MediaDatabase::AddMultimediaObject(
    const std::string& name, std::vector<StoredComponent> components,
    AttrMap attrs) {
  for (const StoredComponent& component : components) {
    if (component.start_seconds.IsNegative()) {
      return Status::InvalidArgument("component \"" + component.name +
                                     "\" has negative start");
    }
  }
  CatalogEntry entry;
  entry.kind = CatalogKind::kMultimediaObject;
  entry.name = name;
  entry.attrs = std::move(attrs);
  entry.components = std::move(components);
  return Insert(std::move(entry));
}

Status MediaDatabase::SetAttr(ObjectId id, const std::string& name,
                              AttrValue value) {
  uint64_t lsn = 0;
  std::shared_ptr<const CatalogEntry> prior;
  {
    std::lock_guard<std::mutex> lock(catalog_mu_);
    auto it = catalog_.find(id);
    if (it == catalog_.end()) {
      return Status::NotFound("no catalog object " + std::to_string(id));
    }
    // Copy-on-write: a concurrent checkpoint's copied map keeps the old
    // row; readers see old-or-new, never a half-mutated entry.
    prior = it->second;
    CatalogEntry updated = *it->second;
    updated.attrs.Set(name, std::move(value));
    auto shared = std::make_shared<const CatalogEntry>(std::move(updated));
    TBM_ASSIGN_OR_RETURN(lsn, LogUpsertLocked(*shared));
    ApplyUpsertLocked(std::move(shared));
  }
  return FinishCommitOrRollback(lsn, id, std::move(prior));
}

Status MediaDatabase::SetMediaAttr(ObjectId entity, const std::string& attr,
                                   ObjectId media_object) {
  TBM_ASSIGN_OR_RETURN(const CatalogEntry* target, Get(media_object));
  if (target->kind != CatalogKind::kMediaObject &&
      target->kind != CatalogKind::kDerivedObject &&
      target->kind != CatalogKind::kMultimediaObject) {
    return Status::InvalidArgument("media attribute must reference a media, "
                                   "derived or multimedia object");
  }
  return SetAttr(entity, attr, static_cast<int64_t>(media_object));
}

Result<ObjectId> MediaDatabase::GetMediaAttr(ObjectId entity,
                                             const std::string& attr) const {
  TBM_ASSIGN_OR_RETURN(const CatalogEntry* entry, Get(entity));
  TBM_ASSIGN_OR_RETURN(int64_t ref, entry->attrs.GetInt(attr));
  if (catalog_.count(static_cast<ObjectId>(ref)) == 0) {
    return Status::NotFound("media attribute \"" + attr +
                            "\" references missing object");
  }
  return static_cast<ObjectId>(ref);
}

Status MediaDatabase::UpdateDerivedParams(ObjectId id, AttrMap params) {
  uint64_t lsn = 0;
  std::shared_ptr<const CatalogEntry> prior;
  {
    std::lock_guard<std::mutex> lock(catalog_mu_);
    auto it = catalog_.find(id);
    if (it == catalog_.end()) {
      return Status::NotFound("no catalog object " + std::to_string(id));
    }
    if (it->second->kind != CatalogKind::kDerivedObject) {
      return Status::InvalidArgument("object " + std::to_string(id) +
                                     " is not a derived object");
    }
    prior = it->second;
    CatalogEntry updated = *it->second;
    updated.params = std::move(params);
    auto shared = std::make_shared<const CatalogEntry>(std::move(updated));
    TBM_ASSIGN_OR_RETURN(lsn, LogUpsertLocked(*shared));
    ApplyUpsertLocked(std::move(shared));
  }
  return FinishCommitOrRollback(lsn, id, std::move(prior));
}

Status MediaDatabase::Remove(ObjectId id) {
  uint64_t lsn = 0;
  std::shared_ptr<const CatalogEntry> prior;
  {
    std::lock_guard<std::mutex> lock(catalog_mu_);
    auto it = catalog_.find(id);
    if (it == catalog_.end()) {
      return Status::NotFound("no catalog object " + std::to_string(id));
    }
    // Refuse to remove objects something else references.
    for (const auto& [other_id, entry] : catalog_) {
      if (other_id == id) continue;
      if (entry->interpretation_ref == id) {
        return Status::FailedPrecondition("object is referenced by \"" +
                                          entry->name + "\"");
      }
      for (ObjectId input : entry->inputs) {
        if (input == id) {
          return Status::FailedPrecondition("object is referenced by \"" +
                                            entry->name + "\"");
        }
      }
      for (const StoredComponent& component : entry->components) {
        if (component.media == id) {
          return Status::FailedPrecondition("object is referenced by \"" +
                                            entry->name + "\"");
        }
      }
    }
    TBM_ASSIGN_OR_RETURN(lsn, LogRemoveLocked(id));
    prior = it->second;
    ApplyRemoveLocked(id);
  }
  return FinishCommitOrRollback(lsn, id, std::move(prior));
}

Result<size_t> MediaDatabase::VacuumBlobs() {
  TBM_ASSIGN_OR_RETURN(BlobGcStats stats, CollectBlobGarbage());
  return static_cast<size_t>(stats.swept);
}

Result<MediaDatabase::BlobGcStats> MediaDatabase::CollectBlobGarbage() {
  // Mark: every blob a live interpretation places into.
  std::set<BlobId> referenced;
  for (const auto& [id, entry] : catalog_) {
    if (entry->kind == CatalogKind::kInterpretation) {
      referenced.insert(entry->interpretation.blob());
    }
  }
  BlobGcStats stats;
  stats.live = referenced.size();

  if (auto* cas = dynamic_cast<CasBlobStore*>(store_.get())) {
    // Sweep through the store's own collector: concurrent-safe, and
    // reference counts mean a deduped blob survives until every
    // placement of its content is gone.
    std::vector<BlobId> live(referenced.begin(), referenced.end());
    TBM_ASSIGN_OR_RETURN(CasSweepStats swept, cas->Sweep(live));
    stats.swept = swept.swept;
    stats.reclaimed_bytes = swept.reclaimed_bytes;
    stats.pinned = swept.pinned;
    stats.pause_us = swept.pause_us;
    return stats;
  }

  for (BlobId blob : store_->List()) {
    if (referenced.count(blob) > 0) continue;
    TBM_ASSIGN_OR_RETURN(uint64_t size, store_->Size(blob));
    TBM_RETURN_IF_ERROR(store_->Delete(blob));
    stats.swept++;
    stats.reclaimed_bytes += size;
  }
  return stats;
}

// ---------------------------------------------------------------------------
// Reads & queries

Result<const CatalogEntry*> MediaDatabase::Get(ObjectId id) const {
  auto it = catalog_.find(id);
  if (it == catalog_.end()) {
    return Status::NotFound("no catalog object " + std::to_string(id));
  }
  return it->second.get();
}

Result<ObjectId> MediaDatabase::FindByName(const std::string& name) const {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    return Status::NotFound("no catalog object named \"" + name + "\"");
  }
  return it->second;
}

std::vector<ObjectId> MediaDatabase::List() const {
  std::vector<ObjectId> ids;
  ids.reserve(catalog_.size());
  for (const auto& [id, entry] : catalog_) ids.push_back(id);
  return ids;
}

std::vector<ObjectId> MediaDatabase::Filter(
    const std::function<bool(const CatalogEntry&)>& predicate) const {
  std::vector<ObjectId> ids;
  for (const auto& [id, entry] : catalog_) {
    if (predicate(*entry)) ids.push_back(id);
  }
  return ids;
}

std::vector<ObjectId> MediaDatabase::SelectByAttr(
    const std::string& attr, const AttrValue& value) const {
  auto index = attr_indexes_.find(attr);
  if (index != attr_indexes_.end()) {
    std::vector<ObjectId> ids;
    auto [begin, end] = index->second.equal_range(IndexKey(value));
    for (auto it = begin; it != end; ++it) ids.push_back(it->second);
    std::sort(ids.begin(), ids.end());
    return ids;
  }
  return Filter([&](const CatalogEntry& entry) {
    auto v = entry.attrs.Get(attr);
    return v.ok() && *v == value;
  });
}

Status MediaDatabase::CreateAttrIndex(const std::string& attr) {
  if (attr.empty()) {
    return Status::InvalidArgument("attribute name must not be empty");
  }
  std::multimap<std::string, ObjectId>& index = attr_indexes_[attr];
  index.clear();
  for (const auto& [id, entry] : catalog_) {
    auto value = entry->attrs.Get(attr);
    if (value.ok()) index.emplace(IndexKey(*value), id);
  }
  return Status::OK();
}

Status MediaDatabase::DropAttrIndex(const std::string& attr) {
  if (attr_indexes_.erase(attr) == 0) {
    return Status::NotFound("no index on \"" + attr + "\"");
  }
  return Status::OK();
}

std::vector<ObjectId> MediaDatabase::SelectByKind(MediaKind kind) const {
  return Filter([&](const CatalogEntry& entry) {
    if (entry.kind == CatalogKind::kMediaObject) {
      auto interp = Get(entry.interpretation_ref);
      if (!interp.ok()) return false;
      auto object = (*interp)->interpretation.FindObject(entry.stream_name);
      return object.ok() && (*object)->descriptor.kind == kind;
    }
    if (entry.kind == CatalogKind::kDerivedObject) {
      auto op = DerivationRegistry::Builtin().Find(entry.op);
      return op.ok() && (*op)->result_kind == kind;
    }
    return false;
  });
}

std::vector<ObjectId> MediaDatabase::SelectByDescriptor(
    const std::string& attr,
    const std::function<bool(const AttrValue&)>& predicate) const {
  return Filter([&](const CatalogEntry& entry) {
    if (entry.kind != CatalogKind::kMediaObject) return false;
    auto interp = Get(entry.interpretation_ref);
    if (!interp.ok()) return false;
    auto object = (*interp)->interpretation.FindObject(entry.stream_name);
    if (!object.ok()) return false;
    auto value = (*object)->descriptor.attrs.Get(attr);
    return value.ok() && predicate(*value);
  });
}

std::vector<ObjectId> MediaDatabase::SelectByDuration(
    double min_seconds, double max_seconds) const {
  return Filter([&](const CatalogEntry& entry) {
    if (entry.kind != CatalogKind::kMediaObject) return false;
    auto interp = Get(entry.interpretation_ref);
    if (!interp.ok()) return false;
    auto object = (*interp)->interpretation.FindObject(entry.stream_name);
    if (!object.ok()) return false;
    double seconds =
        (*object)->time_system.ToSecondsF((*object)->EndTime());
    return seconds >= min_seconds && seconds <= max_seconds;
  });
}

// ---------------------------------------------------------------------------
// Authorization

Status MediaDatabase::CheckReadRecursive(ObjectId id,
                                         const std::string& principal) const {
  TBM_RETURN_IF_ERROR(rights_.Check(id, principal, MediaOperation::kRead));
  TBM_ASSIGN_OR_RETURN(const CatalogEntry* entry, Get(id));
  for (ObjectId input : entry->inputs) {
    TBM_RETURN_IF_ERROR(CheckReadRecursive(input, principal));
  }
  return Status::OK();
}

Result<MediaValue> MediaDatabase::MaterializeFor(
    ObjectId id, const std::string& principal) const {
  TBM_RETURN_IF_ERROR(CheckReadRecursive(id, principal));
  return Materialize(id);
}

Result<ObjectId> MediaDatabase::AddDerivedObjectFor(
    const std::string& principal, const std::string& name,
    const std::string& op, std::vector<ObjectId> inputs, AttrMap params,
    AttrMap attrs) {
  for (ObjectId input : inputs) {
    TBM_RETURN_IF_ERROR(
        rights_.Check(input, principal, MediaOperation::kDerive));
  }
  std::string notice = rights_.DeriveCopyrightNotice(inputs);
  if (!notice.empty()) {
    attrs.SetString("copyright", notice);
  }
  return AddDerivedObject(name, op, std::move(inputs), std::move(params),
                          std::move(attrs));
}

Status MediaDatabase::ProtectObject(ObjectId object, const std::string& owner,
                                    const std::string& copyright_notice) {
  return CommitRightsChange([&](RightsManager& rights) {
    return rights.Protect(object, owner, copyright_notice);
  });
}

Status MediaDatabase::GrantRights(ObjectId object,
                                  const std::string& principal,
                                  OperationMask operations) {
  return CommitRightsChange([&](RightsManager& rights) {
    return rights.Grant(object, principal, operations);
  });
}

Status MediaDatabase::RevokeRights(ObjectId object,
                                   const std::string& principal) {
  return CommitRightsChange([&](RightsManager& rights) {
    return rights.Revoke(object, principal);
  });
}

// ---------------------------------------------------------------------------
// Materialization

Result<TimedStream> MediaDatabase::MaterializeStream(
    ObjectId media_object, std::optional<TickSpan> span) const {
  obs::ScopedSpan trace("db.materialize_stream");
  TBM_ASSIGN_OR_RETURN(const CatalogEntry* entry, Get(media_object));
  if (entry->kind != CatalogKind::kMediaObject) {
    return Status::InvalidArgument(
        "object " + std::to_string(media_object) +
        " is not a non-derived media object (derived objects must be "
        "expanded; use Materialize)");
  }
  TBM_ASSIGN_OR_RETURN(const CatalogEntry* interp,
                       Get(entry->interpretation_ref));
  return MaterializeStreamed(*store_, interp->interpretation,
                             entry->stream_name, ResolvedReadOptions(), span);
}

Result<NodeId> MediaDatabase::BuildGraphNode(
    ObjectId id, DerivationGraph* graph,
    std::map<ObjectId, NodeId>* built) const {
  auto cached = built->find(id);
  if (cached != built->end()) return cached->second;
  TBM_ASSIGN_OR_RETURN(const CatalogEntry* entry, Get(id));
  NodeId node;
  if (entry->kind == CatalogKind::kMediaObject) {
    TBM_ASSIGN_OR_RETURN(const CatalogEntry* interp,
                         Get(entry->interpretation_ref));
    TBM_ASSIGN_OR_RETURN(MediaValue value,
                         DecodeStreamed(*store_, interp->interpretation,
                                        entry->stream_name,
                                        ResolvedReadOptions()));
    node = graph->AddLeaf(std::move(value), entry->name);
  } else if (entry->kind == CatalogKind::kDerivedObject) {
    std::vector<NodeId> inputs;
    for (ObjectId input : entry->inputs) {
      TBM_ASSIGN_OR_RETURN(NodeId input_node,
                           BuildGraphNode(input, graph, built));
      inputs.push_back(input_node);
    }
    TBM_ASSIGN_OR_RETURN(node, graph->AddDerived(entry->op, std::move(inputs),
                                                 entry->params, entry->name));
  } else {
    return Status::InvalidArgument(
        "object " + std::to_string(id) + " (" +
        std::string(CatalogKindToString(entry->kind)) +
        ") cannot appear in a derivation graph");
  }
  built->emplace(id, node);
  return node;
}

Result<MediaValue> MediaDatabase::Materialize(ObjectId id) const {
  obs::ScopedSpan span("db.materialize");
  static obs::Histogram* const materialize_us =
      obs::Registry::Global().histogram("db.materialize_us");
  static obs::Counter* const materializations =
      obs::Registry::Global().counter("db.materializations");
  obs::ScopedTimerUs timer(materialize_us);
  materializations->Add();
  DerivationGraph graph;
  std::map<ObjectId, NodeId> built;
  TBM_ASSIGN_OR_RETURN(NodeId node, BuildGraphNode(id, &graph, &built));
  DerivationEngine engine(&graph, eval_options_);
  TBM_ASSIGN_OR_RETURN(ValueRef value, engine.Evaluate(node));
  {
    std::lock_guard<std::mutex> lock(eval_stats_mu_);
    last_eval_stats_ = engine.stats();
  }
  return *value;  // Copy out; the graph and engine die with this frame.
}

Result<std::unique_ptr<ComposedView>> MediaDatabase::Compose(
    ObjectId multimedia_id) const {
  TBM_ASSIGN_OR_RETURN(const CatalogEntry* entry, Get(multimedia_id));
  if (entry->kind != CatalogKind::kMultimediaObject) {
    return Status::InvalidArgument("object " + std::to_string(multimedia_id) +
                                   " is not a multimedia object");
  }
  auto view = std::make_unique<ComposedView>();
  view->object = MultimediaObject(entry->name, &view->graph);
  std::map<ObjectId, NodeId> built;
  for (const StoredComponent& component : entry->components) {
    TBM_ASSIGN_OR_RETURN(NodeId node,
                         BuildGraphNode(component.media, &view->graph, &built));
    TBM_RETURN_IF_ERROR(view->object.AddComponent(
        component.name, node, component.start_seconds, component.spatial));
  }
  return view;
}

Result<uint64_t> MediaDatabase::DerivationRecordBytes(ObjectId id) const {
  TBM_ASSIGN_OR_RETURN(const CatalogEntry* entry, Get(id));
  if (entry->kind == CatalogKind::kMediaObject) {
    return static_cast<uint64_t>(sizeof(ObjectId));
  }
  if (entry->kind != CatalogKind::kDerivedObject) {
    return Status::InvalidArgument("not a media or derived object");
  }
  BinaryWriter writer;
  writer.WriteString(entry->op);
  writer.WriteVarU64(entry->inputs.size());
  for (ObjectId input : entry->inputs) writer.WriteVarU64(input);
  entry->params.Serialize(&writer);
  uint64_t total = writer.size();
  for (ObjectId input : entry->inputs) {
    TBM_ASSIGN_OR_RETURN(uint64_t sub, DerivationRecordBytes(input));
    total += sub;
  }
  return total;
}

Result<ObjectId> MediaDatabase::ExpandAndStore(ObjectId derived_id,
                                               const std::string& new_name,
                                               const StoreOptions& options) {
  TBM_ASSIGN_OR_RETURN(const CatalogEntry* entry, Get(derived_id));
  if (entry->kind != CatalogKind::kDerivedObject) {
    return Status::InvalidArgument("ExpandAndStore requires a derived object");
  }
  TBM_ASSIGN_OR_RETURN(MediaValue value, Materialize(derived_id));
  TBM_ASSIGN_OR_RETURN(Interpretation interp,
                       StoreValue(store_.get(), value, new_name, options));
  TBM_ASSIGN_OR_RETURN(
      ObjectId interp_id,
      AddInterpretation(new_name + " interpretation", std::move(interp)));
  return AddMediaObject(new_name, interp_id, new_name);
}

// ---------------------------------------------------------------------------
// Durability

std::string MediaDatabase::CatalogPath(const std::string& dir) {
  return dir + "/catalog.tbm";
}

std::string MediaDatabase::LockPath(const std::string& dir) {
  return dir + "/LOCK";
}

Bytes MediaDatabase::SerializeSnapshot(
    uint64_t applied_lsn, uint64_t next_id,
    const std::map<ObjectId, std::shared_ptr<const CatalogEntry>>& catalog,
    const RightsManager& rights) {
  BinaryWriter body;
  body.WriteU64(applied_lsn);
  body.WriteU64(next_id);
  body.WriteVarU64(catalog.size());
  for (const auto& [id, entry] : catalog) {
    SerializeCatalogEntry(*entry, &body);
  }
  rights.Serialize(&body);
  BinaryWriter file;
  file.WriteU32(kCatalogMagic);
  file.WriteU32(kCatalogVersion);
  file.WriteU32(Crc32(body.buffer()));
  file.WriteRaw(body.buffer());
  return file.TakeBuffer();
}

Status MediaDatabase::Checkpoint() const {
  if (wal_ == nullptr) {
    return Status::FailedPrecondition(
        "in-memory databases cannot be saved; open with a directory");
  }
  std::lock_guard<std::mutex> lock(checkpoint_mu_);
  return CheckpointLocked();
}

Status MediaDatabase::CheckpointLocked() const {
  uint64_t checkpoint_lsn = 0;
  std::map<ObjectId, std::shared_ptr<const CatalogEntry>> catalog_copy;
  RightsManager rights_copy;
  uint64_t next_id = 0;
  {
    // Rotation and the state copy are one atomic step against
    // mutators: the snapshot covers exactly the LSNs up to rotation.
    std::lock_guard<std::mutex> lock(catalog_mu_);
    TBM_ASSIGN_OR_RETURN(checkpoint_lsn, wal_->RotateForCheckpoint());
    catalog_copy = catalog_;  // shared_ptr copies — cheap, and COW
                              // keeps them stable while we serialize.
    rights_copy = rights_;
    next_id = next_id_;
  }
  Bytes snapshot =
      SerializeSnapshot(checkpoint_lsn, next_id, catalog_copy, rights_copy);
  return wal_->InstallCheckpoint(CatalogPath(dir_), snapshot, checkpoint_lsn);
}

Status MediaDatabase::Save() const {
  if (dir_.empty()) {
    return Status::FailedPrecondition(
        "in-memory databases cannot be saved; open with a directory");
  }
  return Checkpoint();
}

wal::WalStatus MediaDatabase::wal_status() const {
  if (wal_ == nullptr) return wal::WalStatus{};
  return wal_->GetStatus();
}

wal::RecoveryStats MediaDatabase::recovery_stats() const {
  if (wal_ == nullptr) return wal::RecoveryStats{};
  return wal_->recovery_stats();
}

Result<uint64_t> MediaDatabase::LoadCatalog() {
  std::string path = CatalogPath(dir_);
  bool has_super = wal_ != nullptr && wal_->has_superblock();
  if (!std::filesystem::exists(path)) {
    if (has_super && wal_->superblock().checkpoint_lsn > 0) {
      return Status::Corruption(
          "superblock present but catalog snapshot missing: " + path);
    }
    return uint64_t{0};  // Fresh database.
  }
  TBM_ASSIGN_OR_RETURN(Bytes bytes, ReadFileBytes(path));
  BinaryReader header(bytes);
  TBM_ASSIGN_OR_RETURN(uint32_t magic, header.ReadU32());
  if (magic != kCatalogMagic) {
    return Status::Corruption("not a catalog file: " + path);
  }
  TBM_ASSIGN_OR_RETURN(uint32_t version, header.ReadU32());
  if (version == 0 || version > kCatalogVersion) {
    return Status::Unsupported("catalog version " + std::to_string(version));
  }
  TBM_ASSIGN_OR_RETURN(uint32_t crc, header.ReadU32());
  ByteSpan body(bytes.data() + header.position(),
                bytes.size() - header.position());
  if (Crc32(body) != crc) {
    return Status::Corruption("catalog checksum mismatch: " + path);
  }
  BinaryReader reader(body);
  uint64_t applied_lsn = 0;
  if (version >= 3) {
    TBM_ASSIGN_OR_RETURN(applied_lsn, reader.ReadU64());
  }
  TBM_ASSIGN_OR_RETURN(next_id_, reader.ReadU64());
  TBM_ASSIGN_OR_RETURN(uint64_t count, reader.ReadVarU64());
  for (uint64_t i = 0; i < count; ++i) {
    TBM_ASSIGN_OR_RETURN(CatalogEntry entry, DeserializeCatalogEntry(&reader));
    by_name_.emplace(entry.name, entry.id);
    catalog_.emplace(entry.id,
                     std::make_shared<const CatalogEntry>(std::move(entry)));
  }
  if (version >= 2) {
    TBM_ASSIGN_OR_RETURN(rights_, RightsManager::Deserialize(&reader));
  }
  if (has_super) {
    const wal::Superblock& super = wal_->superblock();
    if (applied_lsn < super.checkpoint_lsn) {
      return Status::Corruption(
          "catalog snapshot (LSN " + std::to_string(applied_lsn) +
          ") is older than the superblock checkpoint (LSN " +
          std::to_string(super.checkpoint_lsn) + ")");
    }
    // The stored checksum binds only when this is the exact snapshot
    // the superblock published; a newer one (crash between the
    // snapshot rename and the superblock publish) is self-checksummed
    // and legitimately differs.
    if (applied_lsn == super.checkpoint_lsn &&
        Crc32(bytes) != super.snapshot_crc) {
      return Status::Corruption(
          "catalog snapshot does not match superblock checksum: " + path);
    }
  }
  return applied_lsn;
}

Status MediaDatabase::Recover() {
  TBM_ASSIGN_OR_RETURN(uint64_t applied_lsn, LoadCatalog());
  uint64_t replayed = 0;
  uint64_t skipped = 0;
  for (const wal::WalRecord& record : wal_->recovered_records()) {
    if (record.lsn <= applied_lsn) {
      // Already folded into the snapshot (a checkpoint whose segment
      // deletion the crash interrupted).
      ++skipped;
      continue;
    }
    TBM_RETURN_IF_ERROR(ApplyWalRecord(record));
    ++replayed;
  }
  wal_->FinishRecovery(applied_lsn, replayed, skipped);
  return Status::OK();
}

}  // namespace tbm
