#ifndef TBM_DB_DATABASE_H_
#define TBM_DB_DATABASE_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "base/durable.h"
#include "base/thread_pool.h"
#include "blob/blob_store.h"
#include "compose/multimedia.h"
#include "db/codec_bridge.h"
#include "db/rights.h"
#include "db/wal/wal.h"
#include "derive/graph.h"
#include "derive/scheduler.h"
#include "interp/interpretation.h"

namespace tbm {

/// Catalog object identifier (1-based; 0 is invalid).
using ObjectId = uint64_t;
inline constexpr ObjectId kInvalidObjectId = 0;

/// What a catalog entry is.
enum class CatalogKind : uint8_t {
  kEntity = 0,            ///< Domain object (e.g. a VideoClip record).
  kInterpretation = 1,    ///< A BLOB's permanently associated interpretation.
  kMediaObject = 2,       ///< Non-derived media object (within an
                          ///< interpretation).
  kDerivedObject = 3,     ///< Derivation object (op + inputs + params).
  kMultimediaObject = 4,  ///< Composition of components.
};

std::string_view CatalogKindToString(CatalogKind kind);

/// A component record of a stored multimedia object.
struct StoredComponent {
  std::string name;  ///< Relationship name, e.g. "c1".
  ObjectId media = kInvalidObjectId;
  Rational start_seconds;
  std::optional<SpatialPlacement> spatial;
};

/// One row of the catalog. Only the fields for its `kind` are
/// meaningful.
struct CatalogEntry {
  ObjectId id = kInvalidObjectId;
  CatalogKind kind = CatalogKind::kEntity;
  std::string name;  ///< Unique across the catalog.
  AttrMap attrs;     ///< Domain attributes (title, director, language...).

  // kInterpretation:
  Interpretation interpretation;
  // kMediaObject:
  ObjectId interpretation_ref = kInvalidObjectId;
  std::string stream_name;  ///< Object name inside the interpretation.
  // kDerivedObject:
  std::string op;
  std::vector<ObjectId> inputs;
  AttrMap params;
  // kMultimediaObject:
  std::vector<StoredComponent> components;
};

/// A materialized multimedia object together with the derivation graph
/// its components evaluate in. Keep the view alive while using the
/// object.
struct ComposedView {
  ComposedView() : graph(), object("", &graph) {}
  DerivationGraph graph;
  MultimediaObject object;
};

/// The multimedia database: BLOB storage plus a catalog of
/// interpretations, media objects (derived and non-derived),
/// multimedia objects and domain entities — the full Figure 5 stack
/// behind one API.
///
/// A database opened with `Open(dir)` is durable and transactional
/// (DESIGN.md §16): every catalog mutation is appended to a
/// write-ahead log and fsynced before the call returns, so an
/// acknowledged mutation survives a crash with no explicit checkpoint.
/// Concurrent writers share one fsync (group commit). A checkpoint —
/// taken automatically when the log grows past
/// `WalOptions::checkpoint_threshold_bytes`, or explicitly via
/// Checkpoint() — folds the log into the snapshot
/// (`catalog.tbm`, atomically replaced) and truncates it. Opening the
/// directory replays any log records past the snapshot, stopping
/// cleanly at a torn tail. A `LOCK` file makes the directory
/// single-writer: a second Open fails with FailedPrecondition.
///
/// A mutator that returns an error leaves no visible change in this
/// handle: the in-memory apply is rolled back. After a WAL I/O error
/// the handle is frozen (every further mutation fails with the same
/// status) and should be reopened; a failed commit whose record had in
/// fact reached disk before the error (durable but unacknowledged) is
/// replayed by that reopen, so it may legitimately reappear — the same
/// ambiguity as any client whose commit request times out.
///
/// `CreateInMemory()` keeps everything in RAM for tests and scratch
/// work; it has no log and Checkpoint() fails.
///
/// Thread model (unchanged from pre-WAL behavior for readers):
/// mutators are serialized by an internal lock and may run concurrently
/// with each other; readers take no lock, so the caller must not read
/// an object while another thread mutates that same object. Entry
/// pointers from Get() are copy-on-write: valid until the next mutation
/// of that object.
class MediaDatabase {
 public:
  /// Opens (creating if needed) a file-backed database. Convenience
  /// for `Open(dir, FileBlobStore::Open(dir))`.
  static Result<std::unique_ptr<MediaDatabase>> Open(const std::string& dir);

  /// Opens a database over an injected BLOB store — the store is the
  /// composition point: wrap a FileBlobStore in a FaultInjectingStore
  /// for robustness testing, or substitute a CasBlobStore, without
  /// the database knowing. The catalog still persists in `dir`.
  static Result<std::unique_ptr<MediaDatabase>> Open(
      const std::string& dir, std::unique_ptr<BlobStore> store);

  /// Full-control open: WAL sync mode, checkpoint threshold, and the
  /// crash-injection schedule (tests) come from `options`.
  static Result<std::unique_ptr<MediaDatabase>> Open(
      const std::string& dir, std::unique_ptr<BlobStore> store,
      wal::WalOptions options);

  /// Creates a volatile in-memory database. Convenience for
  /// `CreateWithStore(std::make_unique<MemoryBlobStore>())`.
  static std::unique_ptr<MediaDatabase> CreateInMemory();

  /// Creates a database over an injected store with no catalog
  /// persistence (Checkpoint() fails with FailedPrecondition).
  static std::unique_ptr<MediaDatabase> CreateWithStore(
      std::unique_ptr<BlobStore> store);

  BlobStore* blob_store() { return store_.get(); }
  const BlobStore* blob_store() const { return store_.get(); }

  // -------------------------------------------------------------------------
  // Catalog writes (each is one durable transaction on file-backed
  // databases: logged, fsynced, then acknowledged)

  /// Adds a domain entity (a VideoClip-style record). Media-valued
  /// attributes are references to media objects: use SetMediaAttr.
  Result<ObjectId> AddEntity(const std::string& name, AttrMap attrs);

  /// Registers a BLOB's interpretation (the BLOB must exist in this
  /// database's store).
  Result<ObjectId> AddInterpretation(const std::string& name,
                                     Interpretation interpretation);

  /// Registers the non-derived media object `stream_name` exposed by
  /// interpretation `interpretation_id`.
  Result<ObjectId> AddMediaObject(const std::string& name,
                                  ObjectId interpretation_id,
                                  const std::string& stream_name,
                                  AttrMap attrs = {});

  /// Registers a derivation object: op applied to catalog inputs with
  /// parameters. Inputs may be media objects or other derived objects.
  Result<ObjectId> AddDerivedObject(const std::string& name,
                                    const std::string& op,
                                    std::vector<ObjectId> inputs,
                                    AttrMap params, AttrMap attrs = {});

  /// Registers a multimedia object from components.
  Result<ObjectId> AddMultimediaObject(const std::string& name,
                                       std::vector<StoredComponent> components,
                                       AttrMap attrs = {});

  Status SetAttr(ObjectId id, const std::string& name, AttrValue value);

  /// Stores a media-valued attribute: a named reference from an entity
  /// to a media object (the paper's VideoClip with a video-valued
  /// attribute).
  Status SetMediaAttr(ObjectId entity, const std::string& attr,
                      ObjectId media_object);
  Result<ObjectId> GetMediaAttr(ObjectId entity,
                                const std::string& attr) const;

  /// Replaces the parameters of a derived object (e.g. re-tuning a
  /// scale factor); the derivation op and inputs are immutable.
  Status UpdateDerivedParams(ObjectId id, AttrMap params);

  Status Remove(ObjectId id);

  /// Outcome of CollectBlobGarbage().
  struct BlobGcStats {
    uint64_t live = 0;             ///< Blobs referenced by interpretations.
    uint64_t swept = 0;            ///< Blobs reclaimed.
    uint64_t reclaimed_bytes = 0;  ///< Stored bytes reclaimed (0 when the
                                   ///< store does not track it).
    uint64_t pinned = 0;           ///< Condemned blobs rescued by racing
                                   ///< pushes (content-addressed store only).
    uint64_t pause_us = 0;         ///< Mutator-excluding pause (CAS only).
  };

  /// Garbage-collects BLOBs no interpretation references (e.g. after
  /// Remove()ing an interpretation, or for BLOBs captured but never
  /// registered) by full mark-and-sweep: marks every blob a live
  /// interpretation places into, then sweeps the rest. Over a
  /// CasBlobStore this runs the store's concurrent-safe Sweep (racing
  /// pushes pin their hash); over any other store it falls back to
  /// List() + Delete().
  Result<BlobGcStats> CollectBlobGarbage();

  // -------------------------------------------------------------------------
  // Catalog reads & queries

  Result<const CatalogEntry*> Get(ObjectId id) const;
  Result<ObjectId> FindByName(const std::string& name) const;
  size_t size() const { return catalog_.size(); }
  std::vector<ObjectId> List() const;

  /// All entries passing `predicate`.
  std::vector<ObjectId> Filter(
      const std::function<bool(const CatalogEntry&)>& predicate) const;

  /// Entries whose attribute `attr` equals `value`. Uses a secondary
  /// index when one exists (CreateAttrIndex), otherwise scans.
  std::vector<ObjectId> SelectByAttr(const std::string& attr,
                                     const AttrValue& value) const;

  /// Builds (or rebuilds) a secondary index over attribute `attr`,
  /// maintained incrementally by SetAttr and catalog inserts/removals.
  /// Indexes are in-memory query accelerators; they are rebuilt on
  /// open, not persisted.
  Status CreateAttrIndex(const std::string& attr);

  /// Drops the index on `attr`.
  Status DropAttrIndex(const std::string& attr);

  bool HasAttrIndex(const std::string& attr) const {
    return attr_indexes_.count(attr) > 0;
  }

  /// Media objects (derived or not) of the given media kind.
  std::vector<ObjectId> SelectByKind(MediaKind kind) const;

  /// Non-derived media objects whose *media descriptor* attribute
  /// `attr` satisfies `predicate` — querying the structural metadata
  /// interpretation provides (e.g. all video with frame height >= 480).
  std::vector<ObjectId> SelectByDescriptor(
      const std::string& attr,
      const std::function<bool(const AttrValue&)>& predicate) const;

  /// Non-derived media objects whose stream span lasts at least
  /// `min_seconds` and at most `max_seconds`.
  std::vector<ObjectId> SelectByDuration(double min_seconds,
                                         double max_seconds) const;

  // -------------------------------------------------------------------------
  // Materialization (the Figure 5 upward path)

  /// Materializes a non-derived media object as a timed stream by
  /// draining an ElementStream over it, read per `read_options()`.
  /// With a `span`, only the elements it selects are read — the
  /// paper's "select a specific duration" query.
  Result<TimedStream> MaterializeStream(
      ObjectId media_object, std::optional<TickSpan> span = {}) const;

  /// Tunes how MaterializeStream and Materialize read stored objects:
  /// chunk size, retry policy and readahead. If `options.pool` is null
  /// and `options.prefetch_depth` > 0, the database lazily creates (and
  /// owns) an I/O pool for the readahead. Set before concurrent reads
  /// start; the default reads synchronously (no readahead).
  void set_read_options(StreamReadOptions options);

  const StreamReadOptions& read_options() const { return read_options_; }

  /// Materializes a media or derived object as its typed value,
  /// expanding derivations as needed (memoized per call graph). The
  /// expansion runs through a DerivationEngine configured by
  /// `eval_options()`; counters land in `last_eval_stats()`.
  ///
  /// Each call builds a fresh graph and engine, and within one
  /// evaluation a shared input resolves once through the plan, so the
  /// engine's expansion cache never hits here (nor in `tbmctl eval`,
  /// which is one Materialize). The cache serves repeated Evaluate
  /// calls on one engine: the built-in engine of a DerivationGraph,
  /// such as a ComposedView's, and engines a caller holds.
  Result<MediaValue> Materialize(ObjectId id) const;

  /// Evaluation knobs (threads, cache budget) used by Materialize and
  /// MaterializeFor.
  void set_eval_options(EvalOptions options) { eval_options_ = options; }
  const EvalOptions& eval_options() const { return eval_options_; }

  /// Engine counters of the most recent Materialize call. Returns a
  /// snapshot by value: Materialize may run concurrently from other
  /// threads and overwrite the stored stats at any time, so handing out
  /// a reference would race with that writer.
  EvalStats last_eval_stats() const {
    std::lock_guard<std::mutex> lock(eval_stats_mu_);
    return last_eval_stats_;
  }

  /// Builds an evaluable view of a multimedia object: a derivation
  /// graph holding all transitive components plus the composed object.
  Result<std::unique_ptr<ComposedView>> Compose(ObjectId multimedia_id) const;

  /// Serialized size of the derivation records reachable from a
  /// derived object (op, refs, params) — the storage cost of keeping it
  /// implicit.
  Result<uint64_t> DerivationRecordBytes(ObjectId id) const;

  /// Expands a derived object and stores the result as a new
  /// non-derived media object (new BLOB + interpretation + media
  /// object entry named `new_name`). Returns the media object id —
  /// the paper's "expand derived objects to produce actual objects".
  Result<ObjectId> ExpandAndStore(ObjectId derived_id,
                                  const std::string& new_name,
                                  const StoreOptions& options = {});

  // -------------------------------------------------------------------------
  // Authorization (paper §6 future work)

  /// Rights records for catalog objects; persisted with the catalog.
  /// Prefer the logged mutators below on file-backed databases —
  /// changes made directly through this reference are durable only
  /// from the next checkpoint, not from the call.
  RightsManager& rights() { return rights_; }
  const RightsManager& rights() const { return rights_; }

  /// Logged rights mutators: like rights().Protect/Grant/Revoke but
  /// written to the WAL, so the change is durable when the call
  /// returns.
  Status ProtectObject(ObjectId object, const std::string& owner,
                       const std::string& copyright_notice = "");
  Status GrantRights(ObjectId object, const std::string& principal,
                     OperationMask operations);
  Status RevokeRights(ObjectId object, const std::string& principal);

  /// Materialize with access control: checks kRead on the object and
  /// every transitive derivation input for `principal`.
  Result<MediaValue> MaterializeFor(ObjectId id,
                                    const std::string& principal) const;

  /// AddDerivedObject with access control: checks kDerive on every
  /// input; if any input carries a copyright notice, the derived
  /// object's "copyright" attribute cites them (electronic copyright
  /// propagation).
  Result<ObjectId> AddDerivedObjectFor(const std::string& principal,
                                       const std::string& name,
                                       const std::string& op,
                                       std::vector<ObjectId> inputs,
                                       AttrMap params, AttrMap attrs = {});

  // -------------------------------------------------------------------------
  // Durability

  /// Takes a checkpoint now: serializes the catalog (copy-on-write —
  /// concurrent readers and writers keep working during the
  /// serialization), publishes it atomically over `catalog.tbm`,
  /// records the checkpoint LSN in the superblock, and truncates the
  /// WAL. FailedPrecondition on in-memory databases.
  Status Checkpoint() const;

  /// Durability counters: LSNs, segment count, log size. `enabled` is
  /// false for in-memory databases.
  wal::WalStatus wal_status() const;

  /// What recovery did when this database was opened (zeros for
  /// in-memory databases and clean non-replaying opens).
  wal::RecoveryStats recovery_stats() const;

  /// Path of the catalog snapshot for a database directory.
  static std::string CatalogPath(const std::string& dir);

  /// Path of the single-writer lock file for a database directory.
  static std::string LockPath(const std::string& dir);

 private:
  MediaDatabase(std::unique_ptr<BlobStore> store, std::string dir)
      : store_(std::move(store)), dir_(std::move(dir)) {
    read_options_.prefetch_depth = 0;  // Synchronous until set otherwise.
  }

  /// Validates `entry` and commits it as a new row. Reference checks
  /// run under catalog_mu_, so a concurrent insert cannot race them.
  Result<ObjectId> Insert(CatalogEntry entry);
  Status CheckNameFreeLocked(const std::string& name) const;
  /// Checks that the rows `entry` references exist and have the kinds
  /// its own kind requires.
  Status CheckRefsLocked(const CatalogEntry& entry) const;
  Result<NodeId> BuildGraphNode(ObjectId id, DerivationGraph* graph,
                                std::map<ObjectId, NodeId>* built) const;

  /// Loads the snapshot (verifying it against the superblock when one
  /// exists) and returns its applied LSN — 0 for fresh directories and
  /// pre-WAL snapshots.
  Result<uint64_t> LoadCatalog();
  /// Replays WAL records past the snapshot and reports to the WAL.
  Status Recover();
  Status ApplyWalRecord(const wal::WalRecord& record);

  // Transaction plumbing. The Log* helpers serialize one operation,
  // append it to the WAL and return the LSN to await (0 when there is
  // no WAL); callers hold catalog_mu_. FinishCommit waits for
  // durability and runs the threshold checkpoint; called unlocked.
  Result<uint64_t> LogUpsertLocked(const CatalogEntry& entry);
  Result<uint64_t> LogRemoveLocked(ObjectId id);
  Result<uint64_t> LogRightsLocked();
  Status FinishCommit(uint64_t lsn);
  /// FinishCommit, restoring the row's pre-image on failure so a
  /// commit the caller was told failed never stays visible to this
  /// handle's readers. `prior` is the row's previous value (null when
  /// the transaction created `id`). Called unlocked.
  Status FinishCommitOrRollback(uint64_t lsn, ObjectId id,
                                std::shared_ptr<const CatalogEntry> prior);
  /// One durable rights transaction: snapshots the rights table,
  /// applies `mutate`, logs the new table, and waits for durability —
  /// restoring the snapshot if any step fails.
  Status CommitRightsChange(const std::function<Status(RightsManager&)>& mutate);
  void MaybeAutoCheckpoint() const;
  Status CheckpointLocked() const;

  // In-memory apply, shared by mutators and replay.
  void ApplyUpsertLocked(std::shared_ptr<const CatalogEntry> entry);
  void ApplyRemoveLocked(ObjectId id);

  /// Serializes a full snapshot file image (magic, version, checksum,
  /// body) from copied state.
  static Bytes SerializeSnapshot(
      uint64_t applied_lsn, uint64_t next_id,
      const std::map<ObjectId, std::shared_ptr<const CatalogEntry>>& catalog,
      const RightsManager& rights);

  Status CheckReadRecursive(ObjectId id, const std::string& principal) const;
  void IndexInsert(const CatalogEntry& entry);
  void IndexRemove(const CatalogEntry& entry);
  static std::string IndexKey(const AttrValue& value);

  /// read_options_ with the pool slot filled (lazily creating the
  /// owned I/O pool on first use when readahead is on).
  StreamReadOptions ResolvedReadOptions() const;

  std::unique_ptr<BlobStore> store_;
  std::string dir_;  ///< Empty for in-memory databases.

  /// Orders mutators (and the checkpoint's state copy) against each
  /// other. Readers take no lock — see the class comment.
  mutable std::mutex catalog_mu_;
  /// Serializes whole checkpoints (rotate + serialize + install).
  /// Ordering: checkpoint_mu_ before catalog_mu_.
  mutable std::mutex checkpoint_mu_;

  /// Copy-on-write rows: mutators replace the shared_ptr, so a
  /// checkpoint's copied map keeps serializing the consistent old
  /// state while writers proceed.
  std::map<ObjectId, std::shared_ptr<const CatalogEntry>> catalog_;
  std::map<std::string, ObjectId> by_name_;
  /// attr name -> (canonical value key -> ids).
  std::map<std::string, std::multimap<std::string, ObjectId>> attr_indexes_;
  RightsManager rights_;
  ObjectId next_id_ = 1;
  EvalOptions eval_options_;
  mutable std::mutex eval_stats_mu_;  ///< Guards last_eval_stats_.
  mutable EvalStats last_eval_stats_;

  std::unique_ptr<FileLock> lock_;        ///< Null for in-memory.
  std::unique_ptr<wal::WalManager> wal_;  ///< Null for in-memory.

  StreamReadOptions read_options_;
  mutable std::mutex io_pool_mu_;  ///< Guards io_pool_ creation.
  mutable std::unique_ptr<ThreadPool> io_pool_;
};

}  // namespace tbm

#endif  // TBM_DB_DATABASE_H_
