// Durability ablation: the write-ahead log behind the transactional
// catalog (DESIGN.md §16). The paper's catalog is the system of record
// for every interpretation and derivation, so losing an acknowledged
// mutation is not acceptable — but neither is paying a full snapshot
// per mutation (the pre-WAL Save() model). This bench quantifies the
// WAL trade: per-commit latency with and without the fsync, how much
// of the fsync cost group commit amortizes across concurrent writers,
// what a checkpoint costs, and how fast recovery replays the log on
// reopen.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "blob/memory_store.h"
#include "db/database.h"
#include "obs/metrics.h"

namespace tbm {
namespace {

using bench::CheckOk;
using bench::ValueOrDie;

namespace fs = std::filesystem;

std::string ScratchDir(const char* tag) {
  static int counter = 0;
  std::string dir = (fs::temp_directory_path() /
                     ("tbm_bench_wal_" + std::string(tag) + "_" +
                      std::to_string(counter++)))
                        .string();
  fs::remove_all(dir);
  return dir;
}

std::unique_ptr<MediaDatabase> OpenDb(const std::string& dir,
                                      wal::WalOptions options = {}) {
  return ValueOrDie(MediaDatabase::Open(
                        dir, std::make_unique<MemoryBlobStore>(), options),
                    "open database");
}

double Seconds(std::chrono::steady_clock::time_point t0,
               std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

uint64_t CounterValue(const char* name) {
  obs::MetricsSnapshot snapshot = obs::Registry::Global().Snapshot();
  auto it = snapshot.counters.find(name);
  return it != snapshot.counters.end() ? it->second : 0;
}

// --- Macro: the durability story in one run ---------------------------------

constexpr int kSingleCommits = 400;
constexpr int kGroupThreads = 8;
constexpr int kGroupPerThread = 200;
constexpr int kReplayRecords = 10000;

void PrintAblation() {
  bench::Header("ablation: write-ahead log (single vs group commit, "
                "fsync cost, checkpoint, recovery)");

  // Single-writer commit latency, fsync per commit.
  {
    std::string dir = ScratchDir("single_sync");
    auto db = OpenDb(dir);
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kSingleCommits; ++i) {
      ValueOrDie(db->AddEntity('e' + std::to_string(i), {}), "add");
    }
    auto t1 = std::chrono::steady_clock::now();
    double s = Seconds(t0, t1);
    std::printf("single writer, fsync:    %7.1f us/commit  (%6.0f commits/s)\n",
                1e6 * s / kSingleCommits, kSingleCommits / s);
    fs::remove_all(dir);
  }

  // Single-writer commit latency, write() only — the fsync ablated.
  {
    std::string dir = ScratchDir("single_nosync");
    wal::WalOptions options;
    options.sync = wal::SyncMode::kNoSync;
    auto db = OpenDb(dir, options);
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kSingleCommits; ++i) {
      ValueOrDie(db->AddEntity('e' + std::to_string(i), {}), "add");
    }
    auto t1 = std::chrono::steady_clock::now();
    double s = Seconds(t0, t1);
    std::printf("single writer, no fsync: %7.1f us/commit  (%6.0f commits/s)\n",
                1e6 * s / kSingleCommits, kSingleCommits / s);
    fs::remove_all(dir);
  }

  // Group commit: concurrent writers share fsyncs. The records/fsync
  // ratio is the amortization the leader/follower protocol buys.
  {
    std::string dir = ScratchDir("group");
    auto db = OpenDb(dir);
    uint64_t fsyncs_before = CounterValue("wal.fsyncs");
    uint64_t records_before = CounterValue("wal.records");
    std::vector<std::thread> writers;
    auto t0 = std::chrono::steady_clock::now();
    for (int t = 0; t < kGroupThreads; ++t) {
      writers.emplace_back([&db, t] {
        for (int i = 0; i < kGroupPerThread; ++i) {
          ValueOrDie(db->AddEntity(
                         'w' + std::to_string(t) + '_' + std::to_string(i),
                         {}),
                     "add");
        }
      });
    }
    for (std::thread& w : writers) w.join();
    auto t1 = std::chrono::steady_clock::now();
    double s = Seconds(t0, t1);
    uint64_t fsyncs = CounterValue("wal.fsyncs") - fsyncs_before;
    uint64_t records = CounterValue("wal.records") - records_before;
    const int total = kGroupThreads * kGroupPerThread;
    std::printf("group commit, %d threads: %6.1f us/commit  "
                "(%6.0f commits/s, %.1f records/fsync over %llu fsyncs)\n",
                kGroupThreads, 1e6 * s / total, total / s,
                fsyncs ? static_cast<double>(records) /
                             static_cast<double>(fsyncs)
                       : 0.0,
                (unsigned long long)fsyncs);
    fs::remove_all(dir);
  }

  // Checkpoint cost and recovery: replay a 10k-record log, then show
  // a checkpoint reducing reopen to a snapshot load.
  {
    std::string dir = ScratchDir("recovery");
    wal::WalOptions nosync;  // Build the log fast; durability is not
    nosync.sync = wal::SyncMode::kNoSync;  // the variable here.
    nosync.checkpoint_threshold_bytes = 0;
    {
      auto db = OpenDb(dir, nosync);
      for (int i = 0; i < kReplayRecords; ++i) {
        ValueOrDie(db->AddEntity('r' + std::to_string(i), {}), "add");
      }
    }
    {
      auto t0 = std::chrono::steady_clock::now();
      auto db = OpenDb(dir);
      auto t1 = std::chrono::steady_clock::now();
      wal::RecoveryStats stats = db->recovery_stats();
      double s = Seconds(t0, t1);
      std::printf("recovery, %5llu-record log: %7.1f ms  "
                  "(%.0f records/s replayed)\n",
                  (unsigned long long)stats.replayed, 1e3 * s,
                  static_cast<double>(stats.replayed) / s);

      auto c0 = std::chrono::steady_clock::now();
      CheckOk(db->Checkpoint(), "checkpoint");
      auto c1 = std::chrono::steady_clock::now();
      std::printf("checkpoint of %d objects:   %7.1f ms  (log -> %llu bytes)\n",
                  kReplayRecords, 1e3 * Seconds(c0, c1),
                  (unsigned long long)db->wal_status().wal_bytes);
    }
    {
      auto t0 = std::chrono::steady_clock::now();
      auto db = OpenDb(dir);
      auto t1 = std::chrono::steady_clock::now();
      std::printf("reopen after checkpoint:   %7.1f ms  "
                  "(%llu records replayed)\n",
                  1e3 * Seconds(t0, t1),
                  (unsigned long long)db->recovery_stats().replayed);
    }
    fs::remove_all(dir);
  }
}

// --- Micro: google-benchmark rows -------------------------------------------

void BM_CommitSync(benchmark::State& state) {
  std::string dir = ScratchDir("bm_sync");
  auto db = OpenDb(dir);
  int i = 0;
  for (auto _ : state) {
    ValueOrDie(db->AddEntity('e' + std::to_string(i++), {}), "add");
  }
  state.SetItemsProcessed(state.iterations());
  db.reset();
  fs::remove_all(dir);
}
BENCHMARK(BM_CommitSync);

void BM_CommitNoSync(benchmark::State& state) {
  std::string dir = ScratchDir("bm_nosync");
  wal::WalOptions options;
  options.sync = wal::SyncMode::kNoSync;
  auto db = OpenDb(dir, options);
  int i = 0;
  for (auto _ : state) {
    ValueOrDie(db->AddEntity('e' + std::to_string(i++), {}), "add");
  }
  state.SetItemsProcessed(state.iterations());
  db.reset();
  fs::remove_all(dir);
}
BENCHMARK(BM_CommitNoSync);

// Group commit throughput: N threads hammer one database; items/sec is
// the aggregate commit rate.
void BM_GroupCommit(benchmark::State& state) {
  static std::unique_ptr<MediaDatabase> db;
  static std::string dir;
  static std::atomic<int> name_counter{0};
  if (state.thread_index() == 0) {
    dir = ScratchDir("bm_group");
    db = OpenDb(dir);
  }
  for (auto _ : state) {
    int i = name_counter.fetch_add(1, std::memory_order_relaxed);
    ValueOrDie(db->AddEntity('g' + std::to_string(i), {}), "add");
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    db.reset();
    fs::remove_all(dir);
  }
}
BENCHMARK(BM_GroupCommit)->Threads(1)->Threads(4)->Threads(8);

// Recovery replay rate: each iteration opens (and so replays) a
// 1000-record log.
void BM_RecoveryReplay(benchmark::State& state) {
  std::string dir = ScratchDir("bm_recovery");
  constexpr int kRecords = 1000;
  {
    wal::WalOptions options;
    options.sync = wal::SyncMode::kNoSync;
    options.checkpoint_threshold_bytes = 0;
    auto db = OpenDb(dir, options);
    for (int i = 0; i < kRecords; ++i) {
      ValueOrDie(db->AddEntity('r' + std::to_string(i), {}), "add");
    }
  }
  wal::WalOptions options;
  options.checkpoint_threshold_bytes = 0;  // Keep the log intact.
  for (auto _ : state) {
    auto db = OpenDb(dir, options);
    benchmark::DoNotOptimize(db->recovery_stats().replayed);
  }
  state.SetItemsProcessed(state.iterations() * kRecords);
  fs::remove_all(dir);
}
BENCHMARK(BM_RecoveryReplay);

}  // namespace
}  // namespace tbm

int main(int argc, char** argv) {
  bool stats = tbm::bench::ConsumeFlag(&argc, argv, "--stats");
  tbm::PrintAblation();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  if (stats) tbm::bench::PrintRegistrySnapshot();
  return 0;
}
