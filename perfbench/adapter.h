// The benchmark's only contact with the library.
//
// Every call into the extendible hash library — table construction from a
// workload's table spec, the four operations, stats readout, the
// end-of-run laws, and checkpoint / power cut / recovering reopen — goes
// through this file.  When the library's API changes shape (an options
// merge, a Status-returning operation set), this adapter is the one file
// to edit; the driver, the key generator and the recorder never see a
// library type.

#ifndef PERFBENCH_ADAPTER_H_
#define PERFBENCH_ADAPTER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

namespace perfbench {

// The durable bytes a simulated power cut left behind (opaque).
struct DurableBytes;

// How to build a table.  Everything else uses the library's defaults.
struct TableSpec {
  size_t page_size = 256;
  // Nonzero: cap resident pages at this many frames (buffer pool on).
  size_t page_budget = 0;
  // Nonempty: buckets live in real files under this directory.
  std::string file_dir;
  // Write-ahead log with the default per-commit flush policy, on the
  // library's in-memory durable media.
  bool wal = false;
  // Set: recover the table from these bytes instead of formatting it.
  std::shared_ptr<DurableBytes> recover_from;
  // The library's own metrics (lock-wait and chase histograms).
  bool metrics = false;
  // The global-lock baseline instead of Solution 2.
  bool global_lock = false;
};

// Flat copy of every public counter the benchmark reads.  Monotone
// counters are subtracted between two readouts to get a window's work.
struct LayerStats {
  // core: operations and restructuring (TableStats).
  uint64_t finds = 0;
  uint64_t splits = 0, merges = 0, doublings = 0, halvings = 0;
  uint64_t wrong_bucket_hops = 0, stale_reads = 0;
  uint64_t insert_retries = 0, delete_restarts = 0, partner_relocks = 0;
  uint64_t optimistic_hits = 0, seq_retries = 0, seq_fallbacks = 0;
  // core: directory.
  uint64_t snapshot_publishes = 0;
  int depth = 0;
  // storage: pages.
  uint64_t page_reads = 0, page_writes = 0;
  uint64_t optimistic_reads = 0, optimistic_torn = 0;
  // storage: write-ahead log.
  uint64_t wal_commits = 0, wal_flushes = 0, wal_flushed_bytes = 0;
  uint64_t wal_images = 0, wal_deltas = 0, wal_recycled_segments = 0;
  static constexpr int kFlushBuckets = 8;
  // Flush latency histogram; bucket i counts flushes in [4^(i-1), 4^i) us
  // (bucket 0: under 1 us, the last bucket is open-ended).
  uint64_t wal_flush_us_hist[kFlushBuckets] = {};
  // storage: buffer pool.
  uint64_t pool_hits = 0, pool_misses = 0, pool_evictions = 0;
  uint64_t pool_writebacks = 0, pool_pinned_peak = 0;
  uint64_t pool_unpinned_reads = 0;
  // util: locks and epoch reclamation.
  uint64_t bucket_lock_acq = 0, bucket_lock_contended = 0;
  uint64_t dir_lock_acq = 0, dir_lock_contended = 0;
  uint64_t bucket_slow_path = 0, dir_slow_path = 0;  // metrics on only
  uint64_t epoch_retired = 0, epoch_pending = 0;
};

// Window-scoped distributions from the library's metrics (metrics on
// only; zero otherwise).  Reset by ResetDistributions().
struct LayerDistributions {
  uint64_t bucket_wait_ns_p99 = 0, bucket_wait_samples = 0;
  uint64_t dir_wait_ns_p99 = 0, dir_wait_samples = 0;
  uint64_t find_chase_hops_p99 = 0, find_chase_samples = 0;
};

// What a recovering reopen found.
struct RecoveryInfo {
  bool ok = false;
  uint64_t replayed_records = 0;
  std::string error;
};

class Table {
 public:
  // Builds a fresh table, or recovers one from spec.recover_from.
  static std::unique_ptr<Table> Open(const TableSpec& spec);
  ~Table();
  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  bool Find(uint64_t key, uint64_t* value);
  bool Insert(uint64_t key, uint64_t value);
  // Replaces the value of a present key; false if absent.
  bool Update(uint64_t key, uint64_t value);
  bool Remove(uint64_t key);

  uint64_t Size() const;
  LayerStats Stats() const;
  void ResetDistributions();
  LayerDistributions Distributions() const;
  // Bytes the table holds: data pages x page size + directory entries x 8.
  uint64_t FootprintBytes() const;
  // Visits every record (quiescent callers only).
  void ForEachRecord(const std::function<void(uint64_t, uint64_t)>& visit);

  // Quiescent-state checks: Validate() plus the accounting laws
  // LiveBuckets == base + splits - merges (base: 2^initial_depth, or the
  // live buckets a recovering reopen found), SnapshotVersion ==
  // SnapshotPublishes, optimistic_hits + seq_fallbacks == finds, the pool
  // pin ledger and hits + misses == frame_reads.  Returns false and
  // describes the first broken one.
  bool CheckLaws(std::string* error);

  // Durability (wal tables only).  Checkpoint returns false on an I/O
  // error.  CrashNow freezes the durable media as a power cut would: the
  // write in flight may land torn, later writes are dropped while the
  // table keeps serving.  TakeDurableBytes (clients stopped) returns what
  // survived, for TableSpec::recover_from.
  bool Checkpoint();
  void CrashNow(uint64_t seed);
  std::shared_ptr<DurableBytes> TakeDurableBytes() const;
  const RecoveryInfo& recovery() const { return recovery_; }

 private:
  Table() = default;
  struct Impl;
  std::unique_ptr<Impl> impl_;
  RecoveryInfo recovery_;
};

// Buckets hold this many records at the given page size.
int BucketCapacity(size_t page_size);

}  // namespace perfbench

#endif  // PERFBENCH_ADAPTER_H_
