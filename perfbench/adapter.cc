#include "adapter.h"

#include <filesystem>

#include "baseline/global_lock_hash.h"
#include "core/ellis_v2.h"
#include "core/options.h"
#include "metrics/registry.h"
#include "storage/bucket.h"
#include "storage/wal.h"
#include "util/epoch.h"
#include "util/histogram.h"

namespace perfbench {

using namespace exhash;

struct DurableBytes {
  std::shared_ptr<storage::CrashImage> image;
};

struct Table::Impl {
  // Declared before the tables so it outlives their metrics providers.
  std::unique_ptr<metrics::Registry> registry;
  std::unique_ptr<core::KeyValueIndex> index;
  core::TableBase* ellis = nullptr;  // null for the global-lock baseline
  TableSpec spec;
  // Live buckets the split/merge counters started from: the seeded
  // 2^initial_depth, or what a recovering reopen found (the counters
  // restart at zero there).
  uint64_t bucket_base = 0;
};

namespace {

core::TableOptions OptionsFor(const TableSpec& spec,
                              metrics::Registry* registry) {
  core::TableOptions o;
  o.page_size = spec.page_size;
  o.page_budget = spec.page_budget;
  if (!spec.file_dir.empty()) {
    o.backing_file = (std::filesystem::path(spec.file_dir) / "pages").string();
  }
  o.wal = spec.wal;
  o.wal_flush_policy = storage::WalFlushPolicy::kPerCommit;
  if (spec.recover_from) o.recover_from = spec.recover_from->image;
  o.metrics = spec.metrics;
  o.metrics_registry = registry;
  o.metrics_prefix = "perfbench";
  return o;
}

}  // namespace

std::unique_ptr<Table> Table::Open(const TableSpec& spec) {
  const bool recover = spec.recover_from != nullptr;
  std::unique_ptr<Table> t(new Table());
  t->impl_ = std::make_unique<Impl>();
  Impl& impl = *t->impl_;
  impl.spec = spec;
  if (spec.metrics) impl.registry = std::make_unique<metrics::Registry>();
  const core::TableOptions o = OptionsFor(spec, impl.registry.get());
  if (spec.global_lock) {
    impl.index = std::make_unique<baseline::GlobalLockHash>(o);
  } else {
    auto v2 = std::make_unique<core::EllisHashTableV2>(o);
    impl.ellis = v2.get();
    impl.index = std::move(v2);
    impl.bucket_base = recover ? impl.ellis->LiveBuckets()
                               : uint64_t{1} << o.initial_depth;
    if (recover) {
      const storage::RecoveryReport& r = impl.ellis->recovery_report();
      t->recovery_.ok = r.ok();
      t->recovery_.replayed_records = r.replayed_images + r.replayed_deltas;
      t->recovery_.error = r.error;
    }
  }
  return t;
}

Table::~Table() = default;

bool Table::Find(uint64_t key, uint64_t* value) {
  return impl_->index->Find(key, value);
}
bool Table::Insert(uint64_t key, uint64_t value) {
  return impl_->index->Insert(key, value);
}
bool Table::Update(uint64_t key, uint64_t value) {
  return impl_->index->Update(key, [value](uint64_t) { return value; });
}
bool Table::Remove(uint64_t key) { return impl_->index->Remove(key); }
uint64_t Table::Size() const { return impl_->index->Size(); }

LayerStats Table::Stats() const {
  LayerStats l;
  const core::TableStats s = impl_->index->Stats();
  l.finds = s.finds;
  l.splits = s.splits;
  l.merges = s.merges;
  l.doublings = s.doublings;
  l.halvings = s.halvings;
  l.wrong_bucket_hops = s.wrong_bucket_hops;
  l.stale_reads = s.stale_reads;
  l.insert_retries = s.insert_retries;
  l.delete_restarts = s.delete_restarts;
  l.partner_relocks = s.partner_relocks;
  l.optimistic_hits = s.optimistic_hits;
  l.seq_retries = s.seq_retries;
  l.seq_fallbacks = s.seq_fallbacks;
  l.depth = impl_->index->Depth();
  core::TableBase* t = impl_->ellis;
  if (t == nullptr) return l;
  l.snapshot_publishes = t->SnapshotPublishes();
  const storage::PageStoreStats io = t->IoStats();
  l.page_reads = io.reads;
  l.page_writes = io.writes;
  l.optimistic_reads = io.optimistic_reads;
  l.optimistic_torn = io.optimistic_torn;
  l.wal_commits = io.wal_commits;
  l.wal_flushes = io.wal_flushes;
  l.wal_flushed_bytes = io.wal_flushed_bytes;
  l.wal_images = io.wal_images;
  l.wal_deltas = io.wal_deltas;
  l.wal_recycled_segments = io.wal_recycled_segments;
  static_assert(storage::Wal::kLatencyBuckets == LayerStats::kFlushBuckets);
  for (int i = 0; i < LayerStats::kFlushBuckets; ++i) {
    l.wal_flush_us_hist[i] = io.wal_flush_latency_us_hist[i];
  }
  l.pool_hits = io.pool_hits;
  l.pool_misses = io.pool_misses;
  l.pool_evictions = io.pool_evictions;
  l.pool_writebacks = io.pool_writebacks;
  l.pool_pinned_peak = io.pool_pinned_peak;
  l.pool_unpinned_reads = io.pool_unpinned_reads;
  const util::RaxLockStats bl = t->BucketLockStats();
  l.bucket_lock_acq = bl.rho_acquired + bl.alpha_acquired + bl.xi_acquired;
  l.bucket_lock_contended = bl.contended;
  const util::RaxLockStats dl = t->DirectoryLockStats();
  l.dir_lock_acq = dl.rho_acquired + dl.alpha_acquired + dl.xi_acquired;
  l.dir_lock_contended = dl.contended;
#if EXHASH_METRICS_ENABLED
  if (metrics::TableMetrics* m = t->table_metrics()) {
    l.bucket_slow_path = m->bucket_locks.slow_path.load();
    l.dir_slow_path = m->dir_lock.slow_path.load();
  }
#endif
  const util::EpochStats es = util::EpochDomain::Global().stats();
  l.epoch_retired = es.retired;
  l.epoch_pending = es.pending;
  return l;
}

void Table::ResetDistributions() {
#if EXHASH_METRICS_ENABLED
  if (impl_->ellis == nullptr) return;
  if (metrics::TableMetrics* m = impl_->ellis->table_metrics()) {
    for (int mode = 0; mode < 3; ++mode) {
      m->bucket_locks.acquire_ns[mode].Reset();
      m->dir_lock.acquire_ns[mode].Reset();
    }
    m->find_chase.Reset();
  }
#endif
}

LayerDistributions Table::Distributions() const {
  LayerDistributions d;
#if EXHASH_METRICS_ENABLED
  if (impl_->ellis == nullptr) return d;
  if (metrics::TableMetrics* m = impl_->ellis->table_metrics()) {
    util::Histogram bucket, dir;
    for (int mode = 0; mode < 3; ++mode) {
      bucket.Merge(m->bucket_locks.acquire_ns[mode]);
      dir.Merge(m->dir_lock.acquire_ns[mode]);
    }
    d.bucket_wait_samples = bucket.count();
    d.bucket_wait_ns_p99 = bucket.count() ? bucket.Percentile(99) : 0;
    d.dir_wait_samples = dir.count();
    d.dir_wait_ns_p99 = dir.count() ? dir.Percentile(99) : 0;
    d.find_chase_samples = m->find_chase.count();
    d.find_chase_hops_p99 =
        m->find_chase.count() ? m->find_chase.Percentile(99) : 0;
  }
#endif
  return d;
}

uint64_t Table::FootprintBytes() const {
  const uint64_t pages =
      impl_->ellis != nullptr ? impl_->ellis->IoStats().live_pages : 0;
  return pages * impl_->spec.page_size +
         (uint64_t{8} << impl_->index->Depth());
}

void Table::ForEachRecord(
    const std::function<void(uint64_t, uint64_t)>& visit) {
  impl_->index->ForEachRecord(visit);
}

bool Table::CheckLaws(std::string* error) {
  if (!impl_->index->Validate(error)) return false;
  core::TableBase* t = impl_->ellis;
  if (t == nullptr) return true;
  const core::TableStats s = t->Stats();
  const uint64_t live = t->LiveBuckets();
  const uint64_t base = impl_->bucket_base;
  if (live != base + s.splits - s.merges) {
    *error = "LiveBuckets " + std::to_string(live) + " != " +
             std::to_string(base) + " + splits - merges = " +
             std::to_string(base + s.splits - s.merges);
    return false;
  }
  if (t->SnapshotVersion() != t->SnapshotPublishes()) {
    *error = "SnapshotVersion " + std::to_string(t->SnapshotVersion()) +
             " != SnapshotPublishes " + std::to_string(t->SnapshotPublishes());
    return false;
  }
  if (s.optimistic_hits + s.seq_fallbacks != s.finds) {
    *error = "optimistic_hits + seq_fallbacks != finds (" +
             std::to_string(s.optimistic_hits) + " + " +
             std::to_string(s.seq_fallbacks) + " vs " +
             std::to_string(s.finds) + ")";
    return false;
  }
  const storage::PageStoreStats io = t->IoStats();
  if (io.pool_pins_acquired != io.pool_pins_released) {
    *error = "pool pin ledger: " + std::to_string(io.pool_pins_acquired) +
             " acquired vs " + std::to_string(io.pool_pins_released) +
             " released";
    return false;
  }
  if (io.pool_hits + io.pool_misses != io.frame_reads) {
    *error = "pool hits + misses != frame_reads (" +
             std::to_string(io.pool_hits) + " + " +
             std::to_string(io.pool_misses) + " vs " +
             std::to_string(io.frame_reads) + ")";
    return false;
  }
  return true;
}

bool Table::Checkpoint() {
  return impl_->ellis->Store().Checkpoint() == storage::IoStatus::kOk;
}

void Table::CrashNow(uint64_t seed) { impl_->ellis->Store().CrashNow(seed); }

std::shared_ptr<DurableBytes> Table::TakeDurableBytes() const {
  auto bytes = std::make_shared<DurableBytes>();
  bytes->image = impl_->ellis->Store().TakeCrashImage();
  return bytes;
}

int BucketCapacity(size_t page_size) {
  return storage::Bucket::CapacityFor(page_size);
}

}  // namespace perfbench
