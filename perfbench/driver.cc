#include "driver.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <malloc.h>
#include <memory>
#include <thread>

#include "recorder.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Data pages expected for `records` at `page_size`: extendible hashing
// fills buckets to ln 2 on average.
size_t ExpectedDataPages(uint64_t records, size_t page_size) {
  return static_cast<size_t>(double(records) /
                             (BucketCapacity(page_size) * std::log(2.0)));
}

std::vector<WorkloadSpec> MakeWorkloads() {
  std::vector<WorkloadSpec> w;
  {
    WorkloadSpec s;
    s.name = "read_mostly";
    s.table.page_size = 4096;
    s.mix = Mix::kReadMostly;
    // ~13 MB of pages: beyond a core's L2.  At 2x2^20 records (52 MB)
    // whole runs swung +-15% with the other tenants' use of the shared L3.
    s.universe = s.preload = uint64_t{1} << 18;
    s.warmup_ops = 100000;
    s.baseline = true;
    w.push_back(s);
  }
  {
    WorkloadSpec s;
    s.name = "write_churn";
    s.table.page_size = 256;
    s.mix = Mix::kChurn;
    // Small on purpose: a cycle takes well under a sub-window, so the
    // sub-window median does not depend on where in a cycle the window
    // began, and the directory (depth ~13) stays in cache.  Shrinking to
    // near-empty makes buckets merge (they merge when empty), so every
    // cycle splits, merges, doubles and halves.
    s.universe = uint64_t{1} << 15;
    s.churn_low = 1000;
    s.churn_high = 17000;
    s.preload = (s.churn_low + s.churn_high) / 2;
    s.warmup_ops = 50000;
    s.setup_reps = 5;
    s.baseline = true;
    w.push_back(s);
  }
  {
    WorkloadSpec s;
    s.name = "durable";
    s.table.page_size = 1024;
    s.table.wal = true;
    s.mix = Mix::kDurable;
    s.universe = 25000;
    s.preload = 18000;
    s.warmup_ops = 2000;
    // The in-memory log grows between checkpoints at a rate that follows
    // throughput, so its high-water mark (and peak_rss_mb) swings with
    // the host; frequent checkpoints keep that swing small.
    s.checkpoint_every = 1000;
    s.setup_reps = 5;
    s.headroom = 6000;
    s.crash = true;
    w.push_back(s);
  }
  {
    WorkloadSpec s;
    s.name = "paged";
    s.table.page_size = 4096;
    s.mix = Mix::kReadMostly;
    s.universe = s.preload = uint64_t{1} << 19;
    // An eighth of the data pages two clients' records fill.
    s.table.page_budget = ExpectedDataPages(2 * s.preload, 4096) / 8;
    s.warmup_ops = 50000;
    s.setup_reps = 4;
    w.push_back(s);
  }
  return w;
}

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> w = MakeWorkloads();
  return w;
}

// ---------------------------------------------------------------------
// Spans.  Names of what the benchmark times; op spans are one per request.

enum class SpanName : uint8_t {
  kRun, kSetup, kPreload, kWarmup, kWindow, kSubWindow, kFind, kInsert,
  kUpdate, kRemove, kCheckpoint, kPowerCut, kRecover, kCheck,
};
const char* const kSpanNames[] = {
    "run",    "setup",  "preload",    "warmup",    "window",
    "subwindow", "find", "insert",    "update",    "remove",
    "checkpoint", "power_cut", "recover", "check",
};

struct Span {
  uint64_t id = 0, parent = 0, request = 0;
  int64_t start_ns = 0, end_ns = 0;
  SpanName name = SpanName::kRun;
  uint64_t ops = 0;  // sub-window spans: operations completed in it
};

// Op spans: every op is timed, one in kSpanStride is kept, so a traced
// window's spans fit in memory at millions of ops per second.
constexpr uint64_t kSpanStride = 256;

class Tracer {
 public:
  Tracer(bool on, Clock::time_point t0) : on_(on), t0_(t0) {}
  bool on() const { return on_; }
  int64_t Ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - t0_)
        .count();
  }
  // Main-thread spans.
  uint64_t Open(SpanName name, uint64_t parent) {
    if (!on_) return 0;
    Span s;
    s.id = spans_.size() + 1;
    s.parent = parent;
    s.request = s.id;
    s.name = name;
    s.start_ns = Ns(Clock::now());
    spans_.push_back(s);
    return s.id;
  }
  void Close(uint64_t id, uint64_t ops = 0) {
    if (!on_ || id == 0) return;
    spans_[id - 1].end_ns = Ns(Clock::now());
    spans_[id - 1].ops = ops;
  }
  void Add(const std::vector<Span>& more) {
    spans_.insert(spans_.end(), more.begin(), more.end());
  }
  bool Write(const std::string& path) const {
    std::ofstream out(path);
    for (const Span& s : spans_) {
      out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
          << ",\"request\":" << s.request << ",\"name\":\""
          << kSpanNames[static_cast<int>(s.name)] << "\",\"start_ns\":"
          << s.start_ns << ",\"end_ns\":" << s.end_ns;
      if (s.name == SpanName::kSubWindow) out << ",\"ops\":" << s.ops;
      out << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  bool on_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------
// Clients.

struct Client {
  Client(const WorkloadSpec& spec, const Zipf& zipf, uint64_t seed,
         int clients, int id)
      : id(id), gen(spec, zipf, seed, clients, id), model(spec.universe) {}

  const int id;
  OpGen gen;
  SliceModel model;
  uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  // Window latencies: all finds, all writes, and per op type.
  Recorder read, write, by_type[4];
  // Published op and write counts of the current window, read by the main
  // thread at sub-window boundaries.
  alignas(64) std::atomic<uint64_t> window_ops{0};
  std::atomic<uint64_t> window_writes{0};
  uint64_t writes_since_checkpoint = 0;
  std::vector<double> checkpoint_s;
  uint64_t checkpoint_failures = 0;
  std::vector<Span> spans;
  uint64_t present_finds = 0;  // for the planted wrong answer
  // The power cut: the op whose return raced the cut may land either way.
  bool uncertain = false;
  uint64_t uncertain_index = 0, uncertain_before = 0;

  void Fail(std::string what) {
    ++failed;
    if (errors.size() < 4) errors.push_back(std::move(what));
  }
};

struct Shared {
  const RunConfig* config = nullptr;
  const WorkloadSpec* spec = nullptr;
  Table* table = nullptr;
  Tracer* tracer = nullptr;
  std::atomic<bool> go{false}, stop{false}, cut{false};
  // Parent of the spans clients record: the current sub-window, or the
  // preload / warm-up span during set-up.
  std::atomic<uint64_t> parent_span{0};
};

bool IsWrite(OpType t) { return t != OpType::kFind; }

// Runs one op, checks its answer against the model, advances the model.
// Returns the op's latency in ns.
uint64_t Execute(Shared& sh, Client& c, const Op& op) {
  const uint64_t key = KeyOf(op.index, kClients, c.id);
  const uint64_t before = c.model.value(op.index);
  uint64_t got = 0;
  bool r = false;
  const Clock::time_point t0 = Clock::now();
  switch (op.type) {
    case OpType::kFind: r = sh.table->Find(key, &got); break;
    case OpType::kInsert: r = sh.table->Insert(key, op.value); break;
    case OpType::kUpdate: r = sh.table->Update(key, op.value); break;
    case OpType::kRemove: r = sh.table->Remove(key); break;
  }
  const Clock::time_point t1 = Clock::now();
  ++c.attempted;
  uint64_t after = before;
  bool wrong = false;
  switch (op.type) {
    case OpType::kFind:
      if (before != 0 && c.id == 0 &&
          int64_t(c.present_finds++) == sh.config->plant_wrong_answer_at) {
        got ^= 2;
      }
      wrong = r != (before != 0) || (r && got != before);
      break;
    case OpType::kInsert:
      wrong = r != (before == 0);
      if (before == 0) after = op.value;
      break;
    case OpType::kUpdate:
      wrong = r != (before != 0);
      if (before != 0) after = op.value;
      break;
    case OpType::kRemove:
      wrong = r != (before != 0);
      after = 0;
      break;
  }
  if (wrong) {
    static const char* const kOps[] = {"find", "insert", "update", "remove"};
    c.Fail(std::string(kOps[int(op.type)]) + "(" + std::to_string(key) +
           ") returned " + (r ? "true" : "false") +
           (op.type == OpType::kFind && r ? " value " + std::to_string(got)
                                          : "") +
           ", model holds " + std::to_string(before));
  }
  c.model.Set(op.index, after);
  if (sh.tracer->on() && c.attempted % kSpanStride == 0) {
    Span s;
    s.id = s.request = (uint64_t(c.id + 1) << 48) | c.attempted;
    s.parent = sh.parent_span.load(std::memory_order_relaxed);
    s.name = static_cast<SpanName>(int(SpanName::kFind) + int(op.type));
    s.start_ns = sh.tracer->Ns(t0);
    s.end_ns = sh.tracer->Ns(t1);
    c.spans.push_back(s);
  }
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
}

// Durable workloads checkpoint after every fixed number of writes.
void MaybeCheckpoint(Shared& sh, Client& c, const Op& op) {
  if (sh.spec->checkpoint_every == 0 || !IsWrite(op.type)) return;
  if (++c.writes_since_checkpoint < sh.spec->checkpoint_every) return;
  c.writes_since_checkpoint = 0;
  const Clock::time_point t0 = Clock::now();
  const bool ok = sh.table->Checkpoint();
  const Clock::time_point t1 = Clock::now();
  c.checkpoint_s.push_back(SecondsBetween(t0, t1));
  if (!ok) ++c.checkpoint_failures;
  if (sh.tracer->on()) {
    Span s;
    s.id = s.request = (uint64_t(c.id + 1) << 48) | (uint64_t{1} << 47) |
                       c.checkpoint_s.size();
    s.parent = sh.parent_span.load(std::memory_order_relaxed);
    s.name = SpanName::kCheckpoint;
    s.start_ns = sh.tracer->Ns(t0);
    s.end_ns = sh.tracer->Ns(t1);
    c.spans.push_back(s);
  }
}

void PreloadLoop(Shared& sh, Client& c) {
  const uint64_t headroom = sh.spec->headroom;
  for (uint64_t i = 0; i < sh.spec->preload + headroom; ++i) {
    Op op;
    op.type = OpType::kInsert;
    op.index = c.gen.NextPreloadIndex(c.model);
    op.value = ValueOf(KeyOf(op.index, kClients, c.id), 0);
    Execute(sh, c, op);
  }
  for (uint64_t i = 0; i < headroom; ++i) {
    Op op;
    op.type = OpType::kRemove;
    op.index = c.gen.NextPreloadIndex(c.model, /*present=*/true);
    Execute(sh, c, op);
  }
}

void WarmupLoop(Shared& sh, Client& c) {
  for (uint64_t i = 0; i < sh.spec->warmup_ops; ++i) {
    const Op op = c.gen.Next(c.model);
    Execute(sh, c, op);
    MaybeCheckpoint(sh, c, op);
  }
}

void WindowLoop(Shared& sh, Client& c) {
  while (!sh.go.load(std::memory_order_acquire)) std::this_thread::yield();
  uint64_t n = 0, writes = 0;
  c.checkpoint_s.clear();
  while (!sh.stop.load(std::memory_order_relaxed)) {
    const Op op = c.gen.Next(c.model);
    const uint64_t before = c.model.value(op.index);
    const uint64_t ns = Execute(sh, c, op);
    if (sh.cut.load(std::memory_order_seq_cst)) {
      // This op returned after the power cut began: unacknowledged.
      c.uncertain = true;
      c.uncertain_index = op.index;
      c.uncertain_before = before;
      break;
    }
    (IsWrite(op.type) ? c.write : c.read).Add(ns);
    c.by_type[int(op.type)].Add(ns);
    if (IsWrite(op.type)) {
      c.window_writes.store(++writes, std::memory_order_relaxed);
    }
    c.window_ops.store(++n, std::memory_order_relaxed);
    MaybeCheckpoint(sh, c, op);
  }
}

using Clients = std::vector<std::unique_ptr<Client>>;

template <typename Fn>
void RunClients(Shared& sh, Clients& clients, Fn fn) {
  std::vector<std::thread> threads;
  for (auto& c : clients) {
    threads.emplace_back([&sh, &c, fn] { fn(sh, *c); });
  }
  for (std::thread& t : threads) t.join();
}

// A constructed, preloaded, warmed-up table with its clients.
struct Session {
  TableSpec table_spec;
  std::unique_ptr<Table> table;
  Clients clients;
  double setup_s = 0;
};

std::unique_ptr<Session> Setup(const RunConfig& config, const WorkloadSpec& spec,
                               const TableSpec& table_spec, const Zipf& zipf,
                               Tracer& tracer, uint64_t parent) {
  auto s = std::make_unique<Session>();
  s->table_spec = table_spec;
  for (int i = 0; i < kClients; ++i) {
    s->clients.push_back(
        std::make_unique<Client>(spec, zipf, config.seed, kClients, i));
  }
  if (!table_spec.file_dir.empty()) {
    std::filesystem::remove_all(table_spec.file_dir);
    std::filesystem::create_directories(table_spec.file_dir);
  }
  Shared sh;
  sh.config = &config;
  sh.spec = &spec;
  sh.tracer = &tracer;
  const Clock::time_point t0 = Clock::now();
  const uint64_t setup_span = tracer.Open(SpanName::kSetup, parent);
  const uint64_t preload_span = tracer.Open(SpanName::kPreload, setup_span);
  sh.parent_span.store(preload_span);
  s->table = Table::Open(table_spec);
  sh.table = s->table.get();
  RunClients(sh, s->clients, PreloadLoop);
  tracer.Close(preload_span);
  const uint64_t warmup_span = tracer.Open(SpanName::kWarmup, setup_span);
  sh.parent_span.store(warmup_span);
  RunClients(sh, s->clients, WarmupLoop);
  tracer.Close(warmup_span);
  tracer.Close(setup_span);
  s->setup_s = SecondsBetween(t0, Clock::now());
  return s;
}

struct WindowResult {
  std::vector<double> sub_rates;  // ops/s per sub-window
  // Table bytes and live records, summed over samples taken ten times
  // per sub-window (churn moves both within a sub-window).
  double footprint_sum = 0, records_sum = 0;
  uint64_t ops = 0, writes = 0;
  LayerStats before, after;
  LayerDistributions dist;
  Recorder read, write, by_type[4];
  std::vector<double> checkpoint_s;
  uint64_t checkpoint_failures = 0;
};

// The measured window: clients run closed-loop until `seconds` pass; the
// main thread samples the op counts at fixed sub-window boundaries.  A
// crashing workload ends the window with a power cut instead of a stop.
WindowResult Measure(const RunConfig& config, const WorkloadSpec& spec,
                     Session& s, Tracer& tracer, uint64_t parent, bool crash) {
  WindowResult w;
  Shared sh;
  sh.config = &config;
  sh.spec = &spec;
  sh.table = s.table.get();
  sh.tracer = &tracer;
  std::vector<std::thread> threads;
  for (auto& c : s.clients) {
    threads.emplace_back([&sh, &c] { WindowLoop(sh, *c); });
  }
  auto total = [&](std::atomic<uint64_t> Client::*count) {
    uint64_t n = 0;
    for (auto& c : s.clients) n += ((*c).*count).load(std::memory_order_relaxed);
    return n;
  };
  s.table->ResetDistributions();
  w.before = s.table->Stats();
  const uint64_t window_span = tracer.Open(SpanName::kWindow, parent);
  const int subs = std::max(1, int(std::lround(config.seconds / config.subwindow_s)));
  const Clock::time_point t0 = Clock::now();
  sh.parent_span.store(tracer.Open(SpanName::kSubWindow, window_span));
  sh.go.store(true, std::memory_order_release);
  Clock::time_point last = t0;
  uint64_t last_ops = 0;
  constexpr int kSamplesPerSub = 10;
  for (int k = 1; k <= subs; ++k) {
    for (int j = 1; j <= kSamplesPerSub; ++j) {
      std::this_thread::sleep_until(
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(
                       config.subwindow_s * (k - 1 + double(j) / kSamplesPerSub))));
      if (j == kSamplesPerSub) break;  // the boundary: count ops first
      w.footprint_sum += double(s.table->FootprintBytes());
      w.records_sum += double(s.table->Size());
    }
    const uint64_t ops = total(&Client::window_ops);
    const Clock::time_point now = Clock::now();
    if (k == subs) w.writes = total(&Client::window_writes);
    w.footprint_sum += double(s.table->FootprintBytes());
    w.records_sum += double(s.table->Size());
    tracer.Close(sh.parent_span.load(), ops - last_ops);
    if (k < subs) {
      sh.parent_span.store(tracer.Open(SpanName::kSubWindow, window_span));
    }
    w.sub_rates.push_back(double(ops - last_ops) / SecondsBetween(last, now));
    last = now;
    last_ops = ops;
  }
  w.after = s.table->Stats();
  w.dist = s.table->Distributions();
  w.ops = last_ops;
  tracer.Close(window_span, last_ops);
  if (crash) {
    const uint64_t cut_span = tracer.Open(SpanName::kPowerCut, parent);
    sh.cut.store(true, std::memory_order_seq_cst);
    s.table->CrashNow(config.seed);
    tracer.Close(cut_span);
  }
  sh.stop.store(true);
  for (std::thread& t : threads) t.join();
  for (auto& c : s.clients) {
    w.read.Merge(c->read);
    w.write.Merge(c->write);
    for (int i = 0; i < 4; ++i) w.by_type[i].Merge(c->by_type[i]);
    w.checkpoint_s.insert(w.checkpoint_s.end(), c->checkpoint_s.begin(),
                          c->checkpoint_s.end());
    w.checkpoint_failures += c->checkpoint_failures;
    tracer.Add(c->spans);
    c->spans.clear();
  }
  return w;
}

// End-of-run checks on a quiescent table: the laws, then every record
// against the clients' models.
void CheckTable(Session& s, RunResult* res) {
  std::string error;
  if (!s.table->CheckLaws(&error)) {
    res->correct = false;
    res->errors.push_back("law broken: " + error);
  }
  uint64_t live = 0;
  for (auto& c : s.clients) live += c->model.live();
  if (s.table->Size() != live) {
    res->correct = false;
    res->errors.push_back("Size() " + std::to_string(s.table->Size()) +
                          " != model " + std::to_string(live));
  }
  uint64_t visited = 0, wrong = 0;
  s.table->ForEachRecord([&](uint64_t key, uint64_t value) {
    ++visited;
    const int client = int((key - 1) % uint64_t(kClients));
    const uint64_t index = (key - 1) / uint64_t(kClients);
    const SliceModel& m = s.clients[client]->model;
    if (index >= m.universe() || m.value(index) != value) ++wrong;
  });
  if (visited != live || wrong != 0) {
    res->correct = false;
    res->errors.push_back("record scan: " + std::to_string(visited) +
                          " visited, " + std::to_string(wrong) +
                          " not in the model, model holds " +
                          std::to_string(live));
  }
}

// After the power cut: reopen and recover, then every acknowledged write
// must be there; the one op per client racing the cut may land either way.
double RecoverAndCheck(const RunConfig& config, Session& s, Tracer& tracer,
                       uint64_t parent, uint64_t* replayed, RunResult* res) {
  TableSpec reopen = s.table_spec;
  reopen.recover_from = s.table->TakeDurableBytes();
  s.table.reset();
  const uint64_t span = tracer.Open(SpanName::kRecover, parent);
  const Clock::time_point t0 = Clock::now();
  s.table = Table::Open(reopen);
  const double recover_s = SecondsBetween(t0, Clock::now());
  tracer.Close(span);
  *replayed = s.table->recovery().replayed_records;
  if (!s.table->recovery().ok) {
    res->correct = false;
    res->errors.push_back("recovery failed: " + s.table->recovery().error);
    return recover_s;
  }
  if (config.plant_lost_write) {
    // Drop one acknowledged write, as a broken log would.
    Client& c = *s.clients[0];
    for (uint64_t i = 0; i < c.model.universe(); ++i) {
      if (c.model.value(i) != 0 && !(c.uncertain && c.uncertain_index == i)) {
        s.table->Remove(KeyOf(i, kClients, c.id));
        break;
      }
    }
  }
  std::string error;
  if (!s.table->CheckLaws(&error)) {
    res->correct = false;
    res->errors.push_back("law broken after recovery: " + error);
  }
  const uint64_t check_span = tracer.Open(SpanName::kCheck, parent);
  for (auto& cp : s.clients) {
    Client& c = *cp;
    for (uint64_t i = 0; i < c.model.universe(); ++i) {
      uint64_t got = 0;
      const uint64_t key = KeyOf(i, kClients, c.id);
      const bool found = s.table->Find(key, &got);
      ++c.attempted;
      const uint64_t have = found ? got : 0;
      const bool racing = c.uncertain && c.uncertain_index == i;
      if (have == c.model.value(i)) continue;
      if (racing && have == c.uncertain_before) {
        c.model.Set(i, have);  // the racing write did not land
        continue;
      }
      c.Fail("after recovery key " + std::to_string(key) + " holds " +
             std::to_string(have) + ", acknowledged " +
             std::to_string(c.model.value(i)));
    }
  }
  tracer.Close(check_span);
  CheckTable(s, res);
  return recover_s;
}

// Returns freed heap memory to the kernel, then restarts the kernel's
// high-water RSS at the current RSS, so the peak covers the live data and
// what the measured window adds, not what earlier set-ups' tables and
// threads left in the allocator's caches.
void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

uint64_t PeakRssKb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stoull(line.substr(6));
  }
  return 0;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

void Collect(Session& s, RunResult* res) {
  for (auto& c : s.clients) {
    res->attempted += c->attempted;
    res->failed += c->failed;
    for (std::string& e : c->errors) {
      if (res->errors.size() < 8) res->errors.push_back(std::move(e));
    }
    c->attempted = c->failed = 0;
    c->errors.clear();
  }
}

// Interquartile range over the median: the within-run spread of the
// sub-window rates.
double SpreadShare(std::vector<double> v) {
  if (v.size() < 4) return 0;
  std::sort(v.begin(), v.end());
  const double m = Median(v);
  return m > 0 ? (v[v.size() * 3 / 4] - v[v.size() / 4]) / m : 0;
}

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 0xCBF29CE484222325ull;
  for (const char ch : s) h = (h ^ uint8_t(ch)) * 0x100000001B3ull;
  return h;
}

double PerK(uint64_t n, uint64_t base) {
  return base == 0 ? 0 : 1000.0 * double(n) / double(base);
}
double Share(uint64_t n, uint64_t base) {
  return base == 0 ? 0 : double(n) / double(base);
}

// Percentile of the WAL flush-latency histogram delta, as the geometric
// middle of its power-of-four microsecond bucket.
double FlushPercentileUs(const LayerStats& a, const LayerStats& b, double p) {
  uint64_t d[LayerStats::kFlushBuckets], total = 0;
  for (int i = 0; i < LayerStats::kFlushBuckets; ++i) {
    d[i] = b.wal_flush_us_hist[i] - a.wal_flush_us_hist[i];
    total += d[i];
  }
  if (total == 0) return 0;
  const uint64_t rank = std::max<uint64_t>(1, uint64_t(std::ceil(p / 100 * total)));
  uint64_t seen = 0;
  for (int i = 0; i < LayerStats::kFlushBuckets; ++i) {
    seen += d[i];
    if (seen >= rank) {
      if (i == 0) return 0.5;
      const double lo = std::pow(4.0, i - 1);
      return lo * 2;  // geometric middle of [4^(i-1), 4^i)
    }
  }
  return 0;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& s : Workloads()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& s : Workloads()) names.push_back(s.name);
  return names;
}

OpGen::OpGen(const WorkloadSpec& spec, const Zipf& zipf, uint64_t seed,
             int clients, int client)
    : spec_(spec),
      zipf_(zipf),
      clients_(clients),
      client_(client),
      rng_(SplitMix64(seed) ^ SplitMix64(Fnv1a(spec.name)) ^
           SplitMix64(uint64_t(client) + 0x51ED)),
      perm_(spec.universe, rng_) {}

Op OpGen::Next(const SliceModel& m) {
  Op op;
  const uint64_t r = rng_.Below(100);
  switch (spec_.mix) {
    case Mix::kReadMostly:
      op.type = r < 95 ? OpType::kFind : OpType::kUpdate;
      op.index = Hot();
      break;
    case Mix::kDurable:
      if (r < 90 || (r < 95 && m.absent() == 0) || m.live() == 0) {
        op.type = r < 50 ? OpType::kFind : OpType::kUpdate;
        op.index = Hot();
      } else if (r < 95) {
        op.type = OpType::kInsert;
        op.index = m.PickAbsent(rng_);
      } else {
        op.type = OpType::kRemove;
        op.index = m.PickPresent(rng_);
      }
      break;
    case Mix::kChurn: {
      if (growing_ && m.live() >= spec_.churn_high) growing_ = false;
      if (!growing_ && m.live() <= spec_.churn_low) growing_ = true;
      const uint64_t insert_pct = growing_ ? 60 : 15;
      if (r < insert_pct && m.absent() != 0) {
        op.type = OpType::kInsert;
        op.index = m.PickAbsent(rng_);
      } else if (r < insert_pct + 25 || m.live() == 0) {
        op.type = OpType::kFind;
        op.index = rng_.Below(m.universe());
      } else {
        op.type = OpType::kRemove;
        op.index = m.PickPresent(rng_);
      }
      break;
    }
  }
  if (op.type == OpType::kInsert || op.type == OpType::kUpdate) {
    op.value = ValueOf(KeyOf(op.index, clients_, client_), ++version_);
  }
  return op;
}

RunResult Run(const RunConfig& config) {
  RunResult res;
  const WorkloadSpec& spec = config.spec;
  const Clock::time_point run_t0 = Clock::now();
  Tracer tracer(config.trace, run_t0);
  const uint64_t run_span = tracer.Open(SpanName::kRun, 0);
  const Zipf zipf(spec.universe, kZipfTheta);
  TableSpec table_spec = spec.table;
  if (table_spec.page_budget != 0) {
    table_spec.file_dir =
        (std::filesystem::path(config.workdir) / "table").string();
  }

  auto note_window = [&](const WindowResult& w) {
    if (w.checkpoint_failures != 0) {
      res.correct = false;
      res.errors.push_back(std::to_string(w.checkpoint_failures) +
                           " checkpoints failed");
    }
  };
  // Ends a session: power cut and recovery, or the quiescent checks.
  auto finish = [&](Session& s, bool crash, double* recover_s,
                    uint64_t* replayed) {
    if (crash) {
      *recover_s = RecoverAndCheck(config, s, tracer, run_span, replayed, &res);
    } else {
      CheckTable(s, &res);
    }
    Collect(s, &res);
  };

  Tracer quiet(false, run_t0);
  std::unique_ptr<Session> s;
  if (!config.trace) {
    // End-to-end run: several tables, each set up and then measured for
    // an equal share of --seconds.  Spreading the window over separate
    // tables and a longer stretch of wall time averages out what one
    // table's memory placement and one phase of the host do to it.
    std::vector<double> setups, peaks, recovers, sub_rates;
    double footprint_sum = 0, records_sum = 0;
    Recorder read, write;
    uint64_t writes = 0, log_bytes = 0, records = 0;
    int depth = 0;
    RunConfig c = config;
    c.seconds = config.seconds / spec.setup_reps;
    for (int rep = 0; rep < spec.setup_reps; ++rep) {
      s = Setup(c, spec, table_spec, zipf, quiet, 0);
      setups.push_back(s->setup_s);
      ResetPeakRss();
      const WindowResult w = Measure(c, spec, *s, quiet, 0, spec.crash);
      peaks.push_back(double(PeakRssKb()) / 1024.0);
      note_window(w);
      sub_rates.insert(sub_rates.end(), w.sub_rates.begin(), w.sub_rates.end());
      footprint_sum += w.footprint_sum;
      records_sum += w.records_sum;
      read.Merge(w.read);
      write.Merge(w.write);
      writes += w.writes;
      log_bytes += w.after.wal_flushed_bytes - w.before.wal_flushed_bytes;
      records = s->table->Size();
      depth = w.after.depth;
      double recover_s = 0;
      uint64_t replayed = 0;
      finish(*s, spec.crash, &recover_s, &replayed);
      recovers.push_back(recover_s);
      s.reset();
    }
    res.metrics = {
        {"ops_per_s", Median(sub_rates), "1/s"},
        {"read_p50_ns", read.Percentile(50), "ns"},
        {"read_p99_ns", read.Percentile(99), "ns"},
        {"write_p50_ns", write.Percentile(50), "ns"},
        {"write_p99_ns", write.Percentile(99), "ns"},
        {"setup_s", Median(setups), "s"},
        {"bytes_per_record",
         records_sum > 0 ? footprint_sum / records_sum : 0, "B"},
        {"peak_rss_mb", Median(peaks), "MB"},
    };
    res.info = {
        {"read_samples", double(read.count()), "count"},
        {"write_samples", double(write.count()), "count"},
        {"subwindows", double(sub_rates.size()), "count"},
        {"subwindow_spread", SpreadShare(sub_rates), "ratio"},
        {"records_end", double(records), "count"},
        {"depth_end", double(depth), "count"},
        {"log_bytes_per_write", Share(log_bytes, writes), "B"},
    };
    for (size_t i = 0; i < setups.size(); ++i) {
      res.info.push_back({"setup_s_rep" + std::to_string(i), setups[i], "s"});
    }
    if (spec.crash) res.info.push_back({"recover_s", Median(recovers), "s"});
  } else {
    // Traced run: the workload untraced (library metrics off, no spans),
    // traced, and untraced again, so host drift across the run cancels in
    // the overhead; then the baseline.  The traced window gets half of
    // --seconds, the others a quarter each.
    double recover_s = 0, unused_s = 0;
    uint64_t replayed = 0, unused = 0;
    auto untraced_ops = [&](const TableSpec& ts, double seconds) {
      RunConfig c = config;
      c.seconds = seconds;
      s = Setup(c, spec, ts, zipf, quiet, 0);
      const WindowResult u = Measure(c, spec, *s, quiet, 0, false);
      note_window(u);
      finish(*s, false, &unused_s, &unused);
      s.reset();
      return Median(u.sub_rates);
    };
    const double plain_before = untraced_ops(table_spec, config.seconds / 4);

    RunConfig c = config;
    c.seconds = config.seconds / 2;
    TableSpec traced_spec = table_spec;
    traced_spec.metrics = true;
    s = Setup(c, spec, traced_spec, zipf, tracer, run_span);
    const WindowResult w = Measure(c, spec, *s, tracer, run_span, spec.crash);
    note_window(w);
    const int depth_end = w.after.depth;
    finish(*s, spec.crash, &recover_s, &replayed);
    s.reset();

    const double plain_after = untraced_ops(table_spec, config.seconds / 4);
    double baseline_ops = 0;
    if (spec.baseline) {
      TableSpec base_spec = table_spec;
      base_spec.global_lock = true;
      baseline_ops = untraced_ops(base_spec, config.seconds / 4);
    }

    const LayerStats& a = w.before;
    const LayerStats& e = w.after;
    const uint64_t ops = w.ops;
    const uint64_t writes = w.writes;
    auto d = [&](uint64_t LayerStats::*f) { return e.*f - a.*f; };
    const uint64_t finds = d(&LayerStats::finds);
    const uint64_t pool_access = d(&LayerStats::pool_hits) +
                                 d(&LayerStats::pool_misses) +
                                 d(&LayerStats::pool_unpinned_reads);
    const uint64_t lock_acq =
        d(&LayerStats::bucket_lock_acq) + d(&LayerStats::dir_lock_acq);
    const double traced_ops = Median(w.sub_rates);
    const double plain_ops = (plain_before + plain_after) / 2;
    res.metrics = {
        {"core.insert_ns_p50", w.by_type[1].Percentile(50), "ns"},
        {"core.insert_ns_p99", w.by_type[1].Percentile(99), "ns"},
        {"core.update_ns_p50", w.by_type[2].Percentile(50), "ns"},
        {"core.update_ns_p99", w.by_type[2].Percentile(99), "ns"},
        {"core.remove_ns_p50", w.by_type[3].Percentile(50), "ns"},
        {"core.remove_ns_p99", w.by_type[3].Percentile(99), "ns"},
        {"core.splits_per_kop", PerK(d(&LayerStats::splits), ops), "1/kop"},
        {"core.merges_per_kop", PerK(d(&LayerStats::merges), ops), "1/kop"},
        {"core.doublings", double(d(&LayerStats::doublings)), "count"},
        {"core.halvings", double(d(&LayerStats::halvings)), "count"},
        {"core.insert_retries_per_kop",
         PerK(d(&LayerStats::insert_retries), ops), "1/kop"},
        {"core.delete_restarts_per_kop",
         PerK(d(&LayerStats::delete_restarts), ops), "1/kop"},
        {"core.partner_relocks_per_kop",
         PerK(d(&LayerStats::partner_relocks), ops), "1/kop"},
        {"core.dir_publishes_per_kop",
         PerK(d(&LayerStats::snapshot_publishes), ops), "1/kop"},
        {"core.depth", double(depth_end), "count"},
        {"core.stale_reads_per_kop", PerK(d(&LayerStats::stale_reads), ops),
         "1/kop"},
        {"core.wrong_bucket_hops_per_kop",
         PerK(d(&LayerStats::wrong_bucket_hops), ops), "1/kop"},
        {"core.find_chase_hops_p99", double(w.dist.find_chase_hops_p99),
         "count"},
        {"storage.optimistic_share",
         Share(d(&LayerStats::optimistic_hits), finds), "ratio"},
        {"storage.torn_share",
         Share(d(&LayerStats::optimistic_torn), d(&LayerStats::optimistic_reads)),
         "ratio"},
        {"storage.seq_retries_per_kop", PerK(d(&LayerStats::seq_retries), ops),
         "1/kop"},
        {"storage.seq_fallbacks_per_kop",
         PerK(d(&LayerStats::seq_fallbacks), ops), "1/kop"},
        {"storage.page_reads_per_op",
         Share(d(&LayerStats::page_reads) + d(&LayerStats::optimistic_reads),
               ops),
         "1/op"},
        {"storage.page_writes_per_op", Share(d(&LayerStats::page_writes), ops),
         "1/op"},
        {"wal.commits_per_kwrite", PerK(d(&LayerStats::wal_commits), writes),
         "1/kwrite"},
        {"wal.fsyncs_per_kwrite", PerK(d(&LayerStats::wal_flushes), writes),
         "1/kwrite"},
        {"wal.batch_mean",
         Share(d(&LayerStats::wal_commits), d(&LayerStats::wal_flushes)),
         "count"},
        {"wal.delta_share",
         Share(d(&LayerStats::wal_deltas),
               d(&LayerStats::wal_deltas) + d(&LayerStats::wal_images)),
         "ratio"},
        {"wal.fsync_us_p50", FlushPercentileUs(a, e, 50), "us"},
        {"wal.fsync_us_p99", FlushPercentileUs(a, e, 99), "us"},
        {"wal.checkpoint_s", Median(w.checkpoint_s), "s"},
        {"wal.recycled_segments",
         double(d(&LayerStats::wal_recycled_segments)), "count"},
        {"wal.replayed_records", double(replayed), "count"},
        {"wal.log_bytes_per_write",
         Share(d(&LayerStats::wal_flushed_bytes), writes), "B"},
        {"wal.recover_s", recover_s, "s"},
        {"pool.hit_share",
         Share(d(&LayerStats::pool_hits) + d(&LayerStats::pool_unpinned_reads),
               pool_access),
         "ratio"},
        {"pool.misses_per_op", Share(d(&LayerStats::pool_misses), ops), "1/op"},
        {"pool.evictions_per_op", Share(d(&LayerStats::pool_evictions), ops),
         "1/op"},
        {"pool.writebacks_per_op", Share(d(&LayerStats::pool_writebacks), ops),
         "1/op"},
        {"pool.unpinned_share",
         Share(d(&LayerStats::pool_unpinned_reads), pool_access), "ratio"},
        {"pool.pinned_peak", double(e.pool_pinned_peak), "count"},
        {"lock.bucket_acq_per_op", Share(d(&LayerStats::bucket_lock_acq), ops),
         "1/op"},
        {"lock.dir_acq_per_op", Share(d(&LayerStats::dir_lock_acq), ops),
         "1/op"},
        {"lock.contended_share",
         Share(d(&LayerStats::bucket_lock_contended) +
                   d(&LayerStats::dir_lock_contended),
               lock_acq),
         "ratio"},
        {"lock.slow_path_share",
         Share(d(&LayerStats::bucket_slow_path) + d(&LayerStats::dir_slow_path),
               lock_acq),
         "ratio"},
        {"lock.bucket_wait_ns_p99", double(w.dist.bucket_wait_ns_p99), "ns"},
        {"lock.dir_wait_ns_p99", double(w.dist.dir_wait_ns_p99), "ns"},
        {"epoch.retired_per_kop", PerK(d(&LayerStats::epoch_retired), ops),
         "1/kop"},
        {"epoch.pending_end", double(e.epoch_pending), "count"},
        {"baseline.global_lock_ops_per_s", baseline_ops, "1/s"},
        {"trace.overhead_share",
         plain_ops > 0 ? 1.0 - traced_ops / plain_ops : 0, "ratio"},
    };
    res.info = {
        {"traced_ops_per_s", traced_ops, "1/s"},
        {"untraced_ops_per_s", plain_ops, "1/s"},
        {"lock_wait_samples",
         double(w.dist.bucket_wait_samples + w.dist.dir_wait_samples), "count"},
        {"find_chase_samples", double(w.dist.find_chase_samples), "count"},
        {"insert_samples", double(w.by_type[1].count()), "count"},
        {"update_samples", double(w.by_type[2].count()), "count"},
        {"remove_samples", double(w.by_type[3].count()), "count"},
        {"window_ops", double(ops), "count"},
    };
    tracer.Close(run_span);
    if (!config.spans_file.empty() && !tracer.Write(config.spans_file)) {
      res.errors.push_back("could not write " + config.spans_file);
    }
  }
  if (res.failed != 0) res.correct = false;

  const uint64_t records = spec.preload * uint64_t(kClients);
  res.meta = {
      {"workload", spec.name},
      {"seed", std::to_string(config.seed)},
      {"clients", std::to_string(kClients)},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"cpu", CpuModel()},
      {"compiler", __VERSION__},
      {"records_preloaded", std::to_string(records)},
      {"universe", std::to_string(spec.universe * uint64_t(kClients))},
      {"page_size", std::to_string(spec.table.page_size)},
      {"page_budget", std::to_string(spec.table.page_budget)},
      {"wal", spec.table.wal ? "per-commit, in-memory media" : "off"},
      {"setup_reps", std::to_string(config.trace ? 1 : spec.setup_reps)},
      {"seconds", std::to_string(config.seconds)},
      {"subwindow_s", std::to_string(config.subwindow_s)},
  };
  return res;
}

}  // namespace perfbench
