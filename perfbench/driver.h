// Workloads, closed-loop clients, answer checking and the metric
// computation.  Library calls go through adapter.h only.

#ifndef PERFBENCH_DRIVER_H_
#define PERFBENCH_DRIVER_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "adapter.h"
#include "stream.h"

namespace perfbench {

enum class Mix {
  kReadMostly,  // 95% find / 5% update, Zipf over the slice
  kChurn,       // alternating grow and shrink phases, uniform picks
  kDurable,     // 50% find / 40% update (Zipf), 5% insert / 5% remove
};

// Zipf skew of the hot-key draws (kReadMostly, kDurable).
constexpr double kZipfTheta = 0.99;
// Closed-loop client threads: half the 4-core host's cores, so the
// library's own threads and the harness do not oversubscribe it.
constexpr int kClients = 2;

struct WorkloadSpec {
  std::string name;
  TableSpec table;
  Mix mix = Mix::kReadMostly;
  uint64_t universe = 0;  // key slice size per client
  uint64_t preload = 0;   // records per client before the window
  // kChurn: a client grows its live set to churn_high, then shrinks it to
  // churn_low, and so on.
  uint64_t churn_low = 0, churn_high = 0;
  uint64_t warmup_ops = 0;        // per client, before the window
  // Set-ups per end-to-end run; setup_s is their median.
  int setup_reps = 3;
  uint64_t checkpoint_every = 0;  // kDurable: writes per client per call
  // Records per client the preload inserts beyond `preload` and removes
  // again, so the page extent has room for the workload's splits and
  // never grows while serving (see README.md, library defect).
  uint64_t headroom = 0;
  // End with a power cut and a timed recovering reopen (kDurable).
  bool crash = false;
  // Also time the same workload on the global-lock baseline (traced run).
  bool baseline = false;
};

// The four named workloads; null if `name` is not one of them.
const WorkloadSpec* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

// One generated operation on a client's slice.
enum class OpType : uint8_t { kFind, kInsert, kUpdate, kRemove };
struct Op {
  OpType type = OpType::kFind;
  uint64_t index = 0;  // slice index; the key is KeyOf(index, ...)
  uint64_t value = 0;  // value to write (insert/update)
};

// A client's operation generator: a pure function of (seed, workload,
// client) and the client's model, which the caller advances with each
// operation's expected outcome.
class OpGen {
 public:
  // `zipf` ranks the client's slice (spec.universe); it is shared by the
  // clients because its set-up sums over the whole slice.
  OpGen(const WorkloadSpec& spec, const Zipf& zipf, uint64_t seed,
        int clients, int client);
  Op Next(const SliceModel& model);
  // Index order for the preload: an absent index (a present one to
  // remove, with `present`), uniformly.
  uint64_t NextPreloadIndex(const SliceModel& model, bool present = false) {
    return present ? model.PickPresent(rng_) : model.PickAbsent(rng_);
  }

 private:
  uint64_t Hot() { return perm_(zipf_.Draw(rng_)); }
  const WorkloadSpec& spec_;
  const Zipf& zipf_;
  int clients_, client_;
  Rng rng_;
  RankPermutation perm_;
  uint64_t version_ = 0;
  bool growing_ = true;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunConfig {
  WorkloadSpec spec;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double subwindow_s = 0.5;
  // Scratch directory for table files; removed by the caller.
  std::string workdir;
  // Where the traced run writes its spans (empty: not written).
  std::string spans_file;
  // Self-test plants: corrupt the value client 0's find number N returns,
  // and drop one acknowledged write after the recovering reopen.  Both
  // must come back as failed operations.
  int64_t plant_wrong_answer_at = -1;
  bool plant_lost_write = false;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;   // first few wrong answers, broken laws
  std::vector<Metric> metrics;       // end-to-end, or per-layer when traced
  std::vector<Metric> info;          // extra figures, printed not judged
  std::vector<std::pair<std::string, std::string>> meta;  // run metadata
};

RunResult Run(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_H_
