// Self-tests of the benchmark itself (not of the library):
//   * the recorder's percentile error bound against exact order statistics;
//   * op streams are a pure function of (seed, workload, client);
//   * a planted wrong answer and a planted lost acknowledged write both
//     come back as failed operations, and clean runs report none.
//
//   python3 perfbench/run.py --selftest
//
// Exit code 0 iff every check passes.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "driver.h"
#include "recorder.h"
#include "stream.h"

namespace perfbench {
namespace {

int failures = 0;

void Check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++failures;
}

void RecorderErrorBound() {
  Rng rng(7);
  Recorder rec;
  std::vector<uint64_t> values;
  for (int i = 0; i < 200000; ++i) {
    // Log-uniform over [1, 1e9]: every bucket scale gets samples.
    const uint64_t v = uint64_t(std::exp(rng.Unit() * std::log(1e9)));
    values.push_back(v);
    rec.Add(v);
  }
  std::sort(values.begin(), values.end());
  double worst = 0;
  for (const double p : {0.1, 1.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
    const size_t rank = std::max<size_t>(
        1, size_t(std::ceil(p / 100 * double(values.size()))));
    const double exact = double(values[rank - 1]);
    const double err = std::abs(rec.Percentile(p) - exact) / exact;
    worst = std::max(worst, err);
  }
  Check(worst <= 1.0 / 32, "recorder percentile error " +
                               std::to_string(worst) + " <= 1/32");
  Recorder small;
  for (uint64_t v = 0; v < 32; ++v) small.Add(v);
  Check(small.Percentile(50) == 15 && small.Percentile(100) == 31,
        "recorder is exact below 32");
  Check(Recorder().Percentile(99) == 0, "empty recorder reports 0");
}

// Hash of the first n ops of a client's stream, the model advanced with
// each op's expected outcome (what a correct table returns).
uint64_t StreamHash(const WorkloadSpec& spec, const Zipf& zipf, uint64_t seed,
                    int client, int n) {
  OpGen gen(spec, zipf, seed, 2, client);
  SliceModel model(spec.universe);
  for (uint64_t i = 0; i < std::min<uint64_t>(spec.preload, 5000); ++i) {
    const uint64_t idx = gen.NextPreloadIndex(model);
    model.Set(idx, ValueOf(idx, 0));
  }
  uint64_t h = 0;
  for (int i = 0; i < n; ++i) {
    const Op op = gen.Next(model);
    h = SplitMix64(h ^ (uint64_t(op.type) << 60) ^ op.index ^ op.value);
    const bool present = model.value(op.index) != 0;
    if (op.type == OpType::kRemove) model.Set(op.index, 0);
    if (op.type == OpType::kInsert && !present) model.Set(op.index, op.value);
    if (op.type == OpType::kUpdate && present) model.Set(op.index, op.value);
  }
  return h;
}

void StreamDeterminism() {
  for (const std::string& name : WorkloadNames()) {
    const WorkloadSpec& spec = *FindWorkload(name);
    const Zipf zipf(spec.universe, kZipfTheta);
    const uint64_t a = StreamHash(spec, zipf, 42, 0, 20000);
    Check(a == StreamHash(spec, zipf, 42, 0, 20000),
          name + ": same seed and client give the same stream");
    Check(a != StreamHash(spec, zipf, 43, 0, 20000),
          name + ": another seed gives another stream");
    Check(a != StreamHash(spec, zipf, 42, 1, 20000),
          name + ": another client gives another stream");
  }
}

RunConfig Tiny(const std::string& name, const std::string& workdir) {
  RunConfig c;
  c.spec = *FindWorkload(name);
  c.spec.universe = 4000;
  c.spec.preload = name == "read_mostly" ? 4000 : 3600;
  c.spec.warmup_ops = 200;
  c.spec.checkpoint_every = c.spec.checkpoint_every ? 500 : 0;
  c.spec.headroom = c.spec.headroom ? 400 : 0;
  c.seconds = 0.4;
  c.subwindow_s = 0.1;
  c.spec.setup_reps = 1;
  c.workdir = workdir;
  return c;
}

void PlantedFailures(const std::string& workdir) {
  const RunResult clean = Run(Tiny("read_mostly", workdir));
  Check(clean.correct && clean.failed == 0 && clean.attempted > 0,
        "clean read_mostly run reports no failures");
  RunConfig planted = Tiny("read_mostly", workdir);
  planted.plant_wrong_answer_at = 100;
  const RunResult wrong = Run(planted);
  Check(!wrong.correct && wrong.failed == 1,
        "planted wrong answer counted as 1 failure (got " +
            std::to_string(wrong.failed) + ")");

  const RunResult durable = Run(Tiny("durable", workdir));
  Check(durable.correct && durable.failed == 0,
        "clean durable run recovers every acknowledged write");
  RunConfig lost = Tiny("durable", workdir);
  lost.plant_lost_write = true;
  const RunResult lost_result = Run(lost);
  Check(!lost_result.correct && lost_result.failed >= 1,
        "planted lost acknowledged write counted as a failure (got " +
            std::to_string(lost_result.failed) + ")");
}

}  // namespace
}  // namespace perfbench

int main() {
  namespace fs = std::filesystem;
  const fs::path workdir =
      fs::path(".bench_build") / ("selftest-" + std::to_string(getpid()));
  fs::create_directories(workdir);
  perfbench::RecorderErrorBound();
  perfbench::StreamDeterminism();
  perfbench::PlantedFailures(workdir.string());
  fs::remove_all(workdir);
  std::printf("%s: %d failure(s)\n",
              perfbench::failures ? "SELFTEST FAILED" : "SELFTEST OK",
              perfbench::failures);
  return perfbench::failures ? 1 : 0;
}
