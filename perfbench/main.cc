// perfbench: runs one named workload against Solution 2 and prints its
// metrics.  Usually started through run.py, which builds this binary.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--workdir DIR] [--spans FILE]
//
// Output: a human-readable report, one `meta` JSON line (host and run
// metadata), and as the last line one JSON object with the keys correct,
// attempted, failed and metrics.  Exit code 0 iff every answer was right
// and every law held.

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "driver.h"

namespace {

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--workdir DIR] [--spans FILE]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, workdir = ".", spans;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") workload = v;
    else if (flag == "--seed") seed = std::strtoull(v, nullptr, 10);
    else if (flag == "--seconds") seconds = std::atof(v);
    else if (flag == "--trace") trace = std::atoi(v);
    else if (flag == "--workdir") workdir = v;
    else if (flag == "--spans") spans = v;
    else return Usage(("unknown flag " + flag).c_str());
  }
  if (argc % 2 != 1) return Usage("flags take one value each");
  const perfbench::WorkloadSpec* spec = perfbench::FindWorkload(workload);
  if (spec == nullptr) return Usage(("unknown workload '" + workload + "'").c_str());
  if (!(seconds > 0) || (trace != 0 && trace != 1)) return Usage("bad value");

  perfbench::RunConfig config;
  config.spec = *spec;
  config.seed = seed;
  config.seconds = seconds;
  config.trace = trace == 1;
  config.workdir = workdir;
  config.spans_file = spans;
  const perfbench::RunResult r = perfbench::Run(config);

  std::printf("perfbench %s seed=%llu trace=%d\n", workload.c_str(),
              static_cast<unsigned long long>(seed), trace);
  for (const perfbench::Metric& m : r.metrics) {
    std::printf("  %-34s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const perfbench::Metric& m : r.info) {
    std::printf("  (info) %-27s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const std::string& e : r.errors) std::printf("  ERROR %s\n", e.c_str());

  std::string meta = "{\"meta\":{";
  for (size_t i = 0; i < r.meta.size(); ++i) {
    meta += (i ? "," : "") + Quote(r.meta[i].first) + ":" +
            Quote(r.meta[i].second);
  }
  meta += "}}";
  std::printf("%s\n", meta.c_str());

  std::string out = "{\"correct\": " + std::string(r.correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(r.attempted) +
                    ", \"failed\": " + std::to_string(r.failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const perfbench::Metric& m = r.metrics[i];
    out += (i ? ", " : "") + Quote(m.name) + ": {\"value\": " + Num(m.value) +
           ", \"unit\": " + Quote(m.unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return r.correct ? 0 : 1;
}
