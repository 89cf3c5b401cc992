//===- main.cpp - the vbmc benchmark driver -------------------------------===//
//
//   vbmc_perfbench --workload bug-hunt|safe-proof|serve-mix --seed N
//                  --seconds S --trace 0|1
//   vbmc_perfbench --self-test
//
// Prints progress to stderr and, as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Exits 1
// when any verdict contradicts the oracle, 2 on bad usage.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "support/Cli.h"

#include <cstdio>
#include <set>

using namespace perfbench;

namespace {

struct MetricSpec {
  const char *Name;
  const char *Unit;
};

/// Every workload reports every one of these (BENCHMARK.json lists the
/// same names).
const MetricSpec EndToEnd[] = {
    {"setup_s", "s"},         {"verdict_s_sum", "s"},
    {"verdict_s_p50", "s"},   {"checks_per_s", "1/s"},
    {"latency_ms_p50", "ms"}, {"latency_ms_p99", "ms"},
    {"peak_rss_mb", "MB"},
};

/// A layer a workload does not go through reports 0.
const MetricSpec PerLayer[] = {
    {"translation.seconds", "s"},
    {"translation.out_vars", "count"},
    {"bmc.unroll_seconds", "s"},
    {"bmc.encode_seconds", "s"},
    {"bmc.aig_nodes", "count"},
    {"bmc.encode_mb", "MB"},
    {"sat.solve_seconds", "s"},
    {"sat.inprocess_seconds", "s"},
    {"sat.conflicts", "count"},
    {"sat.decisions", "count"},
    {"sat.propagations", "count"},
    {"sat.props_per_s", "1/s"},
    {"vbmc.engine_seconds", "s"},
    {"vbmc.overhead_seconds", "s"},
    {"vbmc.encode_cache_hits", "count"},
    {"vbmc.encode_cache_misses", "count"},
    {"serve.overhead_ms_p50", "ms"},
    {"serve.wait_ms_p50", "ms"},
    {"serve.verdict_cache_hit_ratio", "ratio"},
    {"serve.verdict_cache_lookups", "count"},
    {"serve.affinity_hit_ratio", "ratio"},
    {"serve.affinity_dispatches", "count"},
    {"serve.queue_peak", "count"},
    {"serve.inflight_peak", "count"},
    {"serve.worker_restarts", "count"},
    {"serve.shed", "count"},
    {"serve.repeat_share", "ratio"},
    {"ir.parse_seconds", "s"},
    {"ra.oracle_seconds", "s"},
    {"span.bench_self_seconds", "s"},
    {"span.engine_self_seconds", "s"},
    {"span.translate_self_seconds", "s"},
    {"span.unroll_self_seconds", "s"},
    {"span.encode_self_seconds", "s"},
    {"span.solve_self_seconds", "s"},
    {"span.serve_request_seconds", "s"},
    {"trace.overhead_frac", "ratio"},
    {"failed_frac", "ratio"},
    {"wrong_verdicts", "count"},
};

/// Puts \p R's metrics in the order of \p Specs, filling the missing ones
/// with 0 when \p FillMissing. False (with a message) on a metric that is
/// missing or not in the list.
template <size_t N>
bool conform(RunResult &R, const MetricSpec (&Specs)[N], bool FillMissing) {
  std::vector<Metric> Out;
  std::set<std::string> Known;
  for (const MetricSpec &S : Specs) {
    Known.insert(S.Name);
    const Metric *Found = nullptr;
    for (const Metric &M : R.Metrics)
      if (M.Name == S.Name)
        Found = &M;
    if (!Found && !FillMissing) {
      std::fprintf(stderr, "metric %s missing\n", S.Name);
      return false;
    }
    Out.push_back({S.Name, Found ? Found->Value : 0, S.Unit});
  }
  for (const Metric &M : R.Metrics)
    if (!Known.count(M.Name)) {
      std::fprintf(stderr, "metric %s is not in the benchmark's list\n",
                   M.Name.c_str());
      return false;
    }
  R.Metrics = std::move(Out);
  return true;
}

int selfTest() {
  bool Ok = true;
  for (const char *W : {"bug-hunt", "safe-proof"}) {
    std::string First = protocolFingerprint(W, 7);
    std::string Second = protocolFingerprint(W, 7);
    bool Same = First == Second;
    std::fprintf(stderr, "%s: seeded counters %s\n%s", W,
                 Same ? "repeat exactly" : "DIFFER", First.c_str());
    if (!Same)
      std::fprintf(stderr, "second run:\n%s", Second.c_str());
    Ok &= Same;
  }
  std::string Pool7 = serveMixInputFingerprint(7);
  bool SameInputs = Pool7 == serveMixInputFingerprint(7);
  bool SeedMatters = Pool7 != serveMixInputFingerprint(8);
  std::fprintf(stderr, "serve-mix: pool and schedule %s for one seed, %s "
                       "across seeds\n",
               SameInputs ? "repeat exactly" : "DIFFER",
               SeedMatters ? "differ" : "DO NOT DIFFER");
  Ok &= SameInputs && SeedMatters;
  std::printf("self-test %s\n", Ok ? "passed" : "FAILED");
  return Ok ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  vbmc::CommandLine CL = vbmc::CommandLine::parse(Argc, Argv, {"self-test"});
  std::vector<std::string> Unknown =
      CL.unknownFlags({"workload", "seed", "seconds", "trace", "self-test"});
  if (!Unknown.empty()) {
    std::fprintf(stderr, "unknown flag --%s\n", Unknown.front().c_str());
    return 2;
  }
  if (CL.hasFlag("self-test"))
    return selfTest();

  Args A;
  A.Workload = CL.getString("workload");
  A.Seed = static_cast<uint64_t>(CL.getInt("seed", 1));
  A.Seconds = CL.getDouble("seconds", 10);
  A.Trace = CL.getInt("trace", 0) != 0;
  RunResult R;
  if (isProtocolWorkload(A.Workload)) {
    R = runProtocolWorkload(A);
  } else if (A.Workload == "serve-mix") {
    R = runServeMix(A);
  } else {
    std::fprintf(stderr, "unknown workload '%s' (bug-hunt, safe-proof, "
                         "serve-mix)\n",
                 A.Workload.c_str());
    return 2;
  }
  if (R.Attempted == 0) {
    std::fprintf(stderr, "no check ran\n");
    return 1;
  }
  if (A.Trace) {
    R.add("failed_frac", R.failedFraction(), "ratio");
    R.add("wrong_verdicts", double(R.Wrong), "count");
  }
  if (!(A.Trace ? conform(R, PerLayer, true) : conform(R, EndToEnd, false)))
    return 2;
  printResultLine(R);
  return R.Wrong == 0 ? 0 : 1;
}
