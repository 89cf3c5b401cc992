//===- Common.h - shared pieces of the vbmc benchmark ------------*- C++ -*-===//
///
/// \file
/// What every workload of the benchmark shares: the command-line
/// arguments, the result line (correctness counts plus named metrics), the
/// percentile helpers, the per-layer totals folded out of a run's
/// StatsRegistry or an embedded run report, and the span self-time
/// arithmetic the traced runs use.
///
//===----------------------------------------------------------------------===//

#ifndef VBMC_PERFBENCH_COMMON_H
#define VBMC_PERFBENCH_COMMON_H

#include "support/CheckContext.h"
#include "support/Json.h"
#include "support/Trace.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  /// How long one run measures.
  double Seconds = 10;
  /// 0: end-to-end metrics with tracing off. 1: per-layer metrics from a
  /// traced pass (plus an untraced pass for the tracing overhead).
  bool Trace = false;
};

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// The outcome of one run: the correctness accounting the result line
/// carries, and the metrics it prints.
struct RunResult {
  /// Checks attempted (a protocol cell under one phase policy, or one
  /// serve request).
  uint64_t Attempted = 0;
  /// Checks without a conclusive verdict: unknown, classified failure,
  /// shed or rejected.
  uint64_t Failed = 0;
  /// Conclusive verdicts that contradict the oracle.
  uint64_t Wrong = 0;
  std::vector<Metric> Metrics;

  void add(std::string Name, double Value, std::string Unit) {
    Metrics.push_back({std::move(Name), Value, std::move(Unit)});
  }
  double failedFraction() const {
    return Attempted ? double(Failed) / double(Attempted) : 1.0;
  }
};

/// Linear-interpolated quantile \p Q in [0, 1] (0 for an empty sample).
double quantile(std::vector<double> V, double Q);
inline double median(std::vector<double> V) {
  return quantile(std::move(V), 0.5);
}

/// Peak resident set of this process and of its reaped children, in MB,
/// whichever is larger.
double peakRssMb();

/// Sums of the counters and stage timers the vbmc layers record into a
/// run's StatsRegistry (the same names a run report's "stats" carries).
struct LayerTotals {
  double TranslateS = 0;
  double UnrollS = 0;
  double EncodeS = 0;
  double SolveS = 0;
  double InprocessS = 0;
  uint64_t OutVars = 0;
  uint64_t AigNodes = 0;
  uint64_t EncodeBytes = 0;
  uint64_t Conflicts = 0;
  uint64_t Decisions = 0;
  uint64_t Propagations = 0;
  uint64_t CacheHits = 0;
  uint64_t CacheMisses = 0;

  void add(const vbmc::StatsRegistry &S);
  /// Adds a run report's "stats" object.
  void add(const vbmc::json::Value &Stats);
  void add(const LayerTotals &O);
  /// Time inside the translate, unroll, encode, solve and inprocess
  /// timers.
  double stageSeconds() const {
    return TranslateS + UnrollS + EncodeS + SolveS + InprocessS;
  }

private:
  void addOne(const std::string &Name, double V);
};

/// Adds the translation.*, bmc.*, sat.* and vbmc.* per-layer metrics for
/// \p L, where \p EngineSeconds is the wall time of the engine calls the
/// totals came from.
void addLayerMetrics(RunResult &R, const LayerTotals &L, double EngineSeconds);

/// Self time per span name: each span's duration minus the part of it
/// its child spans on the same thread cover. A trailing ".k<N>" or
/// ":<id>" qualifier is dropped from the name, so per-budget and
/// per-request spans sum into one entry.
std::map<std::string, double>
selfSecondsByName(const std::vector<vbmc::TraceSpan> &Spans);

/// Adds the span.* per-layer metrics: span self time summed per layer.
/// Incremental-mode translation has no span of its own, so it counts as
/// engine self time there.
void addSpanMetrics(RunResult &R, const std::map<std::string, double> &Self);

/// Prints the result line (the last line of standard output).
void printResultLine(const RunResult &R);

} // namespace perfbench

#endif // VBMC_PERFBENCH_COMMON_H
