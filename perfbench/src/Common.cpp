//===- Common.cpp - shared pieces of the vbmc benchmark -------------------===//

#include "Common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <cstdio>

using namespace vbmc;

namespace perfbench {

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * double(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (Pos - double(Lo)) * (V[Hi] - V[Lo]);
}

double peakRssMb() {
  rusage Self{}, Children{};
  ::getrusage(RUSAGE_SELF, &Self);
  ::getrusage(RUSAGE_CHILDREN, &Children);
  // Linux reports ru_maxrss in kilobytes.
  return double(std::max(Self.ru_maxrss, Children.ru_maxrss)) / 1024.0;
}

void LayerTotals::addOne(const std::string &Name, double V) {
  auto U = static_cast<uint64_t>(V);
  if (Name == "translate.seconds")
    TranslateS += V;
  else if (Name == "translate.out_vars")
    OutVars += U;
  else if (Name == "sat.unroll.seconds")
    UnrollS += V;
  else if (Name == "sat.encode.seconds")
    EncodeS += V;
  else if (Name == "sat.encode.nodes")
    AigNodes += U;
  else if (Name == "sat.encode.bytes")
    EncodeBytes += U;
  else if (Name == "sat.solve.seconds")
    SolveS += V;
  else if (Name == "sat.inprocess.seconds")
    InprocessS += V;
  else if (Name == "sat.solve.conflicts")
    Conflicts += U;
  else if (Name == "sat.solve.decisions")
    Decisions += U;
  else if (Name == "sat.solve.propagations")
    Propagations += U;
  else if (Name == "engine.incremental.cache_hits")
    CacheHits += U;
  else if (Name == "engine.incremental.cache_misses")
    CacheMisses += U;
}

void LayerTotals::add(const StatsRegistry &S) {
  for (const StatsRegistry::Entry &E : S.snapshot())
    addOne(E.Name, E.IsCounter ? double(E.Count) : E.Seconds);
}

void LayerTotals::add(const json::Value &Stats) {
  if (!Stats.isObject())
    return;
  for (const auto &[Name, V] : Stats.members())
    if (V.isNumber())
      addOne(Name, V.asNumber());
}

void LayerTotals::add(const LayerTotals &O) {
  TranslateS += O.TranslateS;
  UnrollS += O.UnrollS;
  EncodeS += O.EncodeS;
  SolveS += O.SolveS;
  InprocessS += O.InprocessS;
  OutVars += O.OutVars;
  AigNodes += O.AigNodes;
  EncodeBytes += O.EncodeBytes;
  Conflicts += O.Conflicts;
  Decisions += O.Decisions;
  Propagations += O.Propagations;
  CacheHits += O.CacheHits;
  CacheMisses += O.CacheMisses;
}

void addLayerMetrics(RunResult &R, const LayerTotals &L,
                     double EngineSeconds) {
  R.add("translation.seconds", L.TranslateS, "s");
  R.add("translation.out_vars", double(L.OutVars), "count");
  R.add("bmc.unroll_seconds", L.UnrollS, "s");
  R.add("bmc.encode_seconds", L.EncodeS, "s");
  R.add("bmc.aig_nodes", double(L.AigNodes), "count");
  R.add("bmc.encode_mb", double(L.EncodeBytes) / (1024.0 * 1024.0), "MB");
  R.add("sat.solve_seconds", L.SolveS, "s");
  R.add("sat.inprocess_seconds", L.InprocessS, "s");
  R.add("sat.conflicts", double(L.Conflicts), "count");
  R.add("sat.decisions", double(L.Decisions), "count");
  R.add("sat.propagations", double(L.Propagations), "count");
  R.add("sat.props_per_s",
        L.SolveS > 0 ? double(L.Propagations) / L.SolveS : 0, "1/s");
  R.add("vbmc.engine_seconds", EngineSeconds, "s");
  R.add("vbmc.overhead_seconds", EngineSeconds - L.stageSeconds(), "s");
  R.add("vbmc.encode_cache_hits", double(L.CacheHits), "count");
  R.add("vbmc.encode_cache_misses", double(L.CacheMisses), "count");
}

namespace {

/// "incremental.solve.k1" -> "incremental.solve", "serve.request:r7" ->
/// "serve.request".
std::string baseSpanName(std::string Name) {
  size_t Colon = Name.find(':');
  if (Colon != std::string::npos)
    Name.resize(Colon);
  size_t Dot = Name.rfind(".k");
  if (Dot != std::string::npos && Dot + 2 < Name.size() &&
      std::all_of(Name.begin() + Dot + 2, Name.end(),
                  [](unsigned char C) { return std::isdigit(C); }))
    Name.resize(Dot);
  return Name;
}

} // namespace

std::map<std::string, double>
selfSecondsByName(const std::vector<TraceSpan> &Spans) {
  std::map<uint32_t, std::vector<const TraceSpan *>> ByThread;
  for (const TraceSpan &S : Spans)
    ByThread[S.ThreadId].push_back(&S);
  std::map<std::string, double> Self;
  for (auto &[Tid, List] : ByThread) {
    // Parents before their children: start ascending, longest first.
    std::sort(List.begin(), List.end(),
              [](const TraceSpan *A, const TraceSpan *B) {
                if (A->StartMicros != B->StartMicros)
                  return A->StartMicros < B->StartMicros;
                return A->DurationMicros > B->DurationMicros;
              });
    std::vector<double> Covered(List.size(), 0);
    std::vector<size_t> Open;
    for (size_t I = 0; I < List.size(); ++I) {
      const TraceSpan &S = *List[I];
      while (!Open.empty()) {
        const TraceSpan &Top = *List[Open.back()];
        if (Top.StartMicros + Top.DurationMicros > S.StartMicros)
          break;
        Open.pop_back();
      }
      if (!Open.empty()) {
        const TraceSpan &Parent = *List[Open.back()];
        double End = std::min(S.StartMicros + S.DurationMicros,
                              Parent.StartMicros + Parent.DurationMicros);
        Covered[Open.back()] += std::max(0.0, End - S.StartMicros);
      }
      Open.push_back(I);
    }
    for (size_t I = 0; I < List.size(); ++I)
      Self[baseSpanName(List[I]->Name)] +=
          std::max(0.0, List[I]->DurationMicros - Covered[I]) * 1e-6;
  }
  return Self;
}

void addSpanMetrics(RunResult &R, const std::map<std::string, double> &Self) {
  auto Sum = [&](std::initializer_list<const char *> Prefixes) {
    double S = 0;
    for (const auto &[Name, Seconds] : Self)
      for (const char *P : Prefixes)
        if (Name.rfind(P, 0) == 0) {
          S += Seconds;
          break;
        }
    return S;
  };
  R.add("span.bench_self_seconds", Sum({"bench."}), "s");
  R.add("span.engine_self_seconds",
        Sum({"engine.", "attempt", "backend.", "incremental."}), "s");
  R.add("span.translate_self_seconds", Sum({"translate"}), "s");
  R.add("span.unroll_self_seconds", Sum({"sat.unroll"}), "s");
  R.add("span.encode_self_seconds", Sum({"sat.encode"}), "s");
  R.add("span.solve_self_seconds", Sum({"sat.solve"}), "s");
  R.add("span.serve_request_seconds", Sum({"serve.request"}), "s");
}

void printResultLine(const RunResult &R) {
  json::JsonWriter W;
  W.beginObject();
  W.key("correct").value(R.Wrong == 0);
  W.key("attempted").value(R.Attempted);
  W.key("failed").value(R.Failed);
  W.key("metrics").beginObject();
  for (const Metric &M : R.Metrics) {
    W.key(M.Name).beginObject();
    W.key("value").value(M.Value);
    W.key("unit").value(M.Unit);
    W.endObject();
  }
  W.endObject();
  W.endObject();
  std::printf("%s\n", W.str().c_str());
  std::fflush(stdout);
}

} // namespace perfbench
