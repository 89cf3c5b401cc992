//===- ServeMix.cpp - many small checks through vbmc-serve ----------------===//
//
// A closed loop of two client connections against an in-process
// vbmc-serve with two worker processes. The requests are vbmc-fuzz
// campaign programs (program i from Rng::derived(seed, i), the campaign's
// generator defaults), each checked in incremental mode up to K = 2 with
// L = 3. A pass sends a seeded schedule of requests drawn with
// Zipf-skewed popularity from a pool of distinct programs, larger than the
// daemon's verdict cache. Every pass starts a fresh daemon (cold caches)
// and has a pool of its own, the next programs of the campaign stream, so
// a run samples thousands of programs rather than one pool's few slow
// ones. Every verdict is checked against an
// independent oracle computed at set-up: explicit RA reachability
// (ra::exploreRa) within K view switches on the L-unrolled program.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "bmc/Unroll.h"
#include "fuzz/Differ.h"
#include "fuzz/Generator.h"
#include "ir/Flatten.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ra/RaExplorer.h"
#include "serve/Client.h"
#include "serve/Serve.h"
#include "support/Rng.h"
#include "support/Timer.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <set>
#include <thread>

using namespace vbmc;

namespace perfbench {

namespace {

constexpr uint32_t MaxK = 2;
constexpr uint32_t UnrollL = 3;
/// Distinct programs per pass; more than the daemon's default
/// verdict-cache capacity (256), so the cache has to evict.
constexpr size_t PoolSize = 1000;
/// Passes whose inputs set-up prepares; a run cycles through them.
constexpr size_t PassInputsPrepared = 6;
/// Requests per pass.
constexpr size_t PassRequests = 600;
/// Zipf exponent of program popularity. 0.6 keeps the repeat share near a
/// third, so the median request is a real check, not a cache hit.
constexpr double ZipfExponent = 0.6;
constexpr unsigned Clients = 2;
constexpr unsigned Workers = 2;
/// Per-request deadline; also the latency a failed request is charged.
constexpr double RequestDeadlineSeconds = 30;
/// A pass's typical wall time on a 4-core x86 box; a run of --seconds S
/// serves round(S / PassSeconds) passes (at least one), a fixed amount of
/// work so runs of different commits compare.
constexpr double PassSeconds = 6;
/// No new pass starts after this much wall time.
constexpr double HardStopSeconds = 120;
/// Set-up repetitions; setup_s is their median.
constexpr unsigned SetupReps = 3;
/// State cap of the oracle; a program it cannot decide is left out of
/// the pool.
constexpr uint64_t OracleMaxStates = 2000000;

struct PoolProgram {
  std::string Text;
  uint32_t CasAllowance = 1;
  bool OracleUnsafe = false;
};

struct PassInputs {
  std::vector<PoolProgram> Pool;
  /// Pool index of each request, in send order.
  std::vector<uint32_t> Schedule;
};

struct Inputs {
  std::vector<PassInputs> Passes;
  double OracleSeconds = 0;
  double ParseSeconds = 0;
  /// Share of scheduled requests whose program an earlier request of the
  /// same pass already sent.
  double RepeatShare = 0;
};

fuzz::GeneratorOptions campaignGenerator() {
  fuzz::GeneratorOptions G;
  G.NumProcs = 2;
  G.StmtsPerProc = 3;
  G.NumVars = 2;
  G.MaxValue = 2;
  G.CasPermille = 150;
  G.AssertPermille = 700;
  G.FencePermille = 50;
  G.NondetPermille = 50;
  G.LoopPermille = 30;
  return G;
}

/// Decides \p P with the RA explorer; false when the explorer gives up.
bool oracle(const ir::Program &P, bool &Unsafe) {
  ir::FlatProgram FP = ir::flatten(bmc::unrollLoops(P, UnrollL));
  if (!FP.hasAsserts()) {
    Unsafe = false;
    return true;
  }
  ra::RaQuery Q;
  Q.Goal = ra::GoalKind::AnyError;
  Q.ViewSwitchBound = MaxK;
  Q.MaxStates = OracleMaxStates;
  ra::RaResult R = ra::exploreRa(FP, Q);
  Unsafe = R.reached();
  return R.reached() || R.exhausted();
}

/// The pools, the schedules and the oracle verdicts: a pure function of
/// \p Seed. Pass p's pool continues the campaign stream where pass p-1's
/// stopped.
Inputs makeInputs(uint64_t Seed) {
  Inputs In;
  fuzz::GeneratorOptions Gen = campaignGenerator();
  fuzz::DiffOptions Diff;
  Diff.K = MaxK;
  Diff.L = UnrollL;
  std::set<std::string> Seen;
  uint64_t NextProgram = 0;
  size_t Repeats = 0;
  for (size_t Pass = 0; Pass < PassInputsPrepared; ++Pass) {
    PassInputs PI;
    while (PI.Pool.size() < PoolSize) {
      Rng R = Rng::derived(Seed, NextProgram++);
      ir::Program P = fuzz::makeRandomProgram(R, Gen);
      std::string Text = ir::printProgram(P);
      if (!Seen.insert(Text).second)
        continue;
      PoolProgram PP;
      PP.Text = std::move(Text);
      PP.CasAllowance = fuzz::casAllowanceFor(P, Diff);
      Timer Oracle;
      bool Decided = oracle(P, PP.OracleUnsafe);
      In.OracleSeconds += Oracle.elapsedSeconds();
      if (Decided)
        PI.Pool.push_back(std::move(PP));
    }

    // Zipf popularity over the pool (rank = pool index; the pool order is
    // itself random), sampled by inverse CDF from a stream of its own.
    std::vector<double> Cdf(PI.Pool.size());
    double Acc = 0;
    for (size_t I = 0; I < Cdf.size(); ++I)
      Cdf[I] = Acc += 1.0 / std::pow(double(I + 1), ZipfExponent);
    Rng Pick = Rng::derived(Seed, ~0ULL - Pass);
    std::vector<bool> Sent(PI.Pool.size(), false);
    for (size_t I = 0; I < PassRequests; ++I) {
      double U = double(Pick.next() >> 11) * 0x1.0p-53 * Acc;
      auto It = std::upper_bound(Cdf.begin(), Cdf.end(), U);
      uint32_t Idx = static_cast<uint32_t>(
          std::min<size_t>(It - Cdf.begin(), Cdf.size() - 1));
      Repeats += Sent[Idx];
      Sent[Idx] = true;
      PI.Schedule.push_back(Idx);
    }

    // What the daemon does at admission with each request text.
    Timer Parse;
    for (uint32_t Idx : PI.Schedule)
      if (!ir::parseProgram(PI.Pool[Idx].Text))
        std::fprintf(stderr, "pool program %u does not parse\n", Idx);
    In.ParseSeconds += Parse.elapsedSeconds();
    In.Passes.push_back(std::move(PI));
  }
  In.RepeatShare =
      double(Repeats) / double(PassRequests * PassInputsPrepared);
  return In;
}

driver::CheckRequest checkFor(const PoolProgram &P) {
  driver::CheckRequest Req;
  Req.Mode = driver::EngineMode::Incremental;
  Req.MaxK = MaxK;
  Req.Opts.Backend = driver::BackendKind::Sat;
  Req.Opts.L = UnrollL;
  Req.Opts.CasAllowance = P.CasAllowance;
  return Req;
}

/// One request as the client saw it.
struct Answer {
  /// A request never answered is charged the deadline.
  double LatencySeconds = RequestDeadlineSeconds;
  bool Failed = true;
  bool Wrong = false;
  bool Cached = false;
  /// Engine time the worker reported (0 when answered from the cache).
  double EngineSeconds = 0;
  LayerTotals Layers;
};

struct Pass {
  std::vector<Answer> Answers;
  double WallSeconds = 0;
  serve::ServerSummary Summary;
  std::vector<TraceSpan> Spans;

  double latencySum() const {
    double S = 0;
    for (const Answer &A : Answers)
      S += A.LatencySeconds;
    return S;
  }
};

void readAnswer(const serve::Response &Resp, const PoolProgram &P,
                Answer &A) {
  A.Cached = Resp.Cached;
  A.Failed = Resp.Status != "ok" || Resp.Verdict == "unknown" ||
             Resp.Verdict.empty() || (Resp.Failure != "none" &&
                                      !Resp.Failure.empty());
  if (!A.Failed)
    A.Wrong = (Resp.Verdict == "unsafe") != P.OracleUnsafe;
  if (A.Failed || A.Cached)
    return;
  json::Value Report;
  if (!json::parse(Resp.ReportJson, Report))
    return;
  if (const json::Value *S = Report.get("seconds"))
    A.EngineSeconds = S->asNumber();
  if (const json::Value *St = Report.get("stats"))
    A.Layers.add(*St);
}

/// Serves one pass of the schedule on a fresh daemon.
Pass runPass(const PassInputs &In, bool Traced, unsigned PassNo) {
  Pass Out;
  Out.Answers.resize(In.Schedule.size());
  serve::ServerOptions O;
  // Relative to the working directory (run.py runs the benchmark in its
  // build directory), which also keeps the path short enough for sun_path.
  O.SocketPath = "serve-" + std::to_string(::getpid()) + "-" +
                 std::to_string(PassNo) + ".sock";
  O.Workers = Workers;
  O.DefaultDeadlineSeconds = RequestDeadlineSeconds;
  O.EnableTrace = Traced;
  serve::Server S(O);
  std::string Err;
  if (!S.start(&Err)) {
    std::fprintf(stderr, "serve start failed: %s\n", Err.c_str());
    return Out;
  }
  std::thread Waiter([&] { S.wait(); });

  std::atomic<size_t> Next{0};
  auto client = [&] {
    serve::Client C;
    std::string CErr;
    if (!C.connect(O.SocketPath, 10, &CErr)) {
      std::fprintf(stderr, "connect failed: %s\n", CErr.c_str());
      return;
    }
    for (size_t I; (I = Next.fetch_add(1)) < In.Schedule.size();) {
      const PoolProgram &P = In.Pool[In.Schedule[I]];
      serve::Request R;
      R.Id = "r" + std::to_string(I);
      R.Program = P.Text;
      R.Check = checkFor(P);
      Answer &A = Out.Answers[I];
      serve::Response Resp;
      Timer Latency;
      bool Got;
      {
        ScopedSpan Span(S.trace(), "bench.request:" + R.Id, "bench");
        Got = C.send(R) &&
              C.receive(Resp, RequestDeadlineSeconds * 2 + 10, &CErr);
      }
      if (!Got || Resp.Id != R.Id) {
        std::fprintf(stderr, "request %s lost: %s\n", R.Id.c_str(),
                     CErr.c_str());
        return;
      }
      A.LatencySeconds = Latency.elapsedSeconds();
      readAnswer(Resp, P, A);
      if (A.Failed)
        A.LatencySeconds = std::max(A.LatencySeconds, RequestDeadlineSeconds);
    }
  };
  Timer Wall;
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I < Clients; ++I)
    Threads.emplace_back(client);
  for (std::thread &T : Threads)
    T.join();
  Out.WallSeconds = Wall.elapsedSeconds();
  S.requestDrain("bench-done");
  Waiter.join();
  Out.Summary = S.summary();
  if (Traced)
    Out.Spans = S.trace().snapshot();
  return Out;
}

/// Requests a broken pass never answered keep Answer::Failed, so they
/// count as failed too.
void account(RunResult &R, const Pass &P) {
  for (const Answer &A : P.Answers) {
    ++R.Attempted;
    R.Failed += A.Failed;
    R.Wrong += A.Wrong;
  }
}

std::vector<double> latencies(const std::vector<Pass> &Passes) {
  std::vector<double> L;
  for (const Pass &P : Passes)
    for (const Answer &A : P.Answers)
      L.push_back(A.LatencySeconds);
  return L;
}

RunResult endToEnd(const Args &A, const Inputs &In, double SetupSeconds) {
  RunResult R;
  std::vector<Pass> Passes;
  Timer Measure;
  size_t Planned = std::max<long>(1, std::lround(A.Seconds / PassSeconds));
  for (size_t I = 0; I < Planned; ++I) {
    if (Measure.elapsedSeconds() >= HardStopSeconds) {
      // Requests of passes never served count as attempted and failed.
      R.Attempted += PassRequests;
      R.Failed += PassRequests;
      continue;
    }
    Passes.push_back(runPass(In.Passes[I % In.Passes.size()], false, I));
    account(R, Passes.back());
  }
  std::vector<double> Lat = latencies(Passes), Sums;
  double Wall = 0;
  for (const Pass &P : Passes) {
    Sums.push_back(P.latencySum());
    Wall += P.WallSeconds;
  }
  double P50 = median(Lat);
  R.add("setup_s", SetupSeconds, "s");
  R.add("verdict_s_sum", median(Sums), "s");
  R.add("verdict_s_p50", P50, "s");
  R.add("checks_per_s", double(R.Attempted - R.Failed) / Wall, "1/s");
  R.add("latency_ms_p50", P50 * 1e3, "ms");
  R.add("latency_ms_p99", quantile(Lat, 0.99) * 1e3, "ms");
  R.add("peak_rss_mb", peakRssMb(), "MB");
  return R;
}

double ratio(uint64_t Num, uint64_t Den) {
  return Den ? double(Num) / double(Den) : 0;
}

RunResult perLayer(const Inputs &In) {
  RunResult R;
  Pass Untraced = runPass(In.Passes[0], false, 0);
  Pass Traced = runPass(In.Passes[0], true, 1);
  account(R, Traced);

  LayerTotals Layers;
  double Engine = 0;
  std::vector<double> Overhead;
  for (const Answer &Ans : Traced.Answers) {
    if (Ans.Failed || Ans.Cached)
      continue;
    Layers.add(Ans.Layers);
    Engine += Ans.EngineSeconds;
    Overhead.push_back((Ans.LatencySeconds - Ans.EngineSeconds) * 1e3);
  }
  addLayerMetrics(R, Layers, Engine);

  // Client latency minus the supervisor's dispatch-to-answer span of the
  // same request: admission, queueing and the response path.
  std::map<std::string, double> BenchSpan, ServeSpan;
  for (const TraceSpan &S : Traced.Spans) {
    size_t Colon = S.Name.find(':');
    if (Colon == std::string::npos)
      continue;
    std::string Id = S.Name.substr(Colon + 1);
    if (S.Name.rfind("bench.request", 0) == 0)
      BenchSpan[Id] = S.DurationMicros;
    else if (S.Name.rfind("serve.request", 0) == 0)
      ServeSpan[Id] = S.DurationMicros;
  }
  std::vector<double> Wait;
  for (const auto &[Id, Micros] : ServeSpan)
    if (auto It = BenchSpan.find(Id); It != BenchSpan.end())
      Wait.push_back((It->second - Micros) * 1e-3);
  addSpanMetrics(R, selfSecondsByName(Traced.Spans));

  const serve::ServerSummary &Sum = Traced.Summary;
  R.add("serve.overhead_ms_p50", median(Overhead), "ms");
  R.add("serve.wait_ms_p50", median(Wait), "ms");
  R.add("serve.verdict_cache_hit_ratio",
        ratio(Sum.CacheHits, Sum.CacheHits + Sum.CacheMisses), "ratio");
  R.add("serve.verdict_cache_lookups", double(Sum.CacheHits + Sum.CacheMisses),
        "count");
  R.add("serve.affinity_hit_ratio",
        ratio(Sum.AffinityHits, Sum.AffinityHits + Sum.AffinityMisses),
        "ratio");
  R.add("serve.affinity_dispatches",
        double(Sum.AffinityHits + Sum.AffinityMisses), "count");
  R.add("serve.queue_peak", double(Sum.QueuePeak), "count");
  R.add("serve.inflight_peak", double(Sum.InFlightPeak), "count");
  R.add("serve.worker_restarts", double(Sum.WorkerRestarts), "count");
  R.add("serve.shed", double(Sum.Shed), "count");
  R.add("serve.repeat_share", In.RepeatShare, "ratio");
  R.add("ir.parse_seconds", In.ParseSeconds, "s");
  R.add("ra.oracle_seconds", In.OracleSeconds, "s");
  double Base = Untraced.latencySum();
  R.add("trace.overhead_frac", (Traced.latencySum() - Base) / Base, "ratio");
  return R;
}

} // namespace

RunResult runServeMix(const Args &A) {
  std::vector<double> SetupTimes;
  Inputs In;
  for (unsigned Rep = 0; Rep < SetupReps; ++Rep) {
    Timer Setup;
    In = makeInputs(A.Seed);
    SetupTimes.push_back(Setup.elapsedSeconds());
  }
  std::fprintf(stderr,
               "serve-mix: %zu passes of %zu requests over %zu programs, "
               "repeat share %.3f, oracle %.3fs\n",
               In.Passes.size(), PassRequests, PoolSize, In.RepeatShare,
               In.OracleSeconds);
  return A.Trace ? perLayer(In) : endToEnd(A, In, median(SetupTimes));
}

std::string serveMixInputFingerprint(uint64_t Seed) {
  Inputs In = makeInputs(Seed);
  std::string Print;
  for (const PassInputs &PI : In.Passes) {
    for (const PoolProgram &P : PI.Pool)
      Print += P.Text + (P.OracleUnsafe ? "#unsafe\n" : "#safe\n");
    for (uint32_t Idx : PI.Schedule)
      Print += std::to_string(Idx) + " ";
  }
  return Print;
}

} // namespace perfbench
