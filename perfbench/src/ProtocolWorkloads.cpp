//===- ProtocolWorkloads.cpp - bug-hunt and safe-proof --------------------===//
//
// The paper's Section 7 use: time to verdict on mutual-exclusion protocol
// cells. Each check is one cell under one phase policy, decided by a fresh
// driver::Engine with the bench's own timer around Engine::run. A round is
// every cell under one policy: round 0 uses the solver's default saved
// phases, round j > 0 random phases seeded by Rng::derived(seed, j), so
// SAT luck is sampled instead of fixed. Verdicts are checked against the
// paper's version suffix: _0, _2 and _3 are UNSAFE, _4 and tbar SAFE.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "ir/Parser.h"
#include "ir/Printer.h"
#include "protocols/Protocols.h"
#include "support/Rng.h"
#include "support/Timer.h"
#include "vbmc/Engine.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

using namespace vbmc;

namespace perfbench {

namespace {

/// Per-check budget, far above every cell's measured time: a check that
/// needs it counts as failed.
constexpr double CellBudgetSeconds = 20;
/// No new round starts after this much wall time, so a run ends well
/// within three minutes even if a change makes every cell slow.
constexpr double HardStopSeconds = 120;
/// Set-up repetitions; setup_s is their median.
constexpr unsigned SetupReps = 5;
/// Rounds a run does at least: a per-cell median needs three samples.
constexpr unsigned MinRounds = 3;

struct Cell {
  std::string Label;
  std::string PaperName;
  uint32_t Threads = 2;
  driver::CheckRequest Req;
  ir::Program Prog;

  /// The paper's answer for this version of the protocol.
  bool expectUnsafe() const {
    if (PaperName.rfind("tbar", 0) == 0)
      return false;
    char V = PaperName.back();
    return V == '0' || V == '2' || V == '3';
  }
};

Cell makeCell(std::string PaperName, driver::EngineMode Mode, uint32_t K,
              uint32_t L, uint32_t CasAllowance) {
  Cell C;
  C.PaperName = std::move(PaperName);
  C.Req.Mode = Mode;
  C.Req.Opts.Backend = driver::BackendKind::Sat;
  C.Req.Opts.L = L;
  C.Req.Opts.CasAllowance = CasAllowance;
  if (Mode == driver::EngineMode::Incremental)
    C.Req.MaxK = K;
  else
    C.Req.Opts.K = K;
  C.Label = C.PaperName + "(" + std::to_string(C.Threads) + ") " +
            driver::engineModeName(Mode) + " k" + std::to_string(K) + " l" +
            std::to_string(L);
  return C;
}

struct Workload {
  std::vector<Cell> Cells;
  /// A round's nominal wall time; a run of --seconds S does
  /// round(S / RoundSeconds) rounds (at least MinRounds), a fixed amount
  /// of work so runs of different commits compare.
  double RoundSeconds = 0;
};

Workload workloadOf(const std::string &Name) {
  using driver::EngineMode;
  Workload W;
  if (Name == "bug-hunt") {
    // Tables 3-5 shapes: incremental over K = 0..1.
    for (const char *P : {"peterson_2", "peterson_3", "szymanski_2"})
      W.Cells.push_back(makeCell(P, EngineMode::Incremental, 1, 2, 6));
    // Table 1 shapes: one attempt at K = 2.
    for (const char *P : {"sim_dekker_0", "peterson_0", "burns_0"})
      W.Cells.push_back(makeCell(P, EngineMode::Single, 2, 2, 1));
    W.Cells.push_back(makeCell("peterson_0", EngineMode::Incremental, 2, 2, 1));
    W.RoundSeconds = 6;
  } else if (Name == "safe-proof") {
    for (const char *P : {"peterson_4", "tbar", "sim_dekker_4", "burns_4"})
      W.Cells.push_back(makeCell(P, EngineMode::Single, 1, 1, 6));
    W.Cells.push_back(makeCell("peterson_4", EngineMode::Incremental, 1, 1, 6));
    W.RoundSeconds = 15;
  }
  return W;
}

/// Builds every cell's program by its paper name and sends it through
/// the public parser, the way a user hands vbmc a file. Adds the parse
/// time to \p ParseSeconds; false when a program fails to build or parse.
bool buildPrograms(std::vector<Cell> &Cells, double &ParseSeconds) {
  for (Cell &C : Cells) {
    auto Built = protocols::makeByPaperName(C.PaperName, C.Threads);
    if (!Built) {
      std::fprintf(stderr, "cannot build %s: %s\n", C.Label.c_str(),
                   Built.error().str().c_str());
      return false;
    }
    std::string Text = ir::printProgram(*Built);
    Timer Parse;
    auto Parsed = ir::parseProgram(Text);
    ParseSeconds += Parse.elapsedSeconds();
    if (!Parsed) {
      std::fprintf(stderr, "cannot parse %s: %s\n", C.Label.c_str(),
                   Parsed.error().str().c_str());
      return false;
    }
    C.Prog = std::move(*Parsed);
  }
  return true;
}

struct Check {
  double Seconds = 0;
  bool Failed = true;
  bool Wrong = false;
  LayerTotals Layers;
  std::vector<TraceSpan> Spans;
};

/// The phase policy of round \p Round (see the file comment).
void setPhase(driver::CheckRequest &Req, uint64_t Seed, unsigned Round) {
  if (Round == 0) {
    Req.Opts.Phase = driver::PhasePolicy::Saved;
    return;
  }
  Req.Opts.Phase = driver::PhasePolicy::Random;
  Req.Opts.PhaseSeed = Rng::derived(Seed, Round).next();
}

Check runCheck(const Cell &C, uint64_t Seed, unsigned Round, bool Traced) {
  driver::CheckRequest Req = C.Req;
  setPhase(Req, Seed, Round);
  CheckContext Ctx(CellBudgetSeconds);
  if (Traced)
    Ctx.trace().enable();
  driver::Engine Eng;
  Check Out;
  driver::CheckReport R;
  Timer Watch;
  {
    ScopedSpan Span(Ctx.trace(), "bench.check", "bench");
    R = Eng.run(C.Prog, Req, Ctx);
  }
  Out.Seconds = Watch.elapsedSeconds();
  Out.Failed = R.Outcome == driver::Verdict::Unknown;
  Out.Wrong = !Out.Failed && R.unsafe() != C.expectUnsafe();
  Out.Layers.add(Ctx.stats());
  if (Traced)
    Out.Spans = Ctx.trace().snapshot();
  std::fprintf(stderr, "  %-36s round %u  %-7s %8.3fs  conflicts %llu%s\n",
               C.Label.c_str(), Round, driver::verdictName(R.Outcome),
               Out.Seconds,
               static_cast<unsigned long long>(Out.Layers.Conflicts),
               Out.Wrong ? "  WRONG VERDICT" : "");
  return Out;
}

/// Runs rounds [First, First + Count) of every cell; a round that would
/// start after HardStopSeconds is skipped. Returns the rounds run, each
/// in cell order.
std::vector<std::vector<Check>> runRounds(const std::vector<Cell> &Cells,
                                          uint64_t Seed, unsigned First,
                                          unsigned Count, bool Traced) {
  std::vector<std::vector<Check>> Rounds;
  Timer Measure;
  for (unsigned Round = First; Round < First + Count; ++Round) {
    if (Measure.elapsedSeconds() >= HardStopSeconds)
      break;
    Rounds.emplace_back();
    for (const Cell &C : Cells)
      Rounds.back().push_back(runCheck(C, Seed, Round, Traced));
  }
  return Rounds;
}

double roundSeconds(const std::vector<Check> &Round) {
  double S = 0;
  for (const Check &C : Round)
    S += C.Seconds;
  return S;
}

/// Counts every check of the run; cells of skipped rounds count as
/// attempted and failed.
void account(RunResult &R, const std::vector<std::vector<Check>> &Rounds,
             size_t Planned) {
  for (const std::vector<Check> &Round : Rounds)
    for (const Check &C : Round) {
      R.Failed += C.Failed;
      R.Wrong += C.Wrong;
    }
  R.Attempted += Planned;
  if (size_t Ran = Rounds.empty() ? 0 : Rounds.size() * Rounds[0].size();
      Ran < Planned)
    R.Failed += Planned - Ran;
}

RunResult endToEnd(const Args &A, const Workload &W, double SetupSeconds) {
  unsigned Rounds = std::max(
      MinRounds,
      static_cast<unsigned>(std::lround(A.Seconds / W.RoundSeconds)));
  std::vector<std::vector<Check>> Ran =
      runRounds(W.Cells, A.Seed, 0, Rounds, false);
  RunResult R;
  account(R, Ran, size_t(Rounds) * W.Cells.size());
  // Each cell's median over the phase policies: one unlucky solve, or one
  // slow stretch of a shared host, does not move it.
  double MedianSum = 0;
  for (size_t I = 0; I < W.Cells.size(); ++I) {
    std::vector<double> Cell;
    for (const std::vector<Check> &Round : Ran)
      Cell.push_back(Round[I].Seconds);
    MedianSum += median(Cell);
  }
  // The cells differ by an order of magnitude, so percentiles over single
  // checks jump between cells from run to run. The timing metrics are
  // built from the per-cell medians instead (README.md).
  double MeanCell = MedianSum / double(W.Cells.size());
  R.add("setup_s", SetupSeconds, "s");
  R.add("verdict_s_sum", MedianSum, "s");
  R.add("verdict_s_p50", MeanCell, "s");
  R.add("checks_per_s", 1.0 / MeanCell, "1/s");
  R.add("latency_ms_p50", MeanCell * 1e3, "ms");
  // A run has too few cells for any percentile above the median to keep
  // ten samples beyond it, so the tail falls back to the median.
  R.add("latency_ms_p99", MeanCell * 1e3, "ms");
  R.add("peak_rss_mb", peakRssMb(), "MB");
  return R;
}

/// The traced run: the saved-phase round untraced, then traced. Its
/// counters are the same on every run.
RunResult perLayer(const Args &A, const Workload &W, double ParseSeconds) {
  double Untraced = roundSeconds(runRounds(W.Cells, A.Seed, 0, 1, false)[0]);
  std::vector<std::vector<Check>> Rounds =
      runRounds(W.Cells, A.Seed, 0, 1, true);
  RunResult R;
  account(R, Rounds, W.Cells.size());
  LayerTotals Layers;
  // Each check has a recorder (and a time origin) of its own.
  std::map<std::string, double> Self;
  for (const Check &C : Rounds[0]) {
    Layers.add(C.Layers);
    for (const auto &[Name, Seconds] : selfSecondsByName(C.Spans))
      Self[Name] += Seconds;
  }
  double Traced = roundSeconds(Rounds[0]);
  addLayerMetrics(R, Layers, Traced);
  addSpanMetrics(R, Self);
  R.add("trace.overhead_frac", (Traced - Untraced) / Untraced, "ratio");
  R.add("ir.parse_seconds", ParseSeconds, "s");
  return R;
}

/// Set-up: build and parse every cell, then one warm-up check of the
/// smallest Table 1 cell so allocator and code paths are warm before
/// the first timed check. False when a program fails to build or parse.
bool setUp(Workload &W, double &ParseSeconds) {
  if (!buildPrograms(W.Cells, ParseSeconds))
    return false;
  std::vector<Cell> WarmUp = {
      makeCell("sim_dekker_0", driver::EngineMode::Single, 2, 2, 1)};
  double Ignored = 0;
  if (!buildPrograms(WarmUp, Ignored))
    return false;
  return !runCheck(WarmUp[0], 0, 0, false).Failed;
}

} // namespace

bool isProtocolWorkload(const std::string &Name) {
  return Name == "bug-hunt" || Name == "safe-proof";
}

RunResult runProtocolWorkload(const Args &A) {
  Workload W = workloadOf(A.Workload);
  std::vector<double> SetupTimes, ParseTimes;
  for (unsigned Rep = 0; Rep < SetupReps; ++Rep) {
    Timer Setup;
    double Parse = 0;
    if (!setUp(W, Parse)) {
      RunResult Broken;
      Broken.Attempted = Broken.Failed = 1;
      return Broken;
    }
    SetupTimes.push_back(Setup.elapsedSeconds());
    ParseTimes.push_back(Parse);
  }
  return A.Trace ? perLayer(A, W, median(ParseTimes))
                 : endToEnd(A, W, median(SetupTimes));
}

std::string protocolFingerprint(const std::string &WorkloadName,
                                uint64_t Seed) {
  Workload W = workloadOf(WorkloadName);
  double Parse = 0;
  if (!buildPrograms(W.Cells, Parse))
    return "build failed";
  W.Cells.resize(std::min<size_t>(W.Cells.size(), 2));
  std::vector<std::vector<Check>> Rounds =
      runRounds(W.Cells, Seed, 0, 2, false);
  std::string Print;
  for (size_t Round = 0; Round < Rounds.size(); ++Round)
    for (size_t I = 0; I < W.Cells.size(); ++I) {
      const LayerTotals &L = Rounds[Round][I].Layers;
      Print += W.Cells[I].Label + " round " + std::to_string(Round) +
               ": conflicts " + std::to_string(L.Conflicts) +
               " propagations " + std::to_string(L.Propagations) + " aig " +
               std::to_string(L.AigNodes) + " out_vars " +
               std::to_string(L.OutVars) + "\n";
    }
  return Print;
}

} // namespace perfbench
