//===- perfbench/verdict_bench.cpp - Wall time per refinement verdict -----===//
//
// Part of the intptrcast project: an executable reproduction of the
// quasi-concrete C memory model (Kang et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//
//
// The verdict benchmark's main program. It makes the calls qcm-check makes —
// source text -> Vm::compile -> checkRefinement — for every request of one
// workload's corpus, as a closed loop with one client, and checks every
// verdict against its known answer.
//
//   verdict_bench --workload paper_grid|idiom_sweep|pooled_grid
//                 --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// A round runs each request once, in corpus order, after one warm-up round;
// pooled_grid alternates jobs=2 and jobs=1 rounds. Every timing comes from
// the run's fastest tenth of rounds (bench/JsonBench.h's bestSeconds rule,
// widened so p90 has samples). --trace 0 reports the end-to-end metrics;
// --trace 1 spends half the time on untraced rounds and half on the traced
// replay (Replay.h) and reports the per-layer metrics. The last stdout line
// is one JSON object: {"correct","attempted","failed","metrics"}; the line
// before it records the seed, the sample counts and the slow-phase ratio.
//
//===----------------------------------------------------------------------===//

#include "Corpus.h"
#include "Replay.h"

#include "core/Vm.h"
#include "ir/Compile.h"
#include "support/Profiler.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <stdexcept>

using namespace qcm;
using namespace perfbench;

namespace {

struct Options {
  WorkloadKind Kind = WorkloadKind::PaperGrid;
  uint64_t Seed = 0;
  double Seconds = 0;
  bool Trace = false;
  std::string TraceOut;
};

std::optional<Options> parseArgs(int Argc, char **Argv) {
  Options O;
  bool HaveWorkload = false, HaveSeed = false, HaveSeconds = false;
  for (int I = 1; I + 1 < Argc; I += 2) {
    const std::string Key = Argv[I], Value = Argv[I + 1];
    char *End = nullptr;
    if (Key == "--workload") {
      std::optional<WorkloadKind> K = parseWorkload(Value);
      if (!K)
        return std::nullopt;
      O.Kind = *K;
      HaveWorkload = true;
    } else if (Key == "--seed") {
      O.Seed = std::strtoull(Value.c_str(), &End, 10);
      HaveSeed = End && *End == '\0' && !Value.empty();
    } else if (Key == "--seconds") {
      O.Seconds = std::strtod(Value.c_str(), &End);
      HaveSeconds = End && *End == '\0' && O.Seconds > 0 && O.Seconds <= 120;
    } else if (Key == "--trace") {
      if (Value != "0" && Value != "1")
        return std::nullopt;
      O.Trace = Value == "1";
    } else if (Key == "--trace-out") {
      O.TraceOut = Value;
    } else {
      return std::nullopt;
    }
  }
  if (Argc % 2 == 0 || !HaveWorkload || !HaveSeed || !HaveSeconds)
    return std::nullopt;
  return O;
}

/// Process CPU time, all threads (exited pool workers included).
int64_t cpuNs() {
  timespec T{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &T);
  return static_cast<int64_t>(T.tv_sec) * 1'000'000'000 + T.tv_nsec;
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  const size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// The fastest tenth (at least \p Min) of \p V, ascending.
std::vector<double> fastestTenth(std::vector<double> V, size_t Min = 1) {
  std::sort(V.begin(), V.end());
  const size_t K = std::min(
      V.size(), std::max(Min, (V.size() + 9) / 10));
  V.resize(K);
  return V;
}

/// Set-up: build the seeded corpus and its known answers, then parse,
/// type-check and compile every program once.
Corpus setUp(WorkloadKind Kind, uint64_t Seed) {
  Corpus C = buildCorpus(Kind, Seed);
  Vm V;
  for (const Request &R : C.Requests)
    for (const std::string *Text : {&R.SrcText, &R.TgtText}) {
      std::optional<Program> P = V.compile(*Text);
      if (!P)
        throw std::runtime_error(R.Name + " does not compile:\n" +
                                 V.lastDiagnostics());
      qir::compileProgram(*P);
    }
  return C;
}

/// What checkRefinement said about one request in the warm-up round; every
/// later verdict and every traced replay must agree with it.
struct Reference {
  bool Refines = false;
  uint64_t RunsPerformed = 0;
  uint64_t InjectedRuns = 0;
  std::string StatsJson;
  /// pooled_grid: the jobs=1 report text, which jobs=2 must reproduce.
  std::string Text;
};

/// One round: every request once, at one jobs level.
struct Round {
  unsigned Jobs = 1;
  /// Sum of the verdict times (traced: request spans net of the shadow
  /// compile), so the benchmark's own checking stays off the clock.
  double WallNs = 0;
  double CpuNs = 0;
  std::vector<double> VerdictNs;
  /// Library pool metrics of the round's verdicts (untraced rounds).
  double MergeWaitUs = 0;
  double BusyUs = 0;
  std::vector<uint64_t> SlotItems;
  /// Traced rounds only.
  bool Traced = false;
  LayerTimes Layers;
  ReplayCounts Counts;
};

class Bench {
public:
  explicit Bench(Corpus C) : C(std::move(C)) {}

  uint64_t attempted() const { return Attempted; }
  uint64_t failed() const { return Failed; }
  const std::vector<std::string> &failures() const { return Failures; }
  const Corpus &corpus() const { return C; }

  /// The warm-up round(s): fixes the references every later verdict is
  /// checked against. pooled_grid warms up jobs=1 first (its reference
  /// text), then jobs=2.
  void warmUp() {
    Refs.resize(C.Requests.size());
    runRound(1, /*Capture=*/true);
    if (C.Jobs > 1)
      runRound(C.Jobs);
    WorkerItems.assign(C.Jobs, 0);
  }

  Round runRound(unsigned Jobs, bool Capture = false) {
    Round Rd;
    Rd.Jobs = Jobs;
    Rd.SlotItems.assign(Jobs, 0);
    for (size_t I = 0; I < C.Requests.size(); ++I) {
      const Request &R = C.Requests[I];
      RefinementReport Report;
      std::string Failure;
      const int64_t Wall0 = SpanLog::now(), Cpu0 = cpuNs();
      try {
        Vm V;
        std::optional<Program> Src = V.compile(R.SrcText);
        std::optional<Program> Tgt = V.compile(R.TgtText);
        if (Src && Tgt)
          Report = checkRefinement(makeJob(R, *Src, *Tgt, Jobs));
        else
          Failure = "does not compile";
      } catch (const std::exception &E) {
        Failure = std::string("exception: ") + E.what();
      }
      const double WallNs = static_cast<double>(SpanLog::now() - Wall0);
      const double CpuNs = static_cast<double>(cpuNs() - Cpu0);
      Rd.WallNs += WallNs;
      Rd.CpuNs += CpuNs;
      Rd.VerdictNs.push_back(WallNs);
      Rd.MergeWaitUs += static_cast<double>(Report.Pool.MergeWaitUs);
      // The pool concatenates one row per worker per exploration phase, so
      // row K belongs to worker slot K mod Jobs.
      for (size_t K = 0; K < Report.Pool.Workers.size(); ++K) {
        Rd.BusyUs += static_cast<double>(Report.Pool.Workers[K].BusyUs);
        Rd.SlotItems[K % Jobs] += Report.Pool.Workers[K].Items;
      }
      if (Capture && Failure.empty()) {
        Reference &Ref = Refs[I];
        Ref.Refines = Report.Refines;
        Ref.RunsPerformed = Report.RunsPerformed;
        Ref.InjectedRuns = Report.InjectedRuns;
        Ref.StatsJson = Report.AggregateStats.toJson();
        if (C.Kind == WorkloadKind::PooledGrid)
          Ref.Text = Report.toString();
      }
      if (Failure.empty())
        Failure = check(I, Jobs, Report, WallNs);
      note(R, Jobs, Failure);
    }
    if (Jobs == C.Jobs && !WorkerItems.empty())
      for (unsigned S = 0; S < Jobs; ++S)
        WorkerItems[S] += Rd.SlotItems[S];
    return Rd;
  }

  Round runTracedRound(unsigned Jobs, SpanLog &Log) {
    Round Rd;
    Rd.Jobs = Jobs;
    Rd.Traced = true;
    Log.clear();
    for (size_t I = 0; I < C.Requests.size(); ++I) {
      const Request &R = C.Requests[I];
      std::string Failure;
      try {
        ReplayVerdict V = replayRequest(R, Jobs, static_cast<uint32_t>(I),
                                        Log, Rd.Counts);
        const Reference &Ref = Refs[I];
        if (V.Refines != Ref.Refines || V.RunsPerformed != Ref.RunsPerformed ||
            V.InjectedRuns != Ref.InjectedRuns ||
            V.Stats.toJson() != Ref.StatsJson)
          Failure = "replay differs from checkRefinement";
        else if (V.Refines != R.ExpectRefines)
          Failure = "wrong verdict";
      } catch (const std::exception &E) {
        Failure = std::string("exception: ") + E.what();
      }
      note(R, Jobs, Failure);
    }
    Rd.Layers = LayerTimes::of(Log);
    Rd.WallNs = Rd.Layers.RequestNs;
    return Rd;
  }

  /// Guard over the run as a whole: on pooled_grid both workers claimed
  /// items at jobs=2.
  std::string runGuard() const {
    for (size_t S = 0; S < WorkerItems.size(); ++S)
      if (WorkerItems[S] == 0)
        return "pool worker " + std::to_string(S) + " never claimed an item";
    return "";
  }

  const std::vector<uint64_t> &workerItems() const { return WorkerItems; }

private:
  /// Known answer and the guards that the workload measures what its name
  /// says. Returns the failure, or "".
  std::string check(size_t I, unsigned Jobs, const RefinementReport &Report,
                    double WallNs) const {
    const Request &R = C.Requests[I];
    if (Report.Refines != R.ExpectRefines)
      return std::string("wrong verdict: expected ") +
             (R.ExpectRefines ? "refines" : "fails") + " because " + R.Why;
    if (Report.TimedOutRuns || WallNs > 10e9)
      return "timed out";
    if (Report.QuarantinedCells || Report.CrashedRuns)
      return "crashed cells";
    if (Report.Pool.Jobs != Jobs)
      return "pool ran at jobs=" + std::to_string(Report.Pool.Jobs) +
             ", expected " + std::to_string(Jobs);
    if (R.Sweep) {
      if (!Report.SweepRan || Report.InjectedRuns == 0)
        return "sweep injected nothing";
      for (const ContextReport &CR : Report.PerContext)
        if (CR.SweepCapped)
          return "sweep cell hit the probe cap";
    }
    const Reference &Ref = Refs[I];
    if (Report.RunsPerformed != Ref.RunsPerformed ||
        Report.InjectedRuns != Ref.InjectedRuns ||
        Report.AggregateStats.toJson() != Ref.StatsJson)
      return "counters differ from the warm-up round";
    if (!Ref.Text.empty() && Report.toString() != Ref.Text)
      return "report text differs from the jobs=1 report";
    return "";
  }

  void note(const Request &R, unsigned Jobs, const std::string &Failure) {
    ++Attempted;
    if (Failure.empty())
      return;
    ++Failed;
    if (Failures.size() < 8)
      Failures.push_back(R.Name + " (jobs=" + std::to_string(Jobs) +
                         "): " + Failure);
  }

  Corpus C;
  std::vector<Reference> Refs;
  std::vector<uint64_t> WorkerItems;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Failures;
};

/// {"name": {"value": v, "unit": u}, ...}
class Metrics {
public:
  void add(const std::string &Name, double Value, const char *Unit) {
    if (!std::isfinite(Value))
      Value = 0;
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g", Value);
    Body += (Body.empty() ? "" : ", ") + std::string("\"") + Name +
            "\": {\"value\": " + Buf + ", \"unit\": \"" + Unit + "\"}";
  }
  std::string str() const { return "{" + Body + "}"; }

private:
  std::string Body;
};

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char Ch : S) {
    if (Ch == '"' || Ch == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(Ch) < 0x20)
      Out += ' ';
    else
      Out += Ch;
  }
  return Out + "\"";
}

/// Rounds at \p Jobs, traced or not, and their fastest tenth by round time.
struct Sample {
  std::vector<const Round *> All;
  std::vector<const Round *> Fastest;

  Sample(const std::vector<Round> &Rounds, unsigned Jobs, bool Traced) {
    for (const Round &R : Rounds)
      if (R.Jobs == Jobs && R.Traced == Traced)
        All.push_back(&R);
    Fastest = All;
    std::sort(Fastest.begin(), Fastest.end(),
              [](const Round *A, const Round *B) {
                return A->WallNs < B->WallNs;
              });
    Fastest.resize(std::min(Fastest.size(), (All.size() + 9) / 10));
  }

  double medianFastestNs() const {
    std::vector<double> W;
    for (const Round *R : Fastest)
      W.push_back(R->WallNs);
    return median(W);
  }
  double medianAllNs() const {
    std::vector<double> W;
    for (const Round *R : All)
      W.push_back(R->WallNs);
    return median(W);
  }
};

/// jobs=1 round time / the adjacent jobs=2 round time, median over pairs
/// (pooled_grid alternates jobs=2, jobs=1).
double poolSpeedup(const std::vector<Round> &Rounds, unsigned Jobs) {
  if (Jobs == 1)
    return 1;
  std::vector<double> Ratios;
  for (size_t I = 0; I + 1 < Rounds.size(); ++I)
    if (!Rounds[I].Traced && Rounds[I].Jobs == Jobs &&
        !Rounds[I + 1].Traced && Rounds[I + 1].Jobs == 1 &&
        Rounds[I].WallNs > 0)
      Ratios.push_back(Rounds[I + 1].WallNs / Rounds[I].WallNs);
  return median(Ratios);
}

} // namespace

int main(int Argc, char **Argv) {
  std::optional<Options> Opts = parseArgs(Argc, Argv);
  if (!Opts) {
    std::fprintf(stderr,
                 "usage: verdict_bench --workload paper_grid|idiom_sweep|"
                 "pooled_grid --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE]\n");
    return 2;
  }
  const Options &O = *Opts;

  // Set-up. setup_s is the median of the fastest tenth of many set-ups:
  // this first one, then one every 100 ms of the measured rounds, so that
  // the samples span the run's fast and slow host phases alike.
  std::vector<double> SetupNs;
  auto TimedSetUp = [&] {
    const int64_t T0 = SpanLog::now();
    Corpus Built = setUp(O.Kind, O.Seed);
    SetupNs.push_back(static_cast<double>(SpanLog::now() - T0));
    return Built;
  };
  std::optional<Bench> Made;
  try {
    Made.emplace(TimedSetUp());
  } catch (const std::exception &E) {
    std::fprintf(stderr, "set-up failed: %s\n", E.what());
    return 1;
  }
  Bench &B = *Made;
  const Corpus &C = B.corpus();
  const size_t V = C.Requests.size();
  const unsigned Jobs = C.Jobs;

  B.warmUp();
  // Every request has now run once at every jobs level. peak_rss_mb is read
  // here: later growth is the benchmark's own per-round records, whose size
  // follows the round count, i.e. the speed of the code under test.
  const double PeakRssMb =
      static_cast<double>(prof::peakRssBytes()) / (1024.0 * 1024.0);

  // A closed loop with one client. pooled_grid alternates jobs=2 and
  // jobs=1 rounds on the same grids; only the jobs=2 rounds are reported.
  std::vector<Round> Rounds;
  SpanLog Log, FastestLog;
  double FastestTraced = 0;
  auto Measure = [&](double Seconds, bool Traced) {
    const int64_t Start = SpanLog::now();
    const int64_t End = Start + static_cast<int64_t>(Seconds * 1e9);
    // An end-to-end run keeps going past the deadline (up to twice it) until
    // the fastest tenth holds 100 verdicts, so p90 has ten beyond it.
    const int64_t Hard =
        Start + static_cast<int64_t>((O.Trace ? 1 : 2) * Seconds * 1e9);
    const std::vector<unsigned> Levels =
        Jobs > 1 ? std::vector<unsigned>{Jobs, 1} : std::vector<unsigned>{1};
    int64_t LastSetUp = Start;
    for (size_t Primary = 0;; ++Primary) {
      const int64_t Now = SpanLog::now();
      if (Now >= Hard || (Now >= End && ((Primary + 9) / 10) * V >= 100))
        break;
      if (!Traced && Now - LastSetUp >= 100'000'000) {
        TimedSetUp();
        LastSetUp = Now;
      }
      for (unsigned J : Levels) {
        if (!Traced) {
          Rounds.push_back(B.runRound(J));
          continue;
        }
        Rounds.push_back(B.runTracedRound(J, Log));
        if (J == Jobs &&
            (FastestTraced == 0 || Rounds.back().WallNs < FastestTraced)) {
          FastestTraced = Rounds.back().WallNs;
          std::swap(Log, FastestLog);
        }
      }
    }
  };

  Metrics M;
  std::string Detail = "{\"workload\": " + jsonString(workloadName(O.Kind)) +
                       ", \"seed\": " + std::to_string(O.Seed) +
                       ", \"mode\": " +
                       jsonString(O.Trace ? "per_layer" : "end_to_end") +
                       ", \"jobs\": " + std::to_string(Jobs) +
                       ", \"requests\": " + std::to_string(V);
  if (!O.Trace) {
    Measure(O.Seconds, false);
    const Sample S(Rounds, Jobs, false);
    std::vector<double> Verdicts;
    double CpuNs = 0;
    for (const Round *R : S.Fastest) {
      Verdicts.insert(Verdicts.end(), R->VerdictNs.begin(),
                      R->VerdictNs.end());
      CpuNs += R->CpuNs;
    }
    std::sort(Verdicts.begin(), Verdicts.end());
    const size_t N = Verdicts.size();
    const size_t P90Rank = static_cast<size_t>(std::ceil(0.9 * N));
    const double P90 = N ? Verdicts[std::max<size_t>(P90Rank, 1) - 1] : 0;
    const double RoundNs = S.medianFastestNs();
    M.add("verdicts_per_s", RoundNs > 0 ? V / (RoundNs / 1e9) : 0, "1/s");
    M.add("verdict_ms_p50", median(Verdicts) / 1e6, "ms");
    M.add("verdict_ms_p90", P90 / 1e6, "ms");
    M.add("cpu_ms_per_verdict", N ? CpuNs / N / 1e6 : 0, "ms");
    M.add("setup_s", median(fastestTenth(SetupNs, 3)) / 1e9, "s");
    M.add("peak_rss_mb", PeakRssMb, "MB");
    Detail += ", \"rounds\": " + std::to_string(S.All.size()) +
              ", \"sampled_rounds\": " + std::to_string(S.Fastest.size()) +
              ", \"sampled_verdicts\": " + std::to_string(N) +
              ", \"beyond_p90\": " + std::to_string(N - P90Rank) +
              ", \"slow_phase_ratio\": " +
              std::to_string(RoundNs > 0 ? S.medianAllNs() / RoundNs : 0) +
              ", \"setup_samples\": " + std::to_string(SetupNs.size()) +
              ", \"peak_rss_end_mb\": " +
              std::to_string(static_cast<double>(prof::peakRssBytes()) /
                             (1024.0 * 1024.0));
    // Each request's median over the sampled rounds, for reading the corpus.
    for (size_t I = 0; I < V; ++I) {
      std::vector<double> T;
      for (const Round *R : S.Fastest)
        T.push_back(R->VerdictNs[I]);
      std::fprintf(stderr, "%-36s %-8s %10.1f us\n",
                   C.Requests[I].Name.c_str(),
                   C.Requests[I].ExpectRefines ? "refines" : "fails",
                   median(T) / 1e3);
    }
    if (Jobs > 1) {
      Detail += ", \"pool_speedup\": " +
                std::to_string(poolSpeedup(Rounds, Jobs)) +
                ", \"worker_items\": [";
      for (size_t K = 0; K < B.workerItems().size(); ++K)
        Detail += (K ? ", " : "") + std::to_string(B.workerItems()[K]);
      Detail += "]";
    }
  } else {
    // Half untraced (the reference for trace_overhead and the pool's own
    // metrics), half traced replay.
    Measure(O.Seconds / 2, false);
    Measure(O.Seconds / 2, true);
    const Sample Untraced(Rounds, Jobs, false);
    const Sample Primary(Rounds, Jobs, true);
    const Sample Serial(Rounds, 1, true);
    LayerTimes L, LS;
    ReplayCounts K, KS;
    for (const Round *R : Primary.Fastest) {
      L.accumulate(R->Layers);
      K.accumulate(R->Counts);
    }
    for (const Round *R : Serial.Fastest) {
      LS.accumulate(R->Layers);
      KS.accumulate(R->Counts);
    }
    auto Us = [](double Ns, uint64_t Per) { return Per ? Ns / 1e3 / Per : 0; };
    auto Per = [](uint64_t X, uint64_t N) {
      return N ? static_cast<double>(X) / N : 0;
    };
    auto Self = [](const LayerTimes &T, Layer L) {
      return T.SelfNs[static_cast<size_t>(L)];
    };
    const uint64_t N = K.Verdicts, NS = KS.Verdicts;
    M.add("lang.parse_us", Us(Self(L, Layer::Parse), N), "us");
    M.add("lang.typecheck_us", Us(Self(L, Layer::TypeCheck), N), "us");
    M.add("ir.compile_us", Us(Self(L, Layer::Compile), N), "us");
    M.add("ir.compiles", Per(K.Compiles, N), "count");
    M.add("refinement.plan_us",
          Us(Self(L, Layer::Plan) - Self(L, Layer::Compile), N), "us");
    M.add("refinement.cells", Per(K.Cells, N), "count");
    M.add("refinement.explore_us", Us(Self(L, Layer::Explore), N), "us");
    M.add("refinement.sweep_us", Us(L.SweepInclusiveNs, N), "us");
    M.add("refinement.probe_us", Us(Self(L, Layer::Probe), N), "us");
    M.add("refinement.sweep_probes", Per(K.SweepProbes, N), "count");
    M.add("refinement.compare_us", Us(Self(L, Layer::Compare), N), "us");

    // The pool's own metrics, from the untraced rounds' reports.
    double MergeWaitUs = 0, BusyUs = 0;
    std::vector<uint64_t> Items(Jobs, 0);
    for (const Round *R : Untraced.Fastest) {
      MergeWaitUs += R->MergeWaitUs;
      BusyUs += R->BusyUs;
      for (unsigned S = 0; S < Jobs; ++S)
        Items[S] += R->SlotItems[S];
    }
    const uint64_t UN = Untraced.Fastest.size() * V;
    uint64_t TotalItems = 0, MaxItems = 0, Used = 0;
    for (uint64_t X : Items) {
      TotalItems += X;
      MaxItems = std::max(MaxItems, X);
      Used += X ? 1 : 0;
    }
    M.add("refinement.pool.merge_wait_us", UN ? MergeWaitUs / UN : 0, "us");
    M.add("refinement.pool.busy_us", UN ? BusyUs / UN : 0, "us");
    M.add("refinement.pool.workers_used", static_cast<double>(Used), "count");
    M.add("refinement.pool.max_worker_share", Per(MaxItems, TotalItems),
          "ratio");
    M.add("refinement.pool.speedup", poolSpeedup(Rounds, Jobs), "ratio");

    M.add("semantics.exec_us", Us(Self(LS, Layer::Exec), NS), "us");
    M.add("semantics.steps", Per(KS.Steps, NS), "count");
    M.add("semantics.ns_per_step",
          KS.Steps ? Self(LS, Layer::Exec) / KS.Steps : 0, "ns");
    M.add("semantics.probe_ns_per_step",
          KS.ProbeSteps ? Self(LS, Layer::Probe) / KS.ProbeSteps : 0, "ns");
    M.add("semantics.threaded_share.grid", Per(KS.GridThreaded, KS.GridRuns),
          "ratio");
    M.add("semantics.threaded_share.sweep",
          Per(KS.ProbeThreaded, KS.ProbeRuns), "ratio");
    M.add("memory.ops", Per(K.MemOps, N), "count");
    M.add("memory.realizations", Per(K.Realizations, N), "count");
    M.add("memory.injected", Per(K.Injected, N), "count");
    M.add("unattributed_us", Us(Self(L, Layer::Request), N), "us");
    M.add("traced_verdict_us", Us(L.RequestNs, N), "us");
    const double UntracedNs = Untraced.medianFastestNs();
    M.add("trace_overhead",
          UntracedNs > 0 ? Primary.medianFastestNs() / UntracedNs : 0,
          "ratio");
    Detail += ", \"untraced_rounds\": " + std::to_string(Untraced.All.size()) +
              ", \"traced_rounds\": " + std::to_string(Primary.All.size()) +
              ", \"sampled_traced_rounds\": " +
              std::to_string(Primary.Fastest.size()) +
              ", \"slow_phase_ratio\": " +
              std::to_string(Primary.medianFastestNs() > 0
                                 ? Primary.medianAllNs() /
                                       Primary.medianFastestNs()
                                 : 0);
    if (!O.TraceOut.empty()) {
      std::ofstream Out(O.TraceOut);
      Out << FastestLog.toJsonLines();
      if (!Out)
        std::fprintf(stderr, "cannot write %s\n", O.TraceOut.c_str());
    }
  }

  const std::string Guard = B.runGuard();
  const bool Correct = B.failed() == 0 && Guard.empty();
  Detail += ", \"guard\": " + jsonString(Guard.empty() ? "ok" : Guard) +
            ", \"failures\": [";
  for (size_t K = 0; K < B.failures().size(); ++K)
    Detail += (K ? ", " : "") + jsonString(B.failures()[K]);
  Detail += "]}";
  std::printf("%s\n", Detail.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(B.attempted()),
              static_cast<unsigned long long>(B.failed() + (Guard.empty() ? 0 : 1)),
              M.str().c_str());
  return 0;
}
