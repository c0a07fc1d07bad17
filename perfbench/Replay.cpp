//===- perfbench/Replay.cpp -----------------------------------------------===//

#include "Replay.h"

#include "ir/Compile.h"
#include "lang/Parser.h"
#include "lang/TypeCheck.h"

#include <chrono>
#include <stdexcept>

using namespace qcm;
using namespace perfbench;

namespace {

/// RAII open/close of one span.
class ScopedSpan {
public:
  ScopedSpan(SpanLog &Log, Layer Kind, uint32_t RequestId)
      : Log(Log), Id(Log.open(Kind, RequestId)) {}
  ~ScopedSpan() { Log.close(Id); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  SpanLog &Log;
  uint32_t Id;
};

} // namespace

const char *perfbench::layerName(Layer L) {
  switch (L) {
  case Layer::Request:
    return "request";
  case Layer::Parse:
    return "lang.parse";
  case Layer::TypeCheck:
    return "lang.typecheck";
  case Layer::Plan:
    return "refinement.plan";
  case Layer::Compile:
    return "ir.compile";
  case Layer::Explore:
    return "refinement.explore";
  case Layer::Exec:
    return "semantics.exec";
  case Layer::Compare:
    return "refinement.compare";
  case Layer::Sweep:
    return "refinement.sweep";
  case Layer::Probe:
    return "refinement.probe";
  }
  return "?";
}

int64_t SpanLog::now() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint32_t SpanLog::open(Layer Kind, uint32_t RequestId) {
  const uint32_t Id = static_cast<uint32_t>(Spans.size());
  Spans.push_back({Kind, Stack.empty() ? NoParent : Stack.back(), RequestId,
                   now(), 0});
  Stack.push_back(Id);
  return Id;
}

void SpanLog::close(uint32_t Id) {
  Spans[Id].EndNs = now();
  Stack.pop_back();
}

void SpanLog::leaf(Layer Kind, uint32_t RequestId, int64_t StartNs,
                   int64_t EndNs) {
  Spans.push_back({Kind, Stack.empty() ? NoParent : Stack.back(), RequestId,
                   StartNs, EndNs});
}

void SpanLog::clear() {
  Spans.clear();
  Stack.clear();
}

std::string SpanLog::toJsonLines() const {
  std::string Text;
  for (const SpanRecord &S : Spans) {
    Text += "{\"name\":\"";
    Text += layerName(S.Kind);
    Text += "\",\"start_ns\":" + std::to_string(S.StartNs) +
            ",\"end_ns\":" + std::to_string(S.EndNs) + ",\"parent\":" +
            (S.Parent == NoParent ? std::string("null")
                                  : std::to_string(S.Parent)) +
            ",\"request\":" + std::to_string(S.RequestId) + "}\n";
  }
  return Text;
}

LayerTimes LayerTimes::of(const SpanLog &Log) {
  const std::vector<SpanRecord> &Spans = Log.spans();
  std::vector<int64_t> ChildNs(Spans.size(), 0);
  std::vector<int64_t> ShadowNs(Spans.size(), 0);
  for (const SpanRecord &S : Spans) {
    if (S.Parent == SpanLog::NoParent)
      continue;
    ChildNs[S.Parent] += S.EndNs - S.StartNs;
    if (S.Kind == Layer::Compile)
      ShadowNs[S.Parent] += S.EndNs - S.StartNs;
  }
  LayerTimes T;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const SpanRecord &S = Spans[I];
    const int64_t Duration = S.EndNs - S.StartNs;
    T.SelfNs[static_cast<size_t>(S.Kind)] += Duration - ChildNs[I];
    if (S.Kind == Layer::Sweep)
      T.SweepInclusiveNs += Duration;
    if (S.Kind == Layer::Request)
      T.RequestNs += Duration - ShadowNs[I];
  }
  return T;
}

void LayerTimes::accumulate(const LayerTimes &Other) {
  for (size_t L = 0; L < NumLayers; ++L)
    SelfNs[L] += Other.SelfNs[L];
  SweepInclusiveNs += Other.SweepInclusiveNs;
  RequestNs += Other.RequestNs;
}

void ReplayCounts::accumulate(const ReplayCounts &Other) {
  Verdicts += Other.Verdicts;
  Compiles += Other.Compiles;
  Cells += Other.Cells;
  SweepProbes += Other.SweepProbes;
  Injected += Other.Injected;
  GridRuns += Other.GridRuns;
  GridThreaded += Other.GridThreaded;
  ProbeRuns += Other.ProbeRuns;
  ProbeThreaded += Other.ProbeThreaded;
  Steps += Other.Steps;
  ProbeSteps += Other.ProbeSteps;
  MemOps += Other.MemOps;
  Realizations += Other.Realizations;
}

ReplayVerdict perfbench::replayRequest(const Request &R, unsigned Jobs,
                                       uint32_t Id, SpanLog &Log,
                                       ReplayCounts &Counts) {
  ScopedSpan Whole(Log, Layer::Request, Id);
  DiagnosticEngine Diags;
  auto Frontend = [&](const std::string &Text) {
    std::optional<Program> P;
    {
      ScopedSpan S(Log, Layer::Parse, Id);
      P = parseProgram(Text, Diags);
    }
    if (P) {
      ScopedSpan S(Log, Layer::TypeCheck, Id);
      if (!typeCheck(*P, Diags))
        P.reset();
    }
    return P;
  };
  std::optional<Program> Src = Frontend(R.SrcText);
  std::optional<Program> Tgt = Frontend(R.TgtText);
  if (!Src || !Tgt)
    throw std::runtime_error(R.Name + " does not compile: " +
                             Diags.toString());
  const RefinementJob Job = makeJob(R, *Src, *Tgt, Jobs);

  const uint64_t CompilesBefore = qir::compilationsPerformed();
  const uint32_t PlanSpan = Log.open(Layer::Plan, Id);
  GridSchedule G = planRefinementGrid(Job);
  Log.close(PlanSpan);
  Counts.Compiles += qir::compilationsPerformed() - CompilesBefore;
  Counts.Cells += G.Plan.Items.size();
  {
    // The plan compiled these inside one call; compiling them again is how
    // the replay times the ir layer on its own.
    ScopedSpan S(Log, Layer::Compile, Id);
    for (const GridSchedule::ContextSlot &Slot : G.PerContext) {
      if (!Slot.SrcModule)
        continue;
      qir::compileProgram(Slot.SrcInst ? *Slot.SrcInst : *Job.Src);
      qir::compileProgram(Slot.TgtInst ? *Slot.TgtInst : *Job.Tgt);
    }
  }

  ReplayVerdict V;
  for (const GridSchedule::ContextSlot &Slot : G.PerContext)
    if (!Slot.Report.InstantiationError.empty())
      V.Refines = false;

  // checkRefinement's grid merge, in plan order on this thread.
  auto Merge = [&](size_t I, RunResult &Res) {
    const GridSchedule::Origin &Origin = G.Origins[I];
    ContextReport &W = G.PerContext[Origin.ContextIdx].Report;
    V.Stats.accumulate(Res.Stats);
    ++Counts.GridRuns;
    Counts.GridThreaded += Res.Dispatch.empty() ? 0 : 1;
    Counts.Steps += Res.Steps;
    ScopedSpan S(Log, Layer::Compare, Id);
    (Origin.IsTgt ? W.TgtBehaviors : W.SrcBehaviors).insert(
        std::move(Res.Behav));
  };
  {
    ScopedSpan S(Log, Layer::Explore, Id);
    if (Jobs == 1) {
      ExecState Exec;
      for (size_t I = 0; I < G.Plan.Items.size(); ++I) {
        RunResult Res;
        {
          ScopedSpan Run(Log, Layer::Exec, Id);
          const ExplorationItem &Item = G.Plan.Items[I];
          RunConfig Config = Item.Config;
          if (Item.MakeHandlers)
            Config.Handlers = Item.MakeHandlers();
          Res = Exec.run(Item.Module, Config);
        }
        Merge(I, Res);
      }
    } else {
      explorePlan(G.Plan, Job.Exec, [&](size_t I, RunResult &Res) {
        Merge(I, Res);
        return ExploreStep::Continue;
      });
    }
  }
  V.RunsPerformed = G.Plan.Items.size();

  for (GridSchedule::ContextSlot &Slot : G.PerContext) {
    if (!Slot.SrcModule)
      continue;
    ScopedSpan S(Log, Layer::Compare, Id);
    if (!behaviorsIncluded(Slot.Report.TgtBehaviors, Slot.Report.SrcBehaviors))
      V.Refines = false;
  }

  if (Job.ExhaustionSweep) {
    ScopedSpan S(Log, Layer::Sweep, Id);
    ExecState Exec;
    for (const SweepCell &Cell : G.SweepCells) {
      ContextReport &W = G.PerContext[Cell.CtxIdx].Report;
      std::vector<Behavior> Fired;
      int64_t Mark = SpanLog::now();
      SweepProbeSummary Sum = runSweepCellProbes(
          Cell, Exec, Job.SweepMaxPointsPerCell,
          [&](uint64_t, RunResult &Probe) {
            Log.leaf(Layer::Probe, Id, Mark, SpanLog::now());
            V.Stats.accumulate(Probe.Stats);
            ++Counts.ProbeRuns;
            Counts.ProbeThreaded += Probe.Dispatch.empty() ? 0 : 1;
            Counts.ProbeSteps += Probe.Steps;
            if (sweepProbeFired(Probe))
              Fired.push_back(std::move(Probe.Behav));
            Mark = SpanLog::now();
          });
      V.InjectedRuns += Sum.Probes;
      Counts.SweepProbes += Sum.Probes;
      Counts.Injected += Fired.size();
      // The strict Section 2.3 merge: source partials first, in cell order.
      for (Behavior &B : Fired) {
        ScopedSpan C(Log, Layer::Compare, Id);
        if (Cell.IsTgt && !partialAdmittedStrict(B, W.SrcInjectedPartials) &&
            !partialAdmittedStrict(B, W.SrcBehaviors))
          V.Refines = false;
        (Cell.IsTgt ? W.TgtInjectedPartials : W.SrcInjectedPartials)
            .insert(std::move(B));
      }
    }
  }

  ++Counts.Verdicts;
  Counts.MemOps += V.Stats.totalOperations();
  Counts.Realizations += V.Stats.Realizations;
  return V;
}
