//===- perfbench/Replay.h - Traced replay of one verdict --------*- C++ -*-===//
//
// Part of the intptrcast project: an executable reproduction of the
// quasi-concrete C memory model (Kang et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's replay: one request taken through the public entry
/// point of every layer checkRefinement crosses, in checkRefinement's order,
/// with a span around each call:
///
///   lang        parseProgram, typeCheck
///   refinement  planRefinementGrid (plan), explorePlan or the inline grid
///               loop (explore), behaviour-set inserts, behaviorsIncluded and
///               partialAdmittedStrict (compare), runSweepCellProbes (sweep)
///   ir          qir::compileProgram, re-run on the programs the plan
///               compiled (a shadow span, left out of the verdict's time)
///   semantics   ExecState::run for each grid cell (exec) and each sweep
///               probe (probe)
///
/// Spans are kept in memory, one log per round, and only the benchmark's
/// own code opens them. The replay returns the verdict and the counters the
/// real check reports, so the caller can prove it replayed the same check.
///
//===----------------------------------------------------------------------===//

#ifndef QCM_PERFBENCH_REPLAY_H
#define QCM_PERFBENCH_REPLAY_H

#include "Corpus.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class Layer : uint8_t {
  Request,
  Parse,
  TypeCheck,
  Plan,
  Compile,
  Explore,
  Exec,
  Compare,
  Sweep,
  Probe,
};
inline constexpr size_t NumLayers = 10;

const char *layerName(Layer L);

struct SpanRecord {
  Layer Kind = Layer::Request;
  uint32_t Parent = 0;
  uint32_t RequestId = 0;
  int64_t StartNs = 0;
  int64_t EndNs = 0;
};

/// An in-memory span log: open/close nest through a stack, so every span's
/// parent is the innermost span open when it started.
class SpanLog {
public:
  static constexpr uint32_t NoParent = UINT32_MAX;

  /// Monotonic nanoseconds.
  static int64_t now();

  uint32_t open(Layer Kind, uint32_t RequestId);
  void close(uint32_t Id);
  /// A finished child of the innermost open span, with explicit times.
  void leaf(Layer Kind, uint32_t RequestId, int64_t StartNs, int64_t EndNs);
  void clear();

  const std::vector<SpanRecord> &spans() const { return Spans; }

  /// One JSON object per span: name, start/end ns, parent index, request.
  std::string toJsonLines() const;

private:
  std::vector<SpanRecord> Spans;
  std::vector<uint32_t> Stack;
};

/// Self time per layer of one log (a span minus its children), plus the
/// request totals the per-layer metrics are normalised by.
struct LayerTimes {
  double SelfNs[NumLayers] = {};
  /// The sweep span including its probe and compare children.
  double SweepInclusiveNs = 0;
  /// Request spans minus their shadow compile spans: the traced verdict
  /// time.
  double RequestNs = 0;
  static LayerTimes of(const SpanLog &Log);
  void accumulate(const LayerTimes &Other);
};

/// Counters gathered next to the spans, summed over replayed verdicts.
struct ReplayCounts {
  uint64_t Verdicts = 0;
  uint64_t Compiles = 0;
  uint64_t Cells = 0;
  uint64_t SweepProbes = 0;
  uint64_t Injected = 0;
  uint64_t GridRuns = 0;
  uint64_t GridThreaded = 0;
  uint64_t ProbeRuns = 0;
  uint64_t ProbeThreaded = 0;
  uint64_t Steps = 0;
  uint64_t ProbeSteps = 0;
  uint64_t MemOps = 0;
  uint64_t Realizations = 0;
  void accumulate(const ReplayCounts &Other);
};

/// What the replay concluded, field for field against checkRefinement.
struct ReplayVerdict {
  bool Refines = true;
  uint64_t RunsPerformed = 0;
  uint64_t InjectedRuns = 0;
  qcm::ModelStats Stats;
};

/// Replays \p R at \p Jobs worker threads. Jobs == 1 runs the grid inline,
/// one span per ExecState::run, as explorePlan's serial path does; Jobs > 1
/// runs it through explorePlan with the pool on. Throws std::runtime_error
/// when a program does not compile.
ReplayVerdict replayRequest(const Request &R, unsigned Jobs,
                            uint32_t RequestId, SpanLog &Log,
                            ReplayCounts &Counts);

} // namespace perfbench

#endif // QCM_PERFBENCH_REPLAY_H
