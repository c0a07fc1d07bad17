//===- perfbench/Corpus.h - Seeded verdict corpora --------------*- C++ -*-===//
//
// Part of the intptrcast project: an executable reproduction of the
// quasi-concrete C memory model (Kang et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The verdict benchmark's three workloads. Each is a corpus of refinement
/// requests: source text, target text, and the check's grid axes (contexts,
/// placement oracles, input tapes, sweep mode), each with the answer the
/// verdict must give. Answers are fixed when the corpus is built, before any
/// verdict runs, and every one carries the reason it holds.
///
/// * paper_grid  — the 29 cells of experimentMatrix(); the answer is the
///   cell's PaperRefines. Fixed: the seed does not change it.
/// * idiom_sweep — --sweep checks of the paper's cast idioms (cast-linked
///   list, pointer-keyed hash table, additive XOR list, insertion sort)
///   under the concrete, quasi-concrete and two-phase models, each paired
///   with itself and with a copy whose leading output marker moves later.
/// * pooled_grid — identity checks over oracle x tape grids, run with two
///   workers and the pool forced on.
///
/// The seed draws contents, never amounts of work: sizes are fixed per
/// idiom and per grid, so run-to-run spread measures the host and the code
/// rather than the inputs (see perfbench/README.md).
///
//===----------------------------------------------------------------------===//

#ifndef QCM_PERFBENCH_CORPUS_H
#define QCM_PERFBENCH_CORPUS_H

#include "refinement/RefinementChecker.h"

#include <optional>
#include <string>
#include <vector>

namespace perfbench {

enum class WorkloadKind { PaperGrid, IdiomSweep, PooledGrid };

std::optional<WorkloadKind> parseWorkload(const std::string &Name);
const char *workloadName(WorkloadKind Kind);

/// One verdict request: everything qcm-check needs besides the parsed
/// programs, plus the known answer.
struct Request {
  std::string Name;
  std::string SrcText;
  std::string TgtText;
  qcm::RunConfig BaseSrc;
  qcm::RunConfig BaseTgt;
  std::vector<qcm::ContextVariant> Contexts;
  std::vector<qcm::OracleFactory> Oracles;
  std::vector<std::vector<qcm::Word>> Tapes;
  bool Sweep = false;
  bool ExpectRefines = true;
  /// Why ExpectRefines holds, in one line.
  std::string Why;
};

struct Corpus {
  WorkloadKind Kind = WorkloadKind::PaperGrid;
  std::vector<Request> Requests;
  /// Worker threads of the measured verdicts (2 on pooled_grid, else 1).
  unsigned Jobs = 1;
};

/// Builds the workload's corpus and known answers from \p Seed.
Corpus buildCorpus(WorkloadKind Kind, uint64_t Seed);

/// The refinement job of \p R over the parsed programs, at \p Jobs worker
/// threads. Jobs > 1 forces the pool on (InlineThreshold = 0), exactly as
/// qcm-check --jobs=N does; Jobs == 1 keeps the library defaults.
qcm::RefinementJob makeJob(const Request &R, const qcm::Program &Src,
                           const qcm::Program &Tgt, unsigned Jobs);

} // namespace perfbench

#endif // QCM_PERFBENCH_CORPUS_H
