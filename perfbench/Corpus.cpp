//===- perfbench/Corpus.cpp -----------------------------------------------===//

#include "Corpus.h"

#include "core/Experiments.h"
#include "memory/ModelRegistry.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

using namespace qcm;
using namespace perfbench;

namespace {

/// SplitMix64: the seed stream every generated input is drawn from.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}

  uint64_t next() {
    uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }

  /// Uniform in [Lo, Hi].
  uint64_t range(uint64_t Lo, uint64_t Hi) {
    return Lo + next() % (Hi - Lo + 1);
  }

private:
  uint64_t State;
};

//===----------------------------------------------------------------------===//
// paper_grid
//===----------------------------------------------------------------------===//

std::vector<Request> paperGrid() {
  std::vector<Request> Requests;
  for (const ExperimentSpec &Spec : experimentMatrix()) {
    const PaperExample &Ex = getPaperExample(Spec.ExampleId);
    // The configuration runExperiment() builds for the cell.
    auto MakeConfig = [&Spec, &Ex](ModelKind Model) {
      RunConfig C;
      C.Model = Model;
      C.MemConfig.AddressWords = Spec.AddressWords;
      C.Interp.Discipline = Spec.Discipline;
      C.LogicalCasts = Spec.Casts;
      C.Entry = Ex.Entry;
      C.Args = Ex.Args;
      return C;
    };
    Request R;
    R.Name = Spec.ExampleId + "/" + Spec.ScenarioName;
    R.SrcText = Ex.SrcSource;
    R.TgtText = Ex.TgtSource;
    R.BaseSrc = MakeConfig(Spec.SrcModel);
    R.BaseTgt = MakeConfig(Spec.TgtModel);
    R.Contexts = Spec.Contexts;
    R.Oracles = Spec.Oracles;
    R.ExpectRefines = Spec.PaperRefines;
    R.Why = "paper claim (PaperRefines): " + Spec.PaperNote;
    Requests.push_back(std::move(R));
  }
  return Requests;
}

//===----------------------------------------------------------------------===//
// idiom_sweep
//===----------------------------------------------------------------------===//

/// One top-level statement of an idiom's main(), with the injection points
/// it reaches.
struct Stmt {
  std::string Text;
  bool Allocates = false;
  /// Performs a pointer-to-integer cast (the only cast a fault plan counts).
  bool Casts = false;
};

/// An idiom program: helpers and globals, main's declarations and body.
/// The output marker sits in front of Body[MarkerAt] (Body.size() = end).
struct Idiom {
  std::string Name;
  std::string Prelude;
  std::string Vars;
  std::vector<Stmt> Body;
  /// Index of the first statement that performs output().
  size_t FirstOutput = 0;
  /// Globals are allocated before main runs, ahead of any marker.
  bool HasGlobal = false;

  std::string render(size_t MarkerAt, Word Marker) const {
    std::string Text = Prelude + "main() {\n  " + Vars + "\n";
    for (size_t K = 0; K <= Body.size(); ++K) {
      if (K == MarkerAt)
        Text += "  output(" + std::to_string(Marker) + ");\n";
      if (K < Body.size())
        Text += Body[K].Text;
    }
    return Text + "}\n";
  }

  /// The first statement that casts or, for a program that never casts,
  /// allocates: the moved marker always lands after it.
  size_t firstEffect() const {
    for (size_t K = 0; K < Body.size(); ++K)
      if (Body[K].Casts)
        return K;
    for (size_t K = 0; K < Body.size(); ++K)
      if (Body[K].Allocates)
        return K;
    return 0;
  }
};

std::string num(uint64_t V) { return std::to_string(V); }

/// Cast-linked list: node[1] holds the integer address of the next node.
Idiom castList(Rng &R) {
  const unsigned Nodes = 32;
  const uint64_t Mul = R.range(3, 97), Add = R.range(1, 999);
  Idiom I;
  I.Name = "cast_list";
  I.Vars = "var ptr node, ptr prev, int i, int addr, int sum, int v;";
  I.Body = {
      {"  prev = malloc(2);\n", true, false},
      {"  *prev = 0;\n"},
      {"  *(prev + 1) = 0;\n"},
      {"  i = " + num(Nodes) + ";\n"},
      {"  while (i) {\n"
       "    node = malloc(2);\n"
       "    *node = (i * " + num(Mul) + " + " + num(Add) + ") & 65535;\n"
       "    addr = (int) prev;\n"
       "    *(node + 1) = addr;\n"
       "    prev = node;\n"
       "    i = i - 1;\n"
       "  }\n",
       true, true},
      {"  sum = 0;\n"},
      {"  addr = (int) prev;\n", false, true},
      {"  while (addr) {\n"
       "    node = (ptr) addr;\n"
       "    v = *node;\n"
       "    sum = sum + v;\n"
       "    addr = *(node + 1);\n"
       "  }\n"},
      {"  output(sum);\n"},
  };
  I.FirstOutput = 8;
  return I;
}

/// Open-addressing hash table keyed on pointer bit patterns
/// (examples/pointer_keyed_hash.cpp), over a global table.
Idiom pointerHash(Rng &R) {
  const unsigned Keys = 8;
  Idiom I;
  I.Name = "pointer_hash";
  I.HasGlobal = true;
  I.Prelude = R"(global tab[32];

hash_insert(ptr key, int v) {
  var int k, int slot, int probe, int cur, int placed;
  k = (int) key;
  slot = k & 15;
  placed = 0;
  probe = 16;
  while (probe) {
    if (placed == 0) {
      cur = *(tab + slot);
      if (cur == 0) {
        *(tab + slot) = k;
        *(tab + slot + 16) = v;
        placed = 1;
      } else {
        if (cur == k) {
          *(tab + slot + 16) = v;
          placed = 1;
        } else {
          slot = (slot + 1) & 15;
        }
      }
    }
    probe = probe - 1;
  }
}

hash_lookup(ptr key) {
  var int k, int slot, int probe, int cur, int found;
  k = (int) key;
  slot = k & 15;
  found = 0;
  probe = 16;
  while (probe) {
    if (found == 0) {
      cur = *(tab + slot);
      if (cur == k) {
        found = 1;
        cur = *(tab + slot + 16);
        output(cur);
      } else {
        slot = (slot + 1) & 15;
      }
    }
    probe = probe - 1;
  }
  if (found == 0) {
    output(4294967295);
  }
}

)";
  I.Vars = "var ";
  for (unsigned K = 0; K < Keys; ++K)
    I.Vars += std::string(K ? ", " : "") + "ptr k" + num(K);
  I.Vars += ";";
  for (unsigned K = 0; K < Keys; ++K)
    I.Body.push_back(
        {"  k" + num(K) + " = malloc(" + num(R.range(2, 4)) + ");\n", true});
  for (unsigned K = 0; K < Keys; ++K)
    I.Body.push_back({"  hash_insert(k" + num(K) + ", " +
                          num(R.range(1, 9999)) + ");\n",
                      false, true});
  I.Body.push_back({"  hash_insert(k" + num(R.range(0, Keys - 1)) + ", " +
                        num(R.range(1, 9999)) + ");\n",
                    false, true});
  I.FirstOutput = I.Body.size();
  for (unsigned K = 0; K < Keys; ++K)
    I.Body.push_back({"  hash_lookup(k" + num(K) + ");\n", false, true});
  I.Body.push_back(
      {"  hash_lookup(k" + num(R.range(0, Keys - 1)) + " + 1);\n", false, true});
  return I;
}

/// Doubly linked list whose link word holds prev + next addresses
/// (examples/xor_linked_list.cpp), traversed both ways.
Idiom additiveXorList(Rng &R) {
  const unsigned Nodes = 16;
  const uint64_t Mul = R.range(3, 97), Add = R.range(1, 999);
  const std::string Traverse = "  while (i) {\n"
                               "    nd = (ptr) cur;\n"
                               "    v = *nd;\n"
                               "    output(v);\n"
                               "    link = *(nd + 1);\n"
                               "    next = link - prev;\n"
                               "    prev = cur;\n"
                               "    cur = next;\n"
                               "    i = i - 1;\n"
                               "  }\n";
  Idiom I;
  I.Name = "xor_list";
  I.Vars = "var ptr addrs, ptr nd, int i, int a, int b, int link, int prev, "
           "int cur, int next, int v;";
  I.Body = {
      {"  addrs = malloc(" + num(Nodes + 2) + ");\n", true},
      {"  *addrs = 0;\n"},
      {"  *(addrs + " + num(Nodes + 1) + ") = 0;\n"},
      {"  i = " + num(Nodes) + ";\n"},
      {"  while (i) {\n"
       "    nd = malloc(2);\n"
       "    *nd = (i * " + num(Mul) + " + " + num(Add) + ") & 65535;\n"
       "    a = (int) nd;\n"
       "    *(addrs + i) = a;\n"
       "    i = i - 1;\n"
       "  }\n",
       true, true},
      {"  i = " + num(Nodes) + ";\n"},
      {"  while (i) {\n"
       "    a = *(addrs + (i - 1));\n"
       "    b = *(addrs + (i + 1));\n"
       "    link = a + b;\n"
       "    a = *(addrs + i);\n"
       "    nd = (ptr) a;\n"
       "    *(nd + 1) = link;\n"
       "    i = i - 1;\n"
       "  }\n"},
      {"  cur = *(addrs + 1);\n"},
      {"  prev = 0;\n"},
      {"  i = " + num(Nodes) + ";\n"},
      {Traverse},
      {"  cur = *(addrs + " + num(Nodes) + ");\n"},
      {"  prev = 0;\n"},
      {"  i = " + num(Nodes) + ";\n"},
      {Traverse},
  };
  I.FirstOutput = 10;
  return I;
}

/// Strict inversions of the values the sort program's generator produces
/// from \p Seed: exactly the number of element shifts insertion sort makes.
unsigned sortInversions(uint32_t Seed, unsigned N) {
  std::vector<uint32_t> Values(N);
  for (uint32_t &V : Values) {
    Seed = Seed * 1103515245u + 12345u;
    V = Seed & 1023;
  }
  unsigned Inversions = 0;
  for (unsigned A = 0; A < N; ++A)
    for (unsigned B = A + 1; B < N; ++B)
      Inversions += Values[A] > Values[B] ? 1 : 0;
  return Inversions;
}

/// Insertion sort of N generated words (bench/bench_workloads.cpp). Of 256
/// drawn generator seeds the one whose data has closest to N(N-1)/4
/// inversions is kept (nearly always exactly that many), so every seed
/// sorts different data with the same number of shifts, and building the
/// corpus costs the same for every seed.
Idiom insertionSort(Rng &R) {
  const unsigned N = 32;
  const int Target = N * (N - 1) / 4;
  uint32_t DataSeed = 0;
  int BestDistance = Target + 1;
  for (unsigned K = 0; K < 256; ++K) {
    const uint32_t Candidate = static_cast<uint32_t>(R.next());
    const int Distance =
        std::abs(static_cast<int>(sortInversions(Candidate, N)) - Target);
    if (Distance < BestDistance) {
      BestDistance = Distance;
      DataSeed = Candidate;
    }
  }
  Idiom I;
  I.Name = "insertion_sort";
  I.Vars = "var ptr buf, int i, int j, int key, int cur, int seed, int n;";
  I.Body = {
      {"  n = " + num(N) + ";\n"},
      {"  buf = malloc(n);\n", true},
      {"  seed = " + num(DataSeed) + ";\n"},
      {"  i = 0;\n"},
      {"  j = n;\n"},
      {"  while (j) {\n"
       "    seed = seed * 1103515245 + 12345;\n"
       "    *(buf + i) = seed & 1023;\n"
       "    i = i + 1;\n"
       "    j = j - 1;\n"
       "  }\n"},
      {"  i = 1;\n"},
      {"  while (n - i) {\n"
       "    key = *(buf + i);\n"
       "    j = i;\n"
       "    cur = 1;\n"
       "    while (cur) {\n"
       "      if (j) {\n"
       "        cur = *(buf + (j - 1));\n"
       "        if ((key - cur) & 2147483648) {\n"
       "          *(buf + j) = cur;\n"
       "          j = j - 1;\n"
       "          cur = 1;\n"
       "        } else {\n"
       "          cur = 0;\n"
       "        }\n"
       "      } else {\n"
       "        cur = 0;\n"
       "      }\n"
       "    }\n"
       "    *(buf + j) = key;\n"
       "    i = i + 1;\n"
       "  }\n"},
      {"  key = *(buf + 0);\n"},
      {"  output(key);\n"},
      {"  key = *(buf + (n - 1));\n"},
      {"  output(key);\n"},
  };
  I.FirstOutput = 9;
  return I;
}

/// The known answer of the moved-marker pair under \p Model, with its
/// reason. The source prints the marker first; the target prints it after
/// Body[Last]. Under the strict Section 2.3 rule the sweep fails exactly
/// when the marker crosses the program's first injection point: the probe
/// there truncates the target to [] while every source partial starts with
/// the marker. A global's allocation is injection point 1 wherever
/// allocations are injected, and it precedes the marker on both sides, so
/// the source then owns a [] partial that admits the target's early ones.
std::pair<bool, std::string> movedMarkerAnswer(const Idiom &I, size_t Last,
                                               ModelKind Model) {
  const ModelDescriptor &D = modelDescriptor(Model);
  const std::string Name(D.ShortName);
  if (I.HasGlobal && D.InjectAllocation)
    return {true, "a global's allocation is injection point 1 under " + Name +
                      ": both sides truncate to [] there, so the target's "
                      "early [] partials have a source twin"};
  for (size_t K = 0; K <= Last; ++K) {
    const Stmt &S = I.Body[K];
    if ((S.Allocates && D.InjectAllocation) || (S.Casts && D.InjectCast))
      return {false, "the marker crosses injection point 1 (main statement " +
                         num(K) + ") under " + Name +
                         ": the target's [] partial has no source twin"};
  }
  return {true, "no injection point of " + Name +
                    " precedes the marker's new position, so every probe "
                    "truncates both sides after the marker"};
}

std::vector<Request> idiomSweep(uint64_t Seed) {
  Rng R(Seed ^ 0x1d10a5eedull);
  const std::vector<Idiom> Idioms = {castList(R), pointerHash(R),
                                     additiveXorList(R), insertionSort(R)};
  const ModelKind Models[] = {ModelKind::Concrete, ModelKind::QuasiConcrete,
                              ModelKind::TwoPhase};
  std::vector<Request> Requests;
  for (const Idiom &I : Idioms) {
    const Word Marker = static_cast<Word>(R.range(1000, 9999));
    // The marker may land anywhere from just past the first effect to just
    // before the first output: the main grid sees the same events either
    // way, and the answer below does not depend on where.
    const size_t Last = R.range(I.firstEffect(), I.FirstOutput - 1);
    const std::string Src = I.render(0, Marker);
    const std::string Moved = I.render(Last + 1, Marker);
    for (ModelKind Model : Models) {
      RunConfig C;
      C.Model = Model;
      C.MemConfig.AddressWords = 1u << 16;
      Request Base;
      Base.SrcText = Src;
      Base.BaseSrc = Base.BaseTgt = C;
      Base.Sweep = true;
      const std::string Short(modelDescriptor(Model).ShortName);

      Request Same = Base;
      Same.Name = I.Name + "/" + Short + "/identity";
      Same.TgtText = Src;
      Same.Why = "identity pair: every target behaviour and injected partial "
                 "is one of the source's";
      Requests.push_back(std::move(Same));

      Request Shifted = Base;
      Shifted.Name = I.Name + "/" + Short + "/moved";
      Shifted.TgtText = Moved;
      std::tie(Shifted.ExpectRefines, Shifted.Why) =
          movedMarkerAnswer(I, Last, Model);
      Requests.push_back(std::move(Shifted));
    }
  }
  // The MovedOutput pair of tests/exhaustion_sweep_test.cpp, verbatim: the
  // rule above on its smallest instance. It also makes the corpus an odd
  // number of cost groups (the identity and moved twins of one idiom and
  // model cost the same), so p50 and p90 fall inside a group, not between
  // two.
  Request Test;
  Test.Name = "moved_output/quasi/test_pair";
  Test.SrcText = "main() {\n"
                 "  var ptr p, int a;\n"
                 "  p = malloc(1);\n"
                 "  output(1);\n"
                 "  a = (int) p;\n"
                 "  output(2);\n"
                 "}\n";
  Test.TgtText = "main() {\n"
                 "  var ptr p, int a;\n"
                 "  p = malloc(1);\n"
                 "  a = (int) p;\n"
                 "  output(1);\n"
                 "  output(2);\n"
                 "}\n";
  Test.BaseSrc.Model = Test.BaseTgt.Model = ModelKind::QuasiConcrete;
  Test.Sweep = true;
  Test.ExpectRefines = false;
  Test.Why = "output(1) moves past the cast, injection point 1 under quasi: "
             "the target's [] partial has no source twin";
  Requests.push_back(std::move(Test));
  return Requests;
}

//===----------------------------------------------------------------------===//
// pooled_grid
//===----------------------------------------------------------------------===//

/// Trip counts of one grid's tapes: T values in [Lo, Hi] summing to
/// T * Mean, so a grid's total loop work does not depend on the seed.
std::vector<unsigned> tripCounts(Rng &R, unsigned T, unsigned Mean,
                                 unsigned Lo, unsigned Hi) {
  std::vector<unsigned> Trips(T, Mean);
  for (unsigned K = 0; K < 4 * T; ++K) {
    unsigned From = static_cast<unsigned>(R.range(0, T - 1));
    unsigned To = static_cast<unsigned>(R.range(0, T - 1));
    unsigned Room = std::min(Trips[From] - Lo, Hi - Trips[To]);
    if (From == To || Room == 0)
      continue;
    unsigned Amount = static_cast<unsigned>(R.range(1, Room));
    Trips[From] -= Amount;
    Trips[To] += Amount;
  }
  return Trips;
}

std::vector<Request> pooledGrid(uint64_t Seed) {
  Rng R(Seed ^ 0x9001edull);
  // Cells per grid: contexts (1) x {src,tgt} x 8 oracles x tapes. The
  // multiset is fixed, and chosen so that p50 and p90 of a round's verdicts
  // fall inside a run of equal-sized grids rather than between two sizes;
  // the seed draws the order, the random-oracle seeds, the trip counts and
  // the program constant. Trips of 300..2400 loop iterations make cells of
  // roughly 5-40 us.
  std::vector<unsigned> Sizes = {128, 128, 192, 256, 384,
                                 384, 384, 512, 1024, 1024};
  for (size_t K = Sizes.size(); K > 1; --K)
    std::swap(Sizes[K - 1], Sizes[R.range(0, K - 1)]);
  const unsigned Oracles = 8;
  const unsigned MeanTrip = 900, LoTrip = 300, HiTrip = 2400;

  std::vector<Request> Requests;
  for (unsigned Cells : Sizes) {
    const unsigned Tapes = Cells / (2 * Oracles);
    const uint64_t Mul = R.range(3, 97);
    const std::string Text = "main() {\n"
                             "  var ptr p, int n, int i, int a, int acc;\n"
                             "  n = input();\n"
                             "  p = malloc(4);\n"
                             "  a = (int) p;\n"
                             "  *p = a;\n"
                             "  acc = n;\n"
                             "  i = n;\n"
                             "  while (i) {\n"
                             "    acc = acc * " + num(Mul) + " + i;\n"
                             "    i = i - 1;\n"
                             "  }\n"
                             "  output(acc & 65535);\n"
                             "}\n";
    Request Q;
    Q.Name = "grid" + num(Requests.size()) + "/" + num(Oracles) + "x" +
             num(Tapes);
    Q.SrcText = Q.TgtText = Text;
    Q.BaseSrc.Model = Q.BaseTgt.Model = ModelKind::QuasiConcrete;
    Q.BaseSrc.MemConfig.AddressWords = Q.BaseTgt.MemConfig.AddressWords =
        1u << 16;
    Q.Oracles = sampledOracles(Oracles - 2, R.next());
    for (unsigned Trip : tripCounts(R, Tapes, MeanTrip, LoTrip, HiTrip))
      Q.Tapes.push_back({static_cast<Word>(Trip)});
    Q.Why = "identity pair: source and target are the same text";
    Requests.push_back(std::move(Q));
  }
  return Requests;
}

} // namespace

std::optional<WorkloadKind> perfbench::parseWorkload(const std::string &Name) {
  for (WorkloadKind K : {WorkloadKind::PaperGrid, WorkloadKind::IdiomSweep,
                         WorkloadKind::PooledGrid})
    if (Name == workloadName(K))
      return K;
  return std::nullopt;
}

const char *perfbench::workloadName(WorkloadKind Kind) {
  switch (Kind) {
  case WorkloadKind::PaperGrid:
    return "paper_grid";
  case WorkloadKind::IdiomSweep:
    return "idiom_sweep";
  case WorkloadKind::PooledGrid:
    return "pooled_grid";
  }
  return "?";
}

Corpus perfbench::buildCorpus(WorkloadKind Kind, uint64_t Seed) {
  Corpus C;
  C.Kind = Kind;
  switch (Kind) {
  case WorkloadKind::PaperGrid:
    C.Requests = paperGrid();
    break;
  case WorkloadKind::IdiomSweep:
    C.Requests = idiomSweep(Seed);
    break;
  case WorkloadKind::PooledGrid:
    C.Requests = pooledGrid(Seed);
    C.Jobs = 2;
    break;
  }
  return C;
}

RefinementJob perfbench::makeJob(const Request &R, const Program &Src,
                                 const Program &Tgt, unsigned Jobs) {
  RefinementJob Job;
  Job.Src = &Src;
  Job.Tgt = &Tgt;
  Job.BaseSrc = R.BaseSrc;
  Job.BaseTgt = R.BaseTgt;
  Job.Contexts = R.Contexts;
  Job.Oracles = R.Oracles;
  Job.InputTapes = R.Tapes;
  Job.ExhaustionSweep = R.Sweep;
  Job.Exec.Jobs = Jobs;
  if (Jobs > 1)
    Job.Exec.InlineThreshold = 0;
  return Job;
}
