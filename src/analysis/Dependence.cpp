//===- analysis/Dependence.cpp - LEAP MDF post-processor -----------------===//

#include "analysis/Dependence.h"

#include "analysis/Diophantine.h"
#include "core/ObjectRelative.h"

#include <algorithm>
#include <cassert>
#include <vector>

using namespace orp;
using namespace orp::analysis;
using leap::DimObject;
using leap::DimOffset;
using leap::DimTime;

namespace {

constexpr int64_t Huge = int64_t(1) << 62;

int64_t floorDiv128(__int128 A, __int128 B) {
  assert(B != 0 && "division by zero");
  __int128 Q = A / B;
  if ((A % B != 0) && ((A < 0) != (B < 0)))
    --Q;
  if (Q > Huge)
    return Huge;
  if (Q < -Huge)
    return -Huge;
  return static_cast<int64_t>(Q);
}

int64_t ceilDiv128(__int128 A, __int128 B) {
  assert(B != 0 && "division by zero");
  __int128 Q = A / B;
  if ((A % B != 0) && ((A < 0) == (B < 0)))
    ++Q;
  if (Q > Huge)
    return Huge;
  if (Q < -Huge)
    return -Huge;
  return static_cast<int64_t>(Q);
}

/// Time of the K-th point of \p L (128-bit to avoid overflow with
/// unclamped lattice parameters).
__int128 timeAt(const lmad::Lmad &L, __int128 K) {
  return static_cast<__int128>(L.Start[DimTime]) +
         static_cast<__int128>(L.Stride[DimTime]) * K;
}

} // namespace

void orp::analysis::collectConflictRuns(const lmad::Lmad &Store,
                                        const lmad::Lmad &Load,
                                        std::vector<ConflictRun> &Out) {
  assert(Store.Dims == 3 && Load.Dims == 3 && "expected 3-d LEAP LMADs");
  if (Store.Count == 0 || Load.Count == 0)
    return;

  // Location equality in the object and offset dimensions:
  //   Store.Stride[d]*k1 - Load.Stride[d]*k2 = Load.Start[d]-Store.Start[d]
  Solution2D Sol = Solution2D::plane();
  for (unsigned D : {static_cast<unsigned>(DimObject),
                     static_cast<unsigned>(DimOffset)}) {
    Sol = restrict2(Sol, Store.Stride[D], -Load.Stride[D],
                    Load.Start[D] - Store.Start[D]);
    if (Sol.K == Solution2D::Kind::Empty)
      return;
  }

  int64_t N1 = static_cast<int64_t>(Store.Count) - 1;
  int64_t N2 = static_cast<int64_t>(Load.Count) - 1;

  switch (Sol.K) {
  case Solution2D::Kind::Empty:
    return;

  case Solution2D::Kind::Point: {
    if (Sol.P1 < 0 || Sol.P1 > N1 || Sol.P2 < 0 || Sol.P2 > N2)
      return;
    if (timeAt(Store, Sol.P1) < timeAt(Load, Sol.P2))
      Out.push_back(ConflictRun{Sol.P2, Sol.P2, 1});
    return;
  }

  case Solution2D::Kind::Plane: {
    // Every store execution hits the same single location as every load
    // execution (all location strides zero). A load at k2 conflicts iff
    // the earliest store precedes it. Time strides are non-negative by
    // construction (timestamps increase), so the earliest store is k1=0.
    __int128 StoreMin = timeAt(Store, 0);
    __int128 C0 = timeAt(Load, 0);
    int64_t Ct = Load.Stride[DimTime];
    if (Ct == 0) {
      if (C0 > StoreMin)
        Out.push_back(ConflictRun{0, N2, 1});
      return;
    }
    int64_t KMin = floorDiv128(StoreMin - C0, Ct) + 1;
    KMin = std::max<int64_t>(KMin, 0);
    if (KMin <= N2)
      Out.push_back(ConflictRun{KMin, N2, 1});
    return;
  }

  case Solution2D::Kind::Line: {
    // Parameterized family (k1, k2) = (P1 + U1*T, P2 + U2*T).
    IntInterval T{-Huge, Huge};
    if (auto B1 = boundParameter(Sol.P1, Sol.U1, 0, N1))
      T = T.intersect(*B1);
    if (auto B2 = boundParameter(Sol.P2, Sol.U2, 0, N2))
      T = T.intersect(*B2);
    if (T.empty())
      return;

    // Read-after-write: storeTime(k1(T)) < loadTime(k2(T)), i.e.
    // C0 + C1*T <= -1 with
    __int128 C0 = timeAt(Store, Sol.P1) - timeAt(Load, Sol.P2);
    __int128 C1 =
        static_cast<__int128>(Store.Stride[DimTime]) * Sol.U1 -
        static_cast<__int128>(Load.Stride[DimTime]) * Sol.U2;
    if (C1 == 0) {
      if (C0 >= 0)
        return;
    } else if (C1 > 0) {
      T = T.intersect(IntInterval{-Huge, floorDiv128(-1 - C0, C1)});
    } else {
      T = T.intersect(IntInterval{ceilDiv128(-1 - C0, C1), Huge});
    }
    if (T.empty())
      return;

    if (Sol.U2 == 0) {
      Out.push_back(ConflictRun{Sol.P2, Sol.P2, 1});
      return;
    }
    // k2 = P2 + U2*T over the T interval: an arithmetic progression.
    int64_t K2A = Sol.P2 + Sol.U2 * T.Lo;
    int64_t K2B = Sol.P2 + Sol.U2 * T.Hi;
    int64_t Step = Sol.U2 < 0 ? -Sol.U2 : Sol.U2;
    Out.push_back(ConflictRun{std::min(K2A, K2B), std::max(K2A, K2B),
                              Step});
    return;
  }
  }
}

namespace {

/// Number of elements of the progression Lo, Lo+Step, ..., Hi that fall
/// inside the closed interval [A, B].
uint64_t progressionInRange(const ConflictRun &Run, int64_t A, int64_t B) {
  int64_t Lo = std::max(Run.Lo, A);
  int64_t Hi = std::min(Run.Hi, B);
  if (Lo > Hi)
    return 0;
  // First element >= Lo and last element <= Hi, on the Run grid.
  int64_t KMin = (Lo - Run.Lo + Run.Step - 1) / Run.Step;
  int64_t KMax = (Hi - Run.Lo) / Run.Step;
  return KMax >= KMin ? static_cast<uint64_t>(KMax - KMin) + 1 : 0;
}

} // namespace

uint64_t orp::analysis::countUnionConflicts(std::vector<ConflictRun> Runs) {
  if (Runs.empty())
    return 0;
  // Merge the unit-step runs into disjoint intervals.
  std::vector<ConflictRun> Unit, Coarse;
  for (const ConflictRun &R : Runs) {
    if (R.Step == 1 || R.Lo == R.Hi)
      Unit.push_back(ConflictRun{R.Lo, R.Hi, 1});
    else
      Coarse.push_back(R);
  }
  std::sort(Unit.begin(), Unit.end(),
            [](const ConflictRun &A, const ConflictRun &B) {
              return A.Lo < B.Lo;
            });
  std::vector<ConflictRun> Merged;
  for (const ConflictRun &R : Unit) {
    if (!Merged.empty() && R.Lo <= Merged.back().Hi + 1)
      Merged.back().Hi = std::max(Merged.back().Hi, R.Hi);
    else
      Merged.push_back(R);
  }
  uint64_t Count = 0;
  for (const ConflictRun &R : Merged)
    Count += R.size();
  // Coarse runs: count the elements not already covered by the merged
  // unit intervals. Overlap between two coarse runs is not deduplicated
  // (upper bound; see header).
  for (const ConflictRun &R : Coarse) {
    uint64_t Covered = 0;
    for (const ConflictRun &I : Merged)
      Covered += progressionInRange(R, I.Lo, I.Hi);
    Count += R.size() - Covered;
  }
  return Count;
}

uint64_t orp::analysis::countConflictingLoads(const lmad::Lmad &Store,
                                              const lmad::Lmad &Load) {
  std::vector<ConflictRun> Runs;
  collectConflictRuns(Store, Load, Runs);
  return countUnionConflicts(std::move(Runs));
}

MdfMap LeapDependenceAnalyzer::computeMdf() const {
  // Bucket substreams by group so only same-group pairs are intersected.
  struct SubRef {
    trace::InstrId Instr;
    const lmad::LmadCompressor *Compressor;
    bool IsStore;
  };
  std::map<omc::GroupId, std::vector<SubRef>> ByGroup;
  const auto &Instrs = Profile.instructions();
  Profile.forEachSubstream([&](const core::VerticalKey &Key,
                               const lmad::LmadCompressor &Compressor) {
    auto It = Instrs.find(Key.Instr);
    assert(It != Instrs.end() && "substream for unseen instruction");
    ByGroup[Key.Group].push_back(
        SubRef{Key.Instr, &Compressor, It->second.isStore()});
  });

  // Conflict counts only ever range over the points the LMADs captured,
  // so the frequency denominator must be the captured load executions as
  // well: once a stream overflows its descriptor budget, the captured
  // prefix acts as a sample and the ratio extrapolates the rate (the
  // paper's "sample of the initial part of the original data stream").
  // For fully captured streams this equals the exact #conflicts /
  // #executions formula.
  std::map<InstrPair, uint64_t> Conflicts;
  std::unordered_map<trace::InstrId, uint64_t> CapturedLoadExecs;
  Profile.forEachSubstream([&](const core::VerticalKey &Key,
                               const lmad::LmadCompressor &Compressor) {
    if (!Instrs.at(Key.Instr).isStore())
      CapturedLoadExecs[Key.Instr] += Compressor.capturedPoints();
  });

  for (const auto &[Group, Subs] : ByGroup) {
    for (const SubRef &St : Subs) {
      if (!St.IsStore)
        continue;
      for (const SubRef &Ld : Subs) {
        if (Ld.IsStore)
          continue;
        // For each load descriptor, union the conflict runs across all
        // store descriptors so a load execution conflicting with several
        // store fragments is counted once.
        uint64_t Count = 0;
        for (const lmad::Lmad &B : Ld.Compressor->lmads()) {
          std::vector<ConflictRun> Runs;
          for (const lmad::Lmad &A : St.Compressor->lmads())
            collectConflictRuns(A, B, Runs);
          Count += countUnionConflicts(std::move(Runs));
        }
        if (Count != 0)
          Conflicts[{St.Instr, Ld.Instr}] += Count;
      }
    }
  }

  MdfMap Result;
  for (const auto &[Pair, Count] : Conflicts) {
    uint64_t Execs = CapturedLoadExecs.at(Pair.second);
    assert(Execs > 0 && "conflicting load without captured executions");
    uint64_t Capped = std::min(Count, Execs);
    Result[Pair] = static_cast<double>(Capped) / static_cast<double>(Execs);
  }
  return Result;
}
