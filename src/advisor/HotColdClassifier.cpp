//===- advisor/HotColdClassifier.cpp - Profile -> advice -----------------===//

#include "advisor/HotColdClassifier.h"

#include <algorithm>
#include <unordered_map>

using namespace orp;
using namespace orp::advisor;

void OffsetPairScanner::consume(const core::OrTuple &T) {
  if (HavePrev && Prev.Group == T.Group && Prev.Object == T.Object &&
      Prev.Offset != T.Offset) {
    uint64_t A = Prev.Offset, B = T.Offset;
    if (A > B)
      std::swap(A, B);
    ++Counts[OffsetPairKey{T.Group, A, B}];
  }
  Prev = T;
  HavePrev = true;
}

OffsetPairCounts
orp::advisor::offsetPairsFromArchive(const whomp::OmsgArchive &Archive) {
  OffsetPairCounts Counts;
  // Dimensions are (instr, group, object, offset); walking the last three
  // cursors in lockstep replays the tuple stream losslessly.
  if (Archive.numDimensions() < 4)
    return Counts;
  sequitur::ImageCursor Groups = Archive.cursor(1);
  sequitur::ImageCursor Objects = Archive.cursor(2);
  sequitur::ImageCursor Offsets = Archive.cursor(3);
  if (Groups.done() || Objects.done() || Offsets.done())
    return Counts;
  uint64_t Group = Groups.next(), Object = Objects.next(),
           Offset = Offsets.next();
  while (!Groups.done() && !Objects.done() && !Offsets.done()) {
    uint64_t PrevGroup = Group, PrevObject = Object, PrevOffset = Offset;
    Group = Groups.next();
    Object = Objects.next();
    Offset = Offsets.next();
    if (Group != PrevGroup || Object != PrevObject || Offset == PrevOffset)
      continue;
    uint64_t A = PrevOffset, B = Offset;
    if (A > B)
      std::swap(A, B);
    ++Counts[OffsetPairKey{static_cast<omc::GroupId>(Group), A, B}];
  }
  return Counts;
}

std::vector<LayoutAdvice>
orp::advisor::rankLayoutAdvice(const OffsetPairCounts &Counts,
                               const ClassifierOptions &Opts) {
  std::vector<LayoutAdvice> Advice;
  for (const auto &[Key, Count] : Counts) {
    if (Count < Opts.MinPairCount)
      continue;
    Advice.push_back(LayoutAdvice{Key.Group, Key.OffA, Key.OffB, Count});
  }
  std::sort(Advice.begin(), Advice.end(), layoutRankBefore);
  if (Advice.size() > Opts.MaxLayoutEntries)
    Advice.resize(Opts.MaxLayoutEntries);
  return Advice;
}

uint32_t orp::advisor::choosePrefetchDistance(int64_t Stride) {
  if (Stride == 0)
    return 0;
  uint64_t Magnitude =
      Stride < 0 ? -static_cast<uint64_t>(Stride) : static_cast<uint64_t>(Stride);
  uint64_t Distance = 256 / Magnitude;
  if (Distance < 2)
    Distance = 2;
  if (Distance > 64)
    Distance = 64;
  return static_cast<uint32_t>(Distance);
}

std::vector<PrefetchAdvice>
orp::advisor::prefetchAdviceFromProfile(const leap::LeapProfileData &Profile,
                                        const ClassifierOptions &Opts) {
  // Per instruction: total within-object strided steps and per-stride
  // counts — the detached-profile mirror of analysis::findStronglyStrided.
  struct Acc {
    uint64_t TotalSteps = 0;
    std::unordered_map<int64_t, uint64_t> PerStride;
  };
  std::unordered_map<trace::InstrId, Acc> ByInstr;
  for (const auto &[Key, Sub] : Profile.substreams()) {
    Acc &A = ByInstr[Key.Instr];
    for (const lmad::Lmad &L : Sub.Lmads) {
      if (L.Count < 2)
        continue;
      if (L.Stride[leap::DimObject] != 0)
        continue;
      uint64_t Steps = L.Count - 1;
      A.TotalSteps += Steps;
      A.PerStride[L.Stride[leap::DimOffset]] += Steps;
    }
  }

  const auto &Instrs = Profile.instructions();
  std::vector<PrefetchAdvice> Advice;
  for (const auto &[Instr, A] : ByInstr) {
    if (A.TotalSteps == 0)
      continue;
    auto It = Instrs.find(Instr);
    if (It != Instrs.end() && It->second.isStore())
      continue; // Prefetching targets loads.
    int64_t BestStride = 0;
    uint64_t BestSteps = 0;
    for (const auto &[Stride, Steps] : A.PerStride)
      if (Steps > BestSteps || (Steps == BestSteps && Stride < BestStride)) {
        BestStride = Stride;
        BestSteps = Steps;
      }
    if (BestStride == 0)
      continue;
    double Share =
        static_cast<double>(BestSteps) / static_cast<double>(A.TotalSteps);
    if (Share < Opts.StrideThreshold)
      continue;
    PrefetchAdvice P;
    P.Instr = Instr;
    P.Stride = BestStride;
    uint64_t Permille = static_cast<uint64_t>(Share * 1000.0);
    P.SharePermille =
        static_cast<uint32_t>(Permille < 1 ? 1 : (Permille > 1000 ? 1000 : Permille));
    P.Distance = choosePrefetchDistance(BestStride);
    Advice.push_back(P);
  }
  std::sort(Advice.begin(), Advice.end(),
            [](const PrefetchAdvice &A, const PrefetchAdvice &B) {
              return A.Instr < B.Instr;
            });
  return Advice;
}

AdvisorReport HotColdClassifier::classify(const leap::LeapProfileData &Leap,
                                          const whomp::OmsgArchive &Omsg) const {
  // Per-group aggregation over the union of both artifacts' groups. An
  // ordered map keeps every downstream walk hash-order independent.
  struct GroupAcc {
    uint64_t Accesses = 0;
    uint64_t Footprint = 0;
    uint64_t Objects = 0;
    uint64_t Freed = 0;
    uint64_t TotalLife = 0;
    uint64_t MinSize = ~0ULL;
    uint64_t MaxSize = 0;
  };
  std::map<omc::GroupId, GroupAcc> ByGroup;

  for (const auto &[Key, Sub] : Leap.substreams())
    ByGroup[Key.Group].Accesses += Sub.TotalPoints;

  for (const whomp::ObjectAux &Obj : Omsg.objects()) {
    GroupAcc &Acc = ByGroup[Obj.Group];
    Acc.Footprint += Obj.Size;
    ++Acc.Objects;
    if (Obj.Size < Acc.MinSize)
      Acc.MinSize = Obj.Size;
    if (Obj.Size > Acc.MaxSize)
      Acc.MaxSize = Obj.Size;
    if (Obj.FreeTime != omc::ObjectManager::kLiveForever) {
      ++Acc.Freed;
      Acc.TotalLife += Obj.FreeTime - Obj.AllocTime;
    }
  }

  uint64_t TotalAccesses = 0, TotalFootprint = 0;
  for (const auto &[Group, Acc] : ByGroup) {
    TotalAccesses += Acc.Accesses;
    TotalFootprint += Acc.Footprint;
  }

  AdvisorReport Report;
  Report.Placement.reserve(ByGroup.size());
  for (const auto &[Group, Acc] : ByGroup) {
    PlacementAdvice P;
    P.Group = Group;
    P.AccessCount = Acc.Accesses;
    P.FootprintBytes = Acc.Footprint;
    P.ObjectCount = Acc.Objects;
    P.MeanLifetime = Acc.Freed ? Acc.TotalLife / Acc.Freed : 0;
    // Hot = at-or-above-average access density, compared exactly:
    // Acc/Foot >= Total/TotalFoot  <=>  Acc*TotalFoot >= Total*Foot.
    // Zero-footprint groups with accesses are infinitely dense.
    using U128 = unsigned __int128;
    P.Hot = Acc.Accesses != 0 &&
            static_cast<U128>(Acc.Accesses) * TotalFootprint >=
                static_cast<U128>(TotalAccesses) * Acc.Footprint;
    P.PoolCandidate = Acc.Objects >= Opts.PoolMinObjects &&
                      Acc.MinSize == Acc.MaxSize && Acc.Freed * 2 >= Acc.Objects;
    Report.Placement.push_back(P);
  }
  std::sort(Report.Placement.begin(), Report.Placement.end(),
            placementRankBefore);

  Report.Layout = rankLayoutAdvice(offsetPairsFromArchive(Omsg), Opts);
  Report.Prefetch = prefetchAdviceFromProfile(Leap, Opts);
  return Report;
}
