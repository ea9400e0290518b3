//===- advisor/HotColdClassifier.cpp - Profile -> advice -----------------===//

#include "advisor/HotColdClassifier.h"

#include "sequitur/DigramTable.h"

#include <algorithm>
#include <map>
#include <unordered_map>

using namespace orp;
using namespace orp::advisor;

static_assert(sizeof(OffsetPairCounts::Slot) == 32,
              "wider slots raise classify's growth-step peak");

size_t OffsetPairCounts::find(omc::GroupId Group, uint64_t OffA,
                              uint64_t OffB) const {
  size_t Mask = Slots.size() - 1;
  uint64_t Hash = sequitur::avalanche64(OffA * 0x9e3779b97f4a7c15ULL ^
                                        OffB * 0xc2b2ae3d27d4eb4fULL ^
                                        Group * 0x165667b19e3779f9ULL);
  for (size_t I = static_cast<size_t>(Hash) & Mask;; I = (I + 1) & Mask) {
    const Slot &S = Slots[I];
    if (S.Count == 0 ||
        (S.OffA == OffA && S.OffB == OffB && S.Group == Group))
      return I;
  }
}

void OffsetPairCounts::add(omc::GroupId Group, uint64_t OffA, uint64_t OffB) {
  if (OffA > OffB)
    std::swap(OffA, OffB);
  // Load stays at most 3/4: probe runs stay short, and the table stays
  // dense enough that its 4 -> 8 MiB doubling on the largest trace does
  // not raise profile-serial's peak (EXPERIMENTS.md, "Classify memory").
  if ((Size + 1) * 4 > Slots.size() * 3)
    grow();
  Slot &S = Slots[find(Group, OffA, OffB)];
  if (S.Count == 0) {
    S = Slot{OffA, OffB, 0, Group};
    ++Size;
  }
  ++S.Count;
}

uint64_t OffsetPairCounts::count(const OffsetPairKey &Key) const {
  return Slots.empty() ? 0 : Slots[find(Key.Group, Key.OffA, Key.OffB)].Count;
}

void OffsetPairCounts::grow() {
  constexpr size_t kMinSlots = 1024;
  support::MappedArray<Slot> Old = std::move(Slots);
  Slots = support::MappedArray<Slot>(Old.empty() ? kMinSlots
                                                 : Old.size() * 2);
  for (const Slot &S : Old)
    if (S.Count != 0)
      Slots[find(S.Group, S.OffA, S.OffB)] = S;
}

bool OffsetPairCounts::operator==(const OffsetPairCounts &O) const {
  if (Size != O.Size)
    return false;
  for (const Slot &S : Slots)
    if (S.Count != 0 && O.count(OffsetPairKey{S.Group, S.OffA, S.OffB}) !=
                            S.Count)
      return false;
  return true;
}

void OffsetPairScanner::consume(const core::OrTuple &T) {
  if (HavePrev && Prev.Group == T.Group && Prev.Object == T.Object &&
      Prev.Offset != T.Offset)
    Counts.add(T.Group, Prev.Offset, T.Offset);
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
    Counts.add(static_cast<omc::GroupId>(Group), PrevOffset, Offset);
  }
  return Counts;
}

std::vector<LayoutAdvice>
orp::advisor::rankLayoutAdvice(const OffsetPairCounts &Counts,
                               const ClassifierOptions &Opts) {
  std::vector<LayoutAdvice> Advice;
  Counts.forEach([&](const OffsetPairKey &Key, uint64_t Count) {
    if (Count >= Opts.MinPairCount)
      Advice.push_back(LayoutAdvice{Key.Group, Key.OffA, Key.OffB, Count});
  });
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
