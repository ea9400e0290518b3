//===- advisor/HotColdClassifier.h - Profile -> advice ---------*- C++ -*-===//
//
// Part of the ORP reproduction of "Exposing Memory Access Regularities
// Using Object-Relative Memory Profiling" (CGO 2004).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The decision layer of the advisor subsystem: turn detached profile
/// artifacts — a LEAP profile (.leap) for per-instruction / per-group
/// access counts and an OMSG archive (.omsa) for the lossless tuple
/// stream plus object lifetimes — into an AdvisorReport:
///
///  * HotColdClassifier ranks object groups hot-to-cold by access
///    density (LEAP accesses over OMC footprint) and flags pool
///    candidates (many uniform, mostly-freed objects).
///  * OffsetPairScanner / offsetPairsFromArchive count back-to-back
///    same-object offset transitions — the digram statistics of the
///    offset-dimension grammar — feeding field-reorder advice
///    (generalized from examples/layout_inspector.cpp).
///  * prefetchAdviceFromProfile finds strongly-strided loads in a
///    detached profile, mirroring analysis::findStronglyStrided over
///    the live profiler (generalized from examples/prefetch_advisor).
///
//===----------------------------------------------------------------------===//

#ifndef ORP_ADVISOR_HOTCOLDCLASSIFIER_H
#define ORP_ADVISOR_HOTCOLDCLASSIFIER_H

#include "advisor/AdvisorReport.h"
#include "core/ObjectRelative.h"
#include "leap/LeapProfileData.h"
#include "support/MappedArray.h"
#include "whomp/OmsgArchive.h"

#include <utility>
#include <vector>

namespace orp {
namespace advisor {

/// Tunables of the classifier. The defaults reproduce the paper's
/// thresholds where it states one (0.70 strong-stride share) and stay
/// conservative elsewhere.
struct ClassifierOptions {
  /// Dominant-stride share for a load to earn prefetch advice.
  double StrideThreshold = 0.70;
  /// Minimum objects in a group before it can be a pool candidate.
  uint64_t PoolMinObjects = 8;
  /// Minimum back-to-back count for an offset pair to be advice.
  uint64_t MinPairCount = 2;
  /// Cap on emitted layout-advice entries (hottest kept).
  size_t MaxLayoutEntries = 64;
};

/// Canonically ordered key of one same-object offset pair.
struct OffsetPairKey {
  omc::GroupId Group = 0;
  uint64_t OffA = 0; ///< Always < OffB.
  uint64_t OffB = 0;

  bool operator==(const OffsetPairKey &O) const {
    return Group == O.Group && OffA == O.OffA && OffB == O.OffB;
  }

  bool operator<(const OffsetPairKey &O) const {
    if (Group != O.Group)
      return Group < O.Group;
    if (OffA != O.OffA)
      return OffA < O.OffA;
    return OffB < O.OffB;
  }
};

/// Back-to-back transition counts per canonical pair: one flat
/// open-addressing (linear probing) counting table. Slots live on a
/// support::MappedArray, so the table's pages never pass through malloc
/// and go back to the kernel when the table dies (DESIGN.md §18, "The
/// offset-pair counting table"). Entries are in no particular order;
/// every consumer either looks keys up or sorts.
class OffsetPairCounts {
public:
  /// One slot, 32 bytes. Count == 0 marks an empty slot, so freshly
  /// mapped (zero-filled) pages are an empty table.
  struct Slot {
    uint64_t OffA;
    uint64_t OffB;
    uint64_t Count;
    omc::GroupId Group;
  };

  OffsetPairCounts() = default;
  OffsetPairCounts(OffsetPairCounts &&O) noexcept
      : Slots(std::move(O.Slots)), Size(std::exchange(O.Size, 0)) {}
  OffsetPairCounts &operator=(OffsetPairCounts &&O) noexcept {
    Slots = std::move(O.Slots);
    Size = std::exchange(O.Size, 0);
    return *this;
  }

  /// Adds one transition between \p OffA and \p OffB (in either order,
  /// which must differ) of \p Group.
  void add(omc::GroupId Group, uint64_t OffA, uint64_t OffB);

  /// Transition count of \p Key; 0 when absent.
  uint64_t count(const OffsetPairKey &Key) const;

  /// Distinct pairs counted.
  size_t size() const { return Size; }
  bool empty() const { return Size == 0; }

  /// Calls \p F(OffsetPairKey, Count) once per pair, in table order.
  template <typename Fn> void forEach(Fn &&F) const {
    for (const Slot &S : Slots)
      if (S.Count != 0)
        F(OffsetPairKey{S.Group, S.OffA, S.OffB}, S.Count);
  }

  /// Same pairs with the same counts, whatever order either table
  /// stores them in.
  bool operator==(const OffsetPairCounts &O) const;

private:
  /// Index of the canonical pair's slot, or of the empty slot that ends
  /// its probe run. The table must have slots.
  size_t find(omc::GroupId Group, uint64_t OffA, uint64_t OffB) const;
  /// Doubles the slot array (maps the first one) and reinserts.
  void grow();

  support::MappedArray<Slot> Slots; ///< Power-of-two length, or empty.
  size_t Size = 0;
};

/// Streaming digram counter: attach to a ProfilingSession to collect
/// the same statistics offsetPairsFromArchive() recovers offline.
class OffsetPairScanner : public core::OrTupleConsumer {
public:
  void consume(const core::OrTuple &T) override;

  const OffsetPairCounts &pairCounts() const { return Counts; }

private:
  OffsetPairCounts Counts;
  bool HavePrev = false;
  core::OrTuple Prev{};
};

/// Recovers the back-to-back same-object offset pairs from an archive by
/// walking its group, object and offset cursors in lockstep (the lossless
/// tuple reconstruction, never materialized).
OffsetPairCounts offsetPairsFromArchive(const whomp::OmsgArchive &Archive);

/// Ranks raw pair counts into layout advice: drops pairs below
/// \p Opts.MinPairCount, orders hottest-first by layoutRankBefore (a
/// total order, so the result does not depend on table order), keeps at
/// most \p Opts.MaxLayoutEntries.
std::vector<LayoutAdvice> rankLayoutAdvice(const OffsetPairCounts &Counts,
                                           const ClassifierOptions &Opts);

/// Prefetch distance in iterations for \p Stride: enough to cover a
/// ~200-cycle miss at one stride per iteration, clamped to [2, 64].
uint32_t choosePrefetchDistance(int64_t Stride);

/// Strongly-strided loads of a detached profile: LMADs that stay within
/// one object (object stride 0) contribute Count-1 steps of their
/// offset stride; a load is advice when one stride's share reaches
/// \p Opts.StrideThreshold. Store instructions are excluded. Sorted by
/// instruction id.
std::vector<PrefetchAdvice>
prefetchAdviceFromProfile(const leap::LeapProfileData &Profile,
                          const ClassifierOptions &Opts);

/// The hot/cold placement classifier.
class HotColdClassifier {
public:
  explicit HotColdClassifier(const ClassifierOptions &Opts = {})
      : Opts(Opts) {}

  /// Builds the full advice report from detached artifacts: placement
  /// plan from LEAP access counts over the archive's lifetime table,
  /// layout advice from the archive's offset stream, prefetch advice
  /// from the LEAP LMADs.
  AdvisorReport classify(const leap::LeapProfileData &Leap,
                         const whomp::OmsgArchive &Omsg) const;

  const ClassifierOptions &options() const { return Opts; }

private:
  ClassifierOptions Opts;
};

} // namespace advisor
} // namespace orp

#endif // ORP_ADVISOR_HOTCOLDCLASSIFIER_H
