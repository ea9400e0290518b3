//===- omc/ObjectManager.h - Object-management component -------*- C++ -*-===//
//
// Part of the ORP reproduction of "Exposing Memory Access Regularities
// Using Object-Relative Memory Profiling" (CGO 2004).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's OMC (Section 2.3): "records information about every object
/// allocated in the program: the time when it is allocated and
/// de-allocated, the address range used by the object, and the type of
/// the object. Additionally, this component assigns an identifier to
/// every group and object ... Given an address, the OMC identifies the
/// group and object, and translates the raw address into a
/// (group, object, offset) triple."
///
/// Groups are formed per static allocation site ("the profiler groups
/// allocated dynamic objects by static instruction", Section 3.1);
/// objects receive serial numbers in allocation order within their group.
///
//===----------------------------------------------------------------------===//

#ifndef ORP_OMC_OBJECTMANAGER_H
#define ORP_OMC_OBJECTMANAGER_H

#include "trace/Events.h"

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

namespace orp {

namespace check {
class OmcValidator;
} // namespace check

namespace omc {

/// Dense identifier of a group (allocation site), first-seen order.
using GroupId = uint32_t;
/// Serial number of an object within its group, allocation order.
using ObjectSerial = uint64_t;

/// Result of translating a raw address.
struct Translation {
  GroupId Group;
  ObjectSerial Object;
  uint64_t Offset;   ///< Byte offset from the object's start.
  uint64_t ObjectId; ///< Global index into records().
};

/// Full lifetime record of one object ("the object lifetime and other
/// auxiliary information from the OMC unit"). This run/alloc-dependent
/// information is kept separate from the invariant object-relative
/// tuples, as the paper prescribes.
struct ObjectRecord {
  GroupId Group;
  ObjectSerial Serial;
  trace::AllocSiteId Site;
  uint64_t Base;
  uint64_t Size;
  uint64_t AllocTime;
  uint64_t FreeTime; ///< kLiveForever while the object is live.
  bool IsStatic;
};

/// OMC counters. Plain members bumped on the thread driving the OMC —
/// the telemetry layer publishes them via a snapshot-time collector,
/// so the per-access path stays a single increment.
struct OmcStats {
  uint64_t Translations = 0; ///< translate() calls that hit an object.
  uint64_t Misses = 0;       ///< translate() calls on unmapped addresses.
  uint64_t UnknownFrees = 0; ///< Frees of addresses with no live object.
  uint64_t MruHits = 0;      ///< Hits in the per-instruction MRU cache.
  uint64_t SharedCacheHits = 0; ///< Hits in the one-entry shared cache.
  /// Always 0: no lookup tier counts here. Kept only because perfbench's
  /// staged OMC layer reads it for its `omc.page_hits` row.
  uint64_t PageHits = 0;
};

/// The object-management component.
class ObjectManager {
public:
  /// FreeTime value of objects that are still live.
  static constexpr uint64_t kLiveForever = ~0ULL;

  /// Parameterizes pool handling for \p Site (the paper's Section 3.1
  /// footnote: custom allocation pools are treated as single objects by
  /// default, but "the profiler can be parameterized to handle this").
  /// After this call, every object allocated at \p Site is treated as a
  /// pool of \p ElementSize-byte sub-objects: translate() reports the
  /// element slot as the object serial and the offset within the
  /// element. Must be set before the site's first allocation.
  void splitPoolSite(trace::AllocSiteId Site, uint64_t ElementSize);

  /// Registers the object created by \p Event (object probe). The
  /// event must pass allocError().
  void onAlloc(const trace::AllocEvent &Event);

  /// Why \p Event cannot be registered, or null when it can: a
  /// zero-sized object, a size of 2^63 or more (object offsets must stay
  /// inside a grammar's terminal domain), a range that wraps past 2^64,
  /// or one that overlaps a live object. A live run's allocator never
  /// produces these; a recorded trace or a wire frame may.
  const char *allocError(const trace::AllocEvent &Event) const;

  /// Retires the live object starting at Event.Addr. Unknown addresses
  /// are counted in stats().UnknownFrees and otherwise ignored.
  void onFree(const trace::FreeEvent &Event);

  /// Translates \p Addr into (group, object, offset); std::nullopt when
  /// no live object covers the address.
  std::optional<Translation> translate(uint64_t Addr);

  /// Translates \p Addr for an access by \p Instr. Functionally
  /// identical to translate(Addr), but consults a small per-instruction
  /// MRU cache first: loops that alternate between objects from
  /// different instructions (the vpr/parser pattern) thrash a single
  /// shared cache entry, while each instruction's own last object is
  /// highly stable. This is the entry point the CDC uses.
  std::optional<Translation> translate(uint64_t Addr, trace::InstrId Instr);

  /// Returns the group assigned to \p Site, creating it on first use.
  GroupId groupForSite(trace::AllocSiteId Site);

  /// Returns the group of \p Site if one was ever created.
  std::optional<GroupId> lookupGroupForSite(trace::AllocSiteId Site) const;

  /// Returns the allocation site behind \p Group.
  trace::AllocSiteId siteForGroup(GroupId Group) const;

  /// Returns the number of groups created so far.
  size_t numGroups() const { return GroupSites.size(); }

  /// Returns all object records (live and retired), ObjectId-indexed.
  const std::vector<ObjectRecord> &records() const { return Records; }

  /// Returns the number of currently live objects.
  size_t numLiveObjects() const { return LiveIndex.size(); }

  /// Returns OMC counters.
  const OmcStats &stats() const { return Stats; }

private:
  /// The deep invariant checker (src/check/OmcValidator.h) cross-checks
  /// the caches, serial counters, and site/group maps against the
  /// authoritative records.
  friend class ::orp::check::OmcValidator;
  /// Serializes/restores the authoritative state (records, group maps,
  /// serial counters, live index) for mid-trace checkpointing; the
  /// caches are derived state and restart cold.
  friend class OmcCheckpoint;

  /// Why [\p Base, \p Base + \p Size) can never be an object's range,
  /// or null when it can: the admission rule that allocError() and
  /// checkpoint restore share, minus the overlap test.
  static const char *rangeError(uint64_t Base, uint64_t Size);

  /// Returns true if some live object overlaps the non-empty range
  /// [\p Base, \p Base + \p Size).
  bool overlapsLive(uint64_t Base, uint64_t Size) const;

  /// Returns the id of the live object containing \p Addr, or ~0ULL.
  uint64_t findLive(uint64_t Addr) const;

  /// Completes a translation for the object \p ObjectId containing
  /// \p Addr, applying the pool-splitting policy when configured.
  Translation translateWithin(uint64_t ObjectId, uint64_t Addr);

  /// The paper's "B-tree-like" index (Section 3.1): live objects keyed
  /// by base address, mapped to their ObjectId. Live ranges are
  /// disjoint, so the object containing an address is the predecessor
  /// of its upper bound; the object's end comes from its record.
  std::map<uint64_t, uint64_t> LiveIndex;
  std::vector<ObjectRecord> Records;
  std::unordered_map<trace::AllocSiteId, GroupId> SiteToGroup;
  std::vector<trace::AllocSiteId> GroupSites;
  std::vector<ObjectSerial> NextSerial;
  /// Sites whose pools are split into fixed-size elements; value is the
  /// element size in bytes.
  std::unordered_map<trace::AllocSiteId, uint64_t> PoolElementSize;
  /// First element serial of each pool object (parallel to Records;
  /// ~0ULL for non-split objects).
  std::vector<ObjectSerial> PoolBaseSerial;
  OmcStats Stats;
  /// One-entry translation cache: consecutive accesses overwhelmingly
  /// hit the same object (field walks, buffer sweeps), so remembering
  /// the last hit short-circuits most index lookups.
  uint64_t CachedBase = 1;
  uint64_t CachedEnd = 0;
  uint64_t CachedObjectId = 0;
  /// Per-instruction MRU translation cache, direct-mapped by the low
  /// bits of the instruction id (see translate(Addr, Instr)). An entry
  /// with End <= Base is empty; onFree() invalidates matching lines.
  struct CacheLine {
    uint64_t Base = 1;
    uint64_t End = 0;
    uint64_t ObjectId = 0;
  };
  static constexpr size_t InstrCacheLines = 64;
  std::array<CacheLine, InstrCacheLines> InstrCache;
};

} // namespace omc
} // namespace orp

#endif // ORP_OMC_OBJECTMANAGER_H
