//===- tests/ReferenceOmc.h - Linear-scan reference OMC ---------*- C++ -*-===//
//
// Part of the ORP reproduction of "Exposing Memory Access Regularities
// Using Object-Relative Memory Profiling" (CGO 2004).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A reference model of ObjectManager written for clarity, not
/// speed: it keeps every object ever allocated in one vector and answers
/// each question with a linear scan. It has no index and no cache, so a
/// differential test that drives it next to the real OMC checks the
/// index and every cache tier against the paper's definition of the OMC
/// (Section 2.3): "given an address, the OMC identifies the group and
/// object, and translates the raw address into a (group, object, offset)
/// triple".
///
//===----------------------------------------------------------------------===//

#ifndef ORP_TESTS_REFERENCEOMC_H
#define ORP_TESTS_REFERENCEOMC_H

#include "omc/ObjectManager.h"
#include "trace/Events.h"

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

namespace orp {
namespace omc {

/// Linear-scan model of the OMC's observable behaviour.
class ReferenceOmc {
public:
  /// The counters the real OMC keeps that do not depend on its caches.
  struct Stats {
    uint64_t Translations = 0;
    uint64_t Misses = 0;
    uint64_t UnknownFrees = 0;
  };

  /// Objects at \p Site become pools of \p ElementSize-byte elements.
  void splitPoolSite(trace::AllocSiteId Site, uint64_t ElementSize) {
    PoolElementSize[Site] = ElementSize;
  }

  /// Why \p Event cannot be registered, or null; the same reasons, in
  /// the same order, as ObjectManager::allocError.
  const char *allocError(const trace::AllocEvent &Event) const {
    if (Event.Size == 0)
      return "zero-sized allocation";
    if (Event.Size >= (uint64_t(1) << 63))
      return "allocation of 2^63 bytes or more";
    // The end, Addr + Size, must be representable in 64 bits.
    if (Event.Size > ~uint64_t(0) - Event.Addr)
      return "allocation wraps past 2^64";
    for (const Object &O : Objects)
      if (O.Live && Event.Addr < O.Base + O.Size &&
          O.Base < Event.Addr + Event.Size)
        return "allocation overlaps a live object";
    return nullptr;
  }

  /// Registers the object \p Event creates; it must pass allocError().
  void onAlloc(const trace::AllocEvent &Event) {
    auto [It, NewSite] = GroupOfSite.try_emplace(
        Event.Site, static_cast<GroupId>(NextSerial.size()));
    if (NewSite)
      NextSerial.push_back(0);
    GroupId Group = It->second;
    Objects.push_back(Object{Event.Site, Group, NextSerial[Group], Event.Addr,
                             Event.Size, /*Live=*/true});
    // A pool takes one serial per element slot, a plain object one.
    auto Pool = PoolElementSize.find(Event.Site);
    if (Pool == PoolElementSize.end())
      NextSerial[Group] += 1;
    else
      NextSerial[Group] += (Event.Size + Pool->second - 1) / Pool->second;
  }

  /// Retires the live object that starts at Event.Addr; counts anything
  /// else as an unknown free.
  void onFree(const trace::FreeEvent &Event) {
    for (Object &O : Objects)
      if (O.Live && O.Base == Event.Addr) {
        O.Live = false;
        return;
      }
    ++Counters.UnknownFrees;
  }

  /// The (group, object, offset) of \p Addr, or std::nullopt when no live
  /// object covers it.
  std::optional<Translation> translate(uint64_t Addr) {
    for (size_t Id = 0; Id != Objects.size(); ++Id) {
      const Object &O = Objects[Id];
      if (!O.Live || Addr < O.Base || Addr - O.Base >= O.Size)
        continue;
      ++Counters.Translations;
      uint64_t Offset = Addr - O.Base;
      auto Pool = PoolElementSize.find(O.Site);
      if (Pool == PoolElementSize.end())
        return Translation{O.Group, O.Serial, Offset, Id};
      return Translation{O.Group, O.Serial + Offset / Pool->second,
                         Offset % Pool->second, Id};
    }
    ++Counters.Misses;
    return std::nullopt;
  }

  /// Returns the number of live objects.
  size_t numLiveObjects() const {
    size_t Live = 0;
    for (const Object &O : Objects)
      Live += O.Live ? 1 : 0;
    return Live;
  }

  /// The counters; a restored OMC starts its counters from zero, so a
  /// test that restores one resets these too.
  Stats &stats() { return Counters; }

private:
  struct Object {
    trace::AllocSiteId Site;
    GroupId Group;
    ObjectSerial Serial;
    uint64_t Base;
    uint64_t Size;
    bool Live;
  };

  std::vector<Object> Objects; ///< Every object, in allocation order.
  std::map<trace::AllocSiteId, GroupId> GroupOfSite;
  std::vector<ObjectSerial> NextSerial; ///< Indexed by group.
  std::map<trace::AllocSiteId, uint64_t> PoolElementSize;
  Stats Counters;
};

} // namespace omc
} // namespace orp

#endif // ORP_TESTS_REFERENCEOMC_H
