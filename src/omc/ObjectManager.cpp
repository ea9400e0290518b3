//===- omc/ObjectManager.cpp - Object-management component ---------------===//

#include "omc/ObjectManager.h"

#include "check/Check.h"
#include "support/Error.h"

#include <iterator>

using namespace orp;
using namespace orp::omc;

GroupId ObjectManager::groupForSite(trace::AllocSiteId Site) {
  auto [It, Inserted] =
      SiteToGroup.try_emplace(Site, static_cast<GroupId>(GroupSites.size()));
  if (Inserted) {
    GroupSites.push_back(Site);
    NextSerial.push_back(0);
  }
  return It->second;
}

std::optional<GroupId>
ObjectManager::lookupGroupForSite(trace::AllocSiteId Site) const {
  auto It = SiteToGroup.find(Site);
  if (It == SiteToGroup.end())
    return std::nullopt;
  return It->second;
}

trace::AllocSiteId ObjectManager::siteForGroup(GroupId Group) const {
  ORP_CHECK1(Group < GroupSites.size(), "omc: unknown group");
  return GroupSites[Group];
}

void ObjectManager::splitPoolSite(trace::AllocSiteId Site,
                                  uint64_t ElementSize) {
  ORP_CHECK1(ElementSize > 0, "omc: zero pool element size");
  ORP_CHECK1(!lookupGroupForSite(Site),
             "omc: pool policy set after the site's first allocation");
  PoolElementSize[Site] = ElementSize;
}

const char *ObjectManager::rangeError(uint64_t Base, uint64_t Size) {
  if (Size == 0)
    return "zero-sized allocation";
  if (Size >> 63)
    return "allocation of 2^63 bytes or more";
  if (Base + Size <= Base)
    return "allocation wraps past 2^64";
  return nullptr;
}

bool ObjectManager::overlapsLive(uint64_t Base, uint64_t Size) const {
  // Live ranges are disjoint, so the last object starting below the
  // range's end reaches furthest; the range overlaps iff that one ends
  // after Base.
  auto It = LiveIndex.lower_bound(Base + Size);
  if (It == LiveIndex.begin())
    return false;
  const ObjectRecord &R = Records[std::prev(It)->second];
  return R.Base + R.Size > Base;
}

uint64_t ObjectManager::findLive(uint64_t Addr) const {
  auto It = LiveIndex.upper_bound(Addr);
  if (It == LiveIndex.begin())
    return ~0ULL;
  uint64_t ObjectId = std::prev(It)->second;
  const ObjectRecord &R = Records[ObjectId];
  return Addr - R.Base < R.Size ? ObjectId : ~0ULL;
}

const char *ObjectManager::allocError(const trace::AllocEvent &Event) const {
  if (const char *Err = rangeError(Event.Addr, Event.Size))
    return Err;
  if (overlapsLive(Event.Addr, Event.Size))
    return "allocation overlaps a live object";
  return nullptr;
}

void ObjectManager::onAlloc(const trace::AllocEvent &Event) {
  ORP_CHECK1(Event.Size > 0, "omc: zero-sized object allocated");
  ORP_CHECK1(!overlapsLive(Event.Addr, Event.Size),
             "omc: allocation overlaps a live object");
  GroupId Group = groupForSite(Event.Site);
  uint64_t ObjectId = Records.size();

  // For split pools the serial counter advances by the number of element
  // slots so that every element has its own (run-invariant) serial.
  auto PoolIt = PoolElementSize.find(Event.Site);
  ObjectSerial Serial = NextSerial[Group];
  if (PoolIt != PoolElementSize.end()) {
    uint64_t Slots = (Event.Size + PoolIt->second - 1) / PoolIt->second;
    PoolBaseSerial.push_back(Serial);
    NextSerial[Group] += Slots;
  } else {
    PoolBaseSerial.push_back(~0ULL);
    NextSerial[Group] += 1;
  }

  Records.push_back(ObjectRecord{Group, Serial, Event.Site, Event.Addr,
                                 Event.Size, Event.Time, kLiveForever,
                                 Event.IsStatic});
  LiveIndex.emplace(Event.Addr, ObjectId);
}

void ObjectManager::onFree(const trace::FreeEvent &Event) {
  auto It = LiveIndex.find(Event.Addr);
  if (It == LiveIndex.end()) {
    ++Stats.UnknownFrees;
    return;
  }
  Records[It->second].FreeTime = Event.Time;
  LiveIndex.erase(It);
  // The freed range must not serve cached translations anymore.
  if (Event.Addr == CachedBase)
    CachedEnd = 0;
  for (CacheLine &Line : InstrCache)
    if (Line.Base == Event.Addr)
      Line.End = 0;
}

std::optional<Translation> ObjectManager::translate(uint64_t Addr) {
  if (Addr >= CachedBase && Addr < CachedEnd) {
    ++Stats.Translations;
    ++Stats.SharedCacheHits;
    return translateWithin(CachedObjectId, Addr);
  }
  uint64_t ObjectId = findLive(Addr);
  if (ObjectId == ~0ULL) {
    ++Stats.Misses;
    return std::nullopt;
  }
  ++Stats.Translations;
  const ObjectRecord &R = Records[ObjectId];
  CachedBase = R.Base;
  CachedEnd = R.Base + R.Size;
  CachedObjectId = ObjectId;
  return translateWithin(ObjectId, Addr);
}

std::optional<Translation> ObjectManager::translate(uint64_t Addr,
                                                    trace::InstrId Instr) {
  CacheLine &Line = InstrCache[Instr & (InstrCacheLines - 1)];
  if (Addr >= Line.Base && Addr < Line.End) {
    ++Stats.Translations;
    ++Stats.MruHits;
    return translateWithin(Line.ObjectId, Addr);
  }
  std::optional<Translation> Result = translate(Addr);
  if (Result) {
    // translate() refreshed the shared entry; mirror it into this
    // instruction's line.
    Line.Base = CachedBase;
    Line.End = CachedEnd;
    Line.ObjectId = CachedObjectId;
  }
  return Result;
}

Translation ObjectManager::translateWithin(uint64_t ObjectId,
                                           uint64_t Addr) {
  const ObjectRecord &Record = Records[ObjectId];
  uint64_t Offset = Addr - Record.Base;
  if (PoolBaseSerial[ObjectId] != ~0ULL) {
    uint64_t Elem = PoolElementSize.at(Record.Site);
    return Translation{Record.Group, Record.Serial + Offset / Elem,
                       Offset % Elem, ObjectId};
  }
  return Translation{Record.Group, Record.Serial, Offset, ObjectId};
}
