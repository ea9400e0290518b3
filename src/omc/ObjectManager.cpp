//===- omc/ObjectManager.cpp - Object-management component ---------------===//

#include "omc/ObjectManager.h"

#include "check/Check.h"
#include "support/Error.h"

#include <cassert>

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

const char *ObjectManager::allocError(const trace::AllocEvent &Event) const {
  if (Event.Size == 0)
    return "zero-sized allocation";
  if (Event.Size >> 63)
    return "allocation of 2^63 bytes or more";
  if (Event.Addr + Event.Size <= Event.Addr)
    return "allocation wraps past 2^64";
  if (LiveIndex.overlapsRange(Event.Addr, Event.Addr + Event.Size))
    return "allocation overlaps a live object";
  return nullptr;
}

void ObjectManager::onAlloc(const trace::AllocEvent &Event) {
  ORP_CHECK1(Event.Size > 0, "omc: zero-sized object allocated");
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
  LiveIndex.insert(Event.Addr, Event.Addr + Event.Size, ObjectId);
}

void ObjectManager::onFree(const trace::FreeEvent &Event) {
  const IntervalBTree::Entry *Entry = LiveIndex.lookup(Event.Addr);
  if (!Entry || Entry->Start != Event.Addr) {
    ++Stats.UnknownFrees;
    return;
  }
  Records[Entry->Value].FreeTime = Event.Time;
  LiveIndex.erase(Event.Addr);
  // The freed range must not serve cached translations anymore.
  if (Event.Addr == CachedBase)
    CachedEnd = 0;
  for (CacheLine &Line : InstrCache)
    if (Line.Base == Event.Addr)
      Line.End = 0;
}

uint64_t ObjectManager::lookupPage(uint64_t Addr) const {
  if (PageTable.empty())
    return ~0ULL;
  uint64_t Page = Addr >> kPageShift;
  size_t Slot = pageSlot(Page);
  for (size_t P = 0; P != kPageProbeLimit; ++P) {
    const PageEntry &E = PageTable[(Slot + P) & (kPageTableSlots - 1)];
    if (E.Page == kEmptyPage)
      return ~0ULL; // Bounded probe chains never skip an empty slot.
    if (E.Page != Page)
      continue;
    // Self-validating hit: the entry only stands in for the tree while
    // its record is still live and still covers the address. A stale
    // entry (its object freed, or a neighbor in the same page) degrades
    // into a tree descent, never a wrong translation — which is why
    // onFree() needs no invalidation walk over this table.
    const ObjectRecord &R = Records[E.ObjectId];
    if (R.FreeTime == kLiveForever && Addr - R.Base < R.Size)
      return E.ObjectId;
    return ~0ULL;
  }
  return ~0ULL;
}

void ObjectManager::rememberPage(uint64_t Addr, uint64_t ObjectId) {
  if (PageTable.empty())
    PageTable.resize(kPageTableSlots);
  uint64_t Page = Addr >> kPageShift;
  size_t Slot = pageSlot(Page);
  // Prefer the page's own slot or an empty one; otherwise recycle the
  // first slot whose object has been freed; otherwise evict the
  // primary slot (the table is a cache, not an index).
  size_t Victim = kPageTableSlots;
  for (size_t P = 0; P != kPageProbeLimit; ++P) {
    size_t At = (Slot + P) & (kPageTableSlots - 1);
    PageEntry &E = PageTable[At];
    if (E.Page == Page || E.Page == kEmptyPage) {
      E.Page = Page;
      E.ObjectId = ObjectId;
      return;
    }
    if (Victim == kPageTableSlots &&
        Records[E.ObjectId].FreeTime != kLiveForever)
      Victim = At;
  }
  PageTable[Victim != kPageTableSlots ? Victim : Slot] =
      PageEntry{Page, ObjectId};
}

std::optional<Translation> ObjectManager::translate(uint64_t Addr) {
  if (Addr >= CachedBase && Addr < CachedEnd) {
    ++Stats.Translations;
    ++Stats.SharedCacheHits;
    return translateWithin(CachedObjectId, Addr);
  }
  if (uint64_t ObjectId = lookupPage(Addr); ObjectId != ~0ULL) {
    ++Stats.Translations;
    ++Stats.PageHits;
    const ObjectRecord &R = Records[ObjectId];
    CachedBase = R.Base;
    CachedEnd = R.Base + R.Size;
    CachedObjectId = ObjectId;
    return translateWithin(ObjectId, Addr);
  }
  const IntervalBTree::Entry *Entry = LiveIndex.lookup(Addr);
  if (!Entry) {
    ++Stats.Misses;
    return std::nullopt;
  }
  ++Stats.Translations;
  CachedBase = Entry->Start;
  CachedEnd = Entry->End;
  CachedObjectId = Entry->Value;
  rememberPage(Addr, Entry->Value);
  return translateWithin(Entry->Value, Addr);
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
