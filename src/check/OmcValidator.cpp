//===- check/OmcValidator.cpp - Deep OMC validation ----------------------===//

#include "check/OmcValidator.h"

#include <unordered_map>
#include <unordered_set>

using namespace orp;
using namespace orp::check;
using namespace orp::omc;

CheckReport OmcValidator::validate(const ObjectManager &M) {
  CheckReport Report;
  const std::vector<ObjectRecord> &Records = M.Records;

  // Pool bookkeeping is parallel to the records array.
  Report.require(M.PoolBaseSerial.size() == Records.size(),
                 "omc: PoolBaseSerial not parallel to records");

  // Every indexed interval must denote exactly the live object whose
  // record it references, the intervals (ascending by base) must be
  // non-empty and pairwise disjoint, and every live record must be
  // indexed once.
  std::unordered_set<uint64_t> IndexedIds;
  uint64_t PrevEnd = 0;
  for (const auto &[Base, Id] : M.LiveIndex) {
    if (!Report.require(Id < Records.size(),
                        "omc: indexed object id out of range"))
      continue;
    Report.require(IndexedIds.insert(Id).second,
                   "omc: object id indexed twice");
    const ObjectRecord &R = Records[Id];
    Report.require(R.FreeTime == ObjectManager::kLiveForever,
                   "omc: retired object still in live index");
    Report.require(R.Base == Base, "omc: indexed start != record base");
    Report.require(!ObjectManager::rangeError(R.Base, R.Size),
                   "omc: indexed interval empty or wrapping");
    Report.require(PrevEnd <= Base, "omc: indexed intervals overlap");
    PrevEnd = R.Base + R.Size;
  }
  size_t LiveRecords = 0;
  for (const ObjectRecord &R : Records)
    if (R.FreeTime == ObjectManager::kLiveForever)
      ++LiveRecords;
  Report.require(LiveRecords == M.LiveIndex.size(),
                 "omc: live record count != live index size");
  // A broken index makes the lookups below unreliable; report it alone
  // rather than cascade.
  if (!Report.ok())
    return Report;

  // Site <-> group maps must be a bijection with parallel counters.
  Report.require(M.SiteToGroup.size() == M.GroupSites.size(),
                 "omc: SiteToGroup / GroupSites size mismatch");
  Report.require(M.NextSerial.size() == M.GroupSites.size(),
                 "omc: NextSerial not parallel to GroupSites");
  for (size_t G = 0; G != M.GroupSites.size(); ++G) {
    auto It = M.SiteToGroup.find(M.GroupSites[G]);
    if (!Report.require(It != M.SiteToGroup.end(),
                        "omc: group site missing from SiteToGroup"))
      continue;
    Report.require(It->second == G,
                   "omc: SiteToGroup disagrees with GroupSites");
  }

  // Serials are dense and strictly monotonic per group in allocation
  // order (records are appended in allocation order), pools advancing by
  // their slot count; the final counters must match NextSerial.
  std::vector<ObjectSerial> Expected(M.NextSerial.size(), 0);
  for (size_t I = 0; I != Records.size(); ++I) {
    const ObjectRecord &R = Records[I];
    if (!Report.require(R.Group < Expected.size(),
                        "omc: record group out of range"))
      continue;
    auto SiteIt = M.SiteToGroup.find(R.Site);
    Report.require(SiteIt != M.SiteToGroup.end() && SiteIt->second == R.Group,
                   "omc: record group disagrees with its site");
    Report.require(R.Serial == Expected[R.Group],
                   "omc: group serials not monotonic/dense");
    uint64_t Slots = 1;
    auto PoolIt = M.PoolElementSize.find(R.Site);
    if (I < M.PoolBaseSerial.size() && M.PoolBaseSerial[I] != ~0ULL) {
      Report.require(M.PoolBaseSerial[I] == R.Serial,
                     "omc: pool base serial != record serial");
      if (Report.require(PoolIt != M.PoolElementSize.end(),
                         "omc: split object at non-pool site"))
        Slots = (R.Size + PoolIt->second - 1) / PoolIt->second;
    } else {
      Report.require(PoolIt == M.PoolElementSize.end(),
                     "omc: pool-site object not marked split");
    }
    Expected[R.Group] += Slots;
  }
  for (size_t G = 0; G != Expected.size(); ++G)
    Report.require(Expected[G] == M.NextSerial[G],
                   "omc: NextSerial disagrees with allocation history");

  // Both translation caches are pure accelerators: any occupied entry
  // must agree with the authoritative index lookup.
  auto CheckCacheRange = [&Report, &M, &Records](uint64_t Base, uint64_t End,
                                                 uint64_t ObjectId,
                                                 const char *What) {
    if (End <= Base)
      return; // Empty line.
    if (!Report.require(ObjectId < Records.size(),
                        std::string(What) + ": cached id out of range"))
      return;
    uint64_t Id = M.findLive(Base);
    if (!Report.require(Id != ~0ULL,
                        std::string(What) + ": cached range has no object"))
      return;
    const ObjectRecord &R = Records[Id];
    Report.require(R.Base == Base && R.Base + R.Size == End && Id == ObjectId,
                   std::string(What) + ": cache disagrees with live index");
  };
  CheckCacheRange(M.CachedBase, M.CachedEnd, M.CachedObjectId,
                  "omc shared cache");
  for (size_t L = 0; L != M.InstrCache.size(); ++L)
    CheckCacheRange(M.InstrCache[L].Base, M.InstrCache[L].End,
                    M.InstrCache[L].ObjectId, "omc instr cache");

  return Report;
}

bool OmcValidator::injectForTest(ObjectManager &M, Corruption K) {
  switch (K) {
  case Corruption::SharedCacheStale:
  case Corruption::InstrCacheStale: {
    // Keep (or invent) a plausible range but point it at an object id
    // that cannot exist; the id-range check fires even on an empty index.
    uint64_t Base = 0x1000, End = 0x2000;
    if (!M.LiveIndex.empty()) {
      const ObjectRecord &R = M.Records[M.LiveIndex.begin()->second];
      Base = R.Base;
      End = R.Base + R.Size;
    }
    ObjectManager::CacheLine Stale{Base, End, M.Records.size()};
    if (K == Corruption::InstrCacheStale) {
      M.InstrCache.front() = Stale;
    } else {
      M.CachedBase = Stale.Base;
      M.CachedEnd = Stale.End;
      M.CachedObjectId = Stale.ObjectId;
    }
    return true;
  }
  case Corruption::SerialRegression: {
    // Needs two objects in the same group: replay the earlier serial.
    std::unordered_map<GroupId, size_t> FirstInGroup;
    for (size_t I = 0; I != M.Records.size(); ++I) {
      auto [It, Inserted] = FirstInGroup.try_emplace(M.Records[I].Group, I);
      if (!Inserted) {
        M.Records[I].Serial = M.Records[It->second].Serial;
        return true;
      }
    }
    return false;
  }
  }
  return false;
}
