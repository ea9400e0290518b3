//===- omc/OmcCheckpoint.cpp - OMC state snapshot/restore ----------------===//

#include "omc/OmcCheckpoint.h"

#include "support/VarInt.h"

#include <algorithm>

using namespace orp;
using namespace orp::omc;

void OmcCheckpoint::serialize(const ObjectManager &Omc,
                              std::vector<uint8_t> &Out) {
  // Groups: the site behind each dense GroupId plus its serial counter.
  // GroupSites is already in GroupId order, so the image is
  // deterministic; SiteToGroup is its inverse and is rebuilt on restore.
  encodeULEB128(Omc.GroupSites.size(), Out);
  for (size_t G = 0; G != Omc.GroupSites.size(); ++G) {
    encodeULEB128(Omc.GroupSites[G], Out);
    encodeULEB128(Omc.NextSerial[G], Out);
  }

  // Pool-splitting parameters, sorted by site for deterministic bytes.
  std::vector<std::pair<trace::AllocSiteId, uint64_t>> Pools;
  Pools.reserve(Omc.PoolElementSize.size());
  // orp-analyze: allow(unordered-serialize): feeds the sort below.
  for (const auto &[Site, ElementSize] : Omc.PoolElementSize)
    Pools.emplace_back(Site, ElementSize);
  std::sort(Pools.begin(), Pools.end());
  encodeULEB128(Pools.size(), Out);
  for (const auto &[Site, ElementSize] : Pools) {
    encodeULEB128(Site, Out);
    encodeULEB128(ElementSize, Out);
  }

  // Object records in ObjectId order, each with its pool base serial.
  // The live interval set is implied: records with FreeTime ==
  // kLiveForever are exactly the LiveIndex entries.
  encodeULEB128(Omc.Records.size(), Out);
  for (size_t I = 0; I != Omc.Records.size(); ++I) {
    const ObjectRecord &Rec = Omc.Records[I];
    encodeULEB128(Rec.Group, Out);
    encodeULEB128(Rec.Serial, Out);
    encodeULEB128(Rec.Site, Out);
    encodeULEB128(Rec.Base, Out);
    encodeULEB128(Rec.Size, Out);
    encodeULEB128(Rec.AllocTime, Out);
    bool Freed = Rec.FreeTime != ObjectManager::kLiveForever;
    Out.push_back(Freed ? 1 : 0);
    if (Freed)
      encodeULEB128(Rec.FreeTime, Out);
    Out.push_back(Rec.IsStatic ? 1 : 0);
    uint64_t PoolBase = Omc.PoolBaseSerial[I];
    bool HasPoolBase = PoolBase != ~0ULL;
    Out.push_back(HasPoolBase ? 1 : 0);
    if (HasPoolBase)
      encodeULEB128(PoolBase, Out);
  }
}

bool OmcCheckpoint::restore(const uint8_t *Data, size_t Size, size_t &Pos,
                            ObjectManager &Omc, std::string &Err) {
  if (!Omc.Records.empty() || !Omc.GroupSites.empty() ||
      !Omc.PoolElementSize.empty()) {
    Err = "omc checkpoint: restore target is not freshly constructed";
    return false;
  }
  auto ReadU = [&](const char *What, uint64_t &Value) {
    VarIntStatus S = decodeULEB128Checked(Data, Size, Pos, Value);
    if (S != VarIntStatus::Ok) {
      Err = std::string("omc checkpoint: ") + What + ": " +
            varIntStatusName(S) + " varint";
      return false;
    }
    return true;
  };
  auto ReadFlag = [&](const char *What, bool &Value) {
    if (Pos >= Size) {
      Err = std::string("omc checkpoint: ") + What + ": truncated";
      return false;
    }
    uint8_t B = Data[Pos++];
    if (B > 1) {
      Err = std::string("omc checkpoint: ") + What + ": bad flag";
      return false;
    }
    Value = B != 0;
    return true;
  };

  uint64_t NumGroups = 0;
  if (!ReadU("group count", NumGroups))
    return false;
  if (NumGroups > (Size - Pos) / 2 + 1) {
    Err = "omc checkpoint: group count exceeds remaining bytes";
    return false;
  }
  Omc.GroupSites.reserve(NumGroups);
  Omc.NextSerial.reserve(NumGroups);
  for (uint64_t G = 0; G != NumGroups; ++G) {
    uint64_t Site = 0, Next = 0;
    if (!ReadU("group site", Site) || !ReadU("group next serial", Next))
      return false;
    auto SiteId = static_cast<trace::AllocSiteId>(Site);
    if (!Omc.SiteToGroup.emplace(SiteId, static_cast<GroupId>(G)).second) {
      Err = "omc checkpoint: duplicate group site";
      return false;
    }
    Omc.GroupSites.push_back(SiteId);
    Omc.NextSerial.push_back(Next);
  }

  uint64_t NumPools = 0;
  if (!ReadU("pool count", NumPools))
    return false;
  if (NumPools > (Size - Pos) / 2 + 1) {
    Err = "omc checkpoint: pool count exceeds remaining bytes";
    return false;
  }
  for (uint64_t P = 0; P != NumPools; ++P) {
    uint64_t Site = 0, ElementSize = 0;
    if (!ReadU("pool site", Site) ||
        !ReadU("pool element size", ElementSize))
      return false;
    if (ElementSize == 0) {
      Err = "omc checkpoint: zero pool element size";
      return false;
    }
    if (!Omc.PoolElementSize
             .emplace(static_cast<trace::AllocSiteId>(Site), ElementSize)
             .second) {
      Err = "omc checkpoint: duplicate pool site";
      return false;
    }
  }

  uint64_t NumRecords = 0;
  if (!ReadU("record count", NumRecords))
    return false;
  // Each record is at least 9 bytes (six varints plus three flags).
  if (NumRecords > (Size - Pos) / 9 + 1) {
    Err = "omc checkpoint: record count exceeds remaining bytes";
    return false;
  }
  Omc.Records.reserve(NumRecords);
  Omc.PoolBaseSerial.reserve(NumRecords);
  for (uint64_t I = 0; I != NumRecords; ++I) {
    ObjectRecord Rec;
    uint64_t Group = 0, Site = 0;
    bool Freed = false, IsStatic = false, HasPoolBase = false;
    if (!ReadU("record group", Group) ||
        !ReadU("record serial", Rec.Serial) ||
        !ReadU("record site", Site) || !ReadU("record base", Rec.Base) ||
        !ReadU("record size", Rec.Size) ||
        !ReadU("record alloc time", Rec.AllocTime))
      return false;
    if (Group >= NumGroups) {
      Err = "omc checkpoint: record references unknown group";
      return false;
    }
    Rec.Group = static_cast<GroupId>(Group);
    Rec.Site = static_cast<trace::AllocSiteId>(Site);
    Rec.FreeTime = ObjectManager::kLiveForever;
    if (!ReadFlag("freed flag", Freed))
      return false;
    if (Freed && !ReadU("record free time", Rec.FreeTime))
      return false;
    if (!ReadFlag("static flag", IsStatic))
      return false;
    Rec.IsStatic = IsStatic;
    uint64_t PoolBase = ~0ULL;
    if (!ReadFlag("pool flag", HasPoolBase))
      return false;
    if (HasPoolBase) {
      if (!ReadU("pool base serial", PoolBase))
        return false;
      if (Omc.PoolElementSize.find(Rec.Site) ==
          Omc.PoolElementSize.end()) {
        Err = "omc checkpoint: pool record for a non-pool site";
        return false;
      }
    }
    // The ranges injection admits (ObjectManager::allocError).
    if (ObjectManager::rangeError(Rec.Base, Rec.Size)) {
      Err = "omc checkpoint: record with an empty, wrapping or 2^63-byte "
            "range";
      return false;
    }
    if (Rec.FreeTime == ObjectManager::kLiveForever) {
      // Re-grow the live index; overlapping live ranges mean the
      // checkpoint is corrupt (lookups require disjointness).
      if (Omc.overlapsLive(Rec.Base, Rec.Size)) {
        Err = "omc checkpoint: overlapping live objects";
        return false;
      }
      Omc.LiveIndex.emplace(Rec.Base, Omc.Records.size());
    }
    Omc.Records.push_back(Rec);
    Omc.PoolBaseSerial.push_back(PoolBase);
  }
  return true;
}
