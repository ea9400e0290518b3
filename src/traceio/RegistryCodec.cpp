//===- traceio/RegistryCodec.cpp - Probe-table payload codec -------------===//

#include "traceio/RegistryCodec.h"

#include "support/VarInt.h"

using namespace orp;
using namespace orp::traceio;

static void appendString(const std::string &S, std::vector<uint8_t> &Out) {
  encodeULEB128(S.size(), Out);
  Out.insert(Out.end(), S.begin(), S.end());
}

void traceio::appendRegistryPayload(
    const trace::InstructionRegistry &Registry, std::vector<uint8_t> &Out) {
  encodeULEB128(Registry.numInstructions(), Out);
  for (size_t I = 0; I != Registry.numInstructions(); ++I) {
    const trace::InstrInfo &Info =
        Registry.instruction(static_cast<trace::InstrId>(I));
    appendString(Info.Name, Out);
    Out.push_back(static_cast<uint8_t>(Info.Kind));
  }
  encodeULEB128(Registry.numAllocSites(), Out);
  for (size_t I = 0; I != Registry.numAllocSites(); ++I) {
    const trace::AllocSiteInfo &Info =
        Registry.allocSite(static_cast<trace::AllocSiteId>(I));
    appendString(Info.Name, Out);
    appendString(Info.TypeName, Out);
  }
}

void traceio::appendRegistryPayload(
    const std::vector<trace::InstrInfo> &Instrs,
    const std::vector<trace::AllocSiteInfo> &Sites,
    std::vector<uint8_t> &Out) {
  encodeULEB128(Instrs.size(), Out);
  for (const trace::InstrInfo &Info : Instrs) {
    appendString(Info.Name, Out);
    Out.push_back(static_cast<uint8_t>(Info.Kind));
  }
  encodeULEB128(Sites.size(), Out);
  for (const trace::AllocSiteInfo &Info : Sites) {
    appendString(Info.Name, Out);
    appendString(Info.TypeName, Out);
  }
}

bool traceio::parseRegistryPayload(const uint8_t *Data, size_t Len,
                                   std::vector<trace::InstrInfo> &Instrs,
                                   std::vector<trace::AllocSiteInfo> &Sites,
                                   std::string &Err) {
  Instrs.clear();
  Sites.clear();
  size_t Pos = 0;
  auto ReadString = [&](std::string &Out) {
    uint64_t StrLen;
    if (!tryDecodeULEB128(Data, Len, Pos, StrLen) || StrLen > Len - Pos)
      return false;
    Out.assign(Data + Pos, Data + Pos + StrLen);
    Pos += StrLen;
    return true;
  };

  uint64_t NumInstrs;
  if (!tryDecodeULEB128(Data, Len, Pos, NumInstrs)) {
    Err = "malformed instruction table";
    return false;
  }
  for (uint64_t I = 0; I != NumInstrs; ++I) {
    trace::InstrInfo Instr;
    if (!ReadString(Instr.Name) || Pos >= Len) {
      Err = "malformed instruction entry";
      return false;
    }
    const uint8_t Kind = Data[Pos++];
    if (Kind != static_cast<uint8_t>(trace::AccessKind::Load) &&
        Kind != static_cast<uint8_t>(trace::AccessKind::Store)) {
      Err = "malformed instruction entry: kind " + std::to_string(Kind);
      return false;
    }
    Instr.Kind = static_cast<trace::AccessKind>(Kind);
    Instrs.push_back(std::move(Instr));
  }
  uint64_t NumSites;
  if (!tryDecodeULEB128(Data, Len, Pos, NumSites)) {
    Err = "malformed allocation-site table";
    return false;
  }
  for (uint64_t I = 0; I != NumSites; ++I) {
    trace::AllocSiteInfo Site;
    if (!ReadString(Site.Name) || !ReadString(Site.TypeName)) {
      Err = "malformed allocation-site entry";
      return false;
    }
    Sites.push_back(std::move(Site));
  }
  if (Pos != Len) {
    Err = "trailing bytes";
    return false;
  }
  return true;
}
