//===- session/ProfileSession.cpp - One profiling session ----------------===//

#include "session/ProfileSession.h"

#include "check/OmcValidator.h"
#include "leap/LeapProfileData.h"
#include "omc/OmcCheckpoint.h"
#include "support/Checksum.h"
#include "support/Endian.h"
#include "support/Error.h"
#include "support/VarInt.h"
#include "support/WorkerPool.h"
#include "telemetry/Registry.h"
#include "traceio/BlockCodec.h"
#include "whomp/OmsgArchive.h"

#include <algorithm>
#include <optional>

using namespace orp;
using namespace orp::session;

namespace {

/// Blocks the replay decode-ahead worker may buffer ahead of injection.
constexpr size_t kDecodeQueueDepth = 2;

/// Injects \p Block (block \p BlockIndex) into \p Session's memory in
/// delivery order: every run of accesses between boundaries travels as
/// one injectAccessBatch span, frees go through injectFree and allocs
/// through the session's checked injectAlloc. Adds the events injected
/// to \p Injected. An allocation the OMC cannot register ends the block
/// before it: returns false with \p Err set.
bool injectDecodedBlock(core::ProfilingSession &Session,
                        const traceio::DecodedBlock &Block,
                        uint64_t BlockIndex, uint64_t &Injected,
                        std::string &Err) {
  trace::MemoryInterface &Memory = Session.memory();
  const trace::AccessEvent *Accesses = Block.Accesses.data();
  size_t Cursor = 0;
  for (size_t I = 0; I != Block.Boundaries.size(); ++I) {
    const traceio::DecodedBlock::Boundary &B = Block.Boundaries[I];
    if (B.AccessesBefore > Cursor) {
      Memory.injectAccessBatch(std::span<const trace::AccessEvent>(
          Accesses + Cursor, B.AccessesBefore - Cursor));
      Cursor = B.AccessesBefore;
    }
    if (B.E.K == traceio::TraceEvent::Kind::Free) {
      Memory.injectFree(trace::FreeEvent{B.E.Addr, B.E.Time});
    } else if (!Session.injectAlloc(
                   trace::AllocEvent{B.E.InstrOrSite, B.E.Addr, B.E.Size,
                                     B.E.Time, B.E.IsStatic},
                   BlockIndex, Err)) {
      Injected += Cursor + I; // The accesses and boundaries before it.
      return false;
    }
  }
  if (Cursor < Block.Accesses.size())
    Memory.injectAccessBatch(std::span<const trace::AccessEvent>(
        Accesses + Cursor, Block.Accesses.size() - Cursor));
  Injected += Block.events();
  return true;
}

} // namespace

SessionConfig session::recordedConfig(const traceio::TraceReader &Reader) {
  SessionConfig Config;
  Config.Policy = static_cast<memsim::AllocPolicy>(Reader.info().AllocPolicy);
  Config.Seed = Reader.info().Seed;
  return Config;
}

ProfileSession::ProfileSession(std::string Name, const SessionConfig &Config,
                               telemetry::Registry &Collectors)
    : Name(std::move(Name)), Config(Config),
      Core(std::make_unique<core::ProfilingSession>(Config.Policy,
                                                    Config.Seed, Collectors)) {
  if (Config.EnableWhomp) {
    Whomp = std::make_unique<whomp::WhompProfiler>(Config.ProfilerThreads,
                                                   Collectors);
    Core->addConsumer(Whomp.get());
  }
  if (Config.EnableLeap) {
    Leap = std::make_unique<leap::LeapProfiler>(
        Config.MaxLmads, Config.ProfilerThreads, Collectors);
    Core->addConsumer(Leap.get());
  }
}

ProfileSession::~ProfileSession() {
  // Threaded profilers own their grammars/substreams until finish();
  // make destruction safe for sessions that were never finalized.
  if (!Finished)
    Core->finish();
}

void ProfileSession::registerProbeTables(
    const std::vector<trace::InstrInfo> &Instrs,
    const std::vector<trace::AllocSiteInfo> &Sites) {
  trace::InstructionRegistry &Registry = Core->registry();
  for (const trace::InstrInfo &Info : Instrs)
    Registry.addInstruction(Info.Name, Info.Kind);
  for (const trace::AllocSiteInfo &Info : Sites)
    Registry.addAllocSite(Info.Name, Info.TypeName);
}

bool ProfileSession::injectBlock(const uint8_t *Payload, size_t Len,
                                 uint64_t EventCount, uint32_t Crc,
                                 uint64_t BlockIndex,
                                 uint8_t FormatVersion) {
  if (Failed || rejectFinalized())
    return false;
  if (FormatVersion != traceio::kFormatVersionV2) {
    Err = "block " + std::to_string(BlockIndex) +
          ": unsupported format version " + std::to_string(FormatVersion);
    Failed = true;
    return false;
  }
  if (Whomp)
    Whomp->rebuildIndexes();
  traceio::DecodedBlock Block;
  if (!traceio::verifyBlockChecksum(Payload, Len, Crc, BlockIndex,
                                    /*BaseOffset=*/0, Err) ||
      !traceio::decodeEventBlock(Payload, Len, EventCount, Block, Err,
                                 BlockIndex, /*BaseOffset=*/0) ||
      !injectDecodedBlock(*Core, Block, BlockIndex, Events, Err)) {
    Failed = true;
    return false;
  }
  return true;
}

bool ProfileSession::rejectFinalized() {
  if (!Finished)
    return false;
  // The profilers are finished (WHOMP's grammars sealed): nothing may be
  // appended. The session itself is sound, so failed() stays as it was.
  Err = "session already finalized";
  return true;
}

bool ProfileSession::replayFrom(
    traceio::TraceReader &Reader, unsigned DecodeThreads,
    uint64_t FirstBlock, uint64_t EndBlock,
    const std::function<void(uint64_t)> &BlockDone) {
  if (rejectFinalized())
    return false;
  registerProbeTables(Reader.instructions(), Reader.allocSites());
  if (Whomp)
    Whomp->rebuildIndexes();
  telemetry::Registry &Reg = telemetry::Registry::global();
  telemetry::ScopedTimer ReplayTiming(Reg.timer("replay.total"));
  const uint64_t NumBlocks = Reader.numEventBlocks();
  const uint64_t B0 = std::min(FirstBlock, NumBlocks);
  const uint64_t B1 = std::clamp(EndBlock, B0, NumBlocks);
  const uint64_t EventsBefore = Events;

  // Decode-ahead: one worker decodes the blocks in order into a bounded
  // queue while this thread injects, so delivery order is the serial
  // order. It only reads the reader; the pipeline, which is not
  // thread-safe, is only ever touched from this thread. The worker
  // pushes every block it decodes, so a pop that fails before the range
  // ends means it stopped at a corrupt block.
  support::SpscQueue<traceio::DecodedBlock> Decoded(kDecodeQueueDepth);
  std::optional<support::ScopedThread> Decoder;
  if (DecodeThreads > 1 && B1 - B0 >= 2)
    Decoder.emplace([&Reader, &Decoded, B0, B1] {
      traceio::DecodedBlock Block;
      for (uint64_t B = B0; B != B1; ++B) {
        if (!Reader.decodeBlockColumns(B, Block) ||
            !Decoded.push(std::move(Block)))
          break; // A corrupt block, or the consumer stopped.
        Block = traceio::DecodedBlock();
      }
      Decoded.close();
    });

  traceio::DecodedBlock Block;
  std::string InjectErr;
  bool Ok = true;
  for (uint64_t B = B0; Ok && B != B1; ++B) {
    Ok = (Decoder ? Decoded.pop(Block)
                  : Reader.decodeBlockColumns(B, Block)) &&
         injectDecodedBlock(*Core, Block, B, Events, InjectErr);
    if (Ok && BlockDone)
      BlockDone(B + 1);
  }
  if (Decoder) {
    Decoded.close(); // Stops a worker still ahead of a failed injection.
    Decoder->join(); // Publishes the reader's error to this thread.
    // The queue's high watermark vs capacity says whether the worker
    // kept ahead of injection; PushStalls counts the times it outran it.
    support::QueueTelemetry QT = Decoded.telemetry();
    Reg.gauge("replay.decode_queue.capacity")
        .set(static_cast<int64_t>(QT.Capacity));
    Reg.gauge("replay.decode_queue.high_watermark")
        .set(static_cast<int64_t>(QT.HighWatermark));
    Reg.gauge("replay.decode_queue.pushes")
        .set(static_cast<int64_t>(QT.Pushes));
    Reg.gauge("replay.decode_queue.push_stalls")
        .set(static_cast<int64_t>(QT.PushStalls));
  }
  Reg.counter("replay.events").add(Events - EventsBefore);
  if (!Ok) {
    Failed = true;
    Err = InjectErr.empty() ? Reader.error() : InjectErr;
  }
  return Ok;
}

std::vector<uint8_t>
ProfileSession::checkpoint(const traceio::TraceReader &Reader,
                           uint64_t NextBlock) {
  // Built from the magic rather than inserted into an empty vector: GCC
  // 12 reports a false -Wstringop-overflow for the insert.
  std::vector<uint8_t> Out(kCheckpointMagic, kCheckpointMagic + 4);
  Out.push_back(kCheckpointVersion);
  size_t CrcAt = Out.size();
  appendLE32(0, Out); // Patched below.

  // Progress.
  encodeULEB128(NextBlock, Out);
  encodeULEB128(Events, Out);
  // Session configuration a resume must reproduce to get identical
  // translations and artifacts.
  Out.push_back(static_cast<uint8_t>(Config.Policy));
  encodeULEB128(Config.Seed, Out);
  Out.push_back(Config.EnableWhomp ? 1 : 0);
  Out.push_back(Config.EnableLeap ? 1 : 0);
  encodeULEB128(Config.MaxLmads, Out);
  // Trace identity: enough to reject resuming against the wrong file.
  encodeULEB128(Reader.numEventBlocks(), Out);
  encodeULEB128(Reader.info().TotalEvents, Out);

  omc::OmcCheckpoint::serialize(Core->omc(), Out);

  uint32_t Crc = crc32(Out.data() + CrcAt + 4, Out.size() - CrcAt - 4);
  Out[CrcAt] = static_cast<uint8_t>(Crc);
  Out[CrcAt + 1] = static_cast<uint8_t>(Crc >> 8);
  Out[CrcAt + 2] = static_cast<uint8_t>(Crc >> 16);
  Out[CrcAt + 3] = static_cast<uint8_t>(Crc >> 24);
  return Out;
}

bool ProfileSession::restoreCheckpoint(const std::vector<uint8_t> &Bytes,
                                       const traceio::TraceReader &Reader,
                                       uint64_t &NextBlock,
                                       std::string &Err) {
  constexpr size_t kHeaderSize = 4 + 1 + 4;
  if (Events != 0 || Finished || Failed) {
    Err = "checkpoint: restore target is not a fresh session";
    return false;
  }
  if (Bytes.size() < kHeaderSize) {
    Err = "checkpoint: truncated header";
    return false;
  }
  if (!std::equal(kCheckpointMagic, kCheckpointMagic + 4, Bytes.begin())) {
    Err = "checkpoint: bad magic";
    return false;
  }
  if (Bytes[4] != kCheckpointVersion) {
    Err = "checkpoint: unsupported format version " +
          std::to_string(Bytes[4]);
    return false;
  }
  uint32_t Stored = readLE32(Bytes.data() + 5);
  if (crc32(Bytes.data() + kHeaderSize, Bytes.size() - kHeaderSize) !=
      Stored) {
    Err = "checkpoint: checksum mismatch (corrupted image)";
    return false;
  }

  const uint8_t *Data = Bytes.data();
  size_t Size = Bytes.size();
  size_t Pos = kHeaderSize;
  auto ReadU = [&](const char *What, uint64_t &Value) {
    VarIntStatus S = decodeULEB128Checked(Data, Size, Pos, Value);
    if (S != VarIntStatus::Ok) {
      Err = std::string("checkpoint: ") + What + ": " +
            varIntStatusName(S) + " varint";
      return false;
    }
    return true;
  };
  auto ReadByte = [&](const char *What, uint8_t &Value) {
    if (Pos >= Size) {
      Err = std::string("checkpoint: ") + What + ": truncated";
      return false;
    }
    Value = Data[Pos++];
    return true;
  };

  uint64_t Next = 0, EventsSoFar = 0, Seed = 0, MaxLmads = 0;
  uint64_t TraceBlocks = 0, TraceEvents = 0;
  uint8_t Policy = 0, EnableWhomp = 0, EnableLeap = 0;
  if (!ReadU("next block", Next) || !ReadU("event count", EventsSoFar) ||
      !ReadByte("alloc policy", Policy) || !ReadU("seed", Seed) ||
      !ReadByte("whomp flag", EnableWhomp) ||
      !ReadByte("leap flag", EnableLeap) ||
      !ReadU("max lmads", MaxLmads) ||
      !ReadU("trace block count", TraceBlocks) ||
      !ReadU("trace event count", TraceEvents))
    return false;
  if (EnableWhomp > 1 || EnableLeap > 1) {
    Err = "checkpoint: bad profiler flag";
    return false;
  }
  if (Policy != static_cast<uint8_t>(Config.Policy) ||
      Seed != Config.Seed ||
      (EnableWhomp != 0) != Config.EnableWhomp ||
      (EnableLeap != 0) != Config.EnableLeap ||
      MaxLmads != Config.MaxLmads) {
    Err = "checkpoint: session configuration mismatch";
    return false;
  }
  if (TraceBlocks != Reader.numEventBlocks() ||
      TraceEvents != Reader.info().TotalEvents) {
    Err = "checkpoint: trace identity mismatch (different trace?)";
    return false;
  }
  if (Next > TraceBlocks) {
    Err = "checkpoint: next block beyond the end of the trace";
    return false;
  }

  // The OMC section is restored into a scratch manager first, so a
  // rejected image leaves this session's OMC fresh (its destructor still
  // finishes, and level-2 builds validate, the pipeline). The CRC
  // catches accidents, not forgeries: an image built to pass it can
  // restore records whose groups or serials contradict each other, so
  // the deep validator audits the state before the session adopts it.
  const size_t OmcAt = Pos;
  omc::ObjectManager Scratch;
  if (!omc::OmcCheckpoint::restore(Data, Size, Pos, Scratch, Err))
    return false;
  if (Pos != Size) {
    Err = "checkpoint: trailing bytes after payload";
    return false;
  }
  check::CheckReport Report = check::OmcValidator::validate(Scratch);
  if (!Report.ok()) {
    Err = "checkpoint: inconsistent OMC state: " + Report.failures().front();
    return false;
  }
  Pos = OmcAt;
  if (!omc::OmcCheckpoint::restore(Data, Size, Pos, Core->omc(), Err))
    ORP_FATAL_ERROR("checkpoint: validated OMC section failed to restore");
  Events = EventsSoFar;
  NextBlock = Next;
  return true;
}

SessionArtifacts ProfileSession::finalize() {
  if (!Finished) {
    Core->finish();
    Finished = true;
  }
  SessionArtifacts A;
  A.Name = Name;
  A.Events = Events;
  A.Failed = Failed;
  A.Error = Failed ? Err : std::string();
  if (Whomp)
    A.Omsg = whomp::OmsgArchive::build(*Whomp, &Core->omc()).serialize();
  if (Leap)
    A.Leap = leap::LeapProfileData::fromProfiler(*Leap).serialize();
  return A;
}

void ProfileSession::releaseIndexes() {
  if (Whomp) // Finished compressors ignore it.
    Whomp->releaseIndexes();
}

bool ProfileSession::indexesReleased() const {
  return Whomp && Whomp->indexesReleased();
}

size_t ProfileSession::indexBytes() const {
  return Whomp ? Whomp->indexBytes() : 0;
}

uint64_t ProfileSession::grammarSymbols() const {
  return Whomp ? Whomp->bodySymbols() : 0;
}

size_t ProfileSession::memoryEstimateBytes() {
  // The grammars report their real resident bytes (slabs plus digram
  // index pages, or only their images once finalize() sealed them); the
  // OMC and LEAP terms are nominal weights that only need to grow with
  // real usage. The budget these are compared against is configured in
  // the same units.
  constexpr size_t kLiveObjectBytes = 96;
  constexpr size_t kGroupBytes = 64;

  size_t Est = sizeof(ProfileSession);
  const omc::ObjectManager &Omc = Core->omc();
  Est += Omc.numLiveObjects() * kLiveObjectBytes;
  Est += Omc.numGroups() * kGroupBytes;
  // Grammar/substream accessors are only coherent from the owning
  // thread while profiler workers run; with ProfilerThreads == 1 (the
  // SessionManager configuration) this thread is the owner.
  if (Config.ProfilerThreads <= 1) {
    if (Whomp) {
      for (core::Dimension D :
           {core::Dimension::Instruction, core::Dimension::Group,
            core::Dimension::Object, core::Dimension::Offset})
        Est += Whomp->compressorFor(D).footprintBytes();
    }
    if (Leap)
      Est += Leap->serializedSizeBytes();
  }
  return Est;
}
