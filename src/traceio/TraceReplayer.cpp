//===- traceio/TraceReplayer.cpp - Re-drive sessions from traces ---------===//

#include "traceio/TraceReplayer.h"

#include "support/SpscQueue.h"
#include "support/WorkerPool.h"
#include "telemetry/Registry.h"

#include <atomic>

using namespace orp;
using namespace orp::traceio;

std::unique_ptr<core::ProfilingSession>
TraceReplayer::makeSession(core::UnknownAddressPolicy Unknown) const {
  auto Policy = static_cast<memsim::AllocPolicy>(Reader.info().AllocPolicy);
  return std::make_unique<core::ProfilingSession>(Policy,
                                                  Reader.info().Seed,
                                                  Unknown);
}

bool TraceReplayer::replayInto(core::ProfilingSession &Session,
                               bool CallFinish) {
  trace::InstructionRegistry &Registry = Session.registry();
  for (const trace::InstrInfo &Info : Reader.instructions())
    Registry.addInstruction(Info.Name, Info.Kind);
  for (const trace::AllocSiteInfo &Info : Reader.allocSites())
    Registry.addAllocSite(Info.Name, Info.TypeName);

  telemetry::Registry &Reg = telemetry::Registry::global();
  telemetry::ScopedTimer ReplayTiming(Reg.timer("replay.total"));
  Replayed = 0;
  Err.clear();
  // Injects one decoded v1 block; false at an allocation the OMC cannot
  // register, which ends the replay.
  auto InjectEvents = [&](const std::vector<TraceEvent> &Events, size_t B) {
    for (const TraceEvent &E : Events) {
      if (!injectEvent(Session, E, B, Err))
        return false;
      ++Replayed;
    }
    return true;
  };

  // Replay covers blocks [B0, B1); checkpoint/resume callers restrict
  // the range, everything else replays the whole trace.
  const size_t NumBlocks = Reader.numEventBlocks();
  const size_t B0 = FirstBlock < NumBlocks ? FirstBlock : NumBlocks;
  const size_t B1 =
      EndBlock < B0 ? B0 : (EndBlock < NumBlocks ? EndBlock : NumBlocks);

  bool Ok;
  if (Reader.info().Version >= kFormatVersionV2) {
    // Columnar replay: each block decodes straight into contiguous
    // column slices (DecodedBlock) and every between-boundaries run of
    // accesses is injected as one span — whole-slice onAccessBatch
    // fan-out instead of per-event virtual dispatch. Delivery order is
    // identical to the per-event path, so profiles are byte-identical.
    if (Threads <= 1 || B1 - B0 < 2) {
      DecodedBlock Block;
      Ok = true;
      for (size_t B = B0; B != B1; ++B) {
        if (!Reader.decodeBlockColumns(B, Block) ||
            !injectDecodedBlock(Session, Block, B, Replayed, Err)) {
          Ok = false;
          break;
        }
        if (BlockDone)
          BlockDone(B + 1);
      }
    } else {
      support::SpscQueue<DecodedBlock> Decoded(DecodeQueueDepth);
      std::atomic<bool> DecodeOk{true};
      support::ScopedThread Decoder([this, &Decoded, &DecodeOk, B0, B1] {
        DecodedBlock Block;
        for (size_t B = B0; B != B1; ++B) {
          if (!Reader.decodeBlockColumns(B, Block)) {
            DecodeOk.store(false, std::memory_order_release);
            break;
          }
          if (!Decoded.push(std::move(Block)))
            break; // Queue closed: the consumer is gone, stop decoding.
          Block = DecodedBlock();
        }
        Decoded.close();
      });
      DecodedBlock Block;
      // Blocks arrive in decode order, so the consumer's count names
      // the block just injected; the callback runs on this (injecting)
      // thread, as the session is single-threaded.
      size_t NextBlock = B0;
      bool InjectOk = true;
      while (Decoded.pop(Block)) {
        if (!injectDecodedBlock(Session, Block, NextBlock, Replayed, Err)) {
          InjectOk = false;
          Decoded.close(); // Stops the decoder.
          break;
        }
        ++NextBlock;
        if (BlockDone)
          BlockDone(NextBlock);
      }
      Decoder.join();
      support::QueueTelemetry QT = Decoded.telemetry();
      Reg.gauge("replay.decode_queue.capacity")
          .set(static_cast<int64_t>(QT.Capacity));
      Reg.gauge("replay.decode_queue.high_watermark")
          .set(static_cast<int64_t>(QT.HighWatermark));
      Reg.gauge("replay.decode_queue.pushes")
          .set(static_cast<int64_t>(QT.Pushes));
      Reg.gauge("replay.decode_queue.push_stalls")
          .set(static_cast<int64_t>(QT.PushStalls));
      Ok = InjectOk && DecodeOk.load(std::memory_order_acquire);
    }
  } else if (Threads <= 1 || B1 - B0 < 2) {
    std::vector<TraceEvent> Events;
    Ok = true;
    for (size_t B = B0; B != B1; ++B) {
      if (!Reader.decodeBlockEvents(B, Events) || !InjectEvents(Events, B)) {
        Ok = false;
        break;
      }
      if (BlockDone)
        BlockDone(B + 1);
    }
  } else {
    // Double-buffered replay: a worker decodes blocks ahead through a
    // bounded queue while this thread injects. Block order is queue
    // order, so event delivery order — and every downstream profile —
    // is identical to the serial path. The sinks are not thread-safe;
    // they are only ever touched from this thread.
    support::SpscQueue<std::vector<TraceEvent>> Decoded(DecodeQueueDepth);
    std::atomic<bool> DecodeOk{true};
    support::ScopedThread Decoder([this, &Decoded, &DecodeOk, B0, B1] {
      std::vector<TraceEvent> Events;
      for (size_t B = B0; B != B1; ++B) {
        if (!Reader.decodeBlockEvents(B, Events)) {
          DecodeOk.store(false, std::memory_order_release);
          break;
        }
        if (!Decoded.push(std::move(Events)))
          break; // Queue closed: the consumer is gone, stop decoding.
        Events = std::vector<TraceEvent>();
      }
      // Like forEachEvent: blocks decoded before a corrupt one stand.
      Decoded.close();
    });
    std::vector<TraceEvent> Block;
    size_t NextBlock = B0;
    bool InjectOk = true;
    while (Decoded.pop(Block)) {
      if (!InjectEvents(Block, NextBlock)) {
        InjectOk = false;
        Decoded.close(); // Stops the decoder.
        break;
      }
      ++NextBlock;
      if (BlockDone)
        BlockDone(NextBlock);
    }
    Decoder.join();
    // Publish the decode-ahead queue's final counters: its high
    // watermark vs capacity says whether the decoder kept ahead of the
    // injection loop, and PushStalls counts the times it outran us.
    support::QueueTelemetry QT = Decoded.telemetry();
    Reg.gauge("replay.decode_queue.capacity")
        .set(static_cast<int64_t>(QT.Capacity));
    Reg.gauge("replay.decode_queue.high_watermark")
        .set(static_cast<int64_t>(QT.HighWatermark));
    Reg.gauge("replay.decode_queue.pushes")
        .set(static_cast<int64_t>(QT.Pushes));
    Reg.gauge("replay.decode_queue.push_stalls")
        .set(static_cast<int64_t>(QT.PushStalls));
    Ok = InjectOk && DecodeOk.load(std::memory_order_acquire);
  }
  Reg.counter("replay.events").add(Replayed);
  if (Ok && CallFinish)
    Session.finish();
  return Ok;
}
