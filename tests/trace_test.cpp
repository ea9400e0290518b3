//===- tests/trace_test.cpp - Instrumentation runtime unit tests ---------===//

#include "memsim/AddressSpace.h"
#include "trace/Events.h"
#include "trace/InstructionRegistry.h"
#include "trace/MemoryInterface.h"

#include <gtest/gtest.h>

#include <span>
#include <vector>

using namespace orp;
using namespace orp::trace;

TEST(InstructionRegistryTest, AssignsDenseIds) {
  InstructionRegistry R;
  InstrId A = R.addInstruction("load x", AccessKind::Load);
  InstrId B = R.addInstruction("store y", AccessKind::Store);
  EXPECT_EQ(A, 0u);
  EXPECT_EQ(B, 1u);
  EXPECT_EQ(R.numInstructions(), 2u);
  EXPECT_EQ(R.instruction(A).Name, "load x");
  EXPECT_EQ(R.instruction(A).Kind, AccessKind::Load);
  EXPECT_EQ(R.instruction(B).Kind, AccessKind::Store);
}

TEST(InstructionRegistryTest, AllocSites) {
  InstructionRegistry R;
  AllocSiteId S = R.addAllocSite("new node", "struct node");
  EXPECT_EQ(S, 0u);
  EXPECT_EQ(R.allocSite(S).Name, "new node");
  EXPECT_EQ(R.allocSite(S).TypeName, "struct node");
  EXPECT_EQ(R.numAllocSites(), 1u);
}

TEST(MemoryInterfaceTest, ClockAdvancesPerAccess) {
  MemoryInterface M;
  CountingSink C;
  M.attachSink(&C);
  EXPECT_EQ(M.now(), 0u);
  M.load(0, 0x1000);
  M.store(1, 0x1008);
  EXPECT_EQ(M.now(), 2u);
  M.flushAccesses(); // Accesses batch; deliver before inspecting the sink.
  EXPECT_EQ(C.accesses(), 2u);
  EXPECT_EQ(C.loads(), 1u);
  EXPECT_EQ(C.stores(), 1u);
}

TEST(MemoryInterfaceTest, ClockAdvancesEvenWithoutSinks) {
  MemoryInterface M;
  M.load(0, 0x1000);
  M.load(0, 0x1000);
  EXPECT_EQ(M.now(), 2u);
}

TEST(MemoryInterfaceTest, EventsCarryTimestamps) {
  MemoryInterface M;
  BufferSink B;
  M.attachSink(&B);
  M.load(3, 0xAAAA, 4);
  M.store(4, 0xBBBB, 8);
  M.flushAccesses();
  ASSERT_EQ(B.accesses().size(), 2u);
  EXPECT_EQ(B.accesses()[0].Time, 0u);
  EXPECT_EQ(B.accesses()[0].Instr, 3u);
  EXPECT_EQ(B.accesses()[0].Size, 4u);
  EXPECT_FALSE(B.accesses()[0].IsStore);
  EXPECT_EQ(B.accesses()[1].Time, 1u);
  EXPECT_TRUE(B.accesses()[1].IsStore);
}

TEST(MemoryInterfaceTest, HeapAllocEmitsObjectProbe) {
  MemoryInterface M;
  BufferSink B;
  M.attachSink(&B);
  uint64_t Addr = M.heapAlloc(7, 96);
  ASSERT_NE(Addr, 0u);
  ASSERT_EQ(B.allocs().size(), 1u);
  EXPECT_EQ(B.allocs()[0].Site, 7u);
  EXPECT_EQ(B.allocs()[0].Addr, Addr);
  EXPECT_EQ(B.allocs()[0].Size, 96u);
  EXPECT_FALSE(B.allocs()[0].IsStatic);
  M.heapFree(Addr);
  ASSERT_EQ(B.frees().size(), 1u);
  EXPECT_EQ(B.frees()[0].Addr, Addr);
}

TEST(MemoryInterfaceTest, StaticAllocPlacesInStaticSegment) {
  MemoryInterface M;
  BufferSink B;
  M.attachSink(&B);
  uint64_t A1 = M.staticAlloc(0, 100, 8);
  uint64_t A2 = M.staticAlloc(1, 50, 8);
  EXPECT_EQ(memsim::classifyAddress(A1), memsim::SegmentKind::Static);
  EXPECT_GE(A2, A1 + 100);
  ASSERT_EQ(B.allocs().size(), 2u);
  EXPECT_TRUE(B.allocs()[0].IsStatic);
}

TEST(MemoryInterfaceTest, FinishFreesStatics) {
  MemoryInterface M;
  BufferSink B;
  M.attachSink(&B);
  uint64_t A1 = M.staticAlloc(0, 100, 8);
  uint64_t A2 = M.staticAlloc(1, 50, 8);
  M.finish();
  ASSERT_EQ(B.frees().size(), 2u);
  EXPECT_EQ(B.frees()[0].Addr, A1);
  EXPECT_EQ(B.frees()[1].Addr, A2);
  M.finish(); // Idempotent.
  EXPECT_EQ(B.frees().size(), 2u);
}

TEST(MemoryInterfaceTest, InjectAccessBatchMatchesSingleInjection) {
  // The columnar replay path feeds whole spans through
  // injectAccessBatch; the sink stream and clock must be
  // indistinguishable from per-event injection of the same events.
  std::vector<AccessEvent> Events;
  for (uint64_t I = 0; I != 6; ++I)
    Events.push_back(
        {static_cast<InstrId>(I), 0x1000 + I * 8, 4, (I & 1) != 0, 10 + I});

  MemoryInterface Single, Batched;
  BufferSink SinkA, SinkB;
  Single.attachSink(&SinkA);
  Batched.attachSink(&SinkB);
  for (const AccessEvent &E : Events)
    Single.injectAccess(E);
  Single.flushAccesses();
  Batched.injectAccessBatch(std::span<const AccessEvent>(Events));

  ASSERT_EQ(SinkA.accesses().size(), Events.size());
  ASSERT_EQ(SinkB.accesses().size(), Events.size());
  for (size_t I = 0; I != Events.size(); ++I) {
    EXPECT_EQ(SinkA.accesses()[I].Instr, SinkB.accesses()[I].Instr);
    EXPECT_EQ(SinkA.accesses()[I].Addr, SinkB.accesses()[I].Addr);
    EXPECT_EQ(SinkA.accesses()[I].Size, SinkB.accesses()[I].Size);
    EXPECT_EQ(SinkA.accesses()[I].IsStore, SinkB.accesses()[I].IsStore);
    EXPECT_EQ(SinkA.accesses()[I].Time, SinkB.accesses()[I].Time);
  }
  EXPECT_EQ(Single.now(), Batched.now());
}

TEST(MemoryInterfaceTest, InjectAccessBatchFlushesBufferedSinglesFirst) {
  // A batch arriving while single injections sit in the access buffer
  // must not reorder the stream: buffered events flush first.
  MemoryInterface M;
  BufferSink B;
  M.attachSink(&B);
  M.injectAccess({1, 0x10, 4, false, 1});
  std::vector<AccessEvent> Batch{{2, 0x20, 4, true, 2}};
  M.injectAccessBatch(std::span<const AccessEvent>(Batch));
  ASSERT_EQ(B.accesses().size(), 2u);
  EXPECT_EQ(B.accesses()[0].Instr, 1u);
  EXPECT_EQ(B.accesses()[1].Instr, 2u);
  EXPECT_EQ(M.now(), 3u);
}

TEST(MemoryInterfaceTest, SeedShiftsStaticBase) {
  MemoryInterface M1(memsim::AllocPolicy::FirstFit, 1);
  MemoryInterface M2(memsim::AllocPolicy::FirstFit, 12345);
  uint64_t A1 = M1.staticAlloc(0, 8, 8);
  uint64_t A2 = M2.staticAlloc(0, 8, 8);
  EXPECT_NE(A1, A2) << "probe-insertion artifact should shift statics";
}

TEST(CountingSinkTest, RawTraceBytes) {
  CountingSink C;
  AccessEvent E{0, 0x1000, 8, false, 0};
  for (int I = 0; I != 10; ++I)
    C.onAccess(E);
  EXPECT_EQ(C.rawTraceBytes(), 120u);
}

//===----------------------------------------------------------------------===//
// Free-path hardening: the contracts pinned in MemoryInterface.h
//===----------------------------------------------------------------------===//

TEST(MemoryInterfaceTest, UnknownHeapFreeIsCountedNoOp) {
  MemoryInterface M;
  BufferSink B;
  M.attachSink(&B);
  uint64_t Live = M.heapAlloc(0, 64);
  ASSERT_NE(Live, 0u);
  uint64_t HeapUsed = M.allocator().stats().LiveBytes;

  M.heapFree(0xDEAD0000); // Never allocated.
  EXPECT_EQ(M.unknownFrees(), 1u);
  EXPECT_EQ(B.frees().size(), 0u) << "no sink event for an unknown free";
  EXPECT_EQ(M.allocator().stats().LiveBytes, HeapUsed)
      << "allocator untouched by an unknown free";
  EXPECT_EQ(M.allocator().liveBlockSize(Live), 64u);
}

TEST(MemoryInterfaceTest, DoubleFreeIsCountedNoOp) {
  MemoryInterface M;
  BufferSink B;
  M.attachSink(&B);
  uint64_t Addr = M.heapAlloc(0, 32);
  ASSERT_NE(Addr, 0u);
  M.heapFree(Addr); // Valid.
  EXPECT_EQ(B.frees().size(), 1u);
  EXPECT_EQ(M.unknownFrees(), 0u);
  M.heapFree(Addr); // Double free: address is no longer live.
  EXPECT_EQ(M.unknownFrees(), 1u);
  EXPECT_EQ(B.frees().size(), 1u) << "double free reaches no sink";
}

TEST(MemoryInterfaceTest, FreeMidBatchFlushesAccessesFirst) {
  // A free arriving while accesses are batched must not overtake them:
  // sinks see the accesses, then the free, exactly in execution order.
  struct OrderSink : TraceSink {
    std::vector<char> Seen;
    void onAccess(const AccessEvent &) override { Seen.push_back('a'); }
    void onAccessBatch(std::span<const AccessEvent> Events) override {
      for (size_t I = 0; I != Events.size(); ++I)
        Seen.push_back('a');
    }
    void onAlloc(const AllocEvent &) override { Seen.push_back('A'); }
    void onFree(const FreeEvent &) override { Seen.push_back('F'); }
  } S;
  MemoryInterface M;
  M.attachSink(&S);
  uint64_t Addr = M.heapAlloc(0, 64);
  M.load(0, Addr);
  M.store(1, Addr + 8);
  // kBatchCapacity not reached: both accesses pending.
  M.heapFree(Addr);
  EXPECT_EQ(S.Seen, (std::vector<char>{'A', 'a', 'a', 'F'}));
}

TEST(MemoryInterfaceTest, FullBatchDispatchesOnceAtCapacity) {
  // The batch boundary, live and replayed: kBatchCapacity - 1 accesses
  // stay pending, and the kBatchCapacity-th delivers all of them as one
  // onAccessBatch, in order and carrying their clocks.
  struct BatchSink : TraceSink {
    std::vector<std::vector<AccessEvent>> Batches;
    void onAccess(const AccessEvent &E) override { Batches.push_back({E}); }
    void onAccessBatch(std::span<const AccessEvent> Events) override {
      Batches.emplace_back(Events.begin(), Events.end());
    }
    void onAlloc(const AllocEvent &) override {}
    void onFree(const FreeEvent &) override {}
  };
  constexpr size_t N = MemoryInterface::kBatchCapacity;
  for (bool Inject : {false, true}) {
    SCOPED_TRACE(Inject ? "injectAccess" : "load");
    BatchSink S;
    MemoryInterface M;
    M.attachSink(&S);
    for (uint64_t I = 0; I != N; ++I) {
      EXPECT_TRUE(S.Batches.empty()) << "dispatched after " << I;
      uint64_t Addr = 0x1000 + 8 * I;
      if (Inject)
        M.injectAccess(AccessEvent{static_cast<InstrId>(I), Addr, 8, false,
                                   100 + I});
      else
        M.load(static_cast<InstrId>(I), Addr);
    }
    ASSERT_EQ(S.Batches.size(), 1u);
    ASSERT_EQ(S.Batches[0].size(), N);
    uint64_t Clock0 = Inject ? 100 : 0;
    for (uint64_t I = 0; I != N; ++I) {
      EXPECT_EQ(S.Batches[0][I].Instr, I);
      EXPECT_EQ(S.Batches[0][I].Addr, 0x1000 + 8 * I);
      EXPECT_EQ(S.Batches[0][I].Time, Clock0 + I);
    }
    EXPECT_EQ(M.now(), Clock0 + N);
  }
}

TEST(MemoryInterfaceTest, UnknownFreeDoesNotFlushBatch) {
  // An ignored free is a true no-op: the access batch stays pending, so
  // the unknown-free filter cannot perturb batching behavior.
  MemoryInterface M;
  CountingSink C;
  M.attachSink(&C);
  M.load(0, 0x1000);
  M.heapFree(0xDEAD0000);
  EXPECT_EQ(M.unknownFrees(), 1u);
  EXPECT_EQ(C.accesses(), 0u) << "batch not flushed by the no-op";
  M.flushAccesses();
  EXPECT_EQ(C.accesses(), 1u);
}

TEST(MemoryInterfaceTest, InjectFreeForwardsUnknownAddressVerbatim) {
  // Replay hook contract: the trace is the authority — an inject of a
  // free the simulated heap never saw still reaches the sinks (the OMC
  // diagnoses it downstream as OmcStats::UnknownFrees).
  MemoryInterface M;
  BufferSink B;
  M.attachSink(&B);
  M.injectFree(FreeEvent{0xDEAD0000, 5});
  ASSERT_EQ(B.frees().size(), 1u);
  EXPECT_EQ(B.frees()[0].Addr, 0xDEAD0000u);
  EXPECT_EQ(B.frees()[0].Time, 5u);
  EXPECT_EQ(M.unknownFrees(), 0u) << "inject path does not filter";
}
