//===- tests/core_test.cpp - Framework (CDC/SCC) unit tests --------------===//

#include "core/Cdc.h"
#include "core/Decomposition.h"
#include "core/ObjectRelative.h"
#include "core/ProfilingSession.h"
#include "memsim/AddressSpace.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

using namespace orp;
using namespace orp::core;

namespace {

/// Tuple buffer for assertions.
struct TupleBuffer : OrTupleConsumer {
  std::vector<OrTuple> Tuples;
  bool Finished = false;
  void consume(const OrTuple &T) override { Tuples.push_back(T); }
  void finish() override { Finished = true; }
};

/// StreamCompressor that records appended symbols.
struct RecordingCompressor : StreamCompressor {
  std::vector<uint64_t> Symbols;
  bool Finished = false;
  void append(uint64_t S) override { Symbols.push_back(S); }
  void finish() override { Finished = true; }
  size_t serializedSizeBytes() const override { return Symbols.size(); }
};

/// Substream consumer that records tuples.
struct RecordingSubstream : SubstreamConsumer {
  std::vector<OrTuple> Tuples;
  void append(const OrTuple &T) override { Tuples.push_back(T); }
};

trace::AllocEvent alloc(trace::AllocSiteId Site, uint64_t Addr,
                        uint64_t Size, uint64_t Time) {
  return trace::AllocEvent{Site, Addr, Size, Time, false};
}

trace::AccessEvent access(trace::InstrId Instr, uint64_t Addr,
                          uint64_t Time, bool Store = false) {
  return trace::AccessEvent{Instr, Addr, 8, Store, Time};
}

} // namespace

//===----------------------------------------------------------------------===//
// Dimension helpers
//===----------------------------------------------------------------------===//

TEST(DimensionTest, ValueExtraction) {
  OrTuple T{/*Instr=*/3, /*Group=*/5, /*Object=*/7, /*Offset=*/9,
            /*Time=*/11, /*IsStore=*/false, /*Size=*/8};
  EXPECT_EQ(dimensionValue(T, Dimension::Instruction), 3u);
  EXPECT_EQ(dimensionValue(T, Dimension::Group), 5u);
  EXPECT_EQ(dimensionValue(T, Dimension::Object), 7u);
  EXPECT_EQ(dimensionValue(T, Dimension::Offset), 9u);
  EXPECT_EQ(dimensionValue(T, Dimension::Time), 11u);
  EXPECT_STREQ(dimensionName(Dimension::Group), "group");
}

//===----------------------------------------------------------------------===//
// CDC
//===----------------------------------------------------------------------===//

TEST(CdcTest, TranslatesThroughOmc) {
  omc::ObjectManager O;
  Cdc C(O);
  TupleBuffer Buf;
  C.addConsumer(&Buf);

  C.onAlloc(alloc(9, 0x1000, 64, 0));
  C.onAccess(access(1, 0x1010, 0));
  C.onAccess(access(2, 0x1020, 1, /*Store=*/true));
  C.onFinish();

  ASSERT_EQ(Buf.Tuples.size(), 2u);
  EXPECT_EQ(Buf.Tuples[0].Instr, 1u);
  EXPECT_EQ(Buf.Tuples[0].Group, O.groupForSite(9));
  EXPECT_EQ(Buf.Tuples[0].Object, 0u);
  EXPECT_EQ(Buf.Tuples[0].Offset, 0x10u);
  EXPECT_EQ(Buf.Tuples[0].Time, 0u);
  EXPECT_FALSE(Buf.Tuples[0].IsStore);
  EXPECT_TRUE(Buf.Tuples[1].IsStore);
  EXPECT_TRUE(Buf.Finished);
  EXPECT_EQ(C.stats().Translated, 2u);
}

TEST(CdcTest, DropPolicySkipsUnknownAddresses) {
  omc::ObjectManager O;
  Cdc C(O);
  TupleBuffer Buf;
  C.addConsumer(&Buf);
  C.onAccess(access(1, 0xDEAD, 0));
  EXPECT_TRUE(Buf.Tuples.empty());
  EXPECT_EQ(C.stats().Unknown, 1u);
}

TEST(CdcTest, FreeRetiresTranslation) {
  omc::ObjectManager O;
  Cdc C(O);
  TupleBuffer Buf;
  C.addConsumer(&Buf);
  C.onAlloc(alloc(0, 0x1000, 64, 0));
  C.onFree(trace::FreeEvent{0x1000, 1});
  C.onAccess(access(1, 0x1000, 2));
  EXPECT_TRUE(Buf.Tuples.empty());
  EXPECT_EQ(C.stats().Unknown, 1u);
}

TEST(CdcTest, MultipleConsumersSeeTheSameStream) {
  omc::ObjectManager O;
  Cdc C(O);
  TupleBuffer A, B;
  C.addConsumer(&A);
  C.addConsumer(&B);
  C.onAlloc(alloc(0, 0x1000, 64, 0));
  C.onAccess(access(1, 0x1000, 0));
  EXPECT_EQ(A.Tuples.size(), 1u);
  EXPECT_EQ(B.Tuples.size(), 1u);
}

//===----------------------------------------------------------------------===//
// Horizontal decomposition
//===----------------------------------------------------------------------===//

TEST(HorizontalDecomposerTest, SplitsDimensions) {
  std::vector<RecordingCompressor *> Made;
  HorizontalDecomposer H(
      {Dimension::Instruction, Dimension::Offset}, [&] {
        auto C = std::make_unique<RecordingCompressor>();
        Made.push_back(C.get());
        return C;
      });
  ASSERT_EQ(Made.size(), 2u);

  OrTuple T1{1, 0, 0, 16, 0, false, 8};
  OrTuple T2{2, 0, 1, 24, 1, false, 8};
  H.consume(T1);
  H.consume(T2);
  H.finish();

  EXPECT_EQ(Made[0]->Symbols, (std::vector<uint64_t>{1, 2}));
  EXPECT_EQ(Made[1]->Symbols, (std::vector<uint64_t>{16, 24}));
  EXPECT_TRUE(Made[0]->Finished);
  EXPECT_EQ(H.totalSerializedSizeBytes(), 4u);
  EXPECT_EQ(&H.compressorFor(Dimension::Offset),
            static_cast<StreamCompressor *>(Made[1]));
}

//===----------------------------------------------------------------------===//
// Vertical decomposition
//===----------------------------------------------------------------------===//

TEST(VerticalDecomposerTest, RoutesByInstructionThenGroup) {
  std::map<std::pair<uint32_t, uint32_t>, RecordingSubstream *> Made;
  VerticalDecomposer V([&](VerticalKey Key) {
    auto S = std::make_unique<RecordingSubstream>();
    Made[{Key.Instr, Key.Group}] = S.get();
    return S;
  });

  V.consume(OrTuple{1, 10, 0, 0, 0, false, 8});
  V.consume(OrTuple{1, 10, 1, 8, 1, false, 8});
  V.consume(OrTuple{1, 20, 0, 0, 2, false, 8});
  V.consume(OrTuple{2, 10, 0, 0, 3, false, 8});

  EXPECT_EQ(V.numSubstreams(), 3u);
  EXPECT_EQ(Made.at({1, 10})->Tuples.size(), 2u);
  EXPECT_EQ(Made.at({1, 20})->Tuples.size(), 1u);
  EXPECT_EQ(Made.at({2, 10})->Tuples.size(), 1u);
  EXPECT_EQ(V.lookup(VerticalKey{1, 10}),
            static_cast<const SubstreamConsumer *>(Made.at({1, 10})));
  EXPECT_EQ(V.lookup(VerticalKey{9, 9}), nullptr);

  // forEach iterates in key order.
  std::vector<std::pair<uint32_t, uint32_t>> Keys;
  V.forEach([&](const VerticalKey &K, const SubstreamConsumer &) {
    Keys.emplace_back(K.Instr, K.Group);
  });
  ASSERT_EQ(Keys.size(), 3u);
  EXPECT_TRUE(std::is_sorted(Keys.begin(), Keys.end()));
}

//===----------------------------------------------------------------------===//
// ProfilingSession end-to-end wiring
//===----------------------------------------------------------------------===//

TEST(ProfilingSessionTest, ProbesFlowToConsumers) {
  ProfilingSession S;
  TupleBuffer Buf;
  S.addConsumer(&Buf);

  trace::AllocSiteId Site = S.registry().addAllocSite("node");
  trace::InstrId Ld = S.registry().addInstruction("ld",
                                                  trace::AccessKind::Load);
  uint64_t Addr = S.memory().heapAlloc(Site, 64);
  S.memory().load(Ld, Addr + 8);
  S.memory().load(Ld, Addr + 16);
  S.finish();

  ASSERT_EQ(Buf.Tuples.size(), 2u);
  EXPECT_EQ(Buf.Tuples[0].Offset, 8u);
  EXPECT_EQ(Buf.Tuples[1].Offset, 16u);
  EXPECT_EQ(Buf.Tuples[0].Object, Buf.Tuples[1].Object);
  EXPECT_TRUE(Buf.Finished);
  EXPECT_EQ(S.omc().numLiveObjects(), 1u);
}

TEST(ProfilingSessionTest, RawSinksSeeUntranslatedEvents) {
  ProfilingSession S;
  trace::CountingSink Raw;
  S.addRawSink(&Raw);
  uint64_t Addr = S.memory().heapAlloc(0, 64);
  S.memory().store(0, Addr);
  S.memory().flushAccesses(); // Accesses batch; deliver before inspecting.
  EXPECT_EQ(Raw.accesses(), 1u);
  EXPECT_EQ(Raw.allocs(), 1u);
}

TEST(ProfilingSessionTest, StackAddressesAreDroppedLikeThePaper) {
  // The paper: "Since static analysis handle stack variables very
  // efficiently, we chose not to profile them."
  ProfilingSession S;
  TupleBuffer Buf;
  S.addConsumer(&Buf);
  S.memory().load(0, memsim::AddressSpaceLayout::StackBase + 0x100);
  S.memory().flushAccesses();
  EXPECT_TRUE(Buf.Tuples.empty());
  EXPECT_EQ(S.cdc().stats().Unknown, 1u);
}
