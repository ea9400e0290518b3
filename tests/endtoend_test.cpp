//===- tests/endtoend_test.cpp - Cross-workload end-to-end properties ----===//
//
// Heavier end-to-end properties sweeping all seven benchmark analogues:
// WHOMP losslessness on every workload, estimator sanity against the
// exact baselines, and profile-artifact round trips.
//
//===----------------------------------------------------------------------===//

#include "analysis/Dependence.h"
#include "analysis/MdfError.h"
#include "analysis/Stride.h"
#include "baseline/ConnorsProfiler.h"
#include "baseline/ExactDependence.h"
#include "baseline/ExactStride.h"
#include "baseline/RasgProfiler.h"
#include "core/ProfilingSession.h"
#include "leap/LeapProfileData.h"
#include "whomp/Whomp.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

using namespace orp;

namespace {

struct TupleBuffer : core::OrTupleConsumer {
  std::vector<core::OrTuple> Tuples;
  void consume(const core::OrTuple &T) override { Tuples.push_back(T); }
};

} // namespace

class EndToEndTest : public ::testing::TestWithParam<const char *> {};

TEST_P(EndToEndTest, WhompIsLosslessOnEveryBenchmark) {
  core::ProfilingSession Session;
  whomp::WhompProfiler Whomp;
  TupleBuffer Tuples;
  Session.addConsumer(&Whomp);
  Session.addConsumer(&Tuples);
  auto W = workloads::createWorkloadByName(GetParam());
  workloads::WorkloadConfig Config;
  W->run(Session.memory(), Session.registry(), Config);
  Session.finish();

  // Expanding each dimension grammar must reproduce the tuple stream.
  const auto Dims = {core::Dimension::Instruction, core::Dimension::Group,
                     core::Dimension::Object, core::Dimension::Offset};
  for (core::Dimension D : Dims) {
    auto Expanded = Whomp.imageFor(D).expandAll();
    ASSERT_EQ(Expanded.size(), Tuples.Tuples.size()) << GetParam();
    for (size_t I = 0; I < Expanded.size(); I += 97) // Sampled compare.
      ASSERT_EQ(Expanded[I], core::dimensionValue(Tuples.Tuples[I], D))
          << GetParam() << " dim " << core::dimensionName(D) << " @" << I;
  }
}

TEST_P(EndToEndTest, RasgGrammarsRoundTripTheRawStream) {
  core::ProfilingSession Session;
  baseline::RasgProfiler Rasg;
  trace::BufferSink Raw;
  Session.addRawSink(&Rasg);
  Session.addRawSink(&Raw);
  auto W = workloads::createWorkloadByName(GetParam());
  workloads::WorkloadConfig Config;
  W->run(Session.memory(), Session.registry(), Config);
  Session.finish();

  auto Addrs = Rasg.addressGrammar().expandAll();
  ASSERT_EQ(Addrs.size(), Raw.accesses().size());
  for (size_t I = 0; I < Addrs.size(); I += 101)
    ASSERT_EQ(Addrs[I], Raw.accesses()[I].Addr) << GetParam() << " @" << I;
}

TEST_P(EndToEndTest, LeapNeverInventsDependences) {
  // Every pair LEAP reports must exist in the exact profile: the LMAD
  // sets are derived from real accesses, so a reported conflict implies
  // a real one (the intersection math is exact per descriptor pair).
  core::ProfilingSession Session;
  leap::LeapProfiler Leap;
  baseline::ExactDependenceProfiler Exact;
  Session.addConsumer(&Leap);
  Session.addRawSink(&Exact);
  auto W = workloads::createWorkloadByName(GetParam());
  workloads::WorkloadConfig Config;
  W->run(Session.memory(), Session.registry(), Config);
  Session.finish();

  auto ExactMdf = Exact.mdf();
  for (const auto &[Pair, Freq] :
       analysis::LeapDependenceAnalyzer(Leap).computeMdf())
    EXPECT_TRUE(ExactMdf.count(Pair))
        << GetParam() << ": phantom pair (" << Pair.first << ","
        << Pair.second << ") freq " << Freq;
}

TEST_P(EndToEndTest, LeapStrideFindsNoPhantomKinds) {
  // Strongly-strided verdicts must only name instructions that executed,
  // with shares in (0, 1].
  core::ProfilingSession Session;
  leap::LeapProfiler Leap;
  Session.addConsumer(&Leap);
  auto W = workloads::createWorkloadByName(GetParam());
  workloads::WorkloadConfig Config;
  W->run(Session.memory(), Session.registry(), Config);
  Session.finish();

  const auto &Instrs = Leap.instructions();
  for (const auto &[Instr, Info] : analysis::findStronglyStrided(Leap)) {
    EXPECT_TRUE(Instrs.count(Instr)) << GetParam();
    EXPECT_GT(Info.Share, 0.0);
    EXPECT_LE(Info.Share, 1.0 + 1e-12);
  }
}

TEST_P(EndToEndTest, LeapProfileSerializationRoundTrips) {
  core::ProfilingSession Session;
  leap::LeapProfiler Leap;
  Session.addConsumer(&Leap);
  auto W = workloads::createWorkloadByName(GetParam());
  workloads::WorkloadConfig Config;
  W->run(Session.memory(), Session.registry(), Config);
  Session.finish();

  auto Data = leap::LeapProfileData::fromProfiler(Leap);
  auto Bytes = Data.serialize();
  EXPECT_EQ(Bytes.size(), Leap.serializedSizeBytes())
      << "size accounting must match actual serialization";
  leap::LeapProfileData Back;
  std::string Err;
  ASSERT_TRUE(leap::LeapProfileData::deserialize(Bytes, Back, Err)) << Err;
  EXPECT_TRUE(Back == Data);
}

TEST_P(EndToEndTest, ConnorsNeverOverestimatesOnBenchmarks) {
  core::ProfilingSession Session;
  baseline::ConnorsProfiler Connors(512);
  baseline::ExactDependenceProfiler Exact;
  Session.addRawSink(&Connors);
  Session.addRawSink(&Exact);
  auto W = workloads::createWorkloadByName(GetParam());
  workloads::WorkloadConfig Config;
  W->run(Session.memory(), Session.registry(), Config);
  Session.finish();

  auto ExactMdf = Exact.mdf();
  for (const auto &[Pair, Freq] : Connors.mdf()) {
    ASSERT_TRUE(ExactMdf.count(Pair)) << GetParam();
    ASSERT_LE(Freq, ExactMdf[Pair] + 1e-12) << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, EndToEndTest,
                         ::testing::Values("164.gzip-a", "175.vpr-a",
                                           "181.mcf-a", "186.crafty-a",
                                           "197.parser-a", "256.bzip2-a",
                                           "300.twolf-a"),
                         [](const auto &Info) {
                           std::string Name = Info.param;
                           for (char &C : Name)
                             if (C == '.' || C == '-')
                               C = '_';
                           return Name;
                         });
