//===- tests/index_release_test.cpp - Released indexes change nothing ----===//
//
// The contract under test: a session's WHOMP digram indexes are derived
// state. Giving them back between blocks (ProfileSession::releaseIndexes)
// and letting the next block rebuild them must leave every artifact byte
// as it was. Each workload's trace is replayed block by block three
// times: untouched, with the indexes released after every block, and
// released after every 7th block; the OMSG and LEAP bytes must be equal.
// The last release is never undone, so finalize() seals released
// grammars (and, in a level-2 build, validates them first).
//
// Each workload is its own ctest entry (tests/CMakeLists.txt): the
// larger analogues take minutes in a checked sanitizer build.
//
//===----------------------------------------------------------------------===//

#include "core/ProfilingSession.h"
#include "session/ProfileSession.h"
#include "traceio/TraceReader.h"
#include "traceio/TraceWriter.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

using namespace orp;

namespace {

/// Records \p WorkloadName at scale 1 into \p Path, in 16 KiB blocks
/// (the profile-serial benchmark's block size), or 2 KiB ones for the
/// small list-traversal trace.
void recordTrace(const std::string &WorkloadName, const std::string &Path) {
  core::ProfilingSession Session(memsim::AllocPolicy::FirstFit, /*Seed=*/1);
  traceio::TraceWriter Writer(
      Path, Session.registry(), memsim::AllocPolicy::FirstFit, /*Seed=*/1,
      WorkloadName == "list-traversal" ? 2 * 1024 : 16 * 1024);
  ASSERT_TRUE(Writer.ok()) << Writer.error();
  Session.addRawSink(&Writer);
  auto W = workloads::createWorkloadByName(WorkloadName);
  ASSERT_TRUE(W);
  W->run(Session.memory(), Session.registry(), workloads::WorkloadConfig{});
  Session.finish();
  ASSERT_TRUE(Writer.close()) << Writer.error();
}

/// Injects every block of \p Reader into a fresh session, releasing the
/// indexes after each block whose index + 1 is a multiple of
/// \p ReleaseEvery (0: never), and returns the artifacts.
session::SessionArtifacts replayReleasing(traceio::TraceReader &Reader,
                                          uint64_t ReleaseEvery,
                                          uint64_t &Releases) {
  session::ProfileSession Session("released",
                                  session::recordedConfig(Reader));
  Session.registerProbeTables(Reader.instructions(), Reader.allocSites());
  Releases = 0;
  for (uint64_t B = 0; B != Reader.numEventBlocks(); ++B) {
    traceio::TraceReader::RawBlock Raw = Reader.rawBlock(B);
    EXPECT_TRUE(Session.injectBlock(Raw.Payload, Raw.PayloadLen,
                                    Raw.EventCount, Raw.Crc, B,
                                    Reader.info().Version))
        << Session.error();
    EXPECT_FALSE(Session.indexesReleased()) << "the block rebuilt them";
    if (ReleaseEvery != 0 && (B + 1) % ReleaseEvery == 0) {
      const size_t Bytes = Session.indexBytes();
      Session.releaseIndexes();
      EXPECT_TRUE(Session.indexesReleased() || Bytes == 0);
      EXPECT_EQ(Session.indexBytes(), 0u);
      Releases += Bytes != 0;
    }
  }
  return Session.finalize();
}

class ReleasedIndexesKeepArtifacts
    : public ::testing::TestWithParam<const char *> {};

TEST_P(ReleasedIndexesKeepArtifacts, AtEveryBlockAndEverySeventh) {
  const std::string Name = GetParam();
  const std::string Path =
      testing::TempDir() + "orp_index_release_" + Name + ".orpt";
  recordTrace(Name, Path);
  traceio::TraceReader Reader;
  ASSERT_TRUE(Reader.open(Path)) << Reader.error();
  ASSERT_GE(Reader.numEventBlocks(), 8u) << "too few blocks to release at";

  uint64_t Releases = 0;
  const session::SessionArtifacts Untouched =
      replayReleasing(Reader, 0, Releases);
  ASSERT_FALSE(Untouched.Failed) << Untouched.Error;
  ASSERT_FALSE(Untouched.Omsg.empty());
  for (uint64_t Every : {uint64_t(1), uint64_t(7)}) {
    const session::SessionArtifacts A = replayReleasing(Reader, Every, Releases);
    EXPECT_EQ(Releases, Reader.numEventBlocks() / Every) << "every " << Every;
    EXPECT_FALSE(A.Failed) << A.Error;
    EXPECT_EQ(A.Events, Untouched.Events) << "every " << Every;
    EXPECT_TRUE(A.Omsg == Untouched.Omsg) << "OMSG differs, every " << Every;
    EXPECT_TRUE(A.Leap == Untouched.Leap) << "LEAP differs, every " << Every;
  }
  std::remove(Path.c_str());
}

// ctest filters on these names (tests/CMakeLists.txt).
INSTANTIATE_TEST_SUITE_P(
    Workloads, ReleasedIndexesKeepArtifacts,
    ::testing::Values("164.gzip-a", "175.vpr-a", "181.mcf-a", "186.crafty-a",
                      "197.parser-a", "256.bzip2-a", "300.twolf-a",
                      "list-traversal"),
    [](const ::testing::TestParamInfo<const char *> &Info) {
      std::string Id = Info.param;
      for (char &C : Id)
        if (C == '.' || C == '-')
          C = '_';
      return Id;
    });

} // namespace
