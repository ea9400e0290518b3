//===- tests/check_test.cpp - Invariant-checking layer tests -------------===//
//
// The contract under test: the deep validators accept every grammar and
// OMC state the real pipeline can produce, and reject every deliberately
// injected corruption of the classes they claim to catch. Under an ASan
// build the arena free lists must be poisoned (so a stale read is a
// detected use-after-free) while the sanctioned pending-list window
// stays readable.
//
//===----------------------------------------------------------------------===//

#include "SequiturStreams.h"
#include "check/Check.h"
#include "check/GrammarValidator.h"
#include "check/OmcValidator.h"
#include "omc/ObjectManager.h"
#include "sequitur/Sequitur.h"
#include "support/Random.h"

#include "gtest/gtest.h"

#include <cstdint>
#include <string>
#include <vector>

using namespace orp;
using check::GrammarValidator;
using check::OmcValidator;

namespace {

/// Appends the first \p N values of i % \p Mod to \p G — enough
/// structure for every corruption class (rules, digrams, use counts).
void appendPeriodic(sequitur::SequiturGrammar &G, uint64_t Mod = 7,
                    uint32_t N = 4000) {
  for (uint32_t I = 0; I != N; ++I)
    G.append(I % Mod);
}

trace::AllocEvent allocEvent(trace::AllocSiteId Site, uint64_t Addr,
                             uint64_t Size, uint64_t Time) {
  return trace::AllocEvent{Site, Addr, Size, Time, /*IsStatic=*/false};
}

} // namespace

//===----------------------------------------------------------------------===//
// GrammarValidator: clean grammars validate
//===----------------------------------------------------------------------===//

TEST(GrammarValidatorTest, EmptyAndTinyGrammarsValidate) {
  sequitur::SequiturGrammar Empty;
  EXPECT_TRUE(GrammarValidator::validate(Empty).ok())
      << GrammarValidator::validate(Empty).str();

  sequitur::SequiturGrammar One;
  One.append(42);
  EXPECT_TRUE(GrammarValidator::validate(One).ok())
      << GrammarValidator::validate(One).str();

  sequitur::SequiturGrammar Two;
  Two.append(1);
  Two.append(1);
  EXPECT_TRUE(GrammarValidator::validate(Two).ok())
      << GrammarValidator::validate(Two).str();
}

TEST(GrammarValidatorTest, PinnedStreamSuiteValidates) {
  // Every grammar of the CRC-pinned fuzz-lite suite must pass the deep
  // validator — the validator models the real invariants, not an ideal.
  size_t Count = 0;
  const seqstreams::StreamCase *Cases = seqstreams::streamCases(Count);
  for (size_t I = 0; I != Count; ++I) {
    sequitur::SequiturGrammar G;
    G.appendAll(seqstreams::makeStream(Cases[I]));
    check::CheckReport Report = GrammarValidator::validate(G);
    EXPECT_TRUE(Report.ok()) << Cases[I].Name << ":\n" << Report.str();
  }
}

TEST(GrammarValidatorTest, ValidationIsReadOnly) {
  // Validating must not perturb the grammar: serialize before and after.
  sequitur::SequiturGrammar G;
  appendPeriodic(G, 5, 3000);
  std::vector<uint8_t> Before = G.serialize();
  ASSERT_TRUE(GrammarValidator::validate(G).ok());
  EXPECT_EQ(Before, G.serialize());
}

//===----------------------------------------------------------------------===//
// GrammarValidator: injected corruptions are caught
//===----------------------------------------------------------------------===//

/// Appends distinct random terminals to \p G until its digram index
/// reaches \p Slots slots, so the growth to them has just happened.
void appendUntilIndexSlots(sequitur::SequiturGrammar &G, size_t Slots) {
  Rng R(5);
  while (G.indexCapacity() < Slots)
    G.append(R.nextBelow(uint64_t(1) << 30));
}

TEST(GrammarValidatorTest, CatchesDisplacementSkewAfterKeyFreeGrowth) {
  // The doubling to 128 slots re-homed every entry from its extension
  // bits. A skewed displacement names another home and a flipped
  // extension bit another hash; the validator must see the mismatch.
  sequitur::SequiturGrammar G;
  appendUntilIndexSlots(G, 128);
  ASSERT_TRUE(GrammarValidator::validate(G).ok());
  ASSERT_TRUE(GrammarValidator::injectForTest(
      G, GrammarValidator::Corruption::DigramDisplacementSkew));
  check::CheckReport Report = GrammarValidator::validate(G);
  EXPECT_FALSE(Report.ok());
  EXPECT_NE(Report.str().find("disagree with the key's hash"),
            std::string::npos)
      << Report.str();
}

TEST(GrammarValidatorTest, CatchesDisplacementSkewAfterRebuildingGrowth) {
  // The doubling to 2^11 slots would have left fewer than MinValidBits
  // extension bits, so it rebuilt the index from the keys.
  sequitur::SequiturGrammar G;
  appendUntilIndexSlots(G, size_t(1) << 11);
  ASSERT_TRUE(GrammarValidator::validate(G).ok());
  ASSERT_TRUE(GrammarValidator::injectForTest(
      G, GrammarValidator::Corruption::DigramDisplacementSkew));
  check::CheckReport Report = GrammarValidator::validate(G);
  EXPECT_FALSE(Report.ok());
  EXPECT_NE(Report.str().find("disagree with the key's hash"),
            std::string::npos)
      << Report.str();
}

TEST(GrammarValidatorTest, CatchesDigramIndexDrop) {
  sequitur::SequiturGrammar G;
  appendPeriodic(G);
  ASSERT_TRUE(GrammarValidator::injectForTest(
      G, GrammarValidator::Corruption::DigramIndexDrop));
  check::CheckReport Report = GrammarValidator::validate(G);
  EXPECT_FALSE(Report.ok());
  EXPECT_NE(Report.str().find("is not indexed"), std::string::npos)
      << Report.str();
}

TEST(GrammarValidatorTest, CatchesDigramIndexRetarget) {
  // The entry keeps its stored hash but names another digram's symbol.
  sequitur::SequiturGrammar G;
  appendPeriodic(G);
  ASSERT_TRUE(GrammarValidator::injectForTest(
      G, GrammarValidator::Corruption::DigramIndexRetarget));
  check::CheckReport Report = GrammarValidator::validate(G);
  EXPECT_FALSE(Report.ok());
  EXPECT_NE(Report.str().find("points at a different digram"),
            std::string::npos)
      << Report.str();
}

TEST(GrammarValidatorTest, CatchesDigramIndexEntryOnFreedSymbol) {
  // The index stores no keys, so an entry naming a freed symbol would
  // make a careless checker read reclaimed (under ASan: poisoned)
  // memory. The validator must flag the entry without reading it.
  sequitur::SequiturGrammar G;
  appendPeriodic(G);
  ASSERT_TRUE(GrammarValidator::injectForTest(
      G, GrammarValidator::Corruption::DigramIndexToFreedSymbol));
  check::CheckReport Report = GrammarValidator::validate(G);
  EXPECT_FALSE(Report.ok());
  EXPECT_NE(Report.str().find("points outside the live grammar"),
            std::string::npos)
      << Report.str();
  EXPECT_NE(Report.str().find("is not indexed"), std::string::npos)
      << Report.str();
}

TEST(GrammarValidatorTest, CatchesUseCountSkew) {
  sequitur::SequiturGrammar G;
  appendPeriodic(G);
  ASSERT_TRUE(GrammarValidator::injectForTest(
      G, GrammarValidator::Corruption::UseCountSkew));
  check::CheckReport Report = GrammarValidator::validate(G);
  EXPECT_FALSE(Report.ok());
  EXPECT_NE(Report.str().find("but the bodies hold"), std::string::npos)
      << Report.str();
}

TEST(GrammarValidatorTest, CatchesUseXorSkew) {
  // The count still agrees; only the XOR of the use indices, which names
  // the use a single-use rule inlines, is wrong.
  sequitur::SequiturGrammar G;
  appendPeriodic(G);
  ASSERT_TRUE(GrammarValidator::injectForTest(
      G, GrammarValidator::Corruption::UseXorSkew));
  check::CheckReport Report = GrammarValidator::validate(G);
  EXPECT_FALSE(Report.ok());
  EXPECT_NE(Report.str().find("UseXor"), std::string::npos) << Report.str();
  EXPECT_EQ(Report.str().find("but the bodies hold"), std::string::npos)
      << Report.str();
}

TEST(GrammarValidatorTest, CatchesLivenessTagClear) {
  sequitur::SequiturGrammar G;
  appendPeriodic(G);
  ASSERT_TRUE(GrammarValidator::injectForTest(
      G, GrammarValidator::Corruption::LivenessTagClear));
  check::CheckReport Report = GrammarValidator::validate(G);
  EXPECT_FALSE(Report.ok());
  EXPECT_NE(Report.str().find("body symbol is released"), std::string::npos)
      << Report.str();
}

TEST(GrammarValidatorTest, CatchesDigramDuplicate) {
  sequitur::SequiturGrammar G;
  appendPeriodic(G);
  ASSERT_TRUE(GrammarValidator::injectForTest(
      G, GrammarValidator::Corruption::DigramDuplicate));
  check::CheckReport Report = GrammarValidator::validate(G);
  EXPECT_FALSE(Report.ok());
  EXPECT_NE(Report.str().find("digram uniqueness violated"), std::string::npos)
      << Report.str();
}

TEST(GrammarValidatorTest, WideTerminalGrammarsValidate) {
  // Terminals of 2^31 or more live in the wide-terminal table; a grammar
  // mixing them with narrow ones validates before and after the seal.
  sequitur::SequiturGrammar G;
  for (uint32_t I = 0; I != 4000; ++I)
    G.append(I % 3 == 0 ? (uint64_t(1) << 40) + I % 9 : I % 5);
  ASSERT_EQ(G.numWideValues(), 3u);
  check::CheckReport Report = GrammarValidator::validate(G);
  EXPECT_TRUE(Report.ok()) << Report.str();
  Report = GrammarValidator::validate(std::move(G).seal());
  EXPECT_TRUE(Report.ok()) << Report.str();
}

TEST(GrammarValidatorTest, CatchesNarrowValueInterned) {
  // A narrow terminal with a wide code has two codes: its digrams would
  // no longer match their copies.
  sequitur::SequiturGrammar G;
  appendPeriodic(G);
  ASSERT_TRUE(GrammarValidator::injectForTest(
      G, GrammarValidator::Corruption::NarrowValueInterned));
  check::CheckReport Report = GrammarValidator::validate(G);
  EXPECT_FALSE(Report.ok());
  EXPECT_NE(Report.str().find("holds the narrow value"), std::string::npos)
      << Report.str();
}

TEST(GrammarValidatorTest, CatchesWideCodePastTable) {
  sequitur::SequiturGrammar G;
  appendPeriodic(G);
  G.append(uint64_t(1) << 45);
  ASSERT_TRUE(GrammarValidator::injectForTest(
      G, GrammarValidator::Corruption::WideCodePastTable));
  check::CheckReport Report = GrammarValidator::validate(G);
  EXPECT_FALSE(Report.ok());
  EXPECT_NE(Report.str().find("past the table of 1"), std::string::npos)
      << Report.str();
}

TEST(GrammarValidatorTest, CatchesUnreachableLiveRule) {
  // The grammar keeps no list of live rules: a leaked rule shows up only
  // as a live count the walk from the start rule does not reach.
  sequitur::SequiturGrammar G;
  appendPeriodic(G);
  ASSERT_TRUE(GrammarValidator::injectForTest(
      G, GrammarValidator::Corruption::UnreachableLiveRule));
  check::CheckReport Report = GrammarValidator::validate(G);
  EXPECT_FALSE(Report.ok());
  EXPECT_NE(Report.str().find("reachable from the start rule"),
            std::string::npos)
      << Report.str();
}

//===----------------------------------------------------------------------===//
// GrammarValidator: sealed grammars
//===----------------------------------------------------------------------===//

TEST(GrammarValidatorTest, SealedGrammarsValidate) {
  // An image has no arena and no index; the validator still audits its
  // bodies and the counters kept beside them.
  size_t Count = 0;
  const seqstreams::StreamCase *Cases = seqstreams::streamCases(Count);
  for (size_t I = 0; I != Count; ++I) {
    sequitur::SequiturGrammar G;
    G.appendAll(seqstreams::makeStream(Cases[I]));
    check::CheckReport Report =
        GrammarValidator::validate(std::move(G).seal());
    EXPECT_TRUE(Report.ok()) << Cases[I].Name << ":\n" << Report.str();
  }
  check::CheckReport Empty =
      GrammarValidator::validate(sequitur::SequiturGrammar().seal());
  EXPECT_TRUE(Empty.ok()) << Empty.str();
}

// The corruption classes are split by grammar type: an image has no
// arena or index to corrupt, and a builder no image, so injecting the
// wrong kind does not compile.
template <typename GrammarT, typename KindT>
concept Injectable = requires(GrammarT &G, KindT K) {
  GrammarValidator::injectForTest(G, K);
};
static_assert(Injectable<sequitur::SequiturGrammar,
                         GrammarValidator::Corruption>);
static_assert(Injectable<sequitur::GrammarImage,
                         GrammarValidator::ImageCorruption>);
static_assert(!Injectable<sequitur::GrammarImage,
                          GrammarValidator::Corruption>);
static_assert(!Injectable<sequitur::SequiturGrammar,
                          GrammarValidator::ImageCorruption>);

/// Seals a periodic grammar, injects the image corruption \p K and
/// returns the validator's report.
check::CheckReport validateSealedAfter(GrammarValidator::ImageCorruption K) {
  sequitur::SequiturGrammar G;
  appendPeriodic(G);
  sequitur::GrammarImage Image = std::move(G).seal();
  EXPECT_TRUE(GrammarValidator::validate(Image).ok());
  EXPECT_TRUE(GrammarValidator::injectForTest(Image, K));
  return GrammarValidator::validate(Image);
}

TEST(GrammarValidatorTest, CatchesImageDigramDuplicate) {
  // Without an index, uniqueness rests on the image's own bodies.
  check::CheckReport Report = validateSealedAfter(
      GrammarValidator::ImageCorruption::DigramDuplicate);
  EXPECT_FALSE(Report.ok());
  EXPECT_NE(Report.str().find("digram uniqueness violated"), std::string::npos)
      << Report.str();
  EXPECT_EQ(Report.str().find("digram index"), std::string::npos)
      << Report.str();
}

TEST(GrammarValidatorTest, CatchesImageRuleUsedOnce) {
  check::CheckReport Report =
      validateSealedAfter(GrammarValidator::ImageCorruption::RuleUsedOnce);
  EXPECT_FALSE(Report.ok());
  EXPECT_NE(Report.str().find("R1: rule utility below 2 (1 uses)"),
            std::string::npos)
      << Report.str();
}

TEST(GrammarValidatorTest, CatchesImageCountersSkew) {
  // The counters a sealed grammar keeps beside its image must be the
  // image's own: rules, terminals and distinct digrams.
  const std::pair<GrammarValidator::ImageCorruption, const char *> Cases[] = {
      {GrammarValidator::ImageCorruption::RuleCountSkew,
       "rules but the grammar reports"},
      {GrammarValidator::ImageCorruption::LengthSkew,
       "terminals but InputLen is"},
      {GrammarValidator::ImageCorruption::DigramCountSkew,
       "distinct digrams"},
  };
  for (const auto &[K, Want] : Cases) {
    check::CheckReport Report = validateSealedAfter(K);
    EXPECT_FALSE(Report.ok());
    EXPECT_EQ(Report.failures().size(), 1u) << Report.str();
    EXPECT_NE(Report.str().find(Want), std::string::npos) << Report.str();
  }
}

//===----------------------------------------------------------------------===//
// GrammarValidator: released digram indexes
//===----------------------------------------------------------------------===//

TEST(GrammarValidatorTest, ReleasedGrammarsValidate) {
  // With the index given back, the validator audits the bodies and the
  // recorded right twins, and accept every grammar of the pinned suite;
  // the rebuilt index passes the full index checks again.
  size_t Count = 0;
  const seqstreams::StreamCase *Cases = seqstreams::streamCases(Count);
  for (size_t I = 0; I != Count; ++I) {
    sequitur::SequiturGrammar G;
    G.appendAll(seqstreams::makeStream(Cases[I]));
    G.releaseIndex();
    check::CheckReport Report = GrammarValidator::validate(G);
    EXPECT_TRUE(Report.ok()) << Cases[I].Name << ":\n" << Report.str();
    G.rebuildIndex();
    Report = GrammarValidator::validate(G);
    EXPECT_TRUE(Report.ok()) << Cases[I].Name << ":\n" << Report.str();
  }
}

TEST(GrammarValidatorTest, CatchesReleasedTwinSkew) {
  // A recorded right twin must be the right occurrence of a run: moved
  // to the run's left occurrence, or forged at a digram that starts no
  // run, it would send the rebuild to the wrong node.
  for (bool WithTwin : {true, false}) {
    sequitur::SequiturGrammar G;
    for (uint64_t V : {3, 1, 1, 1, 2, 4, 5})
      G.append(V);
    if (WithTwin) {
      ASSERT_TRUE(GrammarValidator::indexRightTwinForTest(G));
    }
    EXPECT_FALSE(GrammarValidator::injectForTest(
        G, GrammarValidator::Corruption::ReleasedTwinSkew))
        << "a live index records no twins";
    G.releaseIndex();
    ASSERT_EQ(G.numRightTwins(), WithTwin ? 1u : 0u);
    ASSERT_TRUE(GrammarValidator::validate(G).ok());
    ASSERT_TRUE(GrammarValidator::injectForTest(
        G, GrammarValidator::Corruption::ReleasedTwinSkew));
    check::CheckReport Report = GrammarValidator::validate(G);
    EXPECT_FALSE(Report.ok());
    EXPECT_NE(Report.str().find("is not the right occurrence of an "
                                "overlapping run"),
              std::string::npos)
        << Report.str();
    }
}

TEST(GrammarValidatorTest, ReleasedGrammarHasNoIndexToCorrupt) {
  sequitur::SequiturGrammar G;
  appendPeriodic(G);
  G.releaseIndex();
  EXPECT_FALSE(GrammarValidator::injectForTest(
      G, GrammarValidator::Corruption::DigramIndexDrop));
  EXPECT_FALSE(GrammarValidator::injectForTest(
      G, GrammarValidator::Corruption::DigramDisplacementSkew));
  EXPECT_TRUE(GrammarValidator::validate(G).ok());
  // The bodies are still checked.
  ASSERT_TRUE(GrammarValidator::injectForTest(
      G, GrammarValidator::Corruption::DigramDuplicate));
  EXPECT_FALSE(GrammarValidator::validate(G).ok());
}

//===----------------------------------------------------------------------===//
// Sequitur arena poisoning (the use-after-free detector)
//===----------------------------------------------------------------------===//

TEST(ArenaPoisonTest, SequiturFreeListsArePoisonedUnderAsan) {
  // The phrases stream churns rules hard, so reclaimed nodes land on the
  // free lists. Every one of them must be poisoned under ASan — a stale
  // pointer dereference into the slab is then an immediate ASan report,
  // which is exactly how a slab use-after-free gets caught in the
  // checked build. Pending-list nodes (the sanctioned mid-cascade
  // dead-check window) must stay readable.
  sequitur::SequiturGrammar G;
  size_t Count = 0;
  const seqstreams::StreamCase *Cases = seqstreams::streamCases(Count);
  for (size_t I = 0; I != Count; ++I)
    if (std::string(Cases[I].Name) == "phrases_a4")
      G.appendAll(seqstreams::makeStream(Cases[I]));
  ASSERT_GT(G.inputLength(), 0u);

  GrammarValidator::ArenaAudit Audit = GrammarValidator::auditArenaPoisoning(G);
  ASSERT_GT(Audit.FreeSymbols + Audit.FreeRules, 0u)
      << "stream did not exercise the arena free lists";
  EXPECT_EQ(Audit.AsanActive, check::asanActive());
  if (Audit.AsanActive) {
    EXPECT_EQ(Audit.PoisonedFreeSymbols, Audit.FreeSymbols);
    EXPECT_EQ(Audit.PoisonedFreeRules, Audit.FreeRules);
    EXPECT_EQ(Audit.PoisonedPendingSymbols, 0u);
    EXPECT_EQ(Audit.PoisonedPendingRules, 0u);
  } else {
    EXPECT_EQ(Audit.PoisonedFreeSymbols, 0u);
    EXPECT_EQ(Audit.PoisonedFreeRules, 0u);
  }
}

#if GTEST_HAS_DEATH_TEST
TEST(ArenaIndexDeathTest, SymbolIndexSpaceExhaustionIsFatal) {
  // Node indices stay below 2^31, because bit 31 of a link is a tag:
  // the arena must stop with a fatal error before an index would reach
  // 2^31, never hand out an index whose top bit aliases the tag.
  EXPECT_DEATH(
      {
        sequitur::SequiturGrammar G;
        G.append(1);
        GrammarValidator::exhaustSymbolIndexSpaceForTest(G);
        G.append(2); // Must die here, before G is destroyed.
      },
      "symbol index space \\(2\\^31\\) exhausted");
}

TEST(ArenaPoisonDeathTest, StaleSequiturSymbolReadIsAnAsanReport) {
  // The same contract for a grammar node: symbols are addressed by
  // 31-bit index through the slab table, and a recycled one resolved
  // that way must be poisoned, so reading it dies under ASan.
  if (!check::asanActive())
    GTEST_SKIP() << "poisoning is a no-op without ASan";
  sequitur::SequiturGrammar G;
  size_t Count = 0;
  const seqstreams::StreamCase *Cases = seqstreams::streamCases(Count);
  for (size_t I = 0; I != Count; ++I)
    if (std::string(Cases[I].Name) == "phrases_a4")
      G.appendAll(seqstreams::makeStream(Cases[I]));
  const auto *Stale = static_cast<const volatile uint8_t *>(
      GrammarValidator::firstFreeSymbolForTest(G));
  ASSERT_NE(Stale, nullptr) << "stream recycled no symbols";
  EXPECT_DEATH({ [[maybe_unused]] uint8_t Byte = *Stale; }, "use-after-poison");
}

TEST(ArenaPoisonDeathTest, SymbolPastTheBumpCursorIsAnAsanReport) {
  // Slabs are allocated uninitialized, and a fresh slab is born poisoned
  // past the bump cursor: a read of a symbol no allocation has handed
  // out yet dies under ASan instead of returning stale heap bytes.
  if (!check::asanActive())
    GTEST_SKIP() << "poisoning is a no-op without ASan";
  sequitur::SequiturGrammar G;
  appendPeriodic(G, 7, 100);
  const auto *Fresh = static_cast<const volatile uint8_t *>(
      GrammarValidator::nextFreshSymbolForTest(G));
  ASSERT_NE(Fresh, nullptr) << "the first slab is already full";
  EXPECT_DEATH({ [[maybe_unused]] uint8_t Byte = *Fresh; }, "use-after-poison");
}
#endif

//===----------------------------------------------------------------------===//
// OmcValidator: clean managers validate
//===----------------------------------------------------------------------===//

TEST(OmcValidatorTest, FreshManagerValidates) {
  omc::ObjectManager M;
  check::CheckReport Report = OmcValidator::validate(M);
  EXPECT_TRUE(Report.ok()) << Report.str();
}

TEST(OmcValidatorTest, ChurnedManagerValidates) {
  // Allocation churn with address reuse across sites, translations (to
  // populate both caches), pool splitting, and frees of unknown
  // addresses: all states the real pipeline produces must validate.
  omc::ObjectManager M;
  M.splitPoolSite(/*Site=*/9, /*ElementSize=*/16);
  uint64_t Time = 0;
  Rng R(1234);
  std::vector<uint64_t> Live;
  for (int Round = 0; Round != 2000; ++Round) {
    if (Live.empty() || R.nextBool(0.55)) {
      uint64_t Addr = 0x10000 + R.nextBelow(512) * 0x100;
      bool Overlaps = false;
      for (uint64_t L : Live)
        if (Addr < L + 0x100 && L < Addr + 0x100)
          Overlaps = true;
      if (Overlaps)
        continue;
      uint64_t Site = R.nextBelow(10);
      M.onAlloc(allocEvent(static_cast<trace::AllocSiteId>(Site), Addr,
                           /*Size=*/0x40 + R.nextBelow(0xc0), ++Time));
      Live.push_back(Addr);
    } else {
      size_t Pick = R.nextBelow(Live.size());
      M.onFree({Live[Pick], ++Time});
      Live.erase(Live.begin() + static_cast<ptrdiff_t>(Pick));
    }
    // Translations keep the shared and per-instruction caches hot.
    if (!Live.empty()) {
      uint64_t Addr = Live[R.nextBelow(Live.size())] + R.nextBelow(0x40);
      (void)M.translate(Addr);
      (void)M.translate(Addr, static_cast<trace::InstrId>(R.nextBelow(100)));
    }
    // Unknown frees are counted, never corrupting.
    if (R.nextBool(0.05))
      M.onFree({0xdead0000 + R.nextBelow(64), ++Time});
    if (Round % 250 == 0) {
      check::CheckReport Report = OmcValidator::validate(M);
      ASSERT_TRUE(Report.ok()) << "round " << Round << ":\n" << Report.str();
    }
  }
  check::CheckReport Report = OmcValidator::validate(M);
  EXPECT_TRUE(Report.ok()) << Report.str();
  EXPECT_GT(M.stats().UnknownFrees, 0u);
}

//===----------------------------------------------------------------------===//
// OmcValidator: injected corruptions are caught
//===----------------------------------------------------------------------===//

namespace {

/// Gives \p M a few live objects, translated so both caches are hot.
void fillBusyManager(omc::ObjectManager &M) {
  uint64_t Time = 0;
  for (uint64_t I = 0; I != 8; ++I)
    M.onAlloc(allocEvent(static_cast<trace::AllocSiteId>(I % 3),
                         0x1000 + I * 0x100, 0x80, ++Time));
  for (uint64_t I = 0; I != 8; ++I) {
    (void)M.translate(0x1000 + I * 0x100 + 8);
    (void)M.translate(0x1000 + I * 0x100 + 16,
                      static_cast<trace::InstrId>(I));
  }
}

} // namespace

TEST(OmcValidatorTest, CatchesSharedCacheStale) {
  omc::ObjectManager M;
  fillBusyManager(M);
  ASSERT_TRUE(OmcValidator::validate(M).ok());
  ASSERT_TRUE(OmcValidator::injectForTest(
      M, OmcValidator::Corruption::SharedCacheStale));
  EXPECT_FALSE(OmcValidator::validate(M).ok());
}

TEST(OmcValidatorTest, CatchesInstrCacheStale) {
  omc::ObjectManager M;
  fillBusyManager(M);
  ASSERT_TRUE(OmcValidator::injectForTest(
      M, OmcValidator::Corruption::InstrCacheStale));
  EXPECT_FALSE(OmcValidator::validate(M).ok());
}

TEST(OmcValidatorTest, CatchesSerialRegression) {
  omc::ObjectManager M;
  fillBusyManager(M);
  ASSERT_TRUE(OmcValidator::injectForTest(
      M, OmcValidator::Corruption::SerialRegression));
  EXPECT_FALSE(OmcValidator::validate(M).ok());
}

//===----------------------------------------------------------------------===//
// OMC adversarial churn (validated through the OMC validator)
//===----------------------------------------------------------------------===//

TEST(OmcAdversarialTest, OverlappingReallocationsThroughManager) {
  // The vpr/parser pattern: the allocator hands back overlapping address
  // ranges over time (never concurrently). Free-then-realloc at shifted
  // bases must keep the live index exact and the caches coherent.
  omc::ObjectManager M;
  uint64_t Time = 0;
  for (int Round = 0; Round != 300; ++Round) {
    uint64_t Base = 0x4000 + (Round % 7) * 0x30; // Overlaps across rounds.
    M.onAlloc(allocEvent(/*Site=*/1, Base, 0x100, ++Time));
    auto Tr = M.translate(Base + 0x20, /*Instr=*/5);
    ASSERT_TRUE(Tr.has_value());
    M.onFree({Base, ++Time});
    // The freed range must no longer translate (cache invalidation).
    EXPECT_FALSE(M.translate(Base + 0x20, /*Instr=*/5).has_value());
    if (Round % 50 == 0) {
      check::CheckReport Report = OmcValidator::validate(M);
      ASSERT_TRUE(Report.ok()) << Report.str();
    }
  }
  EXPECT_TRUE(OmcValidator::validate(M).ok());
  EXPECT_EQ(M.numLiveObjects(), 0u);
}

//===----------------------------------------------------------------------===//
// Check runtime basics
//===----------------------------------------------------------------------===//

TEST(CheckRuntimeTest, LevelMatchesBuildConfiguration) {
  EXPECT_EQ(check::Level, ORP_CHECK_LEVEL);
  EXPECT_GE(check::Level, 0);
  EXPECT_LE(check::Level, 2);
}

TEST(CheckRuntimeTest, ScopedUnpoisonRestoresPoison) {
  if (!check::asanActive())
    GTEST_SKIP() << "poisoning is a no-op without ASan";
  alignas(8) static uint8_t Buffer[64];
  check::poisonRegion(Buffer, sizeof(Buffer));
  EXPECT_TRUE(check::isPoisoned(Buffer));
  {
    check::ScopedUnpoison Window(Buffer, sizeof(Buffer));
    EXPECT_FALSE(check::isPoisoned(Buffer));
  }
  EXPECT_TRUE(check::isPoisoned(Buffer));
  check::unpoisonRegion(Buffer, sizeof(Buffer));
  EXPECT_FALSE(check::isPoisoned(Buffer));
}
