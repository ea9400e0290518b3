//===- tests/sequitur_test.cpp - Sequitur compression unit tests ---------===//

#include "SequiturStreams.h"
#include "check/GrammarValidator.h"
#include "sequitur/Sequitur.h"
#include "support/Checksum.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

using namespace orp;
using namespace orp::sequitur;
using check::GrammarValidator;

namespace {

std::vector<uint64_t> fromString(const std::string &S) {
  std::vector<uint64_t> V;
  for (char C : S)
    V.push_back(static_cast<uint64_t>(C));
  return V;
}

/// Checks that the checked decoder accepts \p G's image and expands it
/// to \p Input.
void expectImageExpandsTo(const SequiturGrammar &G,
                          const std::vector<uint64_t> &Input,
                          const std::string &Label) {
  const std::vector<uint8_t> Image = G.serialize();
  std::vector<uint64_t> Expanded;
  std::string Err;
  ASSERT_TRUE(deserializeAndExpandChecked(Image.data(), Image.size(),
                                          Expanded, Err))
      << Label << ": " << Err;
  EXPECT_EQ(Expanded, Input) << Label;
}

/// Builds a grammar over \p Input and checks losslessness + invariants.
void roundTrip(const std::vector<uint64_t> &Input, const char *Label) {
  SequiturGrammar G;
  G.appendAll(Input);
  EXPECT_EQ(G.inputLength(), Input.size()) << Label;
  ASSERT_TRUE(GrammarValidator::validate(G).ok()) << Label;
  EXPECT_EQ(G.expandAll(), Input) << Label;
  expectImageExpandsTo(G, Input, Label);
}

} // namespace

TEST(SequiturTest, EmptyGrammar) {
  SequiturGrammar G;
  EXPECT_EQ(G.inputLength(), 0u);
  EXPECT_EQ(G.numRules(), 1u); // The start rule.
  EXPECT_TRUE(G.expandAll().empty());
  EXPECT_TRUE(GrammarValidator::validate(G).ok());
}

TEST(SequiturTest, SingleSymbol) { roundTrip({42}, "single"); }

TEST(SequiturTest, PaperExampleAbcbcabcbc) {
  // Section 3.1: "abcbcabcbc" compresses to S->AA; A->aBB; B->bc.
  SequiturGrammar G;
  G.appendAll(fromString("abcbcabcbc"));
  EXPECT_TRUE(GrammarValidator::validate(G).ok());
  EXPECT_EQ(G.expandAll(), fromString("abcbcabcbc"));
  // 3 rules: start, A, B.
  EXPECT_EQ(G.numRules(), 3u);
  // Body symbols: S=AA (2) + A=aBB (3) + B=bc (2) = 7.
  EXPECT_EQ(G.totalBodySymbols(), 7u);
}

TEST(SequiturTest, PaperExampleChurnCounters) {
  // Hand-traced on "abcbcabcbc": rules B=bc, then A=aB, then C=AB are
  // created from repeated digrams, A is inlined into C once its second
  // use goes, and five repeats reach processMatch (two reuse B whole).
  SequiturGrammar G;
  G.appendAll(fromString("abcbcabcbc"));
  const Churn C = G.stats().Work;
  EXPECT_EQ(C.RulesCreated, 3u);
  EXPECT_EQ(C.RulesInlined, 1u);
  EXPECT_EQ(C.Matches, 5u);
  EXPECT_EQ(C.DigramChecks, 38u);
  EXPECT_EQ(G.numRules(), 1 + C.RulesCreated - C.RulesInlined);
}

TEST(SequiturTest, RepeatedPairFormsRule) {
  SequiturGrammar G;
  G.appendAll(fromString("ababab"));
  EXPECT_TRUE(GrammarValidator::validate(G).ok());
  EXPECT_EQ(G.expandAll(), fromString("ababab"));
  EXPECT_GE(G.numRules(), 2u);
}

TEST(SequiturTest, OverlappingDigramsDoNotSubstitute) {
  // "aaa" contains digram "aa" twice, but overlapping; no rule may form
  // and expansion must still be exact.
  roundTrip(fromString("aaa"), "aaa");
  roundTrip(fromString("aaaa"), "aaaa");
  roundTrip(fromString("aaaaaaaaaaaaaaaa"), "a^16");
}

TEST(SequiturTest, AllDistinctSymbols) {
  std::vector<uint64_t> V;
  for (uint64_t I = 0; I != 500; ++I)
    V.push_back(I * 977 + 13);
  roundTrip(V, "distinct");
  SequiturGrammar G;
  G.appendAll(V);
  EXPECT_EQ(G.numRules(), 1u) << "no repetition, no rules";
}

TEST(SequiturTest, PeriodicStreamCompressesWell) {
  std::vector<uint64_t> V;
  for (int Rep = 0; Rep != 128; ++Rep)
    for (uint64_t S : {1, 2, 3, 4, 5, 6, 7, 8})
      V.push_back(S);
  SequiturGrammar G;
  G.appendAll(V);
  EXPECT_TRUE(GrammarValidator::validate(G).ok());
  EXPECT_EQ(G.expandAll(), V);
  // 1024 input symbols must collapse to a logarithmic-size grammar.
  EXPECT_LT(G.totalBodySymbols(), 64u);
  EXPECT_LT(G.serializedSizeBytes(), V.size());
}

TEST(SequiturTest, RuleUtilityHolds) {
  // Build a stream whose intermediate rules become useless; the final
  // grammar must never contain single-use rules (the validator covers
  // it, this test just exercises a known trigger pattern).
  roundTrip(fromString("abcdbcabcdbc"), "utility-trigger");
  roundTrip(fromString("xabcabcyabcabcz"), "nested-repeats");
}

TEST(SequiturTest, SerializeIsCompactForRepeats) {
  std::vector<uint64_t> V;
  for (int I = 0; I != 1000; ++I) {
    V.push_back(7);
    V.push_back(9);
  }
  SequiturGrammar G;
  G.appendAll(V);
  EXPECT_LT(G.serializedSizeBytes(), 100u);
}

TEST(SequiturTest, LargeTerminalValues) {
  // Raw addresses use most of the 47-bit space; the tagged encoding must
  // round-trip them.
  std::vector<uint64_t> V;
  for (int I = 0; I != 64; ++I) {
    V.push_back(0x7fff'0000'0000ULL + I * 8);
    V.push_back(0x2000'0000ULL + I * 16);
  }
  roundTrip(V, "large-terminals");
}

TEST(SequiturTest, TerminalsSharingTagBitsOrRuleIndices) {
  // A nonterminal's Value is its rule's arena index, a guard's carries
  // a tag bit, and a wide terminal's code the same bit. A terminal is
  // told apart by a link bit alone, so every value below 2^63 (the
  // tagged image encoding's domain) must stay a terminal: 0, the tag
  // bit itself, 2^63-1, and the small values that equal the indices of
  // live rules (the start rule is index 1, later rules follow).
  const uint64_t Extremes[] = {0,
                               uint64_t(1) << 62,
                               (uint64_t(1) << 62) | 2,
                               uint64_t(1) << 31,
                               (uint64_t(1) << 63) - 1,
                               uint64_t(1) << 32,
                               (uint64_t(1) << 31) - 1};
  Rng R(2027);
  std::vector<uint64_t> Small, Wide;
  for (int I = 0; I != 3000; ++I) {
    uint64_t V = R.nextBelow(6);
    Small.push_back(V);
    Wide.push_back(R.nextBool(0.5) ? Extremes[V] : V);
  }
  roundTrip(Small, "rule-index terminals");
  roundTrip(Wide, "tagged-value terminals");
  std::vector<uint64_t> Encodable;
  for (uint64_t V : Wide)
    Encodable.push_back(V >> 1);
  roundTrip(Encodable, "encodable tagged-value terminals");

  // The grammar's shape cannot depend on whether terminal values collide
  // with rule indices: shifting every value far past them gives the same
  // rules, body lengths and expansion lengths.
  std::vector<uint64_t> Shifted;
  for (uint64_t V : Small)
    Shifted.push_back(V + 1000000);
  SequiturGrammar A, B;
  A.appendAll(Small);
  B.appendAll(Shifted);
  const GrammarImage IA = std::move(A).seal(), IB = std::move(B).seal();
  std::vector<RuleStats> SA = IA.ruleStats(0), SB = IB.ruleStats(0);
  ASSERT_EQ(SA.size(), SB.size());
  for (size_t I = 0; I != SA.size(); ++I) {
    EXPECT_EQ(SA[I].BodyLength, SB[I].BodyLength) << "rule " << I;
    EXPECT_EQ(SA[I].ExpandedLength, SB[I].ExpandedLength) << "rule " << I;
  }
  EXPECT_EQ(IA.stats().BodySymbols, IB.stats().BodySymbols);
}

TEST(SequiturTest, DumpShowsRules) {
  SequiturGrammar G;
  G.appendAll(fromString("abcbcabcbc"));
  std::string D = std::move(G).seal().dump();
  EXPECT_NE(D.find("R0 ->"), std::string::npos);
  EXPECT_NE(D.find("R1"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Property sweep: random stream families
//===----------------------------------------------------------------------===//

struct StreamSpec {
  const char *Name;
  unsigned Alphabet;
  unsigned Length;
  double RepeatBias; ///< Probability of re-emitting a recent phrase.
};

class SequiturPropertyTest : public ::testing::TestWithParam<StreamSpec> {};

TEST_P(SequiturPropertyTest, LosslessOnRandomStreams) {
  const StreamSpec &Spec = GetParam();
  for (uint64_t Seed = 1; Seed <= 5; ++Seed) {
    Rng R(Seed * 1000003);
    std::vector<uint64_t> V;
    std::vector<size_t> PhraseStarts = {0};
    while (V.size() < Spec.Length) {
      if (!V.empty() && R.nextBool(Spec.RepeatBias)) {
        // Re-emit a previously generated phrase.
        size_t Start = PhraseStarts[R.nextBelow(PhraseStarts.size())];
        size_t Len = 1 + R.nextBelow(12);
        for (size_t I = Start; I < V.size() && Len--; ++I)
          V.push_back(V[I]);
      } else {
        PhraseStarts.push_back(V.size());
        V.push_back(R.nextBelow(Spec.Alphabet));
      }
    }
    SequiturGrammar G;
    G.appendAll(V);
    ASSERT_TRUE(GrammarValidator::validate(G).ok())
        << Spec.Name << " seed " << Seed << " violates invariants";
    ASSERT_EQ(G.expandAll(), V)
        << Spec.Name << " seed " << Seed << " is not lossless";
    expectImageExpandsTo(G, V, std::string(Spec.Name) + " seed " +
                                   std::to_string(Seed) +
                                   " serialization");
  }
}

INSTANTIATE_TEST_SUITE_P(
    Streams, SequiturPropertyTest,
    ::testing::Values(StreamSpec{"binary_random", 2, 2000, 0.0},
                      StreamSpec{"small_alpha_random", 5, 2000, 0.0},
                      StreamSpec{"wide_alpha_random", 1000, 2000, 0.0},
                      StreamSpec{"binary_repeats", 2, 3000, 0.5},
                      StreamSpec{"phrase_repeats", 16, 3000, 0.7},
                      StreamSpec{"heavy_repeats", 4, 4000, 0.9}),
    [](const auto &Info) { return Info.param.Name; });

TEST(SequiturTest, IncrementalAppendMatchesBatch) {
  Rng R(77);
  std::vector<uint64_t> V;
  for (int I = 0; I != 1500; ++I)
    V.push_back(R.nextBelow(6));
  SequiturGrammar G;
  for (size_t I = 0; I != V.size(); ++I) {
    G.append(V[I]);
    if (I % 250 == 0) {
      ASSERT_TRUE(GrammarValidator::validate(G).ok()) << "at prefix " << I;
      std::vector<uint64_t> Prefix(V.begin(), V.begin() + I + 1);
      ASSERT_EQ(G.expandAll(), Prefix) << "at prefix " << I;
    }
  }
  EXPECT_EQ(G.expandAll(), V);
}

//===----------------------------------------------------------------------===//
// Sealed grammars
//===----------------------------------------------------------------------===//

namespace {

/// What a builder and its image both answer, for before/after
/// comparisons: the image, its size, the expansion and the counters.
struct Reading {
  std::vector<uint8_t> Image;
  size_t ImageSize;
  std::vector<uint64_t> Expansion;
  GrammarStats Stats;
  bool operator==(const Reading &) const = default;
};

Reading readingOf(const SequiturGrammar &G) {
  return {G.serialize(), G.serializedSizeBytes(), G.expandAll(), G.stats()};
}

Reading readingOf(const GrammarImage &Image) {
  return {Image.bytes(), Image.serializedSizeBytes(), Image.expandAll(),
          Image.stats()};
}

/// Seals \p G and checks that the image answers as the builder did: the
/// same reading (so the gauges keep the index and slab counts the seal
/// freed), the dump() and ruleStats() of the builder's parsed image, and
/// footprintBytes() the image's bytes alone: its capacity, which its
/// serialization grew to at most twice its size. Returns the image.
GrammarImage expectSealKeepsReads(SequiturGrammar &&G,
                                  const std::string &Label) {
  const Reading Before = readingOf(G);
  ParsedImage Parsed;
  std::string Err;
  EXPECT_TRUE(parseImageChecked(G.serialize(), Parsed, Err)) << Label << Err;
  // The index maps its pages at the first digram.
  EXPECT_EQ(G.indexBytes() == 0, G.numDigrams() == 0) << Label;
  EXPECT_EQ(G.indexSlots(), G.indexCapacity()) << Label;
  GrammarImage Image = std::move(G).seal();
  EXPECT_TRUE(readingOf(Image) == Before) << Label;
  EXPECT_EQ(Image.dump(), Parsed.dump()) << Label;
  EXPECT_TRUE(Image.ruleStats() == Parsed.ruleStats()) << Label;
  EXPECT_GE(Image.footprintBytes(), Before.ImageSize) << Label;
  EXPECT_LT(Image.footprintBytes(), 2 * Before.ImageSize) << Label;
  check::CheckReport Report = GrammarValidator::validate(Image);
  EXPECT_TRUE(Report.ok()) << Label << ":\n" << Report.str();
  return Image;
}

// A builder is sealed only as an rvalue, so that a spent builder is not
// named again by mistake; an image has nothing to append to.
template <typename T>
concept Sealable = requires(T &&G) { std::forward<T>(G).seal(); };
template <typename T>
concept Appendable = requires(T &G) { G.append(uint64_t(0)); };
static_assert(Sealable<SequiturGrammar &&>);
static_assert(!Sealable<SequiturGrammar &>);
static_assert(!Sealable<const SequiturGrammar &>);
static_assert(Appendable<SequiturGrammar>);
static_assert(!Appendable<GrammarImage>);

} // namespace

TEST(SequiturSealTest, PaperExampleReadsUnchanged) {
  SequiturGrammar G;
  G.appendAll(fromString("abcbcabcbc"));
  ASSERT_EQ(G.numDigrams(), 4u); // aB, BB, bc and AA.
  const GrammarImage Image = expectSealKeepsReads(std::move(G), "abcbcabcbc");
  EXPECT_EQ(Image.stats().Digrams, 4u);
  EXPECT_EQ(Image.expandAll(), fromString("abcbcabcbc"));
}

TEST(SequiturSealTest, GoldenStreamsReadsAndCrcsUnchanged) {
  // The CRC-pinned images of the golden suite hold after the seal too.
  size_t Count = 0;
  const seqstreams::StreamCase *Cases = seqstreams::streamCases(Count);
  ASSERT_GT(Count, 0u);
  for (size_t I = 0; I != Count; ++I) {
    SequiturGrammar G;
    G.appendAll(seqstreams::makeStream(Cases[I]));
    const GrammarImage Image =
        expectSealKeepsReads(std::move(G), Cases[I].Name);
    EXPECT_EQ(crc32(Image.bytes()), Cases[I].GoldenCrc) << Cases[I].Name;
  }
}

TEST(SequiturSealTest, EmptyGrammarSeals) {
  SequiturGrammar G;
  EXPECT_EQ(G.indexBytes(), 0u) << "no digram, no index pages";
  const GrammarImage Image = expectSealKeepsReads(std::move(G), "empty");
  EXPECT_EQ(Image.stats().Digrams, 0u);
}

//===----------------------------------------------------------------------===//
// Released digram indexes
//===----------------------------------------------------------------------===//

TEST(SequiturIndexReleaseTest, GoldenStreamsContinueAsIfNeverReleased) {
  // Release after each half of every golden stream, append the rest into
  // the released grammar (its first append rebuilds the index), release
  // again at the end: the images keep their CRCs and every read equals
  // that of a grammar whose index was never given back.
  size_t Count = 0;
  const seqstreams::StreamCase *Cases = seqstreams::streamCases(Count);
  for (size_t I = 0; I != Count; ++I) {
    const std::vector<uint64_t> Stream = seqstreams::makeStream(Cases[I]);
    SequiturGrammar Kept, Released;
    for (size_t K = 0; K != Stream.size(); ++K) {
      Kept.append(Stream[K]);
      Released.append(Stream[K]);
      if (K + 1 == Stream.size() / 2 || K + 1 == Stream.size()) {
        const size_t Slots = Released.indexSlots();
        const size_t Digrams = Released.numDigrams();
        Released.releaseIndex();
        EXPECT_TRUE(Released.indexReleased()) << Cases[I].Name;
        EXPECT_EQ(Released.indexBytes(), 0u) << Cases[I].Name;
        EXPECT_EQ(Released.indexSlots(), Slots) << Cases[I].Name;
        EXPECT_EQ(Released.numDigrams(), Digrams) << Cases[I].Name;
        EXPECT_TRUE(GrammarValidator::validate(Released).ok())
            << Cases[I].Name;
      }
    }
    EXPECT_EQ(crc32(Released.serialize()), Cases[I].GoldenCrc)
        << Cases[I].Name;
    EXPECT_TRUE(readingOf(Released) == readingOf(Kept)) << Cases[I].Name;
    Released.rebuildIndex();
    EXPECT_FALSE(Released.indexReleased()) << Cases[I].Name;
    EXPECT_EQ(Released.indexSlots(), Kept.indexSlots()) << Cases[I].Name;
    EXPECT_EQ(Released.indexBytes(), Kept.indexBytes()) << Cases[I].Name;
    EXPECT_TRUE(GrammarValidator::validate(Released).ok()) << Cases[I].Name;
  }
}

TEST(SequiturIndexReleaseTest, ReleasedGrammarSealsWithoutRebuilding) {
  SequiturGrammar Kept, Released;
  Kept.appendAll(fromString("abcbcabcbcxyxyabcbc"));
  Released.appendAll(fromString("abcbcabcbcxyxyabcbc"));
  const size_t Slots = Kept.indexSlots();
  Released.releaseIndex();
  Released.releaseIndex(); // A second release changes nothing.
  EXPECT_TRUE(Released.indexReleased());
  const GrammarImage KeptImage = std::move(Kept).seal();
  const GrammarImage ReleasedImage = std::move(Released).seal();
  EXPECT_EQ(ReleasedImage.stats().IndexSlots, Slots);
  EXPECT_TRUE(readingOf(ReleasedImage) == readingOf(KeptImage));
  EXPECT_EQ(ReleasedImage.dump(), KeptImage.dump());
  EXPECT_TRUE(GrammarValidator::validate(ReleasedImage).ok());
}

TEST(SequiturIndexReleaseTest, RebuildKeepsAnIndexedRightTwin) {
  // In "3 1 1 1 2" the digram (1,1) occurs twice, overlapping, and the
  // index names one of the two. Pointed at the right one (the choice
  // checkDigram keeps when a run grows to the left of its indexed
  // digram), the suffix "1 1" folds that occurrence into the new rule:
  // "3 1 R1 2 R1" where the left one gives "3 R1 1 2 R1". A rebuilt
  // index must name the right occurrence again.
  const std::vector<uint64_t> Prefix = {3, 1, 1, 1, 2};
  SequiturGrammar Left, Right, Released;
  for (uint64_t V : Prefix) {
    Left.append(V);
    Right.append(V);
    Released.append(V);
  }
  ASSERT_TRUE(GrammarValidator::indexRightTwinForTest(Right));
  ASSERT_TRUE(GrammarValidator::indexRightTwinForTest(Released));
  ASSERT_TRUE(GrammarValidator::validate(Right).ok());
  Released.releaseIndex();
  EXPECT_EQ(Released.numRightTwins(), 1u);
  EXPECT_TRUE(GrammarValidator::validate(Released).ok())
      << GrammarValidator::validate(Released).str();
  Released.rebuildIndex();
  EXPECT_EQ(Released.numRightTwins(), 0u);
  EXPECT_TRUE(GrammarValidator::validate(Released).ok());
  for (uint64_t V : {1, 1}) {
    Left.append(V);
    Right.append(V);
    Released.append(V);
  }
  EXPECT_EQ(Released.serialize(), Right.serialize());
  EXPECT_TRUE(GrammarValidator::validate(Released).ok());
  EXPECT_EQ(std::move(Left).seal().dump(), "R0 -> 3 R1 1 2 R1\nR1 -> 1 1\n");
  EXPECT_EQ(std::move(Right).seal().dump(), "R0 -> 3 1 R1 2 R1\nR1 -> 1 1\n");
  EXPECT_EQ(std::move(Released).seal().dump(),
            "R0 -> 3 1 R1 2 R1\nR1 -> 1 1\n");
}

//===----------------------------------------------------------------------===//
// Narrow and wide terminals
//===----------------------------------------------------------------------===//

namespace {

/// Terminals at both sides of 2^31, where a symbol's inline code ends
/// and the wide-terminal table begins, up to the largest value the
/// image encoding holds.
constexpr uint64_t kWideEdges[] = {(uint64_t(1) << 31) - 1, uint64_t(1) << 31,
                                   uint64_t(1) << 32, uint64_t(1) << 62,
                                   (uint64_t(1) << 63) - 1};

/// The edges mixed with the narrow values 0..5, with earlier phrases
/// re-emitted, so that both kinds end up inside (nested) rules.
std::vector<uint64_t> narrowWideMix(uint64_t Seed, size_t Length) {
  Rng R(Seed);
  std::vector<uint64_t> V;
  while (V.size() < Length) {
    if (V.size() > 8 && R.nextBool(0.5)) {
      size_t From = R.nextBelow(V.size() - 8);
      size_t Len = 2 + R.nextBelow(7);
      for (size_t I = From; I != From + Len; ++I)
        V.push_back(V[I]);
    } else {
      uint64_t Pick = R.nextBelow(11);
      V.push_back(Pick < 5 ? kWideEdges[Pick] : Pick - 5);
    }
  }
  V.resize(Length);
  return V;
}

/// CRC-32 of every ruleStats() field, little-endian.
uint32_t ruleStatsCrc(const GrammarImage &G) {
  std::vector<uint8_t> Bytes;
  auto Put = [&](uint64_t X) {
    for (unsigned B = 0; B != 8; ++B)
      Bytes.push_back(static_cast<uint8_t>(X >> (8 * B)));
  };
  for (const RuleStats &R : G.ruleStats()) {
    Put(R.Id);
    Put(R.BodyLength);
    Put(R.ExpandedLength);
    Put(R.Occurrences);
    Put(R.Prefix.size());
    for (uint64_t P : R.Prefix)
      Put(P);
  }
  return crc32(Bytes);
}

uint32_t dumpCrc(const GrammarImage &G) {
  std::string D = G.dump();
  return crc32(reinterpret_cast<const uint8_t *>(D.data()), D.size());
}

} // namespace

TEST(SequiturWideTest, NarrowWideMixMatchesGoldens) {
  // The goldens were recorded from the 16-byte-symbol grammar, which
  // stored every terminal inline: interning wide terminals must not
  // change the image, the dump or the rule statistics.
  struct Case {
    uint64_t Seed;
    size_t Length;
    uint32_t ImageCrc, DumpCrc, StatsCrc;
  };
  const Case Cases[] = {
      {1931, 4000, 0xa25295f3u, 0x4a96fdb4u, 0x8f6e6a77u},
      {2063, 12000, 0x7c317af0u, 0x647086b9u, 0xeb833c7bu},
  };
  for (const Case &C : Cases) {
    const std::vector<uint64_t> V = narrowWideMix(C.Seed, C.Length);
    SequiturGrammar G;
    G.appendAll(V);
    ASSERT_TRUE(GrammarValidator::validate(G).ok()) << C.Seed;
    EXPECT_EQ(G.numWideValues(), 4u) << C.Seed;
    EXPECT_EQ(G.expandAll(), V) << C.Seed;
    expectImageExpandsTo(G, V, "narrow/wide mix");
    EXPECT_EQ(crc32(G.serialize()), C.ImageCrc) << C.Seed;
    // Sealing frees the wide table but keeps every answer.
    const GrammarImage Image =
        expectSealKeepsReads(std::move(G), "narrow/wide mix");
    EXPECT_EQ(crc32(Image.bytes()), C.ImageCrc) << C.Seed;
    EXPECT_EQ(dumpCrc(Image), C.DumpCrc) << C.Seed;
    EXPECT_EQ(ruleStatsCrc(Image), C.StatsCrc) << C.Seed;
    // Every edge sits inside some rule other than the start rule.
    const std::vector<RuleStats> Stats = Image.ruleStats();
    for (uint64_t Edge : kWideEdges) {
      bool InRule = false;
      for (const RuleStats &R : Stats)
        for (uint64_t P : R.Prefix)
          InRule |= R.Id != 0 && P == Edge;
      EXPECT_TRUE(InRule) << C.Seed << ": " << Edge;
    }
  }
}

TEST(SequiturWideTest, FootprintIsSlabsIndexAndWideTable) {
  auto Bulk = [](const SequiturGrammar &G) {
    return G.numSymbolSlabs() * SequiturGrammar::SymbolSlabBytes +
           G.numRuleSlabs() * SequiturGrammar::RuleSlabBytes +
           G.indexBytes();
  };
  SequiturGrammar Narrow;
  for (uint64_t I = 0; I != 20000; ++I)
    Narrow.append(I % 97 + (I / 1000) * 3);
  EXPECT_EQ(Narrow.numWideValues(), 0u);
  EXPECT_EQ(Narrow.wideTableBytes(), 0u);
  EXPECT_EQ(Narrow.footprintBytes(), Bulk(Narrow));

  SequiturGrammar Wide;
  Wide.appendAll(narrowWideMix(7, 20000));
  ASSERT_EQ(Wide.numWideValues(), 4u);
  // Four values and their interning set of at least 2 slots per value.
  EXPECT_GE(Wide.wideTableBytes(), 4 * (8 + 2 * 4));
  EXPECT_EQ(Wide.footprintBytes(), Bulk(Wide) + Wide.wideTableBytes());
  // An image holds its bytes alone.
  const GrammarImage Image = std::move(Wide).seal();
  EXPECT_GE(Image.footprintBytes(), Image.serializedSizeBytes());
  EXPECT_LT(Image.footprintBytes(), 2 * Image.serializedSizeBytes());
}

#if GTEST_HAS_DEATH_TEST
TEST(SequiturWideDeathTest, TerminalPast63BitsIsFatal) {
  // The image encodes a terminal as (value << 1): bit 63 would be lost.
  EXPECT_DEATH(
      {
        SequiturGrammar G;
        G.appendAll(fromString("abcbc"));
        G.append(uint64_t(1) << 63);
      },
      "terminal of 2\\^63 or more");
}
#endif
