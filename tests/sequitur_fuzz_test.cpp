//===- tests/sequitur_fuzz_test.cpp - Fuzz-lite Sequitur suite -----------===//
//
// Part of the ORP reproduction of "Exposing Memory Access Regularities
// Using Object-Relative Memory Profiling" (CGO 2004).
//
//===----------------------------------------------------------------------===//
//
// Deterministic fuzz suite for the arena-backed SequiturGrammar. Every
// stream family in tests/SequiturStreams.h is driven through the
// grammar, which must (a) keep both Sequitur invariants, (b) expand back
// to the exact input, and (c) serialize to the byte-identical image the
// pre-arena implementation produced (pinned as CRC-32 goldens). (c) is
// the contract that makes the arena/table rewrite a pure optimization:
// Figure 5's grammar sizes cannot move.
//
// The image decoder is checked the same way: parseImageChecked's
// memoized counting walk must accept, reject and diagnose exactly like a
// plain step-by-step walk over the same bytes, and its cursors must
// reproduce the input.
//
//===----------------------------------------------------------------------===//

#include "SequiturStreams.h"
#include "check/GrammarValidator.h"
#include "sequitur/Sequitur.h"
#include "support/Checksum.h"
#include "support/Random.h"
#include "support/VarInt.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "gtest/gtest.h"

using namespace orp;
using namespace orp::sequitur;
using namespace orp::seqstreams;
using check::GrammarValidator;

namespace {

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

TEST(SequiturFuzzTest, GoldenSuiteByteIdentical) {
  size_t Count = 0;
  const StreamCase *Cases = streamCases(Count);
  ASSERT_GT(Count, 0u);
  for (size_t C = 0; C != Count; ++C) {
    const StreamCase &Case = Cases[C];
    std::vector<uint64_t> Input = makeStream(Case);
    ASSERT_EQ(Input.size(), Case.Length) << Case.Name;

    SequiturGrammar G;
    G.appendAll(Input);
    EXPECT_TRUE(GrammarValidator::validate(G).ok()) << Case.Name;
    EXPECT_EQ(G.inputLength(), Input.size()) << Case.Name;
    EXPECT_EQ(G.expandAll(), Input) << Case.Name;

    std::vector<uint8_t> Image = G.serialize();
    EXPECT_EQ(crc32(Image), Case.GoldenCrc) << Case.Name;
    EXPECT_EQ(Image.size(), G.serializedSizeBytes()) << Case.Name;
    expectImageExpandsTo(G, Input, Case.Name);

    ParsedImage Parsed;
    std::string Err;
    ASSERT_TRUE(parseImageChecked(Image, Parsed, Err))
        << Case.Name << ": " << Err;
    EXPECT_EQ(Parsed.length(), Input.size()) << Case.Name;
    EXPECT_EQ(Parsed.bytes(), Image) << Case.Name;
    std::vector<uint64_t> Pulled;
    for (ImageCursor C(Parsed); !C.done();)
      Pulled.push_back(C.next());
    EXPECT_EQ(Pulled, Input) << Case.Name;
  }
}

TEST(SequiturFuzzTest, GoldenStreamChurnCounters) {
  // The work counters are exact and depend on the input alone (never on
  // hash values or slot layout), so they are pinned like the images.
  // phrases_a4 creates and inlines rules throughout.
  size_t Count = 0;
  const StreamCase *Cases = streamCases(Count);
  for (size_t C = 0; C != Count; ++C) {
    if (std::string(Cases[C].Name) != "phrases_a4")
      continue;
    SequiturGrammar G;
    G.appendAll(makeStream(Cases[C]));
    const sequitur::Churn Churn = G.stats().Work;
    EXPECT_EQ(Churn.RulesCreated, 317u);
    EXPECT_EQ(Churn.RulesInlined, 18u);
    EXPECT_EQ(Churn.Matches, 4647u);
    EXPECT_EQ(Churn.DigramChecks, 25003u);
    EXPECT_EQ(G.numRules(), 1 + Churn.RulesCreated - Churn.RulesInlined);
    return;
  }
  FAIL() << "phrases_a4 is missing from the stream suite";
}

TEST(SequiturFuzzTest, InvariantsHoldMidStream) {
  // The goldens only pin the final grammar; also probe intermediate
  // states on a couple of structurally different cases.
  size_t Count = 0;
  const StreamCase *Cases = streamCases(Count);
  for (size_t C = 0; C < Count; C += 5) {
    const StreamCase &Case = Cases[C];
    std::vector<uint64_t> Input = makeStream(Case);
    SequiturGrammar G;
    for (size_t I = 0; I != Input.size(); ++I) {
      G.append(Input[I]);
      if ((I & (I + 1)) == 0) { // Check at lengths 2^k - 1.
        ASSERT_TRUE(GrammarValidator::validate(G).ok())
            << Case.Name << " @ " << I;
      }
    }
    ASSERT_TRUE(GrammarValidator::validate(G).ok()) << Case.Name;
  }
}

TEST(SequiturFuzzTest, RandomSeedsRoundTrip) {
  // Unpinned random walk over seeds: no goldens, but the grammar must
  // stay invariant-clean and lossless on every one. This is the part of
  // the suite that keeps fuzzing past the recorded corpus.
  Rng Meta(0xf022ULL);
  for (int Round = 0; Round != 8; ++Round) {
    StreamCase Case{"random_walk", StreamKind::Random,
                    1 + Meta.nextBelow(512),
                    static_cast<uint32_t>(500 + Meta.nextBelow(3000)),
                    Meta.next(), 0};
    std::vector<uint64_t> Input = makeStream(Case);
    SequiturGrammar G;
    G.appendAll(Input);
    ASSERT_TRUE(GrammarValidator::validate(G).ok())
        << "alphabet " << Case.Alphabet;
    ASSERT_EQ(G.expandAll(), Input) << "alphabet " << Case.Alphabet;
    expectImageExpandsTo(G, Input,
                         "alphabet " + std::to_string(Case.Alphabet));
  }
}

TEST(SequiturFuzzTest, RandomWideSeedsMatchTheirNarrowRenaming) {
  // Wide terminals (2^31 and up) are interned, narrow ones stored inline.
  // Sequitur only compares terminals for equality, so renaming every
  // value to its first-appearance rank must give a grammar of the same
  // shape and churn; and the wide grammar must stay lossless.
  Rng Meta(0x31deULL);
  for (int Round = 0; Round != 8; ++Round) {
    std::vector<uint64_t> Pool;
    const uint64_t PoolSize = 1 + Meta.nextBelow(40);
    for (uint64_t I = 0; I != PoolSize; ++I) {
      unsigned Bits = 31 + static_cast<unsigned>(Meta.nextBelow(32));
      Pool.push_back((uint64_t(1) << Bits) | Meta.nextBelow(uint64_t(1) << 31));
    }
    Pool.push_back((uint64_t(1) << 63) - 1);
    Pool.push_back(uint64_t(1) << 31);
    const double WideShare = 0.1 * (1 + Meta.nextBelow(9));
    const size_t Length = 500 + Meta.nextBelow(4000);
    std::vector<uint64_t> Input;
    while (Input.size() < Length) {
      if (Input.size() > 16 && Meta.nextBool(0.4)) {
        size_t From = Meta.nextBelow(Input.size() - 16);
        Input.insert(Input.end(), Input.begin() + From,
                     Input.begin() + From + 2 + Meta.nextBelow(14));
      } else {
        Input.push_back(Meta.nextBool(WideShare)
                            ? Pool[Meta.nextBelow(Pool.size())]
                            : Meta.nextBelow(8));
      }
    }
    std::vector<uint64_t> Renamed;
    std::vector<uint64_t> Seen;
    for (uint64_t V : Input) {
      size_t Rank = std::find(Seen.begin(), Seen.end(), V) - Seen.begin();
      if (Rank == Seen.size())
        Seen.push_back(V);
      Renamed.push_back(Rank);
    }

    SequiturGrammar Wide, Narrow;
    Wide.appendAll(Input);
    Narrow.appendAll(Renamed);
    ASSERT_TRUE(GrammarValidator::validate(Wide).ok()) << "round " << Round;
    ASSERT_EQ(Wide.expandAll(), Input) << "round " << Round;
    expectImageExpandsTo(Wide, Input, "round " + std::to_string(Round));
    size_t WideDistinct = 0;
    for (uint64_t V : Seen)
      WideDistinct += V >= (uint64_t(1) << 31);
    EXPECT_EQ(Wide.numWideValues(), WideDistinct) << "round " << Round;
    EXPECT_EQ(Narrow.numWideValues(), 0u);

    const sequitur::Churn CW = Wide.stats().Work, CN = Narrow.stats().Work;
    EXPECT_EQ(CW.RulesCreated, CN.RulesCreated) << "round " << Round;
    EXPECT_EQ(CW.RulesInlined, CN.RulesInlined) << "round " << Round;
    EXPECT_EQ(CW.DigramChecks, CN.DigramChecks) << "round " << Round;
    EXPECT_EQ(CW.Matches, CN.Matches) << "round " << Round;
    std::vector<RuleStats> SW = std::move(Wide).seal().ruleStats(4),
                           SN = std::move(Narrow).seal().ruleStats(4);
    ASSERT_EQ(SW.size(), SN.size()) << "round " << Round;
    for (size_t I = 0; I != SW.size(); ++I) {
      EXPECT_EQ(SW[I].BodyLength, SN[I].BodyLength);
      EXPECT_EQ(SW[I].ExpandedLength, SN[I].ExpandedLength);
      EXPECT_EQ(SW[I].Occurrences, SN[I].Occurrences);
      for (size_t P = 0; P != SW[I].Prefix.size(); ++P)
        EXPECT_EQ(SW[I].Prefix[P], Seen[SN[I].Prefix[P]]);
    }
  }
}

TEST(SequiturFuzzTest, ArenaReusesAcrossStreams) {
  // Periodic streams churn rules heavily (create + inline); the arena
  // must keep the grammar healthy through the churn and numRules() must
  // agree with the reachable set the serializer walks.
  for (uint64_t Period : {2ULL, 3ULL, 5ULL, 17ULL}) {
    SequiturGrammar G;
    for (uint64_t I = 0; I != 50000; ++I)
      G.append(I % Period);
    EXPECT_TRUE(GrammarValidator::validate(G).ok()) << Period;
    std::vector<uint64_t> Out = G.expandAll();
    ASSERT_EQ(Out.size(), 50000u);
    for (uint64_t I = 0; I != Out.size(); ++I)
      ASSERT_EQ(Out[I], I % Period);
  }
}

//===----------------------------------------------------------------------===//
// Checked image decoding
//===----------------------------------------------------------------------===//

/// Encodes a hand-built image: rule bodies of tagged codes (terminal << 1,
/// or rule << 1 | 1) under a declared expansion length.
std::vector<uint8_t> image(uint64_t Declared,
                           const std::vector<std::vector<uint64_t>> &Rules) {
  std::vector<uint8_t> Bytes;
  encodeULEB128(Rules.size(), Bytes);
  encodeULEB128(Declared, Bytes);
  for (const auto &Body : Rules) {
    encodeULEB128(Body.size(), Bytes);
    for (uint64_t Code : Body)
      encodeULEB128(Code, Bytes);
  }
  return Bytes;
}

constexpr uint64_t T(uint64_t V) { return V << 1; }
constexpr uint64_t R(uint64_t Id) { return (Id << 1) | 1; }

std::string parseError(const std::vector<uint8_t> &Bytes,
                       uint64_t MaxTerminals = kDefaultMaxExpandedTerminals) {
  ParsedImage Parsed;
  std::string Err;
  if (parseImageChecked(Bytes, Parsed, Err, MaxTerminals))
    return "accepted";
  return Err;
}

/// The step-by-step validating expander the memoized parser replaced:
/// every structural check fires at the step where the walk meets it.
bool referenceExpand(const std::vector<uint8_t> &Bytes, uint64_t MaxTerminals,
                     std::vector<uint64_t> &Out, std::string &Err) {
  const uint8_t *Data = Bytes.data();
  size_t Size = Bytes.size(), Pos = 0;
  auto ReadU = [&](const char *What, uint64_t &Value) {
    VarIntStatus S = decodeULEB128Checked(Data, Size, Pos, Value);
    if (S != VarIntStatus::Ok)
      Err = std::string("sequitur image: ") + What + ": " +
            varIntStatusName(S) + " varint";
    return S == VarIntStatus::Ok;
  };
  auto Fail = [&](const std::string &Msg) {
    Err = "sequitur image: " + Msg;
    return false;
  };
  uint64_t NumRules = 0, ExpectLen = 0;
  if (!ReadU("rule count", NumRules) || !ReadU("input length", ExpectLen))
    return false;
  if (NumRules == 0)
    return Fail("no rules");
  if (NumRules > Size - Pos + 1)
    return Fail("rule count exceeds remaining bytes");
  if (ExpectLen > MaxTerminals)
    return Fail("declared expansion of " + std::to_string(ExpectLen) +
                " terminals exceeds the cap of " +
                std::to_string(MaxTerminals));
  std::vector<std::vector<uint64_t>> Bodies(NumRules);
  for (auto &Body : Bodies) {
    uint64_t BodyLen = 0;
    if (!ReadU("body length", BodyLen))
      return false;
    if (BodyLen > Size - Pos)
      return Fail("body length exceeds remaining bytes");
    for (uint64_t I = 0; I != BodyLen; ++I) {
      uint64_t Code = 0;
      if (!ReadU("symbol", Code))
        return false;
      Body.push_back(Code);
    }
  }
  if (Pos != Size)
    return Fail("trailing bytes");
  uint64_t Steps = 0;
  const uint64_t MaxSteps = 64 + 4 * ExpectLen + 4 * NumRules;
  std::vector<std::pair<uint64_t, size_t>> Stack{{0, 0}};
  while (!Stack.empty()) {
    if (++Steps > MaxSteps)
      return Fail("expansion exceeds its step budget");
    auto &[Rule, At] = Stack.back();
    if (At == Bodies[Rule].size()) {
      Stack.pop_back();
      continue;
    }
    uint64_t Code = Bodies[Rule][At++];
    if (Code & 1) {
      if ((Code >> 1) >= NumRules)
        return Fail("rule reference out of range");
      if (Stack.size() >= NumRules)
        return Fail("cyclic rule references");
      Stack.emplace_back(Code >> 1, 0);
    } else {
      if (Out.size() == ExpectLen)
        return Fail("expansion exceeds declared length");
      Out.push_back(Code >> 1);
    }
  }
  if (Out.size() != ExpectLen)
    return Fail("deserialized length mismatch");
  return true;
}

TEST(HardenedDeserializeTest, SequiturImageDiagnostics) {
  // R0 -> R1, R1 -> R0.
  EXPECT_EQ(parseError(image(4, {{R(1)}, {R(0)}})),
            "sequitur image: cyclic rule references");
  // A self-referencing start rule behind a terminal.
  EXPECT_EQ(parseError(image(4, {{T(7), R(0)}})),
            "sequitur image: cyclic rule references");
  // Forty uses of an empty rule: 64 + 4 * 2 steps are not enough.
  EXPECT_EQ(parseError(image(0, {std::vector<uint64_t>(40, R(1)), {}})),
            "sequitur image: expansion exceeds its step budget");
  // Two terminals against a declared length of one...
  EXPECT_EQ(parseError(image(1, {{T(1), T(2)}})),
            "sequitur image: expansion exceeds declared length");
  // ...also when the overrun sits inside a rule the walk already knows.
  EXPECT_EQ(parseError(image(3, {{R(1), R(1)}, {T(1), T(2)}})),
            "sequitur image: expansion exceeds declared length");
  // A known rule whose nesting would reach the cycle check is walked,
  // not skipped: R0 -> R1 9 R2, R1 -> R3 8, R2 -> R0, R3 -> 1 2. The
  // second R1 starts at depth 3 of 4, so its R3 trips the check before
  // the terminal after it could overrun the declared 7.
  EXPECT_EQ(parseError(image(7, {{R(1), T(9), R(2)},
                                 {R(3), T(8)},
                                 {R(0)},
                                 {T(1), T(2)}})),
            "sequitur image: cyclic rule references");
  EXPECT_EQ(parseError(image(3, {{T(1), T(2)}})),
            "sequitur image: deserialized length mismatch");
  EXPECT_EQ(parseError(image(0, {{R(5)}})),
            "sequitur image: rule reference out of range");
  EXPECT_EQ(parseError(image(9, {{T(1)}}), /*MaxTerminals=*/8),
            "sequitur image: declared expansion of 9 terminals exceeds the "
            "cap of 8");
  std::vector<uint8_t> Trailing = image(1, {{T(1)}});
  Trailing.push_back(0);
  EXPECT_EQ(parseError(Trailing), "sequitur image: trailing bytes");
  EXPECT_EQ(parseError(image(4, {{R(1), R(1)}, {T(1), T(2)}})), "accepted");

  // The checked expander reports the same diagnostics.
  std::vector<uint8_t> Cyclic = image(4, {{R(1)}, {R(0)}});
  std::vector<uint64_t> Out;
  std::string Err;
  EXPECT_FALSE(deserializeAndExpandChecked(
      Cyclic.data(), Cyclic.size(), Out, Err));
  EXPECT_EQ(Err, "sequitur image: cyclic rule references");
  EXPECT_TRUE(Out.empty());
}

/// A random small grammar: acyclic (references only to later rules, so
/// the declared length can be exact) or unconstrained (cycles,
/// out-of-range references, empty bodies), with a declared length that
/// is exact, off by one, or arbitrary.
std::vector<uint8_t> randomImage(Rng &G) {
  uint64_t NumRules = 1 + G.nextBelow(10);
  bool Acyclic = G.nextBelow(2) == 0;
  std::vector<std::vector<uint64_t>> Rules(NumRules);
  for (uint64_t Rule = 0; Rule != NumRules; ++Rule) {
    uint64_t BodyLen = G.nextBelow(5);
    for (uint64_t I = 0; I != BodyLen; ++I) {
      if (G.nextBelow(2) == 0) {
        Rules[Rule].push_back(T(G.nextBelow(4)));
      } else if (Acyclic) {
        if (Rule + 1 < NumRules)
          Rules[Rule].push_back(R(Rule + 1 + G.nextBelow(NumRules - Rule - 1)));
      } else {
        Rules[Rule].push_back(R(G.nextBelow(NumRules + 1)));
      }
    }
  }
  uint64_t Declared = G.nextBelow(64);
  if (Acyclic) {
    std::vector<uint64_t> Lengths(NumRules, 0);
    for (uint64_t Rule = NumRules; Rule-- != 0;)
      for (uint64_t Code : Rules[Rule])
        Lengths[Rule] += (Code & 1) ? Lengths[Code >> 1] : 1;
    Declared = Lengths[0];
    uint64_t Skew = G.nextBelow(4);
    if (Skew == 0)
      ++Declared;
    else if (Skew == 1 && Declared != 0)
      --Declared;
  }
  return image(Declared, Rules);
}

TEST(HardenedDeserializeTest, MemoizedWalkMatchesStepByStepWalk) {
  // Random grammars, plus byte-level corruptions of real images: the
  // verdict, the diagnostic and, when accepted, the expansion (through
  // both expand() and a cursor) must match the reference walk.
  Rng G(0x5eed1a9ULL);
  size_t Count = 0;
  const StreamCase *Cases = streamCases(Count);
  size_t Accepted = 0, Rejected = 0;
  for (int Round = 0; Round != 10000; ++Round) {
    std::vector<uint8_t> Bytes;
    if (Round % 3 != 0) {
      Bytes = randomImage(G);
    } else {
      const StreamCase &Case = Cases[G.nextBelow(Count)];
      SequiturGrammar Grammar;
      std::vector<uint64_t> Input = makeStream(Case);
      Input.resize(64 + G.nextBelow(512));
      Grammar.appendAll(Input);
      Bytes = Grammar.serialize();
      for (uint64_t Flips = G.nextBelow(3); Flips-- != 0;)
        Bytes[G.nextBelow(Bytes.size())] ^=
            static_cast<uint8_t>(1 + G.nextBelow(255));
      if (G.nextBelow(4) == 0)
        Bytes.resize(G.nextBelow(Bytes.size() + 1));
    }
    const uint64_t Cap = 4096;
    std::vector<uint64_t> Want;
    std::string WantErr;
    bool WantOk = referenceExpand(Bytes, Cap, Want, WantErr);
    ParsedImage Parsed;
    std::string Err;
    bool Ok = parseImageChecked(Bytes, Parsed, Err, Cap);
    ASSERT_EQ(Ok, WantOk) << "round " << Round << ": " << WantErr;
    if (!Ok) {
      ASSERT_EQ(Err, WantErr) << "round " << Round;
      ++Rejected;
      continue;
    }
    ++Accepted;
    ASSERT_EQ(Parsed.expand(), Want) << "round " << Round;
    std::vector<uint64_t> Pulled;
    for (ImageCursor C(Parsed); !C.done();)
      Pulled.push_back(C.next());
    ASSERT_EQ(Pulled, Want) << "round " << Round;
  }
  // Both outcomes must be well represented for the comparison to mean
  // anything.
  EXPECT_GT(Accepted, 1000u);
  EXPECT_GT(Rejected, 1000u);
}

} // namespace
