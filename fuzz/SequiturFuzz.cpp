//===- fuzz/SequiturFuzz.cpp - Sequitur is lossless, on any stream -------===//
//
// Property: the paper's "Sequitur is lossless" as an oracle. The input
// bytes are a program of stream operations (narrow and wide terminals,
// long runs, ramps of fresh values, runs of digrams chosen to share a
// home slot in the digram index, and points where the digram index is
// given back). The resulting stream is appended to one grammar builder,
// which releases its index at those points (the next append rebuilds
// it), and to a twin that never does. The builder must
//
//   * pass GrammarValidator::validate at doubling intervals and at the
//     end;
//   * produce exactly the twin's serialize() and counters (stats());
//   * expand back to exactly the stream (expandAll());
//   * serialize to an image the checked parser accepts, whose expansion
//     is the stream again;
//   * seal into a GrammarImage that passes GrammarValidator::validate,
//     holds exactly those bytes and the builder's counters, and whose
//     ruleStats() has one entry per rule, the start rule's expanding to
//     the whole stream.
//
// Ramps grow the digram index through both of the rebuilding doublings
// a stream this short can reach, 2^10 -> 2^11 and 2^15 -> 2^16 slots,
// and through the key-free ones between them; the home-sharing digrams
// pile up on one slot until the displacement cap forces growth.
//
//===----------------------------------------------------------------------===//

#include "FuzzTarget.h"

#include "check/GrammarValidator.h"
#include "sequitur/DigramTable.h"
#include "sequitur/Sequitur.h"

#include <string>

using namespace orp;

namespace {

/// Most terminals one input may append, so a smoke round stays short.
constexpr size_t kMaxSymbols = size_t(1) << 15;

/// Terminal pairs (A, A + 7) whose digram hashes all agree in the low
/// 16 bits: they share a home slot in every index of up to 2^16 slots.
const std::vector<uint64_t> &homeSharingFirsts() {
  static const std::vector<uint64_t> Firsts = [] {
    constexpr uint64_t Low = (uint64_t(1) << 16) - 1;
    const uint64_t Want = sequitur::hashDigram(1, 8, 0) & Low;
    std::vector<uint64_t> Out;
    for (uint64_t A = 1; Out.size() != 600; ++A)
      if ((sequitur::hashDigram(A, A + 7, 0) & Low) == Want)
        Out.push_back(A);
    return Out;
  }();
  return Firsts;
}

/// Decodes the operation program in \p Data into a terminal stream, and
/// into \p ReleaseAt the stream lengths at which to release the index.
std::vector<uint64_t> decodeStream(const uint8_t *Data, size_t Size,
                                   std::vector<size_t> &ReleaseAt) {
  std::vector<uint64_t> Out;
  uint64_t Fresh = uint64_t(1) << 24; // Ramp values, never repeated.
  size_t NextPair = 0;                // Cursor into homeSharingFirsts().
  for (size_t I = 0; I + 1 < Size && Out.size() < kMaxSymbols; I += 2) {
    const uint8_t Arg = Data[I + 1];
    size_t N = 0;
    switch (Data[I] % 6) {
    case 0: // A narrow terminal from a small alphabet.
      Out.push_back(Arg % 16);
      break;
    case 1: // A wide terminal (2^31 or more, below 2^63).
      Out.push_back((uint64_t(1) << (31 + Arg % 32)) + Arg / 32);
      break;
    case 2: // A long run of the previous terminal.
      N = Arg % 64 + 2;
      for (size_t K = 0; K != N; ++K)
        Out.push_back(Out.empty() ? 0 : Out.back());
      break;
    case 3: { // Digrams that share one home slot.
      const std::vector<uint64_t> &Firsts = homeSharingFirsts();
      N = Arg % 64 + 1;
      for (size_t K = 0; K != N; ++K) {
        Out.push_back(Firsts[NextPair]);
        Out.push_back(Firsts[NextPair] + 7);
        NextPair = (NextPair + 1) % Firsts.size();
      }
      break;
    }
    case 4: // A ramp of fresh terminals: as many new digrams.
      N = (size_t(Arg) + 1) * 32;
      for (size_t K = 0; K != N; ++K)
        Out.push_back(Fresh++);
      break;
    case 5: // Give the digram index back here.
      ReleaseAt.push_back(Out.size());
      break;
    }
  }
  if (Out.size() > kMaxSymbols)
    Out.resize(kMaxSymbols);
  return Out;
}

} // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t *Data, size_t Size) {
  std::vector<size_t> ReleaseAt;
  const std::vector<uint64_t> Stream = decodeStream(Data, Size, ReleaseAt);
  sequitur::SequiturGrammar G, Twin;
  size_t NextCheck = 64, NextRelease = 0;
  for (size_t I = 0; I <= Stream.size(); ++I) {
    for (; NextRelease != ReleaseAt.size() && ReleaseAt[NextRelease] == I;
         ++NextRelease) {
      G.releaseIndex();
      ORP_FUZZ_REQUIRE(G.indexReleased() && G.indexBytes() == 0,
                       "releaseIndex() kept the index");
    }
    if (I == Stream.size())
      break;
    G.append(Stream[I]);
    Twin.append(Stream[I]);
    if (I + 1 == NextCheck) {
      ORP_FUZZ_REQUIRE(check::GrammarValidator::validate(G).ok(),
                       "invariants broken mid-stream");
      NextCheck *= 2;
    }
  }
  ORP_FUZZ_REQUIRE(check::GrammarValidator::validate(G).ok(),
                   "invariants broken at the end");
  ORP_FUZZ_REQUIRE(G.serialize() == Twin.serialize(),
                   "releasing the index changed serialize()");
  ORP_FUZZ_REQUIRE(G.stats() == Twin.stats(),
                   "releasing the index changed stats()");
  ORP_FUZZ_REQUIRE(G.inputLength() == Stream.size(), "input length differs");
  ORP_FUZZ_REQUIRE(G.expandAll() == Stream, "expandAll() is not the input");

  std::vector<uint8_t> Image = G.serialize();
  ORP_FUZZ_REQUIRE(Image.size() == G.serializedSizeBytes(),
                   "serializedSizeBytes() differs from the image");
  sequitur::ParsedImage Parsed;
  std::string Err;
  ORP_FUZZ_REQUIRE(sequitur::parseImageChecked(Image, Parsed, Err),
                   "the checked parser rejects a serialized grammar");
  ORP_FUZZ_REQUIRE(Parsed.bytes() == Image, "parsed image bytes differ");
  ORP_FUZZ_REQUIRE(Parsed.expand() == Stream,
                   "the parsed image does not expand to the input");

  const sequitur::GrammarStats Counted = G.stats();
  const sequitur::GrammarImage Sealed = std::move(G).seal();
  ORP_FUZZ_REQUIRE(check::GrammarValidator::validate(Sealed).ok(),
                   "deep validation fails after seal()");
  ORP_FUZZ_REQUIRE(Sealed.bytes() == Image, "seal() changed the image");
  ORP_FUZZ_REQUIRE(Sealed.stats() == Counted, "seal() changed the counters");
  const std::vector<sequitur::RuleStats> Rules = Sealed.ruleStats();
  ORP_FUZZ_REQUIRE(Rules.size() == Counted.Rules &&
                       Rules[0].ExpandedLength == Stream.size(),
                   "the image's ruleStats() disagree with the builder");
  return 0;
}

std::vector<std::vector<uint8_t>> orpFuzzSeedInputs() {
  std::vector<std::vector<uint8_t>> Seeds;
  Seeds.push_back({});
  // Narrow and wide terminals with runs: "abcbcabcbc"-like repetition.
  Seeds.push_back({0, 1, 0, 2, 0, 3, 0, 2, 0, 3, 0, 1, 0, 2, 0, 3, 0, 2, 0,
                   3, 1, 40, 1, 40, 2, 9, 1, 200, 0, 1, 1, 200, 0, 1});
  // Home-sharing digrams: the displacement cap forces key-free growth.
  std::vector<uint8_t> Clustered;
  for (int K = 0; K != 8; ++K)
    Clustered.insert(Clustered.end(), {3, 63, 0, static_cast<uint8_t>(K)});
  Seeds.push_back(Clustered);
  // Ramps past 2^10 -> 2^11 index slots (a rebuilding growth) up to
  // 2^15 (key-free growth), then home-sharing digrams and runs.
  std::vector<uint8_t> Rebuild = {4, 255, 4, 160, 0, 5};
  for (int K = 0; K != 10; ++K)
    Rebuild.insert(Rebuild.end(), {3, 63, 2, 10});
  Seeds.push_back(Rebuild);
  // Ramps past 2^15 -> 2^16 index slots, the second rebuilding growth,
  // then home-sharing digrams and runs up to kMaxSymbols.
  std::vector<uint8_t> SecondRebuild = {4, 255, 4, 255, 4, 255, 0, 5};
  for (int K = 0; K != 20; ++K)
    SecondRebuild.insert(SecondRebuild.end(), {3, 63, 2, 10});
  Seeds.push_back(SecondRebuild);
  // Releases between runs, ramps and home-sharing digrams, one at the
  // very end (sealed without a rebuild).
  std::vector<uint8_t> Released = {0, 1, 2, 3, 5, 0, 0, 2, 2, 9, 5, 0,
                                   4, 40, 5, 0, 3, 20, 0, 1, 2, 5, 5, 0};
  for (int K = 0; K != 6; ++K)
    Released.insert(Released.end(), {0, static_cast<uint8_t>(K), 2, 4, 5, 0});
  Seeds.push_back(Released);
  return Seeds;
}
