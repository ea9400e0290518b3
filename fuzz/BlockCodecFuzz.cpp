//===- fuzz/BlockCodecFuzz.cpp - Event-block decode on malformed bytes ---===//
//
// Property: decodeEventBlock must reject or cleanly parse ANY payload
// — no crash, no sanitizer report, no partial output on failure. A
// successful decode must deliver exactly the declared event count, both
// in the column view and through the merge walk. Input layout: byte 0
// is the declared event count, the rest is the block payload — so the
// mutator exercises count/payload disagreements (truncated columns,
// column-length mismatches, overlong varints), not just byte noise.
//
//===----------------------------------------------------------------------===//

#include "FuzzTarget.h"

#include "support/VarInt.h"
#include "traceio/BlockCodec.h"

#include <initializer_list>
#include <string>

using namespace orp;

extern "C" int LLVMFuzzerTestOneInput(const uint8_t *Data, size_t Size) {
  if (Size < 1)
    return 0;
  uint64_t EventCount = Data[0];
  const uint8_t *Payload = Data + 1;
  size_t Len = Size - 1;

  traceio::DecodedBlock Block;
  std::string Err;
  if (!traceio::decodeEventBlock(Payload, Len, EventCount, Block, Err)) {
    ORP_FUZZ_REQUIRE(!Err.empty(), "failed decode without an error message");
    ORP_FUZZ_REQUIRE(Block.events() == 0,
                     "failed decode left partial output");
    return 0;
  }
  ORP_FUZZ_REQUIRE(Block.events() == EventCount,
                   "decode delivered a different event count than declared");
  uint64_t Walked = 0;
  traceio::forEachDecodedEvent(
      Block, [&](const traceio::TraceEvent &) { ++Walked; });
  ORP_FUZZ_REQUIRE(Walked == EventCount,
                   "merge walk delivered a different event count");
  return 0;
}

namespace {

/// Builds a count-prefixed fuzz input from five pre-encoded columns.
std::vector<uint8_t> makeSeed(uint8_t EventCount,
                              std::initializer_list<std::vector<uint8_t>> Cols) {
  std::vector<uint8_t> Seed{EventCount};
  for (const std::vector<uint8_t> &Col : Cols) {
    encodeULEB128(Col.size(), Seed);
    Seed.insert(Seed.end(), Col.begin(), Col.end());
  }
  return Seed;
}

std::vector<uint8_t> uleb(std::initializer_list<uint64_t> Values) {
  std::vector<uint8_t> Out;
  for (uint64_t V : Values)
    encodeULEB128(V, Out);
  return Out;
}

std::vector<uint8_t> sleb(std::initializer_list<int64_t> Values) {
  std::vector<uint8_t> Out;
  for (int64_t V : Values)
    encodeSLEB128(V, Out);
  return Out;
}

} // namespace

std::vector<std::vector<uint8_t>> orpFuzzSeedInputs() {
  std::vector<std::vector<uint8_t>> Seeds;
  // A valid 3-event block: access, alloc, free.
  Seeds.push_back(makeSeed(
      3, {{traceio::kOpAccess, traceio::kOpAlloc, traceio::kOpFree},
          uleb({5, 2}), sleb({0x1000, 0x1000, 0}), sleb({0, 1, 1}),
          uleb({4, 64})}));
  // A pure-access block with mixed tag bits (the batch fast path).
  Seeds.push_back(makeSeed(
      2, {{traceio::kOpAccess | traceio::kTagSize8,
           traceio::kOpAccess | traceio::kTagStore},
          uleb({1, 2}), sleb({0x2000, 8}), sleb({0, 1}), uleb({4})}));
  // Truncated size column: header declares a byte that isn't there.
  {
    std::vector<uint8_t> S = makeSeed(
        1, {{traceio::kOpAccess}, uleb({5}), sleb({16}), sleb({0}),
            uleb({4})});
    S.pop_back();
    Seeds.push_back(std::move(S));
  }
  // Kind column length disagrees with the declared event count.
  Seeds.push_back(
      makeSeed(4, {{traceio::kOpFree}, {}, sleb({16}), sleb({1}), {}}));
  // Overlong varint inside the id column.
  Seeds.push_back(makeSeed(
      1, {{traceio::kOpAccess}, {0x85, 0x00}, sleb({16}), sleb({0}),
          uleb({4})}));
  // Degenerate inputs: empty, count with no payload, lone column header.
  Seeds.push_back({});
  Seeds.push_back({7});
  Seeds.push_back({0, 0x80});
  return Seeds;
}
