//===- whomp/OmsgStats.h - Mergeable OMSG statistics -----------*- C++ -*-===//
//
// Part of the ORP reproduction of "Exposing Memory Access Regularities
// Using Object-Relative Memory Profiling" (CGO 2004).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A mergeable statistics digest of an OMSG archive. Full archives from
/// independent runs cannot be merged losslessly (their tuple streams
/// have no common order), but their shape statistics fold cleanly:
/// per-dimension grammar size, rule count, compressed/uncompressed
/// lengths, and a hot-rule frequency spectrum (how many rules occur
/// 2^k..2^{k+1}-1 times — the paper's Section 5 observation that a few
/// hot rules cover most of the access stream). The fold is elementwise
/// addition, hence associative and commutative, so fleets of runs can
/// aggregate in any order — the same style of cross-run aggregation the
/// clustering literature applies to per-rank access patterns.
///
//===----------------------------------------------------------------------===//

#ifndef ORP_WHOMP_OMSGSTATS_H
#define ORP_WHOMP_OMSGSTATS_H

#include "whomp/OmsgArchive.h"

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace orp {
namespace whomp {

/// Statistics of one dimension grammar, summed across runs.
struct DimensionStats {
  /// Number of occurrence-histogram buckets: bucket k counts rules that
  /// occur in [2^k, 2^{k+1}) expansions; the last bucket absorbs the
  /// tail.
  static constexpr unsigned kSpectrumBuckets = 16;

  uint64_t InputLength = 0;  ///< Terminals in the dimension stream.
  uint64_t GrammarBytes = 0; ///< Serialized grammar image size.
  uint64_t RuleCount = 0;    ///< Rules in the grammar.
  uint64_t BodySymbols = 0;  ///< Symbols across all rule bodies.
  std::array<uint64_t, kSpectrumBuckets> HotRuleSpectrum = {};

  bool operator==(const DimensionStats &O) const {
    return InputLength == O.InputLength && GrammarBytes == O.GrammarBytes &&
           RuleCount == O.RuleCount && BodySymbols == O.BodySymbols &&
           HotRuleSpectrum == O.HotRuleSpectrum;
  }
};

/// A mergeable OMSG statistics artifact.
class OmsgStats {
public:
  /// On-disk format: "OMST" magic, one version byte, a little-endian
  /// CRC-32 of the payload, then the LEB128 payload.
  static constexpr char kMagic[4] = {'O', 'M', 'S', 'T'};
  static constexpr uint8_t kFormatVersion = 1;
  static constexpr size_t kHeaderSize = 4 + 1 + 4;

  /// Digests \p Archive (one run) by rebuilding each dimension grammar
  /// from its stream, pulled through a cursor, and reading off the
  /// structural counters.
  static OmsgStats fromArchive(const OmsgArchive &Archive);

  /// Folds \p Other into this digest: every counter and histogram
  /// bucket adds. Fails only when the dimension counts differ.
  [[nodiscard]] bool merge(const OmsgStats &Other, std::string &Err);

  /// Serializes to bytes (header plus ULEB128 payload).
  std::vector<uint8_t> serialize() const;

  /// Parses a serialize()d image. Returns false with a diagnostic in
  /// \p Err on malformed input; never reads out of bounds.
  [[nodiscard]] static bool deserialize(const std::vector<uint8_t> &Bytes,
                                        OmsgStats &Out, std::string &Err);

  /// Number of runs folded into this digest.
  uint64_t runs() const { return Runs; }

  /// Total accesses across the folded runs.
  uint64_t accessCount() const { return AccessCount; }

  /// Total objects across the folded runs.
  uint64_t objectCount() const { return ObjectCount; }

  /// Per-dimension statistics, in the archive's dimension order.
  const std::vector<DimensionStats> &dimensions() const { return Dims; }

  bool operator==(const OmsgStats &O) const {
    return Runs == O.Runs && AccessCount == O.AccessCount &&
           ObjectCount == O.ObjectCount && Dims == O.Dims;
  }

private:
  uint64_t Runs = 0;
  uint64_t AccessCount = 0;
  uint64_t ObjectCount = 0;
  std::vector<DimensionStats> Dims;
};

} // namespace whomp
} // namespace orp

#endif // ORP_WHOMP_OMSGSTATS_H
