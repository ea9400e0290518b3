//===- analysis/HotStreams.h - Hot data stream extraction ------*- C++ -*-===//
//
// Part of the ORP reproduction of "Exposing Memory Access Regularities
// Using Object-Relative Memory Profiling" (CGO 2004).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hot-data-stream mining over WHOMP grammars. The paper positions the
/// OMSG as input to "a class of correlation-based memory optimizations
/// including clustering, custom heap allocation, and hot data stream
/// prefetching" (Section 3.2, citing Chilimbi & Hirzel, PLDI 2002). A
/// hot data stream is a frequently repeated subsequence of the access
/// stream; in grammar form these are exactly the rules whose
/// heat — occurrence count times expanded length — is large. Because
/// Sequitur rules are non-overlapping exact repeats, extraction is a
/// linear pass over the grammar.
///
//===----------------------------------------------------------------------===//

#ifndef ORP_ANALYSIS_HOTSTREAMS_H
#define ORP_ANALYSIS_HOTSTREAMS_H

#include "sequitur/Sequitur.h"

#include <cstdint>
#include <vector>

namespace orp {
namespace analysis {

/// One extracted hot data stream.
struct HotStream {
  uint64_t RuleId;      ///< Grammar rule the stream comes from.
  uint64_t Length;      ///< Terminals per repetition.
  uint64_t Occurrences; ///< Repetitions in the input.
  uint64_t Heat;        ///< Occurrences * Length (coverage in symbols).
  /// The stream's leading symbols (capped; enough for prefetch seeds).
  std::vector<uint64_t> Prefix;
};

/// Extraction parameters.
struct HotStreamOptions {
  /// Minimum repetitions for a stream to qualify.
  uint64_t MinOccurrences = 2;
  /// Minimum terminals per repetition (too-short streams are noise).
  uint64_t MinLength = 2;
  /// Keep streams whose cumulative heat covers this fraction of the
  /// input (most-heated first); 1.0 keeps all qualifying streams.
  double CoverageTarget = 0.9;
};

/// Mines \p Grammar for hot data streams, hottest first.
std::vector<HotStream> extractHotStreams(
    const sequitur::GrammarImage &Grammar,
    const HotStreamOptions &Options = HotStreamOptions());

} // namespace analysis
} // namespace orp

#endif // ORP_ANALYSIS_HOTSTREAMS_H
