//===- analysis/HotStreams.cpp - Hot data stream extraction --------------===//

#include "analysis/HotStreams.h"

#include <algorithm>

using namespace orp;
using namespace orp::analysis;

std::vector<HotStream> orp::analysis::extractHotStreams(
    const sequitur::GrammarImage &Grammar,
    const HotStreamOptions &Options) {
  std::vector<HotStream> Streams;
  for (const auto &RS : Grammar.ruleStats()) {
    if (RS.Id == 0)
      continue; // The start rule is the whole input, not a repeat.
    if (RS.Occurrences < Options.MinOccurrences ||
        RS.ExpandedLength < Options.MinLength)
      continue;
    HotStream H;
    H.RuleId = RS.Id;
    H.Length = RS.ExpandedLength;
    H.Occurrences = RS.Occurrences;
    H.Heat = RS.ExpandedLength * RS.Occurrences;
    H.Prefix = RS.Prefix;
    Streams.push_back(std::move(H));
  }
  std::sort(Streams.begin(), Streams.end(),
            [](const HotStream &A, const HotStream &B) {
              return A.Heat > B.Heat;
            });

  // Trim to the coverage target. Rules nest, so summed heat can exceed
  // the input length; the target is interpreted against the input size.
  if (Options.CoverageTarget < 1.0 && !Streams.empty()) {
    double Budget = Options.CoverageTarget *
                    static_cast<double>(Grammar.stats().InputLength);
    double Acc = 0.0;
    size_t Keep = 0;
    while (Keep < Streams.size() && Acc < Budget)
      Acc += static_cast<double>(Streams[Keep++].Heat);
    Streams.resize(Keep);
  }
  return Streams;
}
