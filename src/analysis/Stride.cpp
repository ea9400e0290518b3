//===- analysis/Stride.cpp - Strongly-strided instruction finder ---------===//

#include "analysis/Stride.h"

#include "core/ObjectRelative.h"

#include <unordered_map>

using namespace orp;
using namespace orp::analysis;

StrideMap orp::analysis::findStronglyStrided(
    const leap::LeapProfiler &Profile, double Threshold) {
  // Per instruction: total within-object strided steps and per-stride
  // step counts.
  struct Acc {
    uint64_t TotalSteps = 0;
    std::unordered_map<int64_t, uint64_t> PerStride;
  };
  std::unordered_map<trace::InstrId, Acc> ByInstr;

  Profile.forEachSubstream([&](const core::VerticalKey &Key,
                               const lmad::LmadCompressor &Compressor) {
    Acc &A = ByInstr[Key.Instr];
    for (const lmad::Lmad &L : Compressor.lmads()) {
      if (L.Count < 2)
        continue;
      // Only within-object runs count (identical group and object IDs).
      if (L.Stride[leap::DimObject] != 0)
        continue;
      uint64_t Steps = L.Count - 1;
      A.TotalSteps += Steps;
      A.PerStride[L.Stride[leap::DimOffset]] += Steps;
    }
  });

  StrideMap Result;
  for (const auto &[Instr, A] : ByInstr) {
    if (A.TotalSteps == 0)
      continue;
    int64_t BestStride = 0;
    uint64_t BestSteps = 0;
    for (const auto &[Stride, Steps] : A.PerStride)
      if (Steps > BestSteps || (Steps == BestSteps && Stride < BestStride)) {
        BestStride = Stride;
        BestSteps = Steps;
      }
    double Share =
        static_cast<double>(BestSteps) / static_cast<double>(A.TotalSteps);
    if (Share >= Threshold)
      Result[Instr] = StrideInfo{BestStride, Share};
  }
  return Result;
}
