//===- tests/support_test.cpp - Support library unit tests ---------------===//

#include "support/Checksum.h"
#include "support/Endian.h"
#include "support/Histogram.h"
#include "support/LogSink.h"
#include "support/MappedArray.h"
#include "support/ParseNumber.h"
#include "support/Random.h"
#include "support/Statistics.h"
#include "support/TablePrinter.h"
#include "support/VarInt.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <set>
#include <type_traits>

#include <malloc.h>

using namespace orp;

//===----------------------------------------------------------------------===//
// Random
//===----------------------------------------------------------------------===//

TEST(RandomTest, DeterministicForSameSeed) {
  Rng A(123), B(123);
  for (int I = 0; I != 1000; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RandomTest, DifferentSeedsDiverge) {
  Rng A(1), B(2);
  int Same = 0;
  for (int I = 0; I != 100; ++I)
    Same += A.next() == B.next();
  EXPECT_LT(Same, 3);
}

TEST(RandomTest, NextBelowStaysInRange) {
  Rng R(7);
  for (uint64_t Bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40})
    for (int I = 0; I != 200; ++I)
      EXPECT_LT(R.nextBelow(Bound), Bound);
}

TEST(RandomTest, NextBelowOneIsAlwaysZero) {
  Rng R(7);
  for (int I = 0; I != 50; ++I)
    EXPECT_EQ(R.nextBelow(1), 0u);
}

TEST(RandomTest, NextBelowCoversAllResidues) {
  Rng R(9);
  std::set<uint64_t> Seen;
  for (int I = 0; I != 2000; ++I)
    Seen.insert(R.nextBelow(7));
  EXPECT_EQ(Seen.size(), 7u);
}

TEST(RandomTest, NextInRangeInclusiveBounds) {
  Rng R(11);
  bool SawLo = false, SawHi = false;
  for (int I = 0; I != 5000; ++I) {
    int64_t V = R.nextInRange(-3, 3);
    EXPECT_GE(V, -3);
    EXPECT_LE(V, 3);
    SawLo |= V == -3;
    SawHi |= V == 3;
  }
  EXPECT_TRUE(SawLo);
  EXPECT_TRUE(SawHi);
}

TEST(RandomTest, NextDoubleInUnitInterval) {
  Rng R(13);
  for (int I = 0; I != 1000; ++I) {
    double D = R.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(RandomTest, NextBoolRespectsProbabilityRoughly) {
  Rng R(17);
  int True = 0;
  for (int I = 0; I != 10000; ++I)
    True += R.nextBool(0.25);
  EXPECT_NEAR(True / 10000.0, 0.25, 0.03);
}

TEST(RandomTest, ShuffleIsAPermutation) {
  Rng R(19);
  std::vector<int> V(100);
  std::iota(V.begin(), V.end(), 0);
  std::vector<int> Orig = V;
  R.shuffle(V);
  EXPECT_NE(V, Orig); // Overwhelmingly likely.
  std::sort(V.begin(), V.end());
  EXPECT_EQ(V, Orig);
}

TEST(RandomTest, PickReturnsElements) {
  Rng R(23);
  std::vector<int> V = {4, 8, 15, 16, 23, 42};
  for (int I = 0; I != 100; ++I)
    EXPECT_TRUE(std::count(V.begin(), V.end(), R.pick(V)));
}

TEST(RandomTest, SampleWeightedHonorsZeroWeights) {
  Rng R(29);
  std::vector<double> W = {0.0, 1.0, 0.0};
  for (int I = 0; I != 200; ++I)
    EXPECT_EQ(sampleWeighted(R, W), 1u);
}

TEST(RandomTest, SampleWeightedRoughProportions) {
  Rng R(31);
  std::vector<double> W = {1.0, 3.0};
  int Hits1 = 0;
  for (int I = 0; I != 10000; ++I)
    Hits1 += sampleWeighted(R, W) == 1;
  EXPECT_NEAR(Hits1 / 10000.0, 0.75, 0.03);
}

TEST(RandomTest, SplitMix64KnownSequenceIsStable) {
  SplitMix64 A(42), B(42);
  for (int I = 0; I != 10; ++I)
    EXPECT_EQ(A.next(), B.next());
}

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

TEST(StatisticsTest, RunningStatBasics) {
  RunningStat S;
  EXPECT_EQ(S.count(), 0u);
  EXPECT_DOUBLE_EQ(S.mean(), 0.0);
  for (double X : {2.0, 4.0, 6.0, 8.0})
    S.add(X);
  EXPECT_EQ(S.count(), 4u);
  EXPECT_DOUBLE_EQ(S.mean(), 5.0);
  EXPECT_DOUBLE_EQ(S.min(), 2.0);
  EXPECT_DOUBLE_EQ(S.max(), 8.0);
  EXPECT_DOUBLE_EQ(S.sum(), 20.0);
  EXPECT_DOUBLE_EQ(S.variance(), 5.0); // Population variance.
}

TEST(StatisticsTest, RunningStatMatchesDirectComputation) {
  Rng R(37);
  RunningStat S;
  std::vector<double> Xs;
  for (int I = 0; I != 500; ++I) {
    double X = R.nextDouble() * 100 - 50;
    Xs.push_back(X);
    S.add(X);
  }
  double Mean = std::accumulate(Xs.begin(), Xs.end(), 0.0) / Xs.size();
  double Var = 0;
  for (double X : Xs)
    Var += (X - Mean) * (X - Mean);
  Var /= Xs.size();
  EXPECT_NEAR(S.mean(), Mean, 1e-9);
  EXPECT_NEAR(S.variance(), Var, 1e-7);
}

TEST(StatisticsTest, QuantileEndpointsAndMedian) {
  std::vector<double> V = {5, 1, 3, 2, 4};
  EXPECT_DOUBLE_EQ(quantile(V, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(V, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile(V, 0.5), 3.0);
}

TEST(StatisticsTest, QuantileInterpolates) {
  std::vector<double> V = {0, 10};
  EXPECT_DOUBLE_EQ(quantile(V, 0.25), 2.5);
}

TEST(StatisticsTest, QuantileSingleElement) {
  EXPECT_DOUBLE_EQ(quantile({7.0}, 0.9), 7.0);
}

TEST(StatisticsTest, GeometricMean) {
  EXPECT_NEAR(geometricMean({1.0, 100.0}), 10.0, 1e-9);
  EXPECT_NEAR(geometricMean({2.0, 2.0, 2.0}), 2.0, 1e-12);
}

TEST(StatisticsTest, PercentOf) {
  EXPECT_DOUBLE_EQ(percentOf(1, 4), 25.0);
  EXPECT_DOUBLE_EQ(percentOf(5, 0), 0.0);
}

//===----------------------------------------------------------------------===//
// Histogram
//===----------------------------------------------------------------------===//

TEST(HistogramTest, BucketBoundaries) {
  Histogram H(0.0, 10.0, 5);
  EXPECT_EQ(H.numBuckets(), 5u);
  EXPECT_DOUBLE_EQ(H.bucketLo(0), 0.0);
  EXPECT_DOUBLE_EQ(H.bucketHi(0), 2.0);
  EXPECT_DOUBLE_EQ(H.bucketLo(4), 8.0);
  EXPECT_DOUBLE_EQ(H.bucketHi(4), 10.0);
}

TEST(HistogramTest, AddRoutesToCorrectBucket) {
  Histogram H(0.0, 10.0, 5);
  H.add(0.0);
  H.add(1.99);
  H.add(2.0);
  H.add(9.99);
  EXPECT_EQ(H.bucketCount(0), 2u);
  EXPECT_EQ(H.bucketCount(1), 1u);
  EXPECT_EQ(H.bucketCount(4), 1u);
  EXPECT_EQ(H.total(), 4u);
}

TEST(HistogramTest, UnderflowAndOverflow) {
  Histogram H(0.0, 10.0, 5);
  H.add(-0.01);
  H.add(10.0);
  H.add(1e9);
  EXPECT_EQ(H.underflow(), 1u);
  EXPECT_EQ(H.overflow(), 2u);
  EXPECT_EQ(H.total(), 3u);
}

TEST(HistogramTest, WeightedAdd) {
  Histogram H(0.0, 10.0, 2);
  H.add(1.0, 7);
  EXPECT_EQ(H.bucketCount(0), 7u);
  EXPECT_EQ(H.total(), 7u);
}

TEST(HistogramTest, FractionInUsesBucketMidpoints) {
  // The Figure 6-8 configuration: 21 buckets, centers -100..100.
  Histogram H(-105.0, 105.0, 21);
  H.add(0.0);   // Center bucket (mid 0).
  H.add(-7.0);  // Mid -10 bucket.
  H.add(33.0);  // Mid 30 bucket.
  H.add(-98.0); // Mid -100 bucket.
  EXPECT_DOUBLE_EQ(H.fractionIn(-10.0, 10.0), 0.5);
  EXPECT_DOUBLE_EQ(H.fractionIn(-100.0, 100.0), 1.0);
}

TEST(HistogramTest, RenderAsciiMentionsCounts) {
  Histogram H(0.0, 10.0, 2);
  H.add(1.0);
  H.add(1.5);
  std::string Out = H.renderAscii(10);
  EXPECT_NE(Out.find("2"), std::string::npos);
  EXPECT_NE(Out.find('#'), std::string::npos);
}

//===----------------------------------------------------------------------===//
// VarInt
//===----------------------------------------------------------------------===//

TEST(VarIntTest, ULEBKnownEncodings) {
  std::vector<uint8_t> Out;
  encodeULEB128(0, Out);
  EXPECT_EQ(Out, (std::vector<uint8_t>{0x00}));
  Out.clear();
  encodeULEB128(127, Out);
  EXPECT_EQ(Out, (std::vector<uint8_t>{0x7f}));
  Out.clear();
  encodeULEB128(128, Out);
  EXPECT_EQ(Out, (std::vector<uint8_t>{0x80, 0x01}));
  Out.clear();
  encodeULEB128(624485, Out);
  EXPECT_EQ(Out, (std::vector<uint8_t>{0xe5, 0x8e, 0x26}));
}

TEST(VarIntTest, SLEBKnownEncodings) {
  std::vector<uint8_t> Out;
  encodeSLEB128(-1, Out);
  EXPECT_EQ(Out, (std::vector<uint8_t>{0x7f}));
  Out.clear();
  encodeSLEB128(-123456, Out);
  EXPECT_EQ(Out, (std::vector<uint8_t>{0xc0, 0xbb, 0x78}));
}

TEST(VarIntTest, ULEBBoundaryValues) {
  // 0, 2^7 - 1, 2^7, 2^7 + 1 and 2^64 - 1: the width-transition points
  // that a LEB128 implementation most easily gets wrong.
  struct Boundary {
    uint64_t Value;
    size_t Width;
  };
  const Boundary Cases[] = {{0, 1},
                            {127, 1},
                            {128, 2},
                            {129, 2},
                            {std::numeric_limits<uint64_t>::max(), 10}};
  for (const Boundary &C : Cases) {
    std::vector<uint8_t> Buf;
    encodeULEB128(C.Value, Buf);
    EXPECT_EQ(Buf.size(), C.Width) << C.Value;
    EXPECT_EQ(sizeULEB128(C.Value), C.Width) << C.Value;
    size_t Pos = 0;
    EXPECT_EQ(decodeULEB128(Buf, Pos), C.Value);
    EXPECT_EQ(Pos, Buf.size());
    uint64_t Back = 0;
    Pos = 0;
    EXPECT_TRUE(tryDecodeULEB128(Buf.data(), Buf.size(), Pos, Back));
    EXPECT_EQ(Back, C.Value);
    EXPECT_EQ(Pos, Buf.size());
  }
  // UINT64_MAX is ten 0xff bytes capped by 0x01.
  std::vector<uint8_t> Buf;
  encodeULEB128(std::numeric_limits<uint64_t>::max(), Buf);
  EXPECT_EQ(Buf.back(), 0x01);
}

TEST(VarIntTest, TryDecodeRejectsTruncationAndOverflow) {
  std::vector<uint8_t> Buf;
  encodeULEB128(1ULL << 40, Buf);
  // Every strict prefix is truncated input.
  for (size_t Len = 0; Len != Buf.size(); ++Len) {
    uint64_t V;
    size_t Pos = 0;
    EXPECT_FALSE(tryDecodeULEB128(Buf.data(), Len, Pos, V));
    EXPECT_EQ(Pos, 0u); // Pos untouched on failure
  }
  // 11-byte encodings (and 10-byte ones spilling past bit 63) overflow.
  std::vector<uint8_t> TooWide(10, 0x80);
  TooWide.push_back(0x01);
  uint64_t V;
  size_t Pos = 0;
  EXPECT_FALSE(tryDecodeULEB128(TooWide.data(), TooWide.size(), Pos, V));
  std::vector<uint8_t> Spill(9, 0xff);
  Spill.push_back(0x02); // bit 64
  Pos = 0;
  EXPECT_FALSE(tryDecodeULEB128(Spill.data(), Spill.size(), Pos, V));

  int64_t S;
  Pos = 0;
  std::vector<uint8_t> Cut = {0x80};
  EXPECT_FALSE(tryDecodeSLEB128(Cut.data(), Cut.size(), Pos, S));
}

TEST(VarIntTest, TryDecodeMatchesDecodeOnValidStreams) {
  Rng R(97);
  std::vector<uint64_t> UValues;
  std::vector<int64_t> SValues;
  std::vector<uint8_t> Buf;
  for (int I = 0; I != 200; ++I) {
    uint64_t U = R.next() >> R.nextBelow(64);
    int64_t S = static_cast<int64_t>(R.next()) >> R.nextBelow(64);
    UValues.push_back(U);
    SValues.push_back(S);
    encodeULEB128(U, Buf);
    encodeSLEB128(S, Buf);
  }
  UValues.push_back(std::numeric_limits<uint64_t>::max());
  SValues.push_back(std::numeric_limits<int64_t>::min());
  encodeULEB128(UValues.back(), Buf);
  encodeSLEB128(SValues.back(), Buf);

  size_t Pos = 0;
  for (size_t I = 0; I != UValues.size(); ++I) {
    uint64_t U;
    int64_t S;
    ASSERT_TRUE(tryDecodeULEB128(Buf.data(), Buf.size(), Pos, U));
    EXPECT_EQ(U, UValues[I]);
    ASSERT_TRUE(tryDecodeSLEB128(Buf.data(), Buf.size(), Pos, S));
    EXPECT_EQ(S, SValues[I]);
  }
  EXPECT_EQ(Pos, Buf.size());
}

TEST(VarIntTest, ULEBRoundTripProperty) {
  Rng R(41);
  std::vector<uint64_t> Values = {0, 1, 127, 128, 16383, 16384,
                                  std::numeric_limits<uint64_t>::max()};
  for (int I = 0; I != 500; ++I)
    Values.push_back(R.next() >> (R.nextBelow(64)));
  std::vector<uint8_t> Buf;
  for (uint64_t V : Values)
    encodeULEB128(V, Buf);
  size_t Pos = 0;
  for (uint64_t V : Values)
    EXPECT_EQ(decodeULEB128(Buf, Pos), V);
  EXPECT_EQ(Pos, Buf.size());
}

TEST(VarIntTest, SLEBRoundTripProperty) {
  Rng R(43);
  std::vector<int64_t> Values = {0,  1,  -1, 63, 64, -64, -65,
                                 std::numeric_limits<int64_t>::min(),
                                 std::numeric_limits<int64_t>::max()};
  for (int I = 0; I != 500; ++I)
    Values.push_back(static_cast<int64_t>(R.next()) >> R.nextBelow(64));
  std::vector<uint8_t> Buf;
  for (int64_t V : Values)
    encodeSLEB128(V, Buf);
  size_t Pos = 0;
  for (int64_t V : Values)
    EXPECT_EQ(decodeSLEB128(Buf, Pos), V);
  EXPECT_EQ(Pos, Buf.size());
}

TEST(VarIntTest, SizeFunctionsMatchEncodedLength) {
  Rng R(47);
  for (int I = 0; I != 300; ++I) {
    uint64_t U = R.next() >> R.nextBelow(64);
    std::vector<uint8_t> Buf;
    encodeULEB128(U, Buf);
    EXPECT_EQ(sizeULEB128(U), Buf.size());
    int64_t S = static_cast<int64_t>(R.next()) >> R.nextBelow(64);
    Buf.clear();
    encodeSLEB128(S, Buf);
    EXPECT_EQ(sizeSLEB128(S), Buf.size());
  }
}

TEST(VarIntTest, StatusNamesAreStable) {
  EXPECT_STREQ(varIntStatusName(VarIntStatus::Ok), "ok");
  EXPECT_STREQ(varIntStatusName(VarIntStatus::Truncated), "truncated");
  EXPECT_STREQ(varIntStatusName(VarIntStatus::Overflow), "overflow");
  EXPECT_STREQ(varIntStatusName(VarIntStatus::Overlong), "overlong");
}

TEST(VarIntTest, CheckedDecodeReportsTruncationOnEveryPrefix) {
  Rng R(53);
  for (int I = 0; I != 100; ++I) {
    uint64_t U = R.next() >> R.nextBelow(64);
    std::vector<uint8_t> Buf;
    encodeULEB128(U, Buf);
    // Every strict prefix is truncated, and the cursor must not move.
    for (size_t Cut = 0; Cut != Buf.size(); ++Cut) {
      size_t Pos = 0;
      uint64_t Value = 0xA5A5;
      EXPECT_EQ(decodeULEB128Checked(Buf.data(), Cut, Pos, Value),
                VarIntStatus::Truncated);
      EXPECT_EQ(Pos, 0u);
      EXPECT_EQ(Value, 0xA5A5u);
    }
    int64_t S = static_cast<int64_t>(R.next()) >> R.nextBelow(64);
    Buf.clear();
    encodeSLEB128(S, Buf);
    for (size_t Cut = 0; Cut != Buf.size(); ++Cut) {
      size_t Pos = 0;
      int64_t Value = -77;
      EXPECT_EQ(decodeSLEB128Checked(Buf.data(), Cut, Pos, Value),
                VarIntStatus::Truncated);
      EXPECT_EQ(Pos, 0u);
      EXPECT_EQ(Value, -77);
    }
  }
}

TEST(VarIntTest, CheckedDecodeReportsOverflow) {
  // Eleven continuation-heavy bytes carry payload past bit 63.
  std::vector<uint8_t> Wide{0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
                            0x80, 0x80, 0x80, 0x80, 0x01};
  size_t Pos = 0;
  uint64_t U = 0;
  EXPECT_EQ(decodeULEB128Checked(Wide.data(), Wide.size(), Pos, U),
            VarIntStatus::Overflow);
  EXPECT_EQ(Pos, 0u);

  // Ten bytes whose final byte spills payload beyond the 64th bit.
  std::vector<uint8_t> Spill{0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                             0xFF, 0xFF, 0xFF, 0xFF, 0x02};
  Pos = 0;
  EXPECT_EQ(decodeULEB128Checked(Spill.data(), Spill.size(), Pos, U),
            VarIntStatus::Overflow);
  EXPECT_EQ(Pos, 0u);

  int64_t S = 0;
  Pos = 0;
  EXPECT_EQ(decodeSLEB128Checked(Wide.data(), Wide.size(), Pos, S),
            VarIntStatus::Overflow);
  EXPECT_EQ(Pos, 0u);
}

TEST(VarIntTest, CheckedDecodeRejectsOverlongEncodings) {
  // 0x80 0x00 decodes to zero but is wider than the canonical one byte.
  std::vector<uint8_t> OverlongZero{0x80, 0x00};
  size_t Pos = 0;
  uint64_t U = 0;
  EXPECT_EQ(decodeULEB128Checked(OverlongZero.data(), OverlongZero.size(),
                                 Pos, U),
            VarIntStatus::Overlong);
  EXPECT_EQ(Pos, 0u);

  // Pad canonical encodings with a redundant trailing 0x00 payload byte:
  // value unchanged, width + 1, must be rejected.
  Rng R(59);
  for (int I = 0; I != 100; ++I) {
    uint64_t Value = R.next() >> R.nextBelow(64);
    std::vector<uint8_t> Buf;
    encodeULEB128(Value, Buf);
    // A padded max-width (10-byte) encoding trips the overflow check
    // instead; only sub-maximal widths exercise the overlong path.
    if (Buf.size() >= 10)
      continue;
    Buf.back() |= 0x80;
    Buf.push_back(0x00);
    Pos = 0;
    EXPECT_EQ(decodeULEB128Checked(Buf.data(), Buf.size(), Pos, U),
              VarIntStatus::Overlong);
    EXPECT_EQ(Pos, 0u);
    bool Tried = tryDecodeULEB128(Buf.data(), Buf.size(), Pos, U);
    EXPECT_FALSE(Tried);
  }

  // SLEB128 overlong: pad with a sign-extension byte (0x00 for
  // non-negative, 0x7F for negative) so the value survives widening.
  for (int I = 0; I != 100; ++I) {
    int64_t Value = static_cast<int64_t>(R.next()) >> R.nextBelow(64);
    std::vector<uint8_t> Buf;
    encodeSLEB128(Value, Buf);
    if (Buf.size() >= 10)
      continue;
    Buf.back() |= 0x80;
    Buf.push_back(Value < 0 ? 0x7F : 0x00);
    Pos = 0;
    int64_t S = 0;
    EXPECT_EQ(decodeSLEB128Checked(Buf.data(), Buf.size(), Pos, S),
              VarIntStatus::Overlong);
    EXPECT_EQ(Pos, 0u);
  }
}

TEST(VarIntTest, CheckedDecodeAcceptsCanonicalStreams) {
  Rng R(61);
  std::vector<uint64_t> UValues;
  std::vector<int64_t> SValues;
  std::vector<uint8_t> Buf;
  for (int I = 0; I != 200; ++I) {
    uint64_t U = R.next() >> R.nextBelow(64);
    UValues.push_back(U);
    encodeULEB128(U, Buf);
    int64_t S = static_cast<int64_t>(R.next()) >> R.nextBelow(64);
    SValues.push_back(S);
    encodeSLEB128(S, Buf);
  }
  size_t Pos = 0;
  for (int I = 0; I != 200; ++I) {
    uint64_t U = 0;
    ASSERT_EQ(decodeULEB128Checked(Buf.data(), Buf.size(), Pos, U),
              VarIntStatus::Ok);
    EXPECT_EQ(U, UValues[I]);
    int64_t S = 0;
    ASSERT_EQ(decodeSLEB128Checked(Buf.data(), Buf.size(), Pos, S),
              VarIntStatus::Ok);
    EXPECT_EQ(S, SValues[I]);
  }
  EXPECT_EQ(Pos, Buf.size());
}

//===----------------------------------------------------------------------===//
// TablePrinter
//===----------------------------------------------------------------------===//

TEST(TablePrinterTest, Formatters) {
  EXPECT_EQ(TablePrinter::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::fmt(uint64_t(42)), "42");
  EXPECT_EQ(TablePrinter::fmtPercent(12.34, 1), "12.3%");
  EXPECT_EQ(TablePrinter::fmtRatio(3539.4, 0), "3539x");
}

TEST(TablePrinterTest, PrintsAlignedColumns) {
  TablePrinter T({"name", "value"});
  T.addRow({"a", "1"});
  T.addRow({"longer-name", "22"});
  // Render to a temp file and check content.
  std::FILE *F = std::tmpfile();
  ASSERT_NE(F, nullptr);
  T.print(F);
  std::rewind(F);
  char Buf[4096] = {};
  size_t N = std::fread(Buf, 1, sizeof(Buf) - 1, F);
  std::fclose(F);
  std::string Out(Buf, N);
  EXPECT_NE(Out.find("name"), std::string::npos);
  EXPECT_NE(Out.find("longer-name"), std::string::npos);
  EXPECT_NE(Out.find("---"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Checksum
//===----------------------------------------------------------------------===//

TEST(ChecksumTest, Crc32StandardCheckValue) {
  const uint8_t Check[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32(Check, sizeof(Check)), 0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
}

TEST(ChecksumTest, Crc32DetectsSingleBitFlips) {
  Rng R(11);
  std::vector<uint8_t> Data(257);
  for (uint8_t &B : Data)
    B = static_cast<uint8_t>(R.next());
  uint32_t Reference = crc32(Data);
  for (size_t I = 0; I < Data.size(); I += 13) {
    Data[I] ^= 0x20;
    EXPECT_NE(crc32(Data), Reference) << "flip at " << I;
    Data[I] ^= 0x20;
  }
  EXPECT_EQ(crc32(Data), Reference);
}

//===----------------------------------------------------------------------===//
// MappedArray
//===----------------------------------------------------------------------===//

static_assert(!std::is_copy_constructible_v<support::MappedArray<uint64_t>> &&
                  !std::is_copy_assignable_v<support::MappedArray<uint64_t>>,
              "MappedArray is move-only");
static_assert(
    std::is_nothrow_move_constructible_v<support::MappedArray<uint64_t>> &&
        std::is_nothrow_move_assignable_v<support::MappedArray<uint64_t>>,
    "MappedArray moves without throwing");

TEST(MappedArrayTest, ZeroFilledAndMoveOnly) {
  struct Slot {
    uint64_t Key;
    uint32_t Count;
  };
  support::MappedArray<Slot> A(10000);
  ASSERT_EQ(A.size(), 10000u);
  for (const Slot &S : A)
    ASSERT_TRUE(S.Key == 0 && S.Count == 0);
  A[0].Key = 7;
  A[9999].Count = 9;

  support::MappedArray<Slot> B = std::move(A);
  EXPECT_TRUE(A.empty()); // NOLINT(bugprone-use-after-move)
  ASSERT_EQ(B.size(), 10000u);
  EXPECT_EQ(B[0].Key, 7u);
  EXPECT_EQ(B[9999].Count, 9u);

  support::MappedArray<Slot> C(1);
  C = std::move(B); // Unmaps C's own page.
  EXPECT_TRUE(B.empty()); // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(C[9999].Count, 9u);
  EXPECT_TRUE(support::MappedArray<Slot>().empty());
  EXPECT_TRUE(support::MappedArray<Slot>(0).empty());
}

TEST(MappedArrayTest, BypassesMalloc) {
  // An 8 MiB array, written through, changes neither malloc's in-use
  // bytes nor its mmapped-chunk bytes.
  struct mallinfo2 Before = mallinfo2();
  {
    support::MappedArray<uint64_t> A(1u << 20);
    for (size_t I = 0; I < A.size(); I += 512)
      A[I] = I;
    struct mallinfo2 During = mallinfo2();
    EXPECT_EQ(During.uordblks, Before.uordblks);
    EXPECT_EQ(During.hblkhd, Before.hblkhd);
    EXPECT_EQ(A[512], 512u);
  }
  struct mallinfo2 After = mallinfo2();
  EXPECT_EQ(After.hblkhd, Before.hblkhd);
}

#ifndef NDEBUG
TEST(MappedArrayDeathTest, IndexPastTheEndAsserts) {
  // Sanitizers have no redzone past a mapped page, so the bound is the
  // array's own assertion.
  support::MappedArray<uint64_t> A(4);
  EXPECT_DEATH(A[4] = 1, "out of range");
}
#endif

//===----------------------------------------------------------------------===//
// Endian
//===----------------------------------------------------------------------===//

TEST(EndianTest, LittleEndianByteLayoutIsExplicit) {
  std::vector<uint8_t> Out;
  appendLE16(0x1234, Out);
  appendLE32(0xDEADBEEFu, Out);
  appendLE64(0x0102030405060708ULL, Out);
  EXPECT_EQ(Out, (std::vector<uint8_t>{0x34, 0x12, 0xEF, 0xBE, 0xAD, 0xDE,
                                       0x08, 0x07, 0x06, 0x05, 0x04, 0x03,
                                       0x02, 0x01}));
  EXPECT_EQ(readLE16(Out.data()), 0x1234);
  EXPECT_EQ(readLE32(Out.data() + 2), 0xDEADBEEFu);
  EXPECT_EQ(readLE64(Out.data() + 6), 0x0102030405060708ULL);
}

TEST(EndianTest, RoundTripsExtremeValues) {
  for (uint64_t V : std::vector<uint64_t>{
           0, 1, 0xFF, 0xFF00FF00FF00FF00ULL,
           std::numeric_limits<uint64_t>::max()}) {
    std::vector<uint8_t> Out;
    appendLE64(V, Out);
    EXPECT_EQ(readLE64(Out.data()), V);
  }
}

//===----------------------------------------------------------------------===//
// ParseNumber
//===----------------------------------------------------------------------===//

TEST(ParseNumberTest, AcceptsPlainDecimals) {
  uint64_t V = 99;
  EXPECT_TRUE(support::parseUint64("0", V));
  EXPECT_EQ(V, 0u);
  EXPECT_TRUE(support::parseUint64("42", V));
  EXPECT_EQ(V, 42u);
  EXPECT_TRUE(support::parseUint64("18446744073709551615", V));
  EXPECT_EQ(V, std::numeric_limits<uint64_t>::max());
}

TEST(ParseNumberTest, RejectsTrailingGarbage) {
  uint64_t V = 0;
  EXPECT_FALSE(support::parseUint64("12abc", V));
  EXPECT_FALSE(support::parseUint64("12 ", V));
  EXPECT_FALSE(support::parseUint64("1.5", V));
}

TEST(ParseNumberTest, RejectsEmptyAndNonDigitPrefixes) {
  uint64_t V = 0;
  EXPECT_FALSE(support::parseUint64("", V));
  EXPECT_FALSE(support::parseUint64(nullptr, V));
  EXPECT_FALSE(support::parseUint64(" 7", V));
  EXPECT_FALSE(support::parseUint64("-1", V)) << "strtoull would wrap";
  EXPECT_FALSE(support::parseUint64("+1", V));
  EXPECT_FALSE(support::parseUint64("abc", V));
}

TEST(ParseNumberTest, RejectsOverflow) {
  uint64_t V = 0;
  EXPECT_FALSE(support::parseUint64("18446744073709551616", V));
  EXPECT_FALSE(support::parseUint64("99999999999999999999999", V));
}

TEST(ParseNumberTest, UnsignedRangeChecks) {
  unsigned V = 0;
  EXPECT_TRUE(support::parseUnsigned("4294967295", V));
  EXPECT_EQ(V, std::numeric_limits<unsigned>::max());
  EXPECT_FALSE(support::parseUnsigned("4294967296", V));
  EXPECT_FALSE(support::parseUnsigned("12abc", V));
  EXPECT_FALSE(support::parseUnsigned("", V));
}

//===----------------------------------------------------------------------===//
// Statistics: empty-set contracts
//===----------------------------------------------------------------------===//

#if ORP_CHECK_LEVEL >= 1
TEST(StatisticsEmptyDeathTest, EmptyAccessorsAreFatal) {
  RunningStat Empty;
  EXPECT_DEATH(Empty.min(), "empty accumulator");
  EXPECT_DEATH(Empty.max(), "empty accumulator");
  EXPECT_DEATH(quantile({}, 0.5), "empty sample");
  EXPECT_DEATH(geometricMean({}), "empty sample");
}
#else
TEST(StatisticsEmptyTest, EmptyAccessorsReturnSentinelAtLevel0) {
  RunningStat Empty;
  EXPECT_EQ(Empty.min(), 0.0);
  EXPECT_EQ(Empty.max(), 0.0);
  EXPECT_EQ(quantile({}, 0.5), 0.0);
  EXPECT_EQ(geometricMean({}), 0.0);
}
#endif

TEST(StatisticsTest, NonEmptyAccessorsUnaffectedByContract) {
  RunningStat S;
  S.add(3.0);
  EXPECT_EQ(S.min(), 3.0);
  EXPECT_EQ(S.max(), 3.0);
  EXPECT_EQ(quantile({3.0}, 0.5), 3.0);
  EXPECT_EQ(geometricMean({2.0, 8.0}), 4.0);
}

//===----------------------------------------------------------------------===//
// Log sink
//===----------------------------------------------------------------------===//

TEST(LogSinkTest, MessagesGoToRedirectedStreamWithNewline) {
  std::FILE *Capture = std::tmpfile();
  ASSERT_NE(Capture, nullptr);
  std::FILE *Prev = support::setLogStream(Capture);
  support::logMessage(support::LogLevel::Warn, "value is %d", 42);
  support::setLogStream(Prev);

  std::rewind(Capture);
  char Buf[128] = {0};
  size_t N = std::fread(Buf, 1, sizeof(Buf) - 1, Capture);
  std::fclose(Capture);
  EXPECT_EQ(std::string(Buf, N), "value is 42\n");
}

TEST(LogSinkTest, PerLevelCountersAreMonotonic) {
  // Counters are process-global: assert on deltas, silencing the
  // stream so the test output stays clean.
  std::FILE *Devnull = std::tmpfile();
  ASSERT_NE(Devnull, nullptr);
  std::FILE *Prev = support::setLogStream(Devnull);
  uint64_t Warn0 = support::logMessageCount(support::LogLevel::Warn);
  uint64_t Error0 = support::logMessageCount(support::LogLevel::Error);
  support::logMessage(support::LogLevel::Warn, "w");
  support::logMessage(support::LogLevel::Error, "e");
  support::logMessage(support::LogLevel::Error, "e2");
  support::setLogStream(Prev);
  std::fclose(Devnull);
  EXPECT_EQ(support::logMessageCount(support::LogLevel::Warn), Warn0 + 1);
  EXPECT_EQ(support::logMessageCount(support::LogLevel::Error), Error0 + 2);
}

TEST(LogSinkTest, NullRestoresDefaultStreams) {
  std::FILE *Prev = support::setLogStream(nullptr);
  EXPECT_EQ(support::logStream(), stderr);
  support::setLogStream(Prev == stderr ? nullptr : Prev);
  std::FILE *PrevReport = support::setReportStream(nullptr);
  EXPECT_EQ(support::reportStream(), stdout);
  support::setReportStream(PrevReport == stdout ? nullptr : PrevReport);
}

TEST(LogSinkTest, LevelNamesAreStable) {
  EXPECT_STREQ(support::logLevelName(support::LogLevel::Info), "info");
  EXPECT_STREQ(support::logLevelName(support::LogLevel::Warn), "warn");
  EXPECT_STREQ(support::logLevelName(support::LogLevel::Error), "error");
  EXPECT_STREQ(support::logLevelName(support::LogLevel::Fatal), "fatal");
}

TEST(TablePrinterTest, PrintUsesReportStreamByDefault) {
  std::FILE *Capture = std::tmpfile();
  ASSERT_NE(Capture, nullptr);
  std::FILE *Prev = support::setReportStream(Capture);
  TablePrinter T({"k", "v"});
  T.addRow({"a", "1"});
  T.print();
  support::setReportStream(Prev);

  std::rewind(Capture);
  char Buf[256] = {0};
  size_t N = std::fread(Buf, 1, sizeof(Buf) - 1, Capture);
  std::fclose(Capture);
  std::string Out(Buf, N);
  EXPECT_NE(Out.find("k  v"), std::string::npos);
  EXPECT_NE(Out.find("a  1"), std::string::npos);
}
