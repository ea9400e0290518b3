//===- core/ObjectRelative.h - The object-relative tuple --------*- C++ -*-===//
//
// Part of the ORP reproduction of "Exposing Memory Access Regularities
// Using Object-Relative Memory Profiling" (CGO 2004).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's central representation (Section 2.2): every memory access
/// is translated into
///
///     (instruction-id, group, object, offset, time-stamp)
///
/// where group identifies the allocation site, object is the per-group
/// serial number and offset is the byte offset inside the object. The
/// time stamp "is a counter starting from 0 at the beginning of the
/// program and incremented after every collected access", so any tuple
/// in any decomposed substream remains uniquely identified.
///
//===----------------------------------------------------------------------===//

#ifndef ORP_CORE_OBJECTRELATIVE_H
#define ORP_CORE_OBJECTRELATIVE_H

#include "omc/ObjectManager.h"
#include "trace/InstructionRegistry.h"

#include <cstddef>
#include <cstdint>
#include <span>

namespace orp {
namespace core {

/// One translated, object-relative memory access.
struct OrTuple {
  trace::InstrId Instr;
  omc::GroupId Group;
  omc::ObjectSerial Object;
  uint64_t Offset;
  uint64_t Time;
  /// Access metadata carried alongside the tuple (not a tuple dimension):
  /// consumers like the dependence post-processor need the access
  /// direction and width.
  bool IsStore;
  uint32_t Size;
};

/// Consumer of an object-relative tuple stream (the CDC's output side).
class OrTupleConsumer {
public:
  virtual ~OrTupleConsumer();

  /// Receives the next translated access.
  virtual void consume(const OrTuple &Tuple) = 0;

  /// Receives a run of consecutive translated accesses. Equivalent to
  /// calling consume() on each tuple in order (and that is the default
  /// implementation); consumers override it to amortize per-access
  /// dispatch and setup cost over the whole run.
  virtual void consumeBatch(std::span<const OrTuple> Tuples);

  /// Signals the end of the stream. Default: no-op.
  virtual void finish();
};

/// The five decomposable dimensions of the tuple.
enum class Dimension : uint8_t { Instruction, Group, Object, Offset, Time };

/// Returns the value of dimension \p D of \p T.
inline uint64_t dimensionValue(const OrTuple &T, Dimension D) {
  switch (D) {
  case Dimension::Instruction:
    return T.Instr;
  case Dimension::Group:
    return T.Group;
  case Dimension::Object:
    return T.Object;
  case Dimension::Offset:
    return T.Offset;
  case Dimension::Time:
    return T.Time;
  }
  return 0;
}

/// Returns a short name for \p D ("instr", "group", ...).
const char *dimensionName(Dimension D);

/// Key of one vertical substream. The paper decomposes by instruction,
/// then by group (Section 2.2); LEAP keys its LMAD sets accordingly.
struct VerticalKey {
  trace::InstrId Instr;
  omc::GroupId Group;
  bool operator<(const VerticalKey &O) const {
    return Instr != O.Instr ? Instr < O.Instr : Group < O.Group;
  }
  bool operator==(const VerticalKey &O) const {
    return Instr == O.Instr && Group == O.Group;
  }
};

/// Hash for VerticalKey (unordered containers, LEAP's shard routing).
/// Packs both ids into one word and applies a full-avalanche finalizer
/// so nearby instruction ids (the common case: a dense registry) spread
/// across the table.
struct VerticalKeyHash {
  size_t operator()(const VerticalKey &Key) const {
    uint64_t X = (static_cast<uint64_t>(Key.Instr) << 32) | Key.Group;
    X ^= X >> 33;
    X *= 0xff51afd7ed558ccdULL;
    X ^= X >> 33;
    X *= 0xc4ceb9fe1a85ec53ULL;
    X ^= X >> 33;
    return static_cast<size_t>(X);
  }
};

} // namespace core
} // namespace orp

#endif // ORP_CORE_OBJECTRELATIVE_H
