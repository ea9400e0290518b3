//===- sequitur/DigramTable.h - Robin-hood digram hash table ---*- C++ -*-===//
//
// Part of the ORP reproduction of "Exposing Memory Access Regularities
// Using Object-Relative Memory Profiling" (CGO 2004).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The open-addressing hash table behind the Sequitur digram index.
/// Sequitur performs up to three index probes per appended terminal, so
/// this table is the grammar builder's hottest data structure. It uses
/// robin-hood probing (displacement-ordered linear probing) with
/// backward-shift deletion: lookups terminate as soon as a slot's
/// displacement drops below the query's, keeping probe sequences short
/// even at high load, and deletions leave no tombstones behind.
///
/// The key is a digram — two adjacent grammar symbols, each of which is
/// either a terminal value or a rule id, distinguished by a 2-bit tag.
/// hashDigram() is the single hash for every digram container (this
/// table and the invariant checker's occurrence map): a multiply-xor
/// combine finished with a full 64-bit avalanche (murmur3 fmix64), so
/// address-like strided keys spread across the low bits the table
/// actually indexes with.
///
//===----------------------------------------------------------------------===//

#ifndef ORP_SEQUITUR_DIGRAMTABLE_H
#define ORP_SEQUITUR_DIGRAMTABLE_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace orp {
namespace sequitur {

/// Finalizing 64-bit avalanche (murmur3 fmix64): every input bit affects
/// every output bit with probability ~1/2.
inline uint64_t avalanche64(uint64_t X) {
  X ^= X >> 33;
  X *= 0xff51afd7ed558ccdULL;
  X ^= X >> 33;
  X *= 0xc4ceb9fe1a85ec53ULL;
  X ^= X >> 33;
  return X;
}

/// Hashes one digram (V1, V2, Tags). The two words are combined with
/// distinct odd multipliers before the final avalanche so that (a, b)
/// and (b, a) hash apart and low-entropy strided values still fill the
/// high bits the combine feeds into the finalizer.
inline uint64_t hashDigram(uint64_t V1, uint64_t V2, uint8_t Tags) {
  uint64_t H = V1 * 0x9e3779b97f4a7c15ULL;
  H ^= V2 * 0xc2b2ae3d27d4eb4fULL;
  H ^= static_cast<uint64_t>(Tags) << 56;
  return avalanche64(H);
}

/// Robin-hood open-addressing map from digram keys to one value (the
/// canonical occurrence of the digram in a Sequitur grammar). Not a
/// general-purpose map: keys are unique, the value type must be
/// trivially copyable, and pointers returned by lookup() are invalidated
/// by any mutation.
template <typename ValueT> class DigramTable {
public:
  static constexpr size_t Npos = ~static_cast<size_t>(0);

  DigramTable() { rehash(InitialCapacity); }

  DigramTable(const DigramTable &) = delete;
  DigramTable &operator=(const DigramTable &) = delete;

  /// Returns the slot of (V1, V2, Tags), or Npos.
  size_t findSlot(uint64_t V1, uint64_t V2, uint8_t Tags) const {
    size_t Idx = hashDigram(V1, V2, Tags) & Mask;
    uint8_t Dist = 1;
    for (;;) {
      const Slot &S = Slots[Idx];
      if (S.Dist < Dist) // Includes empty slots (Dist == 0).
        return Npos;
      if (S.Dist == Dist && S.V1 == V1 && S.V2 == V2 && S.Tags == Tags)
        return Idx;
      Idx = (Idx + 1) & Mask;
      ++Dist;
    }
  }

  /// Returns the value stored in \p SlotIdx.
  ValueT valueAt(size_t SlotIdx) const {
    assert(SlotIdx < Slots.size() && Slots[SlotIdx].Dist != 0);
    return Slots[SlotIdx].Value;
  }

  /// Inserts (V1, V2, Tags) -> Value. The key must not be present.
  void insert(uint64_t V1, uint64_t V2, uint8_t Tags, ValueT Value) {
    if ((Count + 1) * 10 >= Slots.size() * 7) // Load factor 0.7.
      rehash(Slots.size() * 2);
    emplaceNoGrow(V1, V2, Tags, Value);
    ++Count;
  }

  /// Returns the slot of (V1, V2, Tags) if present. Otherwise inserts
  /// (V1, V2, Tags) -> Value and returns Npos: one hash and one probe
  /// walk instead of findSlot() followed by insert(). The table ends up
  /// exactly as insert() would leave it.
  size_t findOrInsert(uint64_t V1, uint64_t V2, uint8_t Tags, ValueT Value) {
    size_t Idx = hashDigram(V1, V2, Tags) & Mask;
    uint8_t Dist = 1;
    for (;;) {
      const Slot &S = Slots[Idx];
      if (S.Dist < Dist) // Absent: insert() would place or rob here.
        break;
      if (S.Dist == Dist && S.V1 == V1 && S.V2 == V2 && S.Tags == Tags)
        return Idx;
      Idx = (Idx + 1) & Mask;
      ++Dist;
    }
    if ((Count + 1) * 10 >= Slots.size() * 7 || Dist == MaxDisplacement) {
      insert(V1, V2, Tags, Value); // Grows first; the walk is stale.
      return Npos;
    }
    emplaceFrom(Idx, Slot{V1, V2, Value, Tags, Dist});
    ++Count;
    return Npos;
  }

  /// Removes the entry in \p SlotIdx (backward-shift deletion).
  void eraseSlot(size_t SlotIdx) {
    assert(SlotIdx < Slots.size() && Slots[SlotIdx].Dist != 0);
    size_t Idx = SlotIdx;
    for (;;) {
      size_t NextIdx = (Idx + 1) & Mask;
      Slot &NextSlot = Slots[NextIdx];
      if (NextSlot.Dist <= 1) { // Empty, or already in its home slot.
        Slots[Idx].Dist = 0;
        break;
      }
      Slots[Idx] = NextSlot;
      --Slots[Idx].Dist;
      Idx = NextIdx;
    }
    --Count;
  }

  /// Returns the number of entries.
  size_t size() const { return Count; }

  /// Returns the number of slots (entries plus empty slots); the table's
  /// resident size is capacity() * SlotBytes.
  size_t capacity() const { return Slots.size(); }

  /// Returns the longest current probe sequence, in slots (1 = every
  /// entry sits in its home slot). Exposed for the collision regression
  /// tests; O(capacity).
  size_t maxProbeLength() const {
    uint8_t Max = 0;
    for (const Slot &S : Slots)
      if (S.Dist > Max)
        Max = S.Dist;
    return Max;
  }

  /// Calls Fn(V1, V2, Tags, Value) for every entry, in table order.
  template <typename Fn> void forEach(Fn &&Visit) const {
    for (const Slot &S : Slots)
      if (S.Dist != 0)
        Visit(S.V1, S.V2, S.Tags, S.Value);
  }

private:
  struct Slot {
    uint64_t V1;
    uint64_t V2;
    ValueT Value;
    uint8_t Tags;
    /// 0 = empty; otherwise 1 + distance from the home slot.
    uint8_t Dist;
  };

public:
  /// Bytes per slot: 24 for a 32-bit value, 32 for a 64-bit one.
  static constexpr size_t SlotBytes = sizeof(Slot);

private:
  static constexpr size_t InitialCapacity = 64;
  static constexpr uint8_t MaxDisplacement = 0xff;

  void emplaceNoGrow(uint64_t V1, uint64_t V2, uint8_t Tags, ValueT Value) {
    emplaceFrom(hashDigram(V1, V2, Tags) & Mask, Slot{V1, V2, Value, Tags, 1});
  }

  /// Robin-hood placement of \p Carry, whose displacement already
  /// matches slot \p Idx.
  void emplaceFrom(size_t Idx, Slot Carry) {
    for (;;) {
      Slot &S = Slots[Idx];
      if (S.Dist == 0) {
        S = Carry;
        return;
      }
      assert(!(S.Dist == Carry.Dist && S.V1 == Carry.V1 &&
               S.V2 == Carry.V2 && S.Tags == Carry.Tags) &&
             "duplicate digram key");
      if (S.Dist < Carry.Dist) { // Rob from the rich.
        Slot Tmp = S;
        S = Carry;
        Carry = Tmp;
      }
      Idx = (Idx + 1) & Mask;
      if (++Carry.Dist == MaxDisplacement) {
        // Pathological clustering: grow and retry the displaced entry.
        rehash(Slots.size() * 2);
        Carry.Dist = 1;
        Idx = hashDigram(Carry.V1, Carry.V2, Carry.Tags) & Mask;
      }
    }
  }

  void rehash(size_t NewCapacity) {
    assert((NewCapacity & (NewCapacity - 1)) == 0 && "capacity not 2^k");
    std::vector<Slot> Old = std::move(Slots);
    Slots.assign(NewCapacity, Slot{0, 0, ValueT{}, 0, 0});
    Mask = NewCapacity - 1;
    for (const Slot &S : Old)
      if (S.Dist != 0)
        emplaceNoGrow(S.V1, S.V2, S.Tags, S.Value);
  }

  std::vector<Slot> Slots;
  size_t Mask = 0;
  size_t Count = 0;
};

} // namespace sequitur
} // namespace orp

#endif // ORP_SEQUITUR_DIGRAMTABLE_H
