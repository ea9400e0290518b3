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
/// The table stores no keys. Like the reference Sequitur, which indexes
/// a digram by a pointer to its first symbol, a slot holds the 32-bit
/// arena index of the digram's first symbol plus the low 32 bits of its
/// hash (8 bytes). A lookup compares stored hashes first and reads a
/// key back from the grammar — through the caller's key reader — only
/// when a hash matches. The stored hash also gives every entry its home
/// slot, so growth never reads a key; that caps the capacity at 2^32
/// slots, the same bound the 32-bit node indices already impose.
///
//===----------------------------------------------------------------------===//

#ifndef ORP_SEQUITUR_DIGRAMTABLE_H
#define ORP_SEQUITUR_DIGRAMTABLE_H

#include "support/Error.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
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

/// Identity of a digram: two adjacent symbol values and their kinds.
struct DigramKey {
  uint64_t V1;
  uint64_t V2;
  uint8_t Tags; ///< Bit 0: V1 is a rule id; bit 1: V2 is a rule id.
  bool operator==(const DigramKey &O) const {
    return V1 == O.V1 && V2 == O.V2 && Tags == O.Tags;
  }
};

inline uint64_t hashDigram(const DigramKey &K) {
  return hashDigram(K.V1, K.V2, K.Tags);
}

struct DigramKeyHash {
  size_t operator()(const DigramKey &K) const {
    return static_cast<size_t>(hashDigram(K));
  }
};

/// Robin-hood open-addressing set of digram occurrences, each named by
/// the 32-bit index of its first symbol. Index 0 is never a symbol, so
/// it marks an empty slot. Keys are unique, and a slot index returned by
/// a lookup is invalidated by any mutation.
///
/// Lookups take a key reader, KeyOf(NodeIdx) -> DigramKey, which must
/// return the current key of every indexed node the walk meets; the
/// table calls it only for entries whose stored hash equals the query's.
class DigramTable {
public:
  using NodeIdx = uint32_t;
  static constexpr size_t Npos = ~static_cast<size_t>(0);
  /// Slots a table may grow to: a stored 32-bit hash names a home slot
  /// only while the slot index fits in 32 bits.
  static constexpr uint64_t MaxCapacity = uint64_t(1) << 32;

  DigramTable() { rehash(InitialCapacity); }

  DigramTable(const DigramTable &) = delete;
  DigramTable &operator=(const DigramTable &) = delete;

  /// Returns the slot holding key \p K, or Npos.
  template <typename KeyReader>
  size_t findSlot(const DigramKey &K, const KeyReader &KeyOf) const {
    const uint32_t H = hash32(K);
    size_t Idx = H & Mask;
    for (size_t Dist = 0;; ++Dist) {
      const Slot &S = Slots[Idx];
      if (S.Node == Empty || displacement(Idx, S.Hash) < Dist)
        return Npos;
      if (S.Hash == H && KeyOf(S.Node) == K)
        return Idx;
      Idx = (Idx + 1) & Mask;
    }
  }

  /// Returns the slot whose entry is \p Node, indexed under key \p K, or
  /// Npos. Reads no key: node and hash identify the entry.
  size_t findEntry(const DigramKey &K, NodeIdx Node) const {
    const uint32_t H = hash32(K);
    size_t Idx = H & Mask;
    for (size_t Dist = 0;; ++Dist) {
      const Slot &S = Slots[Idx];
      if (S.Node == Empty || displacement(Idx, S.Hash) < Dist)
        return Npos;
      if (S.Node == Node && S.Hash == H)
        return Idx;
      Idx = (Idx + 1) & Mask;
    }
  }

  /// Returns the node indexed in \p SlotIdx.
  NodeIdx nodeAt(size_t SlotIdx) const {
    assert(SlotIdx < Slots.size() && Slots[SlotIdx].Node != Empty);
    return Slots[SlotIdx].Node;
  }

  /// Indexes \p Node under key \p K. The key must not be present.
  void insert(const DigramKey &K, NodeIdx Node) {
    assert(Node != Empty && "node index 0 marks an empty slot");
    if ((Count + 1) * 10 >= Slots.size() * 7) // Load factor 0.7.
      rehash(Slots.size() * 2);
    emplaceNoGrow(Slot{Node, hash32(K)});
    ++Count;
  }

  /// Returns the slot of key \p K if present. Otherwise indexes \p Node
  /// under \p K and returns Npos: one hash and one probe walk instead of
  /// findSlot() followed by insert(). The table ends up exactly as
  /// insert() would leave it.
  template <typename KeyReader>
  size_t findOrInsert(const DigramKey &K, NodeIdx Node,
                      const KeyReader &KeyOf) {
    assert(Node != Empty && "node index 0 marks an empty slot");
    const uint32_t H = hash32(K);
    size_t Idx = H & Mask;
    size_t Dist = 0;
    for (;; ++Dist) {
      const Slot &S = Slots[Idx];
      if (S.Node == Empty || displacement(Idx, S.Hash) < Dist)
        break; // Absent: insert() would place or rob here.
      if (S.Hash == H && KeyOf(S.Node) == K)
        return Idx;
      Idx = (Idx + 1) & Mask;
    }
    if ((Count + 1) * 10 >= Slots.size() * 7 || Dist == MaxDisplacement) {
      insert(K, Node); // Grows first; the walk is stale.
      return Npos;
    }
    emplaceFrom(Idx, Slot{Node, H}, Dist);
    ++Count;
    return Npos;
  }

  /// Removes the entry in \p SlotIdx (backward-shift deletion).
  void eraseSlot(size_t SlotIdx) {
    assert(SlotIdx < Slots.size() && Slots[SlotIdx].Node != Empty);
    size_t Idx = SlotIdx;
    for (;;) {
      size_t NextIdx = (Idx + 1) & Mask;
      const Slot &NextSlot = Slots[NextIdx];
      // Stop at an empty slot or an entry already in its home slot.
      if (NextSlot.Node == Empty ||
          displacement(NextIdx, NextSlot.Hash) == 0) {
        Slots[Idx] = Slot{};
        break;
      }
      Slots[Idx] = NextSlot;
      Idx = NextIdx;
    }
    --Count;
  }

  /// Frees the slot array, leaving an empty table of capacity 0. A
  /// released table answers only size(), capacity(), maxProbeLength()
  /// and forEach(); lookups and insertions need slots again.
  void release() {
    std::vector<Slot>().swap(Slots);
    Mask = 0;
    Count = 0;
  }

  /// Returns the number of entries.
  size_t size() const { return Count; }

  /// Returns the number of slots (entries plus empty slots); the table's
  /// resident size is capacity() * SlotBytes.
  size_t capacity() const { return Slots.size(); }

  /// Returns the longest current probe sequence, in slots (1 = every
  /// entry sits in its home slot, 0 = empty table). Exposed for the
  /// collision regression tests; O(capacity).
  size_t maxProbeLength() const {
    size_t Max = 0;
    for (size_t Idx = 0; Idx != Slots.size(); ++Idx)
      if (Slots[Idx].Node != Empty &&
          displacement(Idx, Slots[Idx].Hash) >= Max)
        Max = displacement(Idx, Slots[Idx].Hash) + 1;
    return Max;
  }

  /// Calls Visit(SlotIdx, Node, StoredHash) for every entry, in table
  /// order. StoredHash is the low 32 bits of the key's hashDigram().
  template <typename Fn> void forEach(Fn &&Visit) const {
    for (size_t Idx = 0; Idx != Slots.size(); ++Idx)
      if (Slots[Idx].Node != Empty)
        Visit(Idx, Slots[Idx].Node, Slots[Idx].Hash);
  }

  /// The part of hashDigram(K) a slot stores.
  static uint32_t hash32(const DigramKey &K) {
    return static_cast<uint32_t>(hashDigram(K));
  }

private:
  struct Slot {
    NodeIdx Node = 0; ///< First symbol of the digram; 0 = empty.
    uint32_t Hash = 0;
  };

public:
  /// Bytes per slot: a node index and a 32-bit hash.
  static constexpr size_t SlotBytes = sizeof(Slot);

private:
  static constexpr NodeIdx Empty = 0;
  static constexpr size_t InitialCapacity = 64;
  /// An entry this far from its home slot forces growth instead.
  static constexpr size_t MaxDisplacement = 254;

  /// Distance of the entry in slot \p Idx from its home slot.
  size_t displacement(size_t Idx, uint32_t Hash) const {
    return (Idx - Hash) & Mask;
  }

  void emplaceNoGrow(Slot Carry) { emplaceFrom(Carry.Hash & Mask, Carry, 0); }

  /// Robin-hood placement of \p Carry, which sits \p Dist slots past its
  /// home when placed at slot \p Idx.
  void emplaceFrom(size_t Idx, Slot Carry, size_t Dist) {
    for (;;) {
      Slot &S = Slots[Idx];
      if (S.Node == Empty) {
        S = Carry;
        return;
      }
      size_t SDist = displacement(Idx, S.Hash);
      if (SDist < Dist) { // Rob from the rich.
        std::swap(S, Carry);
        Dist = SDist;
      }
      Idx = (Idx + 1) & Mask;
      if (++Dist == MaxDisplacement) {
        // Pathological clustering: grow and retry the displaced entry.
        rehash(Slots.size() * 2);
        Dist = 0;
        Idx = Carry.Hash & Mask;
      }
    }
  }

  void rehash(size_t NewCapacity) {
    assert((NewCapacity & (NewCapacity - 1)) == 0 && "capacity not 2^k");
    if (NewCapacity > MaxCapacity)
      ORP_FATAL_ERROR("sequitur digram index: capacity past 2^32 slots");
    std::vector<Slot> Old = std::move(Slots);
    Slots.assign(NewCapacity, Slot{});
    Mask = NewCapacity - 1;
    for (const Slot &S : Old)
      if (S.Node != Empty)
        emplaceNoGrow(S);
  }

  std::vector<Slot> Slots;
  size_t Mask = 0;
  size_t Count = 0;
};

} // namespace sequitur
} // namespace orp

#endif // ORP_SEQUITUR_DIGRAMTABLE_H
