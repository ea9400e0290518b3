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
/// arena index of the digram's first symbol, its displacement from its
/// home slot (one byte) and one byte of *extension bits*: hash bits
/// [k, k+8), the bits just above the home of a 2^k-slot table. That is
/// 6 bytes a slot. The table keeps one count of how many extension bits
/// are still valid. A lookup reads a key back from the grammar, through
/// the caller's key reader, only when an entry's home and its valid
/// extension bits both match the query's.
///
/// Growth doubles the table. The new home bit of an entry is its
/// extension bit 0, and the rest shift down one place, so a doubling
/// reads no key and leaves one valid bit fewer. Fewer valid bits mean
/// more entries that pass the home-and-bits test with a different key,
/// and each such false match costs a key read. So the doubling that
/// would leave fewer than MinValidBits (4) rebuilds the table from the
/// keys instead: it reads each entry's key once, checks that the key
/// still hashes to the entry's home (a stale entry is a fatal error),
/// and restores all 8 extension bits. A table that starts at 2^6 slots
/// rebuilds at 2^10 -> 2^11, then every fifth doubling. (Rebuilding only
/// once no bit is left, at 2^14 -> 2^15, read 0.19-0.34 extra keys per
/// appended symbol on the perfbench traces; this policy reads 0.03-0.08,
/// rebuilds included. EXPERIMENTS.md "6-byte digram slots".)
///
/// The slot array lives on its own anonymous pages (support::MappedArray),
/// never in malloc's heap, and the all-zero slot is the empty slot, so a
/// fresh mapping is an empty table with no initialisation pass. A new
/// table maps nothing until its first insertion; its lookups answer
/// Npos. A doubling sends the entry of old home h to h or h + the old
/// capacity, so the new array fills in step with the walk over the old
/// one: the walk gives the old array's pages back behind its cursor,
/// and the table never holds both arrays in full.
///
//===----------------------------------------------------------------------===//

#ifndef ORP_SEQUITUR_DIGRAMTABLE_H
#define ORP_SEQUITUR_DIGRAMTABLE_H

#include "support/Error.h"
#include "support/MappedArray.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>

namespace orp {

namespace check {
class GrammarValidator;
} // namespace check

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

/// Robin-hood open-addressing set of digram occurrences, each named by
/// the 32-bit index of its first symbol. Index 0 is never a symbol, so
/// it marks an empty slot. Keys are unique, and a slot index returned by
/// a lookup is invalidated by any mutation.
///
/// Lookups and insertions take a key reader, KeyOf(NodeIdx) ->
/// DigramKey, which must return the current key of every indexed node.
/// Lookups call it only for entries whose home and valid extension bits
/// match the query's; insertions call it once per entry when they
/// trigger a rebuilding growth, and never otherwise. A reader may also
/// offer KeyOf.matches(NodeIdx, DigramKey) -> bool, which lookups then
/// use instead of reading the whole key: it can compare the first
/// symbol before it loads the second, so a false match costs one load.
///
/// A table maps its first 2^6 slots at its first insertion, so
/// constructing one makes no system call; until then it has capacity 0
/// and every lookup answers Npos.
class DigramTable {
public:
  using NodeIdx = uint32_t;
  static constexpr size_t Npos = ~static_cast<size_t>(0);
  /// Slots a table may grow to. Node indices are 32-bit, so no table
  /// needs more.
  static constexpr uint64_t MaxCapacity = uint64_t(1) << 32;
  /// Hash bits above the home that a rebuilt table keeps per entry.
  static constexpr unsigned ExtensionBits = 8;
  /// Valid extension bits a key-free doubling may leave; a doubling that
  /// would leave fewer rebuilds.
  static constexpr unsigned MinValidBits = 4;
  DigramTable() = default;

  DigramTable(const DigramTable &) = delete;
  DigramTable &operator=(const DigramTable &) = delete;

  /// Returns the slot holding key \p K, or Npos.
  template <typename KeyReader>
  size_t findSlot(const DigramKey &K, const KeyReader &KeyOf) const {
    if (Slots.empty()) [[unlikely]]
      return Npos;
    const uint64_t H = hashDigram(K);
    size_t Idx = H & Mask;
    for (unsigned Want = tag(0, extensionOf(H));; ++Want) {
      const Slot &S = Slots[Idx];
      if (S.Node == Empty || S.disp() < (Want & 0xff))
        return Npos;
      if (S.Tag == Want && keyMatches(KeyOf, S.Node, K))
        return Idx;
      Idx = (Idx + 1) & Mask;
    }
  }

  /// Returns the slot whose entry is \p Node, indexed under key \p K, or
  /// Npos. Reads no key: the node, its home and its extension bits
  /// identify the entry.
  size_t findEntry(const DigramKey &K, NodeIdx Node) const {
    if (Slots.empty()) [[unlikely]]
      return Npos;
    const uint64_t H = hashDigram(K);
    size_t Idx = H & Mask;
    for (unsigned Want = tag(0, extensionOf(H));; ++Want) {
      const Slot &S = Slots[Idx];
      if (S.Node == Empty || S.disp() < (Want & 0xff))
        return Npos;
      if (S.Node == Node && S.Tag == Want)
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
  template <typename KeyReader>
  void insert(const DigramKey &K, NodeIdx Node, const KeyReader &KeyOf) {
    assert(Node != Empty && "node index 0 marks an empty slot");
    if ((Count + 1) * 10 >= (Mask + 1) * 7) [[unlikely]] // Load factor 0.7.
      grow(KeyOf);
    const uint64_t H = hashDigram(K);
    place(H & Mask, Slot{Node, tag(0, extensionOf(H))}, KeyOf);
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
    const uint64_t H = hashDigram(K);
    size_t Idx = H & Mask;
    unsigned Want = tag(0, extensionOf(H));
    // An unmapped table has no slot to probe; its load test below sends
    // it to insert(), which maps the first slots. (A second insert() call
    // here would keep the compiler from inlining this function.)
    if (!Slots.empty()) [[likely]] {
      for (;; ++Want) {
        const Slot &S = Slots[Idx];
        if (S.Node == Empty || S.disp() < (Want & 0xff))
          break; // Absent: insert() would place or rob here.
        if (S.Tag == Want && keyMatches(KeyOf, S.Node, K))
          return Idx;
        Idx = (Idx + 1) & Mask;
      }
    }
    if ((Count + 1) * 10 >= (Mask + 1) * 7 ||
        (Want & 0xff) == MaxDisplacement) [[unlikely]] {
      insert(K, Node, KeyOf); // Grows first; the walk is stale.
      return Npos;
    }
    place(Idx, Slot{Node, static_cast<uint16_t>(Want)}, KeyOf);
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
      if (NextSlot.Node == Empty || NextSlot.disp() == 0) {
        Slots[Idx] = Slot{};
        break;
      }
      Slots[Idx] = NextSlot;
      --Slots[Idx].Tag; // One slot nearer home.
      Idx = NextIdx;
    }
    --Count;
  }

  /// Points the entry in \p SlotIdx at \p Node, which must have the
  /// same key as the node it replaces (the other occurrence of an
  /// overlapping run): the entry's home and extension bits stay valid.
  void replaceNode(size_t SlotIdx, NodeIdx Node) {
    assert(SlotIdx < Slots.size() && Slots[SlotIdx].Node != Empty &&
           Node != Empty);
    Slots[SlotIdx].Node = Node;
  }

  /// Unmaps the slot array, leaving an empty table of capacity 0, as
  /// constructed.
  void release() {
    Slots = support::MappedArray<Slot>();
    Mask = 0;
    Count = 0;
  }

  /// Maps an empty table of \p Capacity slots (a power of two, at least
  /// 2^6) with every extension bit valid, so that refilling it with the
  /// entries of a table that size needs no growth. Requires an unmapped
  /// table.
  void reserve(size_t Capacity) {
    assert(Slots.empty() && Capacity >= (size_t(1) << InitialShift) &&
           (Capacity & (Capacity - 1)) == 0);
    unsigned NewShift = InitialShift;
    while ((size_t(1) << NewShift) < Capacity)
      ++NewShift;
    reset(NewShift, ExtensionBits);
  }

  /// Returns the number of entries.
  size_t size() const { return Count; }

  /// Returns the number of slots (entries plus empty slots); 0 before the
  /// first insertion and after release().
  size_t capacity() const { return Slots.size(); }

  /// Returns the bytes the slot array maps: capacity() * SlotBytes
  /// rounded up to whole pages.
  size_t mappedBytes() const { return Slots.mappedBytes(); }

  /// Returns how many of an entry's extension bits are valid (8 after a
  /// rebuild, one fewer after each key-free doubling, never fewer than
  /// MinValidBits).
  unsigned validExtensionBits() const { return ExtBits; }

  /// Returns the longest current probe sequence, in slots (1 = every
  /// entry sits in its home slot, 0 = empty table). Exposed for the
  /// collision regression tests; O(capacity).
  size_t maxProbeLength() const {
    size_t Max = 0;
    for (const Slot &S : Slots)
      if (S.Node != Empty && S.disp() >= Max)
        Max = S.disp() + 1;
    return Max;
  }

  /// Calls Visit(SlotIdx, Node) for every entry, in table order.
  template <typename Fn> void forEach(Fn &&Visit) const {
    for (size_t Idx = 0; Idx != Slots.size(); ++Idx)
      if (Slots[Idx].Node != Empty)
        Visit(Idx, Slots[Idx].Node);
  }

  /// Returns the home slot the entry in \p SlotIdx records: its slot
  /// minus its stored displacement.
  size_t homeOf(size_t SlotIdx) const {
    assert(SlotIdx < Slots.size() && Slots[SlotIdx].Node != Empty);
    return (SlotIdx - Slots[SlotIdx].disp()) & Mask;
  }

  /// True when the entry in \p SlotIdx agrees with key \p K's hash: its
  /// recorded home is K's home, and its extension bits are exactly K's
  /// valid ones (the bits past them are zero).
  bool matchesHash(size_t SlotIdx, const DigramKey &K) const {
    const uint64_t H = hashDigram(K);
    return homeOf(SlotIdx) == (H & Mask) &&
           Slots[SlotIdx].ext() == extensionOf(H);
  }

private:
  /// The corruption injector of the deep validator skews a slot.
  friend class ::orp::check::GrammarValidator;

  struct [[gnu::packed]] Slot {
    NodeIdx Node = 0; ///< First symbol of the digram; 0 = empty.
    /// Low byte: slots past the home slot. High byte: the valid
    /// extension bits (the rest are 0). A probe compares both at once.
    uint16_t Tag = 0;

    unsigned disp() const { return Tag & 0xff; }
    uint8_t ext() const { return static_cast<uint8_t>(Tag >> 8); }
  };

  static uint16_t tag(unsigned Disp, uint8_t Ext) {
    return static_cast<uint16_t>(Disp | unsigned(Ext) << 8);
  }

  /// True when \p Node's digram is \p K, through the reader's matches()
  /// when it has one.
  template <typename KeyReader>
  static bool keyMatches(const KeyReader &KeyOf, NodeIdx Node,
                         const DigramKey &K) {
    if constexpr (requires { KeyOf.matches(Node, K); })
      return KeyOf.matches(Node, K);
    else
      return KeyOf(Node) == K;
  }

public:
  /// Bytes per slot: a node index, a displacement and extension bits.
  static constexpr size_t SlotBytes = sizeof(Slot);

private:
  static constexpr NodeIdx Empty = 0;
  static constexpr unsigned InitialShift = 6; ///< 64 slots.
  /// An entry this far from its home slot forces growth instead.
  static constexpr unsigned MaxDisplacement = 254;

  /// The valid extension bits of hash \p H in this table.
  uint8_t extensionOf(uint64_t H) const {
    return static_cast<uint8_t>((H >> Shift) & ExtMask);
  }

  /// Maps a fresh (empty) slot array, 2^NewShift slots long, with
  /// \p ValidBits valid extension bits.
  void reset(unsigned NewShift, unsigned ValidBits) {
    if ((uint64_t(1) << NewShift) > MaxCapacity)
      ORP_FATAL_ERROR("sequitur digram index: capacity past 2^32 slots");
    Slots = support::MappedArray<Slot>(size_t(1) << NewShift);
    Mask = (size_t(1) << NewShift) - 1;
    Shift = NewShift;
    ExtBits = ValidBits;
    ExtMask = static_cast<uint8_t>((1u << ValidBits) - 1);
  }

  /// Robin-hood placement of \p Carry, which sits Carry.disp() slots past
  /// its home when placed at slot \p Idx.
  template <typename KeyReader>
  void place(size_t Idx, Slot Carry, const KeyReader &KeyOf) {
    for (;;) {
      Slot &S = Slots[Idx];
      if (S.Node == Empty) {
        S = Carry;
        return;
      }
      if (S.disp() < Carry.disp()) // Rob from the rich.
        std::swap(S, Carry);
      Idx = (Idx + 1) & Mask;
      ++Carry.Tag; // One slot further from home.
      if (Carry.disp() == MaxDisplacement) [[unlikely]] {
        growPlacing(Carry, (Idx - MaxDisplacement) & Mask, KeyOf);
        return;
      }
    }
  }

  /// Pathological clustering: grows the table, then re-places \p Carry,
  /// the entry displaced from home slot \p Home.
  template <typename KeyReader>
  [[gnu::noinline, gnu::cold]] void
  growPlacing(Slot Carry, size_t Home, const KeyReader &KeyOf) {
    const unsigned FromShift = Shift, FromBits = ExtBits;
    grow(KeyOf);
    rehome(Carry.Node, Carry.ext(), Home, FromShift, FromBits, KeyOf);
  }

  /// Doubles the table and re-homes every entry: from its extension
  /// bits while more than MinValidBits are valid, else from its key (a
  /// rebuild, which restores all the extension bits). The walk
  /// (support::rehashWalk) gives the old array's pages back behind its
  /// cursor. A re-placement that hits the displacement cap grows again
  /// from inside the walk; that nested growth walks and releases only its
  /// own old array (this one's new array), never the part of Old this
  /// walk has yet to pass. An unmapped table maps its first
  /// 2^InitialShift slots instead.
  template <typename KeyReader>
  [[gnu::noinline]] void grow(const KeyReader &KeyOf) {
    if (Slots.empty()) {
      reset(InitialShift, ExtensionBits);
      return;
    }
    support::MappedArray<Slot> Old = std::move(Slots);
    const size_t OldMask = Mask;
    const unsigned OldShift = Shift, OldBits = ExtBits;
    reset(OldShift + 1, OldBits > MinValidBits ? OldBits - 1 : ExtensionBits);
    support::rehashWalk(Old, [&](size_t I, const Slot &S) {
      if (S.Node != Empty)
        rehome(S.Node, S.ext(), (I - S.disp()) & OldMask, OldShift, OldBits,
               KeyOf);
    });
  }

  /// Places the entry of \p Node, whose extension bits are \p Ext and
  /// whose home was \p FromHome in a table of 2^FromShift slots with
  /// \p FromBits valid extension bits. The table may have doubled more
  /// than once since (a re-placement can hit the displacement cap and
  /// grow it again), so the key is read whenever the entry's valid bits
  /// do not reach this table's.
  template <typename KeyReader>
  void rehome(NodeIdx Node, uint8_t Ext, size_t FromHome, unsigned FromShift,
              unsigned FromBits, const KeyReader &KeyOf) {
    const unsigned Levels = Shift - FromShift;
    size_t Home;
    if (Shift + ExtBits <= FromShift + FromBits) {
      Home = FromHome | (size_t(Ext) & ((size_t(1) << Levels) - 1))
                            << FromShift;
      Ext = static_cast<uint8_t>((Ext >> Levels) & ExtMask);
    } else {
      const uint64_t H = hashDigram(KeyOf(Node));
      if ((H & ((size_t(1) << FromShift) - 1)) != FromHome ||
          ((H >> FromShift) & ((1u << FromBits) - 1)) != Ext)
        ORP_FATAL_ERROR("sequitur digram index: stale entry (its key no "
                        "longer hashes to its home slot)");
      Home = H & Mask;
      Ext = extensionOf(H);
    }
    place(Home, Slot{Node, tag(0, Ext)}, KeyOf);
  }

  support::MappedArray<Slot> Slots; ///< Power-of-two length, or unmapped.
  size_t Mask = 0;
  size_t Count = 0;
  unsigned Shift = 0;   ///< log2 of the capacity.
  unsigned ExtBits = 0; ///< Valid extension bits.
  uint8_t ExtMask = 0;  ///< (1 << ExtBits) - 1.
};

} // namespace sequitur
} // namespace orp

#endif // ORP_SEQUITUR_DIGRAMTABLE_H
