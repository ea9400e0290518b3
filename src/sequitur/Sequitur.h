//===- sequitur/Sequitur.h - Linear-time Sequitur compression --*- C++ -*-===//
//
// Part of the ORP reproduction of "Exposing Memory Access Regularities
// Using Object-Relative Memory Profiling" (CGO 2004).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Sequitur hierarchical grammar compressor of Nevill-Manning &
/// Witten ("Identifying hierarchical structure in sequences: a
/// linear-time algorithm", JAIR 1997), which WHOMP uses to compress each
/// decomposed dimension stream (the paper's Section 3). The algorithm
/// maintains two invariants while consuming the input one symbol at a
/// time:
///
///   * digram uniqueness — no pair of adjacent symbols occurs more than
///     once in the grammar; a repeated digram becomes (or reuses) a rule;
///   * rule utility — every rule is referenced more than once; a rule
///     that drops to a single use is inlined and deleted.
///
/// Example from the paper: "abcbcabcbc" compresses to
///   S -> A A ;  A -> a B B ;  B -> b c
///
/// This implementation differs from the reference code in one
/// robustness-motivated way: utility repair is driven from a worklist
/// drained after each append, instead of the reference implementation's
/// single first-body-symbol check. The produced grammars satisfy both
/// invariants (checkInvariants() verifies them directly).
///
//===----------------------------------------------------------------------===//

#ifndef ORP_SEQUITUR_SEQUITUR_H
#define ORP_SEQUITUR_SEQUITUR_H

#include "sequitur/DigramTable.h"

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace orp {

namespace check {
class GrammarValidator;
} // namespace check

namespace sequitur {

/// A grammar image that SequiturGrammar::parseImageChecked accepted: the
/// serialize()d bytes, the byte range of every rule body, and the
/// expansions of the short rules, which let an ImageCursor copy the
/// bottom levels of the parse tree instead of walking them. The stream
/// itself is never stored; ImageCursor expands it on demand.
class ParsedImage {
public:
  /// Rules that expand to at most this many terminals are cached, as
  /// long as the cache stays smaller than the stream.
  static constexpr unsigned kShortRule = 16;

  /// Terminals the image expands to (declared, and checked on parse).
  uint64_t length() const { return Length; }
  /// The serialize()d bytes.
  const std::vector<uint8_t> &bytes() const { return Bytes; }
  /// Materializes the whole expansion.
  std::vector<uint64_t> expand() const;

private:
  friend class SequiturGrammar;
  friend class ImageCursor;
  /// Byte range [Begin, End) of symbol codes in Bytes.
  struct Body {
    size_t Begin;
    size_t End;
  };
  struct Rule {
    Body Symbols;
    /// (Offset in ShortExpansions << 5) | length, or 0 when not cached.
    uint64_t Short;
  };
  std::vector<uint8_t> Bytes;
  std::vector<Rule> Rules; ///< Indexed by dense rule id; 0 = start rule.
  std::vector<uint64_t> ShortExpansions;
  uint64_t Length = 0;
  size_t MaxDepth = 0; ///< Deepest nesting of rule frames in the expansion.
};

/// Pull cursor over a ParsedImage's expansion. An explicit stack of rule
/// frames, sized once from the parse, refills a small buffer a chunk at a
/// time, so walking a stream costs the grammar's nesting depth in memory,
/// not the stream's length. Cursors over sibling dimensions walk the
/// tuple stream in lockstep. The image must outlive the cursor.
class ImageCursor {
public:
  explicit ImageCursor(const ParsedImage &Image);

  /// True once every terminal has been produced.
  bool done() const { return Head == Tail && Left == 0; }

  /// Returns the next terminal. Requires !done().
  uint64_t next() {
    if (Head == Tail)
      refill();
    return Buffer[Head++];
  }

private:
  /// Terminals per refill, before the last cached rule's overshoot.
  static constexpr unsigned kChunk = 64;
  void refill();

  const ParsedImage *Image;
  std::vector<ParsedImage::Body> Stack; ///< Unread rest of each open body.
  size_t Depth = 0;  ///< Open frames.
  uint64_t Left;     ///< Terminals not yet buffered.
  unsigned Head = 0; ///< Buffer[Head, Tail) is produced but unread.
  unsigned Tail = 0;
  uint64_t Buffer[kChunk + ParsedImage::kShortRule];
};

/// True when \p A and \p B expand to the same terminal sequence.
bool sameExpansion(const ParsedImage &A, const ParsedImage &B);

/// Incremental Sequitur grammar over 64-bit terminal symbols below 2^63.
class SequiturGrammar {
public:
  SequiturGrammar();
  ~SequiturGrammar();

  SequiturGrammar(const SequiturGrammar &) = delete;
  SequiturGrammar &operator=(const SequiturGrammar &) = delete;

  /// Appends one terminal to the input sequence. The image encoding
  /// holds terminals below 2^63; a larger one is a fatal error.
  void append(uint64_t Value);

  /// Appends every element of \p Values in order.
  void appendAll(const std::vector<uint64_t> &Values);

  /// Declares the input complete. Digram uniqueness is enforced on
  /// append, so only appending needs the digram index, the utility
  /// worklist and the wide-terminal interning set; sealing frees all
  /// three (the wide terminals themselves stay). Every read-only call
  /// (serialize, expandAll, ruleStats, dump, the counters) answers
  /// exactly as before, and numDigrams() and indexSlots() keep the
  /// index's count and capacity at the seal. Appending to a sealed
  /// grammar is a fatal error. Sealing twice is a no-op.
  void seal();

  /// True once seal() ran.
  bool sealed() const { return Sealed; }

  /// Returns the number of terminals appended so far.
  uint64_t inputLength() const { return InputLen; }

  /// Returns the number of live rules, including the start rule.
  size_t numRules() const { return NumLiveRules; }

  /// Returns the total number of symbols across all rule bodies — the
  /// standard abstract "grammar size" measure. O(1): every live symbol
  /// but the rule guards sits in a body, so no walk is needed.
  size_t totalBodySymbols() const { return NumLiveSymbols - NumLiveRules; }

  /// Reconstructs the original input by expanding the start rule; the
  /// grammar is lossless, so this equals the appended sequence.
  std::vector<uint64_t> expandAll() const;

  /// Serializes the grammar (ULEB128-based); byte counts of this
  /// serialization are the profile sizes compared in Figure 5.
  std::vector<uint8_t> serialize() const;

  /// Returns serialize().size(), summed from the encoded widths without
  /// building the image.
  size_t serializedSizeBytes() const;

  /// Default cap on the expanded terminal count the checked decoder will
  /// produce: a grammar is exponentially generative, so a tiny corrupt
  /// (or hostile) image can declare an astronomically long expansion.
  static constexpr uint64_t kDefaultMaxExpandedTerminals = 1ULL << 26;

  /// Parses and validates a serialize()d image for untrusted input.
  /// Returns false with a diagnostic in \p Err on truncation, malformed
  /// varints, out-of-range references, cycles, length mismatches, or
  /// expansions beyond \p MaxTerminals; never reads out of bounds and
  /// caps its allocations by the input size. Validation is a counting
  /// walk of the expansion (memoized per rule, so it costs the grammar's
  /// size, not the stream's); \p Out never holds the expansion itself
  /// (see ParsedImage).
  [[nodiscard]] static bool
  parseImageChecked(std::vector<uint8_t> Bytes, ParsedImage &Out,
                    std::string &Err,
                    uint64_t MaxTerminals = kDefaultMaxExpandedTerminals);

  /// parseImageChecked + full expansion, into \p Out.
  [[nodiscard]] static bool deserializeAndExpandChecked(
      const uint8_t *Data, size_t Size, std::vector<uint64_t> &Out,
      std::string &Err,
      uint64_t MaxTerminals = kDefaultMaxExpandedTerminals);

  /// Trusted variant for images this process produced (round-trip
  /// checks): dies with the checked decoder's diagnostic on bad input.
  static std::vector<uint64_t> deserializeAndExpand(
      const std::vector<uint8_t> &Bytes);

  /// Renders the grammar as text ("R0 -> R1 R1", "R1 -> a R2 R2", ...).
  std::string dump() const;

  /// Aggregate statistics of one grammar rule, for grammar-mining
  /// consumers (e.g. hot-data-stream extraction a la Chilimbi &
  /// Hirzel, which the paper cites as a use of whole-stream profiles).
  struct RuleStats {
    uint64_t Id;             ///< Dense id (0 = start rule).
    size_t BodyLength;       ///< Symbols in the rule body.
    uint64_t ExpandedLength; ///< Terminals the rule expands to.
    uint64_t Occurrences;    ///< Expansions within the whole input.
    /// The first terminals of the expansion (at most \p PrefixCap).
    std::vector<uint64_t> Prefix;
  };

  /// Returns statistics for every reachable rule, start rule first.
  /// Occurrences counts how many times the rule's expansion appears in
  /// the input via the grammar structure (the start rule occurs once).
  std::vector<RuleStats> ruleStats(size_t PrefixCap = 16) const;

  /// Verifies digram uniqueness, rule utility, use counts (recounted
  /// from the bodies), that every live rule is reachable, the wide
  /// terminal table and index consistency; a sealed grammar must hold no
  /// index at all. For tests; returns true when healthy.
  bool checkInvariants() const;

  /// \name Introspection for the telemetry layer
  /// Arena and index occupancy, read from the owning thread (or after
  /// the owning worker finished).
  /// @{
  /// Bytes of one symbol slab and of one rule slab.
  static constexpr size_t SymbolSlabBytes = 48 * 1024;
  static constexpr size_t RuleSlabBytes = 3 * 1024;
  size_t numSymbolSlabs() const { return SymbolSlabs.size(); }
  size_t numRuleSlabs() const { return RuleSlabs.size(); }
  /// Distinct terminals of 2^31 or more (each is interned once).
  size_t numWideValues() const { return WideValues.size(); }
  /// Resident bytes of the wide-terminal table: the interned values plus
  /// the interning set's slots (capacity, not occupancy; the set is gone
  /// once sealed).
  size_t wideTableBytes() const {
    return WideValues.capacity() * sizeof(uint64_t) +
           WideSlots.capacity() * sizeof(uint32_t);
  }
  /// Distinct digrams in the grammar (the count at the seal once sealed).
  size_t numDigrams() const { return Sealed ? SealedDigrams : Index.size(); }
  /// Slots of the digram index (0 before the first digram and once
  /// sealed).
  size_t indexCapacity() const { return Index.capacity(); }
  /// Bytes the digram index maps: its slots rounded up to whole pages
  /// (0 before the first digram and once sealed).
  size_t indexBytes() const { return Index.mappedBytes(); }
  /// Slots of the digram index; once sealed, the capacity the seal freed.
  size_t indexSlots() const {
    return Sealed ? SealedIndexSlots : Index.capacity();
  }
  /// Resident bytes of the grammar's bulk storage: symbol and rule slabs,
  /// the digram index's mapped pages (indexBytes(): capacity, not
  /// occupancy) and the wide-terminal table.
  size_t footprintBytes() const;

  /// Exact work counters since construction.
  struct Churn {
    uint64_t RulesCreated = 0; ///< Rules made from a repeated digram.
    uint64_t RulesInlined = 0; ///< Rules inlined by the utility rule.
    uint64_t DigramChecks = 0; ///< checkDigram() calls.
    uint64_t Matches = 0;      ///< processMatch() calls.
  };
  const Churn &churn() const { return Counters; }
  /// @}

private:
  /// The deep invariant checker (src/check/GrammarValidator.h) walks
  /// rule bodies, use counts and the arena free lists directly, and
  /// injects corruptions for its own negative tests.
  friend class ::orp::check::GrammarValidator;

  struct Rule;
  struct Symbol;
  struct LayoutPins; ///< Node-size static_asserts (SequiturNodes.h).

  /// Arena index of a symbol or rule node; see SequiturNodes.h.
  using NodeIdx = uint32_t;
  /// The null link. Slot 0 of each arena is never handed out.
  static constexpr NodeIdx NilIdx = 0;

  /// \name Slab arena
  /// Symbols and rules come from grammar-owned slabs instead of the
  /// global heap: appending is the profiling hot path and pays for every
  /// malloc/free twice (allocation plus the liveness bookkeeping the old
  /// unordered_sets did per node). Nodes are addressed by 32-bit index
  /// through the slab tables (sym()/rule()); alloc* die with a fatal
  /// error rather than let an index reach 2^31 (the top bit of a link
  /// is a tag, see SequiturNodes.h). Freed nodes go onto a
  /// *pending* list first and only become reusable at the next top-level
  /// append() — within one append cascade a stale index therefore still
  /// reads as dead, exactly matching the pointer-set semantics this
  /// replaced.
  ///
  /// Under AddressSanitizer this contract is enforced, not just relied
  /// on: reclaimPending() poisons nodes as they move to the free lists
  /// (and fresh slabs are born poisoned past the bump cursor), so any
  /// read outside the sanctioned pending-list window is an immediate
  /// use-after-poison report. alloc* unpoison a node before reuse. See
  /// check/Check.h.
  /// @{
  /// sym(), rule(), keyOf() and indexKeys() are defined in
  /// SequiturNodes.h; the other inline helpers only in Sequitur.cpp, the
  /// one file that calls them.
  inline Symbol &sym(NodeIdx I);
  inline const Symbol &sym(NodeIdx I) const;
  inline Rule &rule(NodeIdx I);
  inline const Rule &rule(NodeIdx I) const;
  inline NodeIdx allocSymbol();
  inline void releaseSymbol(NodeIdx S);
  NodeIdx allocRule();
  void releaseRule(NodeIdx R);
  void reclaimPending();
  /// @}

  /// The code of terminal \p Value: the value itself below 2^31, else
  /// WideBit | its index in WideValues (see SequiturNodes.h).
  inline uint32_t codeOf(uint64_t Value);
  /// codeOf's slow path: finds or interns a wide terminal.
  uint32_t internWide(uint64_t Value);
  /// The WideSlots slot holding \p Value, else the empty slot where
  /// interning it would go. Requires a set with an empty slot.
  size_t wideSlotOf(uint64_t Value) const;
  /// True when the interning set indexes exactly WideValues, each value
  /// in its own probe sequence, at a load of at most 1/2.
  bool wideSetConsistent() const;
  /// The terminal a terminal symbol's code stands for.
  inline uint64_t terminalOf(const Symbol &S) const;

  inline NodeIdx newTerminal(uint32_t Code);
  inline NodeIdx newNonTerminal(NodeIdx R);
  inline void destroySymbol(NodeIdx S);
  NodeIdx newRule();
  void destroyRule(NodeIdx R);

  inline void link(NodeIdx A, NodeIdx B);
  /// The digram starting at \p A, read from A and its successor. The
  /// digram index stores no keys; it reads them back through this.
  inline DigramKey keyOf(NodeIdx A) const;
  /// keyOf as the digram index's key reader.
  inline auto indexKeys() const;
  inline void removeDigramAt(NodeIdx A);

  /// Enforces digram uniqueness for the digram starting at \p A.
  /// Returns true if a substitution consumed the digram.
  bool checkDigram(NodeIdx A);

  /// Handles a repeated digram: \p A is the new occurrence, \p M the
  /// indexed one.
  void processMatch(NodeIdx A, NodeIdx M);

  /// Replaces the digram starting at \p First with a use of \p R.
  void substituteDigram(NodeIdx First, NodeIdx R);

  /// Inlines the single remaining use of \p R and deletes the rule.
  void expandSingleUse(NodeIdx R);

  /// Drains MaybeUnderused until the utility invariant holds.
  void repairUtility();

  /// Collects live rules reachable from the start rule, start first, in
  /// first-visit order. When \p DenseIds is given it is resized to the
  /// rule arena and maps each collected rule index to its position in
  /// the result (the dense id used by serialization and dump).
  std::vector<NodeIdx>
  reachableRules(std::vector<uint64_t> *DenseIds = nullptr) const;

  /// Calls \p Emit with every varint of the serialize() image, in order.
  template <typename EmitFn> void forEachImageCode(EmitFn &&Emit) const;

  NodeIdx Start = NilIdx;
  uint64_t InputLen = 0;
  Churn Counters;
  DigramTable Index;
  std::vector<NodeIdx> MaybeUnderused;
  bool Sealed = false;
  size_t SealedDigrams = 0;    ///< Index.size() when seal() released it.
  size_t SealedIndexSlots = 0; ///< Index.capacity() when seal() released it.

  /// \name Wide terminals
  /// Terminals of 2^31 or more, in first-append order; a wide code
  /// indexes this table. WideSlots is a key-less open-addressing set over
  /// it, the digram index's trick: a slot holds an index + 1 (0 = empty)
  /// and the key is read back from WideValues. Grown at load 1/2; empty
  /// until the first wide terminal, and freed by seal().
  /// @{
  std::vector<uint64_t> WideValues;
  std::vector<uint32_t> WideSlots;
  /// @}

  /// Symbols per arena slab (48 KiB of 12-byte symbols).
  static constexpr unsigned SymbolSlabShift = 12;
  static constexpr size_t SymbolsPerSlab = size_t(1) << SymbolSlabShift;
  /// Rules per arena slab.
  static constexpr unsigned RuleSlabShift = 8;
  static constexpr size_t RulesPerSlab = size_t(1) << RuleSlabShift;
  /// Slabs are allocated uninitialized: a node is written only when it
  /// is handed out, so a barely used slab stays barely resident.
  std::vector<std::unique_ptr<Symbol[]>> SymbolSlabs;
  std::vector<std::unique_ptr<Rule[]>> RuleSlabs;
  /// Next never-used index of each arena (the bump cursor); starts past
  /// the reserved NilIdx.
  uint64_t FreshSymbol = 1;
  uint64_t FreshRule = 1;
  NodeIdx SymbolFreeList = NilIdx;    ///< Reusable slots (chained via Next).
  NodeIdx SymbolPendingList = NilIdx; ///< Freed since the last append().
  NodeIdx RuleFreeList = NilIdx;      ///< Chained via UseXor.
  NodeIdx RulePendingList = NilIdx;
  size_t NumLiveRules = 0;
  size_t NumLiveSymbols = 0; ///< Body symbols plus one guard per rule.
};

} // namespace sequitur
} // namespace orp

#endif // ORP_SEQUITUR_SEQUITUR_H
