//===- sequitur/SequiturNodes.h - Grammar node definitions -----*- C++ -*-===//
//
// Part of the ORP reproduction of "Exposing Memory Access Regularities
// Using Object-Relative Memory Profiling" (CGO 2004).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Definitions of SequiturGrammar's private node types. These live in
/// their own header (instead of Sequitur.cpp) so that the deep invariant
/// checker — check::GrammarValidator, a friend of SequiturGrammar — can
/// walk rule bodies, use counts and the arena free lists directly. Only
/// Sequitur.cpp and src/check/ may include this header; everything else
/// goes through the public SequiturGrammar interface.
///
/// Nodes link to each other by 32-bit arena index, not by pointer: a
/// symbol is 12 bytes, a rule 12, and a digram-index slot 6 (the first
/// symbol's index, a displacement byte and a byte of hash extension
/// bits; the key is read back from the symbols through keyOf()).
/// Index I lives in slab I >> SlabShift at slot I & SlabMask; index 0
/// (NilIdx) is never handed out, so it doubles as the null link. Indices
/// stay below 2^31, which frees the top bit of a link for a tag.
///
/// Symbol encoding. Value is a 32-bit code; bit 31 of PrevTag (RefBit)
/// says how to read it:
///
///   RefBit clear, Value < 2^31: a narrow terminal; Value is the terminal.
///   RefBit clear, Value == WideBit | W: a wide terminal (2^31 or more,
///     below 2^63); the terminal is WideValues[W].
///   RefBit set, Value < 2^31: a nonterminal; Value is its rule's index.
///   RefBit set, Value == GuardTag | R, R != 0: the guard of rule R.
///   RefBit set, Value == GuardTag: a released (dead) symbol. That is the
///     guard of rule 0, which is never handed out.
///
/// A wide terminal is interned once per grammar, so a terminal's code is
/// a pure function of its value: copying a symbol copies its code, and
/// digram keys compare and hash codes. For a stream whose terminals all
/// stay below 2^31 the codes are the values themselves.
///
/// A rule is named by its arena index. That index is the nonterminal's
/// Value, so it is also what a digram key holds. Rule slots are reused
/// only after reclaimPending(), when no use and no index entry of the
/// old rule is left. Rules keep no use list: UseCount counts the uses
/// and UseXor is the XOR of their symbol indices, so a single use is
/// UseXor itself. A rule is live while it has a guard; once released,
/// its UseXor chains the pending and free lists.
///
//===----------------------------------------------------------------------===//

#ifndef ORP_SEQUITUR_SEQUITURNODES_H
#define ORP_SEQUITUR_SEQUITURNODES_H

#include "sequitur/Sequitur.h"

#include <cassert>
#include <type_traits>

namespace orp {
namespace sequitur {

/// One symbol node: a terminal, a use of a rule (nonterminal), or the
/// guard sentinel of a rule. Guards close each rule body into a ring:
/// the guard's Next is the first body symbol and its Prev the last. The
/// arena allocates slabs uninitialized, so the fields have no default
/// member initializers; alloc* reset each node they hand out.
struct SequiturGrammar::Symbol {
  static constexpr NodeIdx RefBit = NodeIdx(1) << 31;
  /// Marks a wide terminal's code (RefBit clear).
  static constexpr uint32_t WideBit = uint32_t(1) << 31;
  /// Marks a guard's code (RefBit set); alone, a released symbol.
  static constexpr uint32_t GuardTag = uint32_t(1) << 31;
  static constexpr uint32_t ReleasedTag = GuardTag;

  uint32_t Value;
  NodeIdx Next;
  NodeIdx PrevTag; ///< Prev link | RefBit.

  NodeIdx prev() const { return PrevTag & ~RefBit; }
  void setPrev(NodeIdx P) { PrevTag = (PrevTag & RefBit) | P; }
  bool isRef() const { return PrevTag & RefBit; }
  bool isNonTerminal() const { return isRef() && Value < GuardTag; }
  bool isGuard() const { return isRef() && Value > GuardTag; }
  bool live() const { return !isRef() || Value != ReleasedTag; }
  /// The used rule of a nonterminal, or the owning rule of a guard.
  NodeIdx ruleRef() const { return Value & ~GuardTag; }
};

/// One grammar rule. Live while Guard is set; a released rule's UseXor
/// chains the arena's pending and free lists.
struct SequiturGrammar::Rule {
  NodeIdx Guard;
  uint32_t UseCount; ///< Bounded by the symbol index space.
  NodeIdx UseXor;    ///< XOR of the uses' symbol indices.

  bool live() const { return Guard != NilIdx; }
};

/// Compile-time pins on the node and index-slot sizes: the slab sizes
/// and the memory estimate assume them, so a new field must not regrow
/// a node silently.
struct SequiturGrammar::LayoutPins {
  static_assert(sizeof(Symbol) == 12, "Symbol must stay 12 bytes");
  static_assert(sizeof(Rule) == 12, "Rule must stay 12 bytes");
  static_assert(std::is_trivially_default_constructible_v<Symbol> &&
                    std::is_trivially_default_constructible_v<Rule>,
                "slabs are allocated uninitialized");
  static_assert(DigramTable::SlotBytes == 6,
                "a digram-index slot must stay 6 bytes");
  static_assert(std::is_same_v<DigramTable::NodeIdx, NodeIdx>,
                "the digram index names symbols by arena index");
  static_assert(sizeof(Symbol) * SymbolsPerSlab == SymbolSlabBytes &&
                    SymbolSlabBytes == 48 * 1024,
                "a symbol slab must stay 48 KiB");
  static_assert(sizeof(Rule) * RulesPerSlab == RuleSlabBytes,
                "RuleSlabBytes must match the rule slab");
};

inline SequiturGrammar::Symbol &SequiturGrammar::sym(NodeIdx I) {
  return SymbolSlabs[I >> SymbolSlabShift][I & (SymbolsPerSlab - 1)];
}
inline const SequiturGrammar::Symbol &SequiturGrammar::sym(NodeIdx I) const {
  return SymbolSlabs[I >> SymbolSlabShift][I & (SymbolsPerSlab - 1)];
}
inline SequiturGrammar::Rule &SequiturGrammar::rule(NodeIdx I) {
  return RuleSlabs[I >> RuleSlabShift][I & (RulesPerSlab - 1)];
}
inline const SequiturGrammar::Rule &SequiturGrammar::rule(NodeIdx I) const {
  return RuleSlabs[I >> RuleSlabShift][I & (RulesPerSlab - 1)];
}

/// A nonterminal's Value is its rule's index and a terminal's is its
/// code, so the key is read from the two symbols alone; neither is a
/// guard, so RefBit is the kind.
[[gnu::always_inline]] inline DigramKey
SequiturGrammar::keyOf(NodeIdx A) const {
  const Symbol &SA = sym(A);
  const Symbol &SB = sym(SA.Next);
  assert(!SA.isGuard() && !SB.isGuard() && "digram key of a guard");
  DigramKey K;
  K.V1 = SA.Value;
  K.V2 = SB.Value;
  K.Tags = static_cast<uint8_t>((SA.PrevTag >> 31) | (SB.PrevTag >> 31) << 1);
  return K;
}

/// The digram index's key reader. A lookup compares a candidate entry's
/// key with the query's through matches(), which reads the second symbol
/// only when the first already agrees: most false matches then cost one
/// symbol load instead of two dependent ones.
struct SequiturGrammar::IndexKeys {
  const SequiturGrammar *G;

  DigramKey operator()(NodeIdx A) const { return G->keyOf(A); }
  bool matches(NodeIdx A, const DigramKey &K) const {
    const Symbol &SA = G->sym(A);
    if (SA.Value != K.V1 || (SA.PrevTag >> 31) != (K.Tags & 1u))
      return false;
    const Symbol &SB = G->sym(SA.Next);
    return SB.Value == K.V2 && (SB.PrevTag >> 31) == unsigned(K.Tags >> 1);
  }
};

inline SequiturGrammar::IndexKeys SequiturGrammar::indexKeys() const {
  return IndexKeys{this};
}

template <typename VisitFn>
void SequiturGrammar::forEachBodyDigram(VisitFn &&Visit) const {
  for (NodeIdx R : reachableRules()) {
    const NodeIdx Guard = rule(R).Guard;
    for (NodeIdx S = sym(Guard).Next; S != Guard && sym(S).Next != Guard;
         S = sym(S).Next)
      Visit(S);
  }
}

} // namespace sequitur
} // namespace orp

#endif // ORP_SEQUITUR_SEQUITURNODES_H
