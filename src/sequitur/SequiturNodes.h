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
/// walk rule bodies, use lists and the arena free lists directly. Only
/// Sequitur.cpp and src/check/ may include this header; everything else
/// goes through the public SequiturGrammar interface.
///
/// Nodes link to each other by 32-bit arena index, not by pointer: a
/// symbol is 32 bytes (two per cache line) and a digram-index slot 8
/// (the first symbol's index and a 32-bit hash; the key is read back
/// from the symbols through keyOf()).
/// Index I lives in slab I >> SlabShift at slot I & SlabMask; index 0
/// (NilIdx) is never handed out, so it doubles as the null link.
///
//===----------------------------------------------------------------------===//

#ifndef ORP_SEQUITUR_SEQUITURNODES_H
#define ORP_SEQUITUR_SEQUITURNODES_H

#include "sequitur/Sequitur.h"

#include <cassert>
#include <type_traits>

namespace orp {
namespace sequitur {

/// One symbol node. A symbol is exactly one of: a terminal, a use of a
/// rule (nonterminal), or the guard sentinel of a rule. Guards close each
/// rule body into a ring: the guard's Next is the first body symbol and
/// its Prev the last. Live is the intrusive liveness tag.
struct SequiturGrammar::Symbol {
  enum Kind : uint8_t { Terminal, NonTerminal, Guard };

  /// The terminal value. A nonterminal holds a copy of its rule's Id
  /// here, so a digram key is read from the two symbols alone.
  uint64_t Value = 0;
  NodeIdx Next = NilIdx;
  NodeIdx Prev = NilIdx;
  NodeIdx UseNext = NilIdx; ///< Next use of RuleRef (intrusive list).
  NodeIdx UsePrev = NilIdx;
  /// The used rule of a nonterminal, or the owning rule of a guard.
  NodeIdx RuleRef = NilIdx;
  Kind K = Terminal;
  bool Live = false;

  bool isGuard() const { return K == Guard; }
  bool isNonTerminal() const { return K == NonTerminal; }
};

/// One grammar rule. LivePrev/LiveNext thread the live-rule list while
/// the rule is live and the arena free list once it is released.
struct SequiturGrammar::Rule {
  uint64_t Id = 0;
  NodeIdx Guard = NilIdx;
  NodeIdx UseHead = NilIdx; ///< Intrusive list of nonterminal uses.
  uint32_t UseCount = 0;    ///< Bounded by the symbol index space.
  NodeIdx LivePrev = NilIdx;
  NodeIdx LiveNext = NilIdx;
  bool Live = false;
};

/// Compile-time pins on the node and index-slot sizes: the slab sizes
/// and the memory estimate assume them, so a new field must not regrow
/// a node silently.
struct SequiturGrammar::LayoutPins {
  static_assert(sizeof(Symbol) == 32, "Symbol must stay 32 bytes");
  static_assert(sizeof(Rule) <= 32, "Rule must stay within 32 bytes");
  static_assert(DigramTable::SlotBytes == 8,
                "a digram-index slot must stay 8 bytes");
  static_assert(std::is_same_v<DigramTable::NodeIdx, NodeIdx>,
                "the digram index names symbols by arena index");
  static_assert(sizeof(Symbol) * SymbolsPerSlab == 128 * 1024,
                "a symbol slab must stay 128 KiB");
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

/// A nonterminal's Value is its rule's Id, so the key is read from the
/// two symbols alone.
[[gnu::always_inline]] inline DigramKey
SequiturGrammar::keyOf(NodeIdx A) const {
  const Symbol &SA = sym(A);
  const Symbol &SB = sym(SA.Next);
  assert(!SA.isGuard() && !SB.isGuard() && "digram key of a guard");
  DigramKey K;
  K.V1 = SA.Value;
  K.V2 = SB.Value;
  K.Tags = static_cast<uint8_t>((SA.isNonTerminal() ? 1 : 0) |
                                (SB.isNonTerminal() ? 2 : 0));
  return K;
}

inline auto SequiturGrammar::indexKeys() const {
  return [this](NodeIdx I) { return keyOf(I); };
}

} // namespace sequitur
} // namespace orp

#endif // ORP_SEQUITUR_SEQUITURNODES_H
