//===- check/GrammarValidator.h - Deep Sequitur validation -----*- C++ -*-===//
//
// Part of the ORP reproduction of "Exposing Memory Access Regularities
// Using Object-Relative Memory Profiling" (CGO 2004).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deep structural validator for Sequitur grammars — the level-2 half of
/// the invariant framework (see check/Check.h), and the one grammar
/// checker. It has one validate() per grammar type. As a friend of the
/// builder (SequiturGrammar) it audits what the public interface cannot
/// see:
///
///   * digram index <-> linked-list coherence (soundness: every index
///     entry points at a live digram whose hash gives the entry's home
///     slot (slot minus stored displacement) and its valid extension
///     bits, and which a lookup reaches; completeness: every adjacency is
///     findable in the index);
///   * digram uniqueness across all rule bodies, through the validator's
///     own occurrence map;
///   * rule utility >= 2, and each rule's UseCount and UseXor equal to
///     the count and index XOR of its uses recounted from the bodies;
///   * liveness == reachability from the start rule: the walk from the
///     start rule reaches only live rules, and exactly NumLiveRules of
///     them (the grammar keeps no list of live rules);
///   * arena discipline: free-list/pending-list nodes are dead and
///     never reachable from live rules, live + pending + free nodes
///     account for every index each arena handed out, and (under ASan)
///     free-list nodes are poisoned while pending-list nodes — the
///     sanctioned mid-cascade dead-check window — are not;
///   * the wide-terminal table: entries are wide, below 2^63 and
///     distinct, every wide code names an entry, and until the seal the
///     interning set indexes exactly the table;
///   * with the index released (SequiturGrammar::releaseIndex), the
///     index maps nothing, it held one entry per distinct digram, and
///     every recorded right twin is a live digram start whose
///     predecessor starts the same digram (the right occurrence of an
///     "aaa" run);
///   * the memoized expansion length of the start rule equals the
///     number of appended terminals;
///   * the live-symbol count behind totalBodySymbols() equals the
///     symbols found in rule bodies.
///
/// A sealed grammar (GrammarImage) holds only its image and the
/// builder's counters at the seal: the image parses, its length, rule,
/// body-symbol and distinct-digram counts equal those counters, every
/// rule is reachable from the start rule, and digram uniqueness and rule
/// utility hold on its bodies.
///
/// The validator never aborts: violations accumulate in a CheckReport,
/// whose messages are built only when a check fails. It also ships fault
/// injectors (injectForTest), one corruption enum per grammar type, so
/// the negative tests can prove that a corruption of each class is
/// actually caught.
///
//===----------------------------------------------------------------------===//

#ifndef ORP_CHECK_GRAMMARVALIDATOR_H
#define ORP_CHECK_GRAMMARVALIDATOR_H

#include "check/CheckReport.h"
#include "sequitur/Sequitur.h"

#include <cstddef>

namespace orp {
namespace check {

/// Friend-of-the-grammar deep checker. Stateless; every entry point is a
/// static function.
class GrammarValidator {
public:
  /// Runs every structural check and returns the collected violations.
  static CheckReport validate(const sequitur::SequiturGrammar &G);
  static CheckReport validate(const sequitur::GrammarImage &Image);

  /// What auditArenaPoisoning() saw on the arena lists.
  struct ArenaAudit {
    bool AsanActive = false;     ///< Whether poisoning is real here.
    size_t FreeSymbols = 0;      ///< Nodes on the symbol free list.
    size_t PoisonedFreeSymbols = 0;
    size_t FreeRules = 0;
    size_t PoisonedFreeRules = 0;
    size_t PendingSymbols = 0;   ///< Nodes still in the sanctioned window.
    size_t PoisonedPendingSymbols = 0; ///< Must stay 0: window is readable.
    size_t PendingRules = 0;
    size_t PoisonedPendingRules = 0;
  };

  /// Walks the arena free and pending lists and reports how many nodes
  /// are ASan-poisoned. Under ASan, every free-list node must be
  /// poisoned (a stale read is a detected use-after-free) and no
  /// pending-list node may be (the deferred-reclamation contract keeps
  /// them readable until the next append).
  static ArenaAudit auditArenaPoisoning(const sequitur::SequiturGrammar &G);

  /// Returns the address of the head of the symbol free list (resolved
  /// through the slab table), or null when the list is empty. For the
  /// death test that proves a stale read of a recycled node is caught.
  static const void *
  firstFreeSymbolForTest(const sequitur::SequiturGrammar &G);

  /// Returns the address of the next never-used symbol (the bump
  /// cursor) when it lies in an allocated slab, else null. For the death
  /// test that proves a fresh slab is born poisoned past the cursor.
  static const void *
  nextFreshSymbolForTest(const sequitur::SequiturGrammar &G);

  /// Makes \p G's symbol arena look full: the slab table grows to the
  /// 2^19 entries that 31-bit indices allow (null slabs) and the bump
  /// cursor moves to 2^31, so the next fresh symbol must hit the
  /// index-space cap. Only for a death test: the grammar must not be
  /// used or destroyed afterwards.
  static void exhaustSymbolIndexSpaceForTest(sequitur::SequiturGrammar &G);

  /// Points the index entry of the first overlapping run ("aaa") of a
  /// live grammar at the run's right occurrence, the choice checkDigram()
  /// keeps when a run grows to the left of its indexed digram; both
  /// choices satisfy every invariant. Returns false when no entry names
  /// a run's left occurrence. For the tests that require a rebuilt index
  /// to name the same occurrence as the released one.
  static bool indexRightTwinForTest(sequitur::SequiturGrammar &G);

  /// Classes of deliberate corruption of a builder, for negative tests.
  enum class Corruption {
    DigramIndexDrop,     ///< Remove an index entry (completeness desync).
    DigramIndexRetarget, ///< Repoint an entry at a wrong occurrence.
    DigramIndexToFreedSymbol, ///< Repoint an entry at a freed symbol.
    DigramDisplacementSkew, ///< Skew an entry's displacement/extension.
    UseCountSkew,        ///< Bump a rule's UseCount with no matching use.
    UseXorSkew,          ///< Flip a bit of a rule's UseXor.
    DigramDuplicate,     ///< Relabel a digram as a copy of another.
    LivenessTagClear,    ///< Tag an in-body symbol as released.
    NarrowValueInterned, ///< Intern a narrow terminal and use its code.
    WideCodePastTable,   ///< Give a terminal a wide code past the table.
    UnreachableLiveRule, ///< Create a live rule that nothing uses.
    /// Record a released index's first right twin at its run's left
    /// occurrence or, with none recorded, record the first digram start
    /// that is no run's right occurrence (needs a released index).
    ReleasedTwinSkew,
  };

  /// Classes of deliberate corruption of an image and the counters kept
  /// beside it, for negative tests.
  enum class ImageCorruption {
    DigramDuplicate, ///< Relabel an image digram as a copy of another.
    RuleUsedOnce,    ///< Inline all but one use of an image rule.
    RuleCountSkew,   ///< Count one rule more than the image holds.
    LengthSkew,      ///< Count one terminal more than the image holds.
    DigramCountSkew, ///< Count one digram more than the image holds.
  };

  /// Injects \p K into \p G. Returns false when the grammar is too small
  /// to host that corruption (caller should grow it first), or when it
  /// needs an index state \p G is not in (a released index for
  /// ReleasedTwinSkew, a live one for the index classes). The grammar is
  /// unusable for further appends afterwards — validation only.
  static bool injectForTest(sequitur::SequiturGrammar &G, Corruption K);
  /// Injects \p K into \p Image; false when it is too small to host it.
  static bool injectForTest(sequitur::GrammarImage &Image,
                            ImageCorruption K);
};

} // namespace check
} // namespace orp

#endif // ORP_CHECK_GRAMMARVALIDATOR_H
