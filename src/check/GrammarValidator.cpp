//===- check/GrammarValidator.cpp - Deep Sequitur validation -------------===//

#include "check/GrammarValidator.h"

#include "check/Check.h"
#include "sequitur/SequiturNodes.h"

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

using namespace orp;
using namespace orp::check;
using sequitur::SequiturGrammar;

namespace {

// Appended, not prepended: GCC 12 reports a false -Wrestrict for
// "R" + std::to_string(Id) in optimized builds.
std::string ruleName(uint64_t Id) {
  return std::string("R").append(std::to_string(Id));
}

} // namespace

CheckReport GrammarValidator::validate(const SequiturGrammar &G) {
  using Symbol = SequiturGrammar::Symbol;
  using Rule = SequiturGrammar::Rule;
  using NodeIdx = SequiturGrammar::NodeIdx;
  using sequitur::DigramKey;
  using sequitur::DigramKeyHash;
  using sequitur::DigramTable;
  constexpr NodeIdx Nil = SequiturGrammar::NilIdx;
  // Every link read from a node is range-checked before it is followed:
  // a corrupt index must not walk off the slab tables.
  auto ValidSymbol = [&](NodeIdx I) { return I != Nil && I < G.FreshSymbol; };
  auto ValidRule = [&](NodeIdx I) { return I != Nil && I < G.FreshRule; };

  CheckReport Report;

  // Arena discipline: collect the reclaimed node sets first so the live
  // walks below can prove no live structure reaches into them. Free-list
  // nodes are poisoned under ASan, so each visit opens a scoped window.
  std::unordered_set<NodeIdx> DeadSymbols;
  std::unordered_set<NodeIdx> DeadRules;
  // Walks one reclaim list: every node in range, on no other list, and
  // released; a cycle or an overlap ends the walk.
  auto WalkDead = [&](const std::string &List, NodeIdx Head, auto Valid,
                      std::unordered_set<NodeIdx> &Dead, auto &Node,
                      auto Released, auto NextOf) {
    for (NodeIdx I = Head; I != Nil;) {
      if (!Valid(I)) {
        Report.fail("arena: " + List + " links outside the arena");
        break;
      }
      if (!Dead.insert(I).second) {
        Report.fail("arena: " + List + " overlaps another list or "
                    "contains a cycle");
        break;
      }
      ScopedUnpoison Window(&Node(I), sizeof(Node(I)));
      Report.require(Released(Node(I)), "arena: " + List + " node is live");
      I = NextOf(Node(I));
    }
  };
  auto Sym = [&](NodeIdx I) -> const Symbol & { return G.sym(I); };
  auto Rul = [&](NodeIdx I) -> const Rule & { return G.rule(I); };
  auto SymDead = [](const Symbol &S) { return !S.live(); };
  auto RuleDead = [](const Rule &R) { return !R.Live; };
  auto SymNext = [](const Symbol &S) { return S.Next; };
  auto RuleNext = [](const Rule &R) { return R.LiveNext; };
  WalkDead("symbol free list", G.SymbolFreeList, ValidSymbol, DeadSymbols,
           Sym, SymDead, SymNext);
  WalkDead("symbol pending list", G.SymbolPendingList, ValidSymbol,
           DeadSymbols, Sym, SymDead, SymNext);
  WalkDead("rule free list", G.RuleFreeList, ValidRule, DeadRules, Rul,
           RuleDead, RuleNext);
  WalkDead("rule pending list", G.RulePendingList, ValidRule, DeadRules, Rul,
           RuleDead, RuleNext);

  // Live-rule list: well linked, tagged live, counted, disjoint from the
  // reclaimed sets, and anchored by the start rule.
  std::unordered_set<NodeIdx> LiveListed;
  if (ValidRule(G.LiveRuleHead) && G.rule(G.LiveRuleHead).LivePrev != Nil)
    Report.fail("live-rule list: head has a LivePrev");
  for (NodeIdx RI = G.LiveRuleHead; RI != Nil; RI = G.rule(RI).LiveNext) {
    if (!ValidRule(RI)) {
      Report.fail("live-rule list links outside the arena");
      break;
    }
    if (!LiveListed.insert(RI).second) {
      Report.fail("live-rule list contains a cycle");
      break;
    }
    const Rule &R = G.rule(RI);
    Report.require(R.Live, "live-rule list: " + ruleName(RI) +
                               " has a cleared Live tag");
    Report.require(!DeadRules.count(RI), "live-rule list: " + ruleName(RI) +
                                             " is on an arena reclaim list");
    if (R.LiveNext != Nil &&
        (!ValidRule(R.LiveNext) || G.rule(R.LiveNext).LivePrev != RI))
      Report.fail("live-rule list: broken back-link after " + ruleName(RI));
  }
  Report.require(LiveListed.size() == G.NumLiveRules,
                 "live-rule list length disagrees with NumLiveRules");
  Report.require(G.Start != Nil && LiveListed.count(G.Start),
                 "start rule is not on the live-rule list");

  // Rule bodies: guard rings intact, member symbols live and owned by
  // exactly one body, referenced rules live.
  std::unordered_map<NodeIdx, NodeIdx> BodyOwner;
  for (NodeIdx RI : LiveListed) {
    const Rule &R = G.rule(RI);
    if (!Report.require(ValidSymbol(R.Guard), ruleName(RI) + ": missing guard"))
      continue;
    // A guard's tag excludes the released tag, so this also checks that
    // the guard is live.
    const Symbol &Guard = G.sym(R.Guard);
    Report.require(Guard.isGuard() && Guard.ruleRef() == RI,
                   ruleName(RI) + ": guard does not point back");
    Report.require(!DeadSymbols.count(R.Guard),
                   ruleName(RI) + ": guard is on an arena reclaim list");
    size_t BodyLen = 0;
    bool RingOk = true;
    for (NodeIdx I = Guard.Next; I != R.Guard; I = G.sym(I).Next) {
      if (!ValidSymbol(I) || !BodyOwner.emplace(I, RI).second) {
        Report.fail(ruleName(RI) + ": body ring is broken or shares a symbol");
        RingOk = false;
        break;
      }
      const Symbol &S = G.sym(I);
      Report.require(S.live(), ruleName(RI) + ": body symbol is released");
      Report.require(!S.isGuard(),
                     ruleName(RI) + ": foreign guard inside the body");
      Report.require(!DeadSymbols.count(I),
                     ruleName(RI) +
                         ": body symbol is on an arena reclaim list");
      if (!ValidSymbol(S.Next) || G.sym(S.Next).prev() != I ||
          !ValidSymbol(S.prev()) || G.sym(S.prev()).Next != I)
        Report.fail(ruleName(RI) + ": body links are inconsistent");
      if (S.isNonTerminal())
        Report.require(ValidRule(S.ruleRef()) && G.rule(S.ruleRef()).Live &&
                           LiveListed.count(S.ruleRef()),
                       ruleName(RI) + ": body references a dead rule");
      ++BodyLen;
    }
    if (RingOk && RI != G.Start)
      Report.require(BodyLen >= 2,
                     ruleName(RI) + ": non-start body shorter than 2");
  }
  Report.require(BodyOwner.size() == G.totalBodySymbols(),
                 "live-symbol count disagrees with the rule bodies (" +
                     std::to_string(G.totalBodySymbols()) + " counted, " +
                     std::to_string(BodyOwner.size()) + " in bodies)");

  // Use counts: recount each rule's uses, and the XOR of their symbol
  // indices, from the bodies. Both must equal the rule's own UseCount
  // and UseXor, and every non-start rule needs two uses.
  std::unordered_map<NodeIdx, std::pair<uint32_t, NodeIdx>> Uses;
  for (const auto &[I, Owner] : BodyOwner)
    if (G.sym(I).isNonTerminal()) {
      ++Uses[G.sym(I).ruleRef()].first;
      Uses[G.sym(I).ruleRef()].second ^= I;
    }
  for (NodeIdx RI : LiveListed) {
    const Rule &R = G.rule(RI);
    auto [Count, Xor] = Uses[RI];
    Report.require(Count == R.UseCount,
                   ruleName(RI) + ": UseCount " + std::to_string(R.UseCount) +
                       " but the bodies hold " + std::to_string(Count) +
                       " uses");
    Report.require(Xor == R.UseXor,
                   ruleName(RI) + ": UseXor " + std::to_string(R.UseXor) +
                       " but the uses in the bodies XOR to " +
                       std::to_string(Xor));
    if (RI != G.Start)
      Report.require(R.UseCount >= 2,
                     ruleName(RI) + ": rule utility below 2 (" +
                         std::to_string(R.UseCount) + " uses)");
  }

  // Only walk the rings again if the structural pass found them intact;
  // a broken ring has no safe termination condition.
  const bool StructureOk = Report.ok();

  // Liveness tags must equal reachability from the start rule: a live
  // rule no walk can reach is leaked garbage.
  if (StructureOk) {
    std::vector<NodeIdx> Reach = G.reachableRules();
    std::unordered_set<NodeIdx> ReachSet(Reach.begin(), Reach.end());
    for (NodeIdx RI : LiveListed)
      Report.require(ReachSet.count(RI) != 0,
                     ruleName(RI) +
                         ": live rule unreachable from the start rule");
    for (NodeIdx RI : ReachSet)
      Report.require(LiveListed.count(RI) != 0,
                     ruleName(RI) +
                         ": reachable rule missing from the live-rule list");
  }

  // Digram uniqueness plus index coherence. Occurrences of one key may
  // only coexist when they overlap (the "aaa" run case); the index must
  // contain exactly the occurring keys (completeness), and each entry
  // must point at a live occurrence whose hash is the stored one and
  // which a lookup of its key reaches (soundness). The index stores no
  // keys, so lookups read them back from the symbols — but only from
  // live digram starts: a corrupt entry may name any node. A sealed
  // grammar has no index: uniqueness is then checked on the occurrence
  // map alone, and the index must be gone.
  std::unordered_map<DigramKey, std::vector<NodeIdx>, DigramKeyHash>
      Occurrences;
  std::unordered_set<NodeIdx> DigramStarts;
  if (StructureOk)
    for (NodeIdx RI : LiveListed) {
      NodeIdx Guard = G.rule(RI).Guard;
      for (NodeIdx I = G.sym(Guard).Next; I != Guard; I = G.sym(I).Next)
        if (!G.sym(G.sym(I).Next).isGuard()) {
          Occurrences[G.keyOf(I)].push_back(I);
          DigramStarts.insert(I);
        }
    }
  auto LiveKeys = [&](NodeIdx I) {
    return DigramStarts.count(I) ? G.keyOf(I) : DigramKey{0, 0, 0xff};
  };
  auto KeyStr = [](const DigramKey &K) {
    std::string Out = "(";
    Out += std::to_string(K.V1);
    Out += ',';
    Out += std::to_string(K.V2);
    Out += ",tags=";
    Out += std::to_string(K.Tags);
    Out += ')';
    return Out;
  };
  for (const auto &[Key, Positions] : Occurrences) {
    for (size_t I = 0; I != Positions.size(); ++I)
      for (size_t J = I + 1; J != Positions.size(); ++J) {
        NodeIdx P = Positions[I];
        NodeIdx Q = Positions[J];
        if (G.sym(P).Next != Q && G.sym(Q).Next != P)
          Report.fail("digram uniqueness violated: key " + KeyStr(Key) +
                      " occurs at two non-overlapping positions");
      }
    if (G.Sealed)
      continue;
    size_t Slot = G.Index.findSlot(Key, LiveKeys);
    if (Slot == DigramTable::Npos) {
      Report.fail("digram index desync: key " + KeyStr(Key) +
                  " occurs in the grammar but is not indexed");
      continue;
    }
    NodeIdx Canon = G.Index.nodeAt(Slot);
    bool IsOccurrence = false;
    for (NodeIdx P : Positions)
      IsOccurrence |= (P == Canon);
    Report.require(IsOccurrence,
                   "digram index desync: indexed occurrence of key " +
                       KeyStr(Key) + " is not where the key occurs");
  }
  if (G.Sealed) {
    Report.require(G.Index.size() == 0 && G.Index.capacity() == 0,
                   "sealed grammar still holds a digram index of " +
                       std::to_string(G.Index.capacity()) + " slots");
    Report.require(G.MaybeUnderused.capacity() == 0,
                   "sealed grammar still holds its utility worklist");
    if (StructureOk)
      Report.require(G.SealedDigrams == Occurrences.size(),
                     "sealed grammar reports " +
                         std::to_string(G.SealedDigrams) +
                         " digrams but has " +
                         std::to_string(Occurrences.size()) +
                         " distinct digrams");
  } else if (StructureOk) {
    G.Index.forEach([&](size_t Slot, NodeIdx I, uint32_t Hash) {
      std::string Entry = "entry " + std::to_string(Slot) + " (symbol " +
                          std::to_string(I) + ", hash " +
                          std::to_string(Hash) + ")";
      if (!Report.require(DigramStarts.count(I) != 0,
                          "digram index desync: " + Entry +
                              " points outside the live grammar"))
        return;
      DigramKey K = G.keyOf(I);
      if (!Report.require(DigramTable::hash32(K) == Hash,
                          "digram index desync: " + Entry +
                              " points at a different digram " + KeyStr(K)))
        return;
      Report.require(G.Index.findSlot(K, LiveKeys) == Slot,
                     "digram index desync: " + Entry + " for " + KeyStr(K) +
                         " is not reached by a lookup of its key");
    });
    Report.require(G.Index.size() == Occurrences.size(),
                   "digram index holds " + std::to_string(G.Index.size()) +
                       " entries but the grammar has " +
                       std::to_string(Occurrences.size()) +
                       " distinct digrams");
  }

  // Expansion length over the rule DAG (memoized, so O(grammar) rather
  // than O(input)) must equal the number of appended terminals.
  std::unordered_map<NodeIdx, uint64_t> Lengths;
  std::unordered_set<NodeIdx> Visiting;
  bool Cyclic = false;
  auto LengthOf = [&](auto &&Self, NodeIdx RI) -> uint64_t {
    auto It = Lengths.find(RI);
    if (It != Lengths.end())
      return It->second;
    if (!Visiting.insert(RI).second) {
      Cyclic = true;
      return 0;
    }
    uint64_t Len = 0;
    NodeIdx Guard = G.rule(RI).Guard;
    for (NodeIdx I = G.sym(Guard).Next; I != Guard; I = G.sym(I).Next)
      Len += G.sym(I).isNonTerminal() ? Self(Self, G.sym(I).ruleRef()) : 1;
    Visiting.erase(RI);
    Lengths.emplace(RI, Len);
    return Len;
  };
  if (StructureOk) {
    uint64_t Expanded = LengthOf(LengthOf, G.Start);
    Report.require(!Cyclic, "rule DAG contains a reference cycle");
    Report.require(Expanded == G.InputLen,
                   "start rule expands to " + std::to_string(Expanded) +
                       " terminals but InputLen is " +
                       std::to_string(G.InputLen));
  }

  return Report;
}

GrammarValidator::ArenaAudit
GrammarValidator::auditArenaPoisoning(const SequiturGrammar &G) {
  using Symbol = SequiturGrammar::Symbol;
  using Rule = SequiturGrammar::Rule;
  using NodeIdx = SequiturGrammar::NodeIdx;
  constexpr NodeIdx Nil = SequiturGrammar::NilIdx;

  ArenaAudit Audit;
  Audit.AsanActive = asanActive();
  for (NodeIdx I = G.SymbolFreeList; I != Nil;) {
    const Symbol &S = G.sym(I);
    ++Audit.FreeSymbols;
    if (isPoisoned(&S))
      ++Audit.PoisonedFreeSymbols;
    ScopedUnpoison Window(&S, sizeof(Symbol));
    I = S.Next;
  }
  for (NodeIdx I = G.SymbolPendingList; I != Nil; I = G.sym(I).Next) {
    ++Audit.PendingSymbols;
    if (isPoisoned(&G.sym(I)))
      ++Audit.PoisonedPendingSymbols;
  }
  for (NodeIdx I = G.RuleFreeList; I != Nil;) {
    const Rule &R = G.rule(I);
    ++Audit.FreeRules;
    if (isPoisoned(&R))
      ++Audit.PoisonedFreeRules;
    ScopedUnpoison Window(&R, sizeof(Rule));
    I = R.LiveNext;
  }
  for (NodeIdx I = G.RulePendingList; I != Nil; I = G.rule(I).LiveNext) {
    ++Audit.PendingRules;
    if (isPoisoned(&G.rule(I)))
      ++Audit.PoisonedPendingRules;
  }
  return Audit;
}

const void *
GrammarValidator::firstFreeSymbolForTest(const SequiturGrammar &G) {
  if (G.SymbolFreeList == SequiturGrammar::NilIdx)
    return nullptr;
  return &G.sym(G.SymbolFreeList);
}

const void *
GrammarValidator::nextFreshSymbolForTest(const SequiturGrammar &G) {
  if ((G.FreshSymbol >> SequiturGrammar::SymbolSlabShift) >=
      G.SymbolSlabs.size())
    return nullptr;
  return &G.sym(static_cast<SequiturGrammar::NodeIdx>(G.FreshSymbol));
}

void GrammarValidator::exhaustSymbolIndexSpaceForTest(SequiturGrammar &G) {
  G.FreshSymbol = uint64_t(1) << 31;
  G.SymbolFreeList = SequiturGrammar::NilIdx;
  G.SymbolSlabs.resize(G.FreshSymbol >> SequiturGrammar::SymbolSlabShift);
}

bool GrammarValidator::injectForTest(SequiturGrammar &G, Corruption K) {
  using Rule = SequiturGrammar::Rule;
  using NodeIdx = SequiturGrammar::NodeIdx;
  using Table = sequitur::DigramTable;
  constexpr NodeIdx Nil = SequiturGrammar::NilIdx;

  switch (K) {
  case Corruption::DigramIndexDrop: {
    if (G.Index.size() == 0)
      return false;
    size_t First = Table::Npos;
    G.Index.forEach([&](size_t Slot, NodeIdx, uint32_t) {
      if (First == Table::Npos)
        First = Slot;
    });
    G.Index.eraseSlot(First);
    return true;
  }
  case Corruption::DigramIndexRetarget:
  case Corruption::DigramIndexToFreedSymbol: {
    // Re-index the first entry's key at another node: the occurrence of
    // a *different* key, or a symbol on an arena reclaim list.
    std::vector<std::pair<size_t, NodeIdx>> Entries;
    G.Index.forEach([&](size_t Slot, NodeIdx I, uint32_t) {
      if (Entries.size() < 2)
        Entries.emplace_back(Slot, I);
    });
    NodeIdx Target = Nil;
    if (K == Corruption::DigramIndexRetarget)
      Target = Entries.size() < 2 ? Nil : Entries[1].second;
    else
      Target = G.SymbolFreeList != Nil ? G.SymbolFreeList
                                       : G.SymbolPendingList;
    if (Entries.empty() || Target == Nil)
      return false;
    sequitur::DigramKey Key = G.keyOf(Entries[0].second);
    G.Index.eraseSlot(Entries[0].first);
    G.Index.insert(Key, Target);
    return true;
  }
  case Corruption::DigramDuplicate: {
    // Relabel the second all-terminal digram as a copy of the first. The
    // expansion length and every use count stay as they were.
    std::vector<NodeIdx> Found;
    for (NodeIdx RI = G.LiveRuleHead; RI != Nil && Found.size() != 2;
         RI = G.rule(RI).LiveNext) {
      NodeIdx Guard = G.rule(RI).Guard;
      for (NodeIdx I = G.sym(Guard).Next;
           I != Guard && G.sym(I).Next != Guard && Found.size() != 2;
           I = G.sym(I).Next) {
        NodeIdx Next = G.sym(I).Next;
        bool Disjoint = Found.empty() || (I != G.sym(Found[0]).Next &&
                                          Next != Found[0]);
        if (!G.sym(I).isRef() && !G.sym(Next).isRef() && Disjoint)
          Found.push_back(I);
      }
    }
    if (Found.size() != 2)
      return false;
    G.sym(Found[1]).Value = G.sym(Found[0]).Value;
    G.sym(G.sym(Found[1]).Next).Value = G.sym(G.sym(Found[0]).Next).Value;
    return true;
  }
  case Corruption::UseCountSkew:
  case Corruption::UseXorSkew:
    for (NodeIdx RI = G.LiveRuleHead; RI != Nil; RI = G.rule(RI).LiveNext)
      if (RI != G.Start) {
        Rule &R = G.rule(RI);
        (K == Corruption::UseCountSkew ? R.UseCount : R.UseXor) ^= 1;
        return true;
      }
    return false;
  case Corruption::LivenessTagClear: {
    SequiturGrammar::Symbol &First = G.sym(G.sym(G.rule(G.Start).Guard).Next);
    if (First.isGuard())
      return false;
    First.Value = SequiturGrammar::Symbol::ReleasedTag;
    First.PrevTag |= SequiturGrammar::Symbol::RefBit;
    return true;
  }
  }
  return false;
}
