//===- check/GrammarValidator.cpp - Deep Sequitur validation -------------===//

#include "check/GrammarValidator.h"

#include "check/Check.h"
#include "sequitur/SequiturNodes.h"
#include "support/VarInt.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

using namespace orp;
using namespace orp::check;
using sequitur::GrammarImage;
using sequitur::SequiturGrammar;

namespace {

// Appended, not prepended: GCC 12 reports a false -Wrestrict for
// "R" + std::to_string(Id) in optimized builds.
std::string ruleName(uint64_t Id) {
  return std::string("R").append(std::to_string(Id));
}

/// A grammar image as its rule bodies of symbol codes, for the image
/// injectors: (terminal << 1) or (rule id << 1 | 1), start rule first.
struct ImageBodies {
  uint64_t Length = 0;
  std::vector<std::vector<uint64_t>> Rules;
};

ImageBodies decodeImage(const std::vector<uint8_t> &Bytes) {
  ImageBodies Out;
  size_t Pos = 0;
  Out.Rules.resize(decodeULEB128(Bytes, Pos));
  Out.Length = decodeULEB128(Bytes, Pos);
  for (std::vector<uint64_t> &Body : Out.Rules) {
    Body.resize(decodeULEB128(Bytes, Pos));
    for (uint64_t &Code : Body)
      Code = decodeULEB128(Bytes, Pos);
  }
  return Out;
}

std::vector<uint8_t> encodeImage(const ImageBodies &Image) {
  std::vector<uint8_t> Out;
  encodeULEB128(Image.Rules.size(), Out);
  encodeULEB128(Image.Length, Out);
  for (const std::vector<uint64_t> &Body : Image.Rules) {
    encodeULEB128(Body.size(), Out);
    for (uint64_t Code : Body)
      encodeULEB128(Code, Out);
  }
  return Out;
}

/// A set of arena indices below a bound, as a bitmap: the node sets the
/// validator keeps are dense in the arena, so hashing them would cost
/// more than the checks. An index at or past the bound is never a member.
class IndexSet {
public:
  explicit IndexSet(uint64_t Bound) : In(Bound, false) {}
  /// Adds \p I (below the bound); false when it was a member already.
  bool insert(uint64_t I) {
    if (In[I])
      return false;
    In[I] = true;
    ++Count;
    return true;
  }
  bool count(uint64_t I) const { return I < In.size() && In[I]; }
  size_t size() const { return Count; }

private:
  std::vector<bool> In;
  size_t Count = 0;
};

} // namespace

CheckReport GrammarValidator::validate(const SequiturGrammar &G) {
  using Symbol = SequiturGrammar::Symbol;
  using Rule = SequiturGrammar::Rule;
  using NodeIdx = SequiturGrammar::NodeIdx;
  using sequitur::DigramKey;
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
  IndexSet DeadSymbols(G.FreshSymbol);
  IndexSet DeadRules(G.FreshRule);
  // Walks one reclaim list: every node in range, on no other list, and
  // released; a cycle or an overlap ends the walk.
  auto WalkDead = [&](const char *List, NodeIdx Head, auto Valid,
                      IndexSet &Dead, auto &Node, auto Released,
                      auto NextOf) {
    for (NodeIdx I = Head; I != Nil;) {
      if (!Valid(I)) {
        Report.fail(std::string("arena: ") + List +
                    " links outside the arena");
        break;
      }
      if (!Dead.insert(I)) {
        Report.fail(std::string("arena: ") + List +
                    " overlaps another list or contains a cycle");
        break;
      }
      ScopedUnpoison Window(&Node(I), sizeof(Node(I)));
      Report.require(Released(Node(I)), [&] {
        return std::string("arena: ") + List + " node is live";
      });
      I = NextOf(Node(I));
    }
  };
  auto Sym = [&](NodeIdx I) -> const Symbol & { return G.sym(I); };
  auto Rul = [&](NodeIdx I) -> const Rule & { return G.rule(I); };
  auto SymDead = [](const Symbol &S) { return !S.live(); };
  auto RuleDead = [](const Rule &R) { return !R.live(); };
  auto SymNext = [](const Symbol &S) { return S.Next; };
  auto RuleNext = [](const Rule &R) { return R.UseXor; };
  WalkDead("symbol free list", G.SymbolFreeList, ValidSymbol, DeadSymbols,
           Sym, SymDead, SymNext);
  WalkDead("symbol pending list", G.SymbolPendingList, ValidSymbol,
           DeadSymbols, Sym, SymDead, SymNext);
  WalkDead("rule free list", G.RuleFreeList, ValidRule, DeadRules, Rul,
           RuleDead, RuleNext);
  WalkDead("rule pending list", G.RulePendingList, ValidRule, DeadRules, Rul,
           RuleDead, RuleNext);

  // Rules reachable from the start rule, walked breadth first: each in
  // range, live, off the reclaim lists, and with its guard ring intact,
  // its member symbols live and owned by exactly one body, and its wide
  // codes inside the table. A nonterminal only leads on to a rule that
  // passes the same checks, so the walk reads live nodes alone. The walk
  // also recounts each rule's uses, and the XOR of their symbol indices.
  std::vector<NodeIdx> Reachable;
  IndexSet ReachSet(G.FreshRule);
  auto Reach = [&](NodeIdx RI) {
    if (ReachSet.insert(RI))
      Reachable.push_back(RI);
  };
  auto LiveRule = [&](NodeIdx RI) {
    return ValidRule(RI) && !DeadRules.count(RI) && G.rule(RI).live();
  };
  if (Report.require(LiveRule(G.Start), "start rule is not live"))
    Reach(G.Start);
  IndexSet InBodies(G.FreshSymbol);
  std::vector<std::pair<uint32_t, NodeIdx>> Uses(G.FreshRule);
  for (size_t Next = 0; Next != Reachable.size(); ++Next) {
    const NodeIdx RI = Reachable[Next];
    const Rule &R = G.rule(RI);
    auto InRule = [RI](const char *What) {
      return [RI, What] { return ruleName(RI) + What; };
    };
    if (!Report.require(ValidSymbol(R.Guard), InRule(": missing guard")))
      continue;
    // A guard's tag excludes the released tag, so this also checks that
    // the guard is live.
    const Symbol &Guard = G.sym(R.Guard);
    Report.require(Guard.isGuard() && Guard.ruleRef() == RI,
                   InRule(": guard does not point back"));
    Report.require(!DeadSymbols.count(R.Guard),
                   InRule(": guard is on an arena reclaim list"));
    size_t BodyLen = 0;
    bool RingOk = true;
    for (NodeIdx I = Guard.Next; I != R.Guard; I = G.sym(I).Next) {
      if (!ValidSymbol(I) || !InBodies.insert(I)) {
        Report.fail(ruleName(RI) + ": body ring is broken or shares a symbol");
        RingOk = false;
        break;
      }
      const Symbol &S = G.sym(I);
      Report.require(S.live(), InRule(": body symbol is released"));
      Report.require(!S.isGuard(), InRule(": foreign guard inside the body"));
      Report.require(!DeadSymbols.count(I),
                     InRule(": body symbol is on an arena reclaim list"));
      if (!ValidSymbol(S.Next) || G.sym(S.Next).prev() != I ||
          !ValidSymbol(S.prev()) || G.sym(S.prev()).Next != I)
        Report.fail(ruleName(RI) + ": body links are inconsistent");
      if (S.isNonTerminal()) {
        if (ValidRule(S.ruleRef())) {
          ++Uses[S.ruleRef()].first;
          Uses[S.ruleRef()].second ^= I;
        }
        if (Report.require(LiveRule(S.ruleRef()),
                           InRule(": body references a dead rule")))
          Reach(S.ruleRef());
      } else if (!S.isRef() && S.Value >= Symbol::WideBit) {
        const uint32_t W = S.Value & ~Symbol::WideBit;
        Report.require(W < G.WideValues.size(), [&] {
          return ruleName(RI) + ": wide code " + std::to_string(W) +
                 " past the table of " + std::to_string(G.WideValues.size());
        });
      }
      ++BodyLen;
    }
    if (RingOk && RI != G.Start)
      Report.require(BodyLen >= 2, InRule(": non-start body shorter than 2"));
  }
  // A live rule no walk reaches is leaked garbage: the reachable rules
  // must be all the live ones. Every index either arena handed out is
  // live, pending or free.
  Report.require(Reachable.size() == G.NumLiveRules, [&] {
    return std::to_string(G.NumLiveRules) + " live rules but " +
           std::to_string(Reachable.size()) + " reachable from the start rule";
  });
  Report.require(G.NumLiveRules + DeadRules.size() == G.FreshRule - 1, [&] {
    return "rule arena: live, pending and free rules do not add up to the " +
           std::to_string(G.FreshRule - 1) + " handed out";
  });
  Report.require(
      G.NumLiveSymbols + DeadSymbols.size() == G.FreshSymbol - 1, [&] {
        return "symbol arena: live, pending and free symbols do not add up "
               "to the " +
               std::to_string(G.FreshSymbol - 1) + " handed out";
      });

  // The wide-terminal table: every entry wide, below 2^63 and distinct,
  // so that a terminal has exactly one code, and the interning set
  // indexes exactly the table.
  std::unordered_set<uint64_t> WideSeen;
  for (size_t W = 0; W != G.WideValues.size(); ++W) {
    const uint64_t V = G.WideValues[W];
    auto Entry = [W, V](const char *What, const char *After = "") {
      return [W, V, What, After] {
        return "wide table: entry " + std::to_string(W) + What +
               std::to_string(V) + After;
      };
    };
    Report.require(V >= Symbol::WideBit, Entry(" holds the narrow value "));
    Report.require(!(V >> 63),
                   Entry(" holds ", ", past the 63-bit image domain"));
    Report.require(WideSeen.insert(V).second, Entry(" repeats the value "));
  }
  Report.require(G.wideSetConsistent(),
                 "wide set does not index exactly the wide table");

  Report.require(InBodies.size() == G.totalBodySymbols(), [&] {
    return "live-symbol count disagrees with the rule bodies (" +
           std::to_string(G.totalBodySymbols()) + " counted, " +
           std::to_string(InBodies.size()) + " in bodies)";
  });

  // Use counts: each rule's UseCount and UseXor must equal the recount,
  // and every non-start rule needs two uses.
  for (NodeIdx RI : Reachable) {
    const Rule &R = G.rule(RI);
    auto [Count, Xor] = Uses[RI];
    Report.require(Count == R.UseCount, [&] {
      return ruleName(RI) + ": UseCount " + std::to_string(R.UseCount) +
             " but the bodies hold " + std::to_string(Count) + " uses";
    });
    Report.require(Xor == R.UseXor, [&] {
      return ruleName(RI) + ": UseXor " + std::to_string(R.UseXor) +
             " but the uses in the bodies XOR to " + std::to_string(Xor);
    });
    if (RI != G.Start)
      Report.require(R.UseCount >= 2, [&] {
        return ruleName(RI) + ": rule utility below 2 (" +
               std::to_string(R.UseCount) + " uses)";
      });
  }

  // Only walk the rings again if the structural pass found them intact;
  // a broken ring has no safe termination condition.
  const bool StructureOk = Report.ok();

  // Digram uniqueness plus index coherence. Occurrences of one key may
  // only coexist when they overlap (the "aaa" run case); the index must
  // contain exactly the occurring keys (completeness), and each entry
  // must point at a live occurrence whose hash gives the entry's home
  // (slot minus stored displacement) and its valid extension bits, and
  // which a lookup of its key reaches (soundness). The index stores no
  // keys, so lookups read them back from the symbols — but only from
  // live digram starts: a corrupt entry may name any node. Occurrences
  // are sorted by key, so that each key's run is adjacent.
  std::vector<std::pair<DigramKey, NodeIdx>> Occurrences;
  IndexSet DigramStarts(G.FreshSymbol);
  if (StructureOk)
    for (NodeIdx RI : Reachable) {
      NodeIdx Guard = G.rule(RI).Guard;
      for (NodeIdx I = G.sym(Guard).Next; I != Guard; I = G.sym(I).Next)
        if (!G.sym(G.sym(I).Next).isGuard()) {
          Occurrences.emplace_back(G.keyOf(I), I);
          DigramStarts.insert(I);
        }
    }
  std::sort(Occurrences.begin(), Occurrences.end(),
            [](const auto &A, const auto &B) {
              const DigramKey &KA = A.first, &KB = B.first;
              return std::tie(KA.V1, KA.V2, KA.Tags, A.second) <
                     std::tie(KB.V1, KB.V2, KB.Tags, B.second);
            });
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
  size_t NumDigrams = 0;
  for (size_t Begin = 0, End; Begin != Occurrences.size(); Begin = End) {
    const DigramKey &Key = Occurrences[Begin].first;
    for (End = Begin + 1;
         End != Occurrences.size() && Occurrences[End].first == Key; ++End)
      ;
    ++NumDigrams;
    for (size_t I = Begin; I != End; ++I)
      for (size_t J = I + 1; J != End; ++J) {
        NodeIdx P = Occurrences[I].second;
        NodeIdx Q = Occurrences[J].second;
        if (G.sym(P).Next != Q && G.sym(Q).Next != P)
          Report.fail("digram uniqueness violated: key " + KeyStr(Key) +
                      " occurs at two non-overlapping positions");
      }
    if (G.IndexReleased)
      continue;
    size_t Slot = G.Index.findSlot(Key, LiveKeys);
    if (Slot == DigramTable::Npos) {
      Report.fail("digram index desync: key " + KeyStr(Key) +
                  " occurs in the grammar but is not indexed");
      continue;
    }
    NodeIdx Canon = G.Index.nodeAt(Slot);
    bool IsOccurrence = false;
    for (size_t I = Begin; I != End; ++I)
      IsOccurrence |= Occurrences[I].second == Canon;
    Report.require(IsOccurrence, [&] {
      return "digram index desync: indexed occurrence of key " + KeyStr(Key) +
             " is not where the key occurs";
    });
  }
  // A released index holds nothing; it held one entry per distinct
  // digram, and each right twin it recorded is the right occurrence of
  // an overlapping run, so that a rebuild can name it again.
  if (StructureOk && G.IndexReleased) {
    Report.require(G.Index.size() == 0 && G.Index.capacity() == 0, [&] {
      return "released digram index still maps " +
             std::to_string(G.Index.capacity()) + " slots";
    });
    Report.require(G.ReleasedDigrams == NumDigrams, [&] {
      return "released digram index held " +
             std::to_string(G.ReleasedDigrams) +
             " entries but the grammar has " + std::to_string(NumDigrams) +
             " distinct digrams";
    });
    IndexSet Twins(G.FreshSymbol);
    for (NodeIdx A : G.RightTwins) {
      auto Twin = [A](const char *What) {
        return [A, What] {
          return "recorded right twin (symbol " + std::to_string(A) + ")" +
                 What;
        };
      };
      if (!Report.require(DigramStarts.count(A),
                          Twin(" is not a live digram start")))
        continue;
      Report.require(Twins.insert(A), Twin(" is recorded twice"));
      const NodeIdx P = G.sym(A).prev();
      Report.require(
          DigramStarts.count(P) && G.keyOf(P) == G.keyOf(A),
          Twin(" is not the right occurrence of an overlapping run"));
    }
  }
  Report.require(G.IndexReleased || G.RightTwins.empty(),
                 "a live digram index keeps recorded right twins");
  if (StructureOk && !G.IndexReleased) {
    G.Index.forEach([&](size_t Slot, NodeIdx I) {
      auto Entry = [&] {
        return "digram index desync: entry " + std::to_string(Slot) +
               " (symbol " + std::to_string(I) + ", home " +
               std::to_string(G.Index.homeOf(Slot)) + ")";
      };
      if (!Report.require(DigramStarts.count(I), [&] {
            return Entry() + " points outside the live grammar";
          }))
        return;
      DigramKey K = G.keyOf(I);
      if (!Report.require(G.Index.matchesHash(Slot, K), [&] {
            return Entry() + " points at a different digram " + KeyStr(K) +
                   " or is skewed: its home or extension bits disagree "
                   "with the key's hash";
          }))
        return;
      Report.require(G.Index.findSlot(K, LiveKeys) == Slot, [&] {
        return Entry() + " for " + KeyStr(K) +
               " is not reached by a lookup of its key";
      });
    });
    Report.require(G.Index.size() == NumDigrams, [&] {
      return "digram index holds " + std::to_string(G.Index.size()) +
             " entries but the grammar has " + std::to_string(NumDigrams) +
             " distinct digrams";
    });
  }

  // Expansion length over the rule DAG (memoized, so O(grammar) rather
  // than O(input)) must equal the number of appended terminals.
  constexpr uint64_t Unknown = ~uint64_t(0);
  std::vector<uint64_t> Lengths(G.FreshRule, Unknown);
  IndexSet Visiting(G.FreshRule);
  bool Cyclic = false;
  auto LengthOf = [&](auto &&Self, NodeIdx RI) -> uint64_t {
    if (Lengths[RI] != Unknown)
      return Lengths[RI];
    if (!Visiting.insert(RI)) {
      Cyclic = true;
      return 0;
    }
    uint64_t Len = 0;
    NodeIdx Guard = G.rule(RI).Guard;
    for (NodeIdx I = G.sym(Guard).Next; I != Guard; I = G.sym(I).Next)
      Len += G.sym(I).isNonTerminal() ? Self(Self, G.sym(I).ruleRef()) : 1;
    return Lengths[RI] = Len;
  };
  if (StructureOk) {
    uint64_t Expanded = LengthOf(LengthOf, G.Start);
    Report.require(!Cyclic, "rule DAG contains a reference cycle");
    Report.require(Expanded == G.InputLen, [&] {
      return "start rule expands to " + std::to_string(Expanded) +
             " terminals but InputLen is " + std::to_string(G.InputLen);
    });
  }

  return Report;
}

CheckReport GrammarValidator::validate(const GrammarImage &Image) {
  CheckReport Report;
  const auto Str = [](uint64_t V) { return std::to_string(V); };
  const sequitur::GrammarStats &Stats = Image.Stats;
  sequitur::ParsedImage Parsed;
  std::string Err;
  if (!Report.require(sequitur::parseImageChecked(Image.Bytes, Parsed, Err,
                                                  ~uint64_t(0)),
                      [&] { return "sealed image does not parse: " + Err; }))
    return Report;
  // The parse bounded every varint and reference, so the trusted decoder
  // may read the bodies.
  const ImageBodies Bodies = decodeImage(Image.Bytes);
  const std::vector<std::vector<uint64_t>> &Rules = Bodies.Rules;
  Report.require(Parsed.length() == Stats.InputLength, [&] {
    return "sealed image expands to " + Str(Parsed.length()) +
           " terminals but InputLen is " + Str(Stats.InputLength);
  });
  Report.require(Rules.size() == Stats.Rules, [&] {
    return "sealed image holds " + Str(Rules.size()) +
           " rules but the grammar reports " + Str(Stats.Rules);
  });

  // One pass over the bodies: symbols, uses per rule, and the positions
  // (rule, index) of every digram, keyed by its two codes.
  struct PairHash {
    size_t operator()(const std::pair<uint64_t, uint64_t> &K) const {
      return static_cast<size_t>(sequitur::avalanche64(
          K.first * 0x9e3779b97f4a7c15ULL ^ K.second));
    }
  };
  std::unordered_map<std::pair<uint64_t, uint64_t>,
                     std::vector<std::pair<size_t, size_t>>, PairHash>
      Digrams;
  std::vector<uint64_t> Uses(Rules.size(), 0);
  size_t BodySymbols = 0;
  for (size_t R = 0; R != Rules.size(); ++R) {
    const std::vector<uint64_t> &Codes = Rules[R];
    BodySymbols += Codes.size();
    for (size_t I = 0; I != Codes.size(); ++I) {
      if (Codes[I] & 1)
        ++Uses[Codes[I] >> 1];
      if (I + 1 != Codes.size())
        Digrams[{Codes[I], Codes[I + 1]}].emplace_back(R, I);
    }
    if (R != 0)
      Report.require(Codes.size() >= 2, [&] {
        return ruleName(R) + ": non-start body shorter than 2";
      });
  }
  Report.require(BodySymbols == Stats.BodySymbols, [&] {
    return "sealed image holds " + Str(BodySymbols) +
           " body symbols but the grammar reports " + Str(Stats.BodySymbols);
  });
  for (size_t R = 1; R != Rules.size(); ++R)
    Report.require(Uses[R] >= 2, [&] {
      return ruleName(R) + ": rule utility below 2 (" + Str(Uses[R]) +
             " uses)";
    });

  // Rules reachable from the start rule: all of them (serialize() emits
  // no other), so none can hide outside the parse's walk.
  std::vector<bool> Reached(Rules.size(), false);
  std::vector<size_t> Work{0};
  Reached[0] = true;
  size_t NumReached = 1;
  while (!Work.empty()) {
    const size_t R = Work.back();
    Work.pop_back();
    for (uint64_t Code : Rules[R])
      if ((Code & 1) && !Reached[Code >> 1]) {
        Reached[Code >> 1] = true;
        ++NumReached;
        Work.push_back(Code >> 1);
      }
  }
  Report.require(NumReached == Rules.size(), [&] {
    return Str(Rules.size() - NumReached) +
           " image rules are unreachable from the start rule";
  });

  // Digram uniqueness: two occurrences of one digram may only overlap
  // (the middle of a run like "aaa").
  for (const auto &[Key, Positions] : Digrams)
    for (size_t I = 0; I != Positions.size(); ++I)
      for (size_t J = I + 1; J != Positions.size(); ++J) {
        const auto [RA, A] = Positions[I];
        const auto [RB, B] = Positions[J];
        if (RA != RB || (A + 1 != B && B + 1 != A))
          Report.fail("digram uniqueness violated: codes (" + Str(Key.first) +
                      "," + Str(Key.second) +
                      ") occur at two non-overlapping positions");
      }
  Report.require(Digrams.size() == Stats.Digrams, [&] {
    return "sealed grammar reports " + Str(Stats.Digrams) +
           " digrams but its image has " + Str(Digrams.size()) +
           " distinct digrams";
  });
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
    I = R.UseXor;
  }
  for (NodeIdx I = G.RulePendingList; I != Nil; I = G.rule(I).UseXor) {
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

bool GrammarValidator::indexRightTwinForTest(SequiturGrammar &G) {
  using NodeIdx = SequiturGrammar::NodeIdx;
  if (G.IndexReleased)
    return false;
  bool Done = false;
  G.forEachBodyDigram([&](NodeIdx A) {
    if (Done || !G.isRightTwin(A))
      return;
    const NodeIdx Left = G.sym(A).prev();
    const size_t Slot = G.Index.findEntry(G.keyOf(Left), Left);
    if (Slot != sequitur::DigramTable::Npos) {
      G.Index.replaceNode(Slot, A);
      Done = true;
    }
  });
  return Done;
}

bool GrammarValidator::injectForTest(SequiturGrammar &G, Corruption K) {
  using Rule = SequiturGrammar::Rule;
  using NodeIdx = SequiturGrammar::NodeIdx;
  using Table = sequitur::DigramTable;
  constexpr NodeIdx Nil = SequiturGrammar::NilIdx;

  switch (K) {
  case Corruption::ReleasedTwinSkew: {
    if (!G.IndexReleased)
      return false;
    if (!G.RightTwins.empty()) {
      G.RightTwins[0] = G.sym(G.RightTwins[0]).prev();
      return true;
    }
    NodeIdx Forged = Nil;
    G.forEachBodyDigram([&](NodeIdx A) {
      if (Forged == Nil && !G.isRightTwin(A))
        Forged = A;
    });
    if (Forged == Nil)
      return false;
    G.RightTwins.push_back(Forged);
    return true;
  }
  case Corruption::DigramIndexDrop: {
    if (G.Index.size() == 0)
      return false;
    size_t First = Table::Npos;
    G.Index.forEach([&](size_t Slot, NodeIdx) {
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
    G.Index.forEach([&](size_t Slot, NodeIdx I) {
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
    // Should the insertion rebuild the index, Target reads as Key: the
    // corruption is the validator's to find, not the rebuild's.
    G.Index.insert(Key, Target, [&](NodeIdx I) {
      return I == Target ? Key : G.keyOf(I);
    });
    return true;
  }
  case Corruption::DigramDisplacementSkew: {
    // The first entry claims a home one slot off; the second, when there
    // is one, flips its lowest extension bit (a bit the table does not
    // hold as valid must be 0, so this is caught at any valid count).
    std::vector<size_t> Entries;
    G.Index.forEach([&](size_t Slot, NodeIdx) {
      if (Entries.size() < 2)
        Entries.push_back(Slot);
    });
    if (Entries.empty())
      return false;
    G.Index.Slots[Entries[0]].Tag ^= 0x001; // Displacement bit 0.
    if (Entries.size() == 2)
      G.Index.Slots[Entries[1]].Tag ^= 0x100; // Extension bit 0.
    return true;
  }
  case Corruption::DigramDuplicate: {
    // Relabel the second all-terminal digram as a copy of the first. The
    // expansion length and every use count stay as they were.
    std::vector<NodeIdx> Found;
    for (NodeIdx RI : G.reachableRules()) {
      if (Found.size() == 2)
        break;
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
    for (NodeIdx RI : G.reachableRules())
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
  case Corruption::NarrowValueInterned:
  case Corruption::WideCodePastTable: {
    // Recode the first narrow terminal: as a wide code for its own value
    // (so the value has two codes), or as a wide code one past the table.
    using Symbol = SequiturGrammar::Symbol;
    for (NodeIdx RI : G.reachableRules()) {
      NodeIdx Guard = G.rule(RI).Guard;
      for (NodeIdx I = G.sym(Guard).Next; I != Guard; I = G.sym(I).Next) {
        Symbol &S = G.sym(I);
        if (S.isRef() || S.Value >= Symbol::WideBit)
          continue;
        if (K == Corruption::NarrowValueInterned)
          G.WideValues.push_back(S.Value);
        S.Value = Symbol::WideBit |
                  static_cast<uint32_t>(G.WideValues.size() -
                                        (K == Corruption::NarrowValueInterned));
        return true;
      }
    }
    return false;
  }
  case Corruption::UnreachableLiveRule:
    // A fresh rule no body uses: live, counted, and unreachable.
    G.newRule();
    return true;
  }
  return false;
}

bool GrammarValidator::injectForTest(GrammarImage &Img, ImageCorruption K) {
  switch (K) {
  case ImageCorruption::DigramDuplicate: {
    // Relabel the second all-terminal digram of the image as a copy of
    // the first, away from it; lengths and use counts stay as they were.
    ImageBodies Image = decodeImage(Img.Bytes);
    std::vector<std::pair<size_t, size_t>> Found;
    for (size_t R = 0; R != Image.Rules.size() && Found.size() != 2; ++R) {
      const std::vector<uint64_t> &Body = Image.Rules[R];
      for (size_t I = 0; I + 1 < Body.size() && Found.size() != 2; ++I)
        if (!(Body[I] & 1) && !(Body[I + 1] & 1) &&
            (Found.empty() || R != Found[0].first || I > Found[0].second + 1))
          Found.emplace_back(R, I);
    }
    if (Found.size() != 2)
      return false;
    const auto [R0, I0] = Found[0];
    const auto [R1, I1] = Found[1];
    Image.Rules[R1][I1] = Image.Rules[R0][I0];
    Image.Rules[R1][I1 + 1] = Image.Rules[R0][I0 + 1];
    Img.Bytes = encodeImage(Image);
    return true;
  }
  case ImageCorruption::RuleUsedOnce: {
    // Inline every use of rule 1 but the first: the expansion is
    // unchanged, and rule 1 is referenced once.
    ImageBodies Image = decodeImage(Img.Bytes);
    if (Image.Rules.size() < 2)
      return false;
    const uint64_t Use = (uint64_t(1) << 1) | 1;
    const std::vector<uint64_t> Inlined = Image.Rules[1];
    bool Kept = false;
    for (std::vector<uint64_t> &Body : Image.Rules) {
      std::vector<uint64_t> Out;
      for (uint64_t Code : Body) {
        if (Code != Use || !Kept)
          Out.push_back(Code);
        else
          Out.insert(Out.end(), Inlined.begin(), Inlined.end());
        Kept |= Code == Use;
      }
      Body = std::move(Out);
    }
    Img.Bytes = encodeImage(Image);
    return true;
  }
  case ImageCorruption::RuleCountSkew:
    ++Img.Stats.Rules;
    return true;
  case ImageCorruption::LengthSkew:
    ++Img.Stats.InputLength;
    return true;
  case ImageCorruption::DigramCountSkew:
    ++Img.Stats.Digrams;
    return true;
  }
  return false;
}
