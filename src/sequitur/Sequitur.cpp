//===- sequitur/Sequitur.cpp - Linear-time Sequitur compression ----------===//

#include "sequitur/Sequitur.h"

#include "check/Check.h"
#include "sequitur/SequiturNodes.h"
#include "support/Error.h"
#include "support/VarInt.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <string>

using namespace orp;
using namespace orp::sequitur;

//===----------------------------------------------------------------------===//
// Slab arena
//===----------------------------------------------------------------------===//

// The small node helpers of the append path are forced inline: a call
// hands over bare indices, so the callee would resolve again through the
// slab table what its caller has just resolved.
#define ORP_SEQ_INLINE [[gnu::always_inline]]

namespace {
/// Node indices stay below 2^31 (bit 31 of a link is a tag): an arena
/// refuses the slab that would hold index 2^31.
constexpr uint64_t kIndexSpace = uint64_t(1) << 31;

/// Decodes a symbol code that parseImageChecked already validated.
[[gnu::always_inline]] inline uint64_t decodeValidated(const uint8_t *Data,
                                                       size_t &Pos) {
  uint64_t Code = 0;
  for (unsigned Shift = 0;; Shift += 7) {
    uint8_t B = Data[Pos++];
    Code |= static_cast<uint64_t>(B & 0x7f) << Shift;
    if (!(B & 0x80))
      return Code;
  }
}
} // namespace

ORP_SEQ_INLINE SequiturGrammar::NodeIdx SequiturGrammar::allocSymbol() {
  NodeIdx I;
  if (SymbolFreeList != NilIdx) {
    // Free-list nodes are ASan-poisoned; reopen this one before touching
    // its chain link.
    I = SymbolFreeList;
    check::unpoisonRegion(&sym(I), sizeof(Symbol));
    SymbolFreeList = sym(I).Next;
  } else {
    if ((FreshSymbol >> SymbolSlabShift) == SymbolSlabs.size()) {
      if (SymbolSlabs.size() == kIndexSpace / SymbolsPerSlab)
        ORP_FATAL_ERROR("sequitur arena: symbol index space (2^31) exhausted");
      SymbolSlabs.push_back(
          std::make_unique_for_overwrite<Symbol[]>(SymbolsPerSlab));
      // A fresh slab is born poisoned past the bump cursor: reads ahead
      // of allocation are as illegal as reads after reclamation.
      check::poisonRegion(SymbolSlabs.back().get(),
                          sizeof(Symbol) * SymbolsPerSlab);
    }
    I = static_cast<NodeIdx>(FreshSymbol++);
    check::unpoisonRegion(&sym(I), sizeof(Symbol));
  }
  sym(I) = Symbol{};
  ++NumLiveSymbols;
  return I;
}

ORP_SEQ_INLINE void SequiturGrammar::releaseSymbol(NodeIdx I) {
  Symbol &S = sym(I);
  ORP_CHECK1(S.live(), "sequitur arena: symbol double release");
  S.Value = Symbol::ReleasedTag;
  S.PrevTag = Symbol::RefBit;
  --NumLiveSymbols;
  S.Next = SymbolPendingList;
  SymbolPendingList = I;
}

SequiturGrammar::NodeIdx SequiturGrammar::allocRule() {
  NodeIdx I;
  if (RuleFreeList != NilIdx) {
    I = RuleFreeList;
    check::unpoisonRegion(&rule(I), sizeof(Rule));
    RuleFreeList = rule(I).UseXor;
  } else {
    if ((FreshRule >> RuleSlabShift) == RuleSlabs.size()) {
      if (RuleSlabs.size() == kIndexSpace / RulesPerSlab)
        ORP_FATAL_ERROR("sequitur arena: rule index space (2^31) exhausted");
      RuleSlabs.push_back(std::make_unique_for_overwrite<Rule[]>(RulesPerSlab));
      check::poisonRegion(RuleSlabs.back().get(), sizeof(Rule) * RulesPerSlab);
    }
    I = static_cast<NodeIdx>(FreshRule++);
    check::unpoisonRegion(&rule(I), sizeof(Rule));
  }
  rule(I) = Rule{};
  return I;
}

void SequiturGrammar::releaseRule(NodeIdx I) {
  Rule &R = rule(I);
  ORP_CHECK1(R.live(), "sequitur arena: rule double release");
  R.Guard = NilIdx;
  R.UseXor = RulePendingList;
  RulePendingList = I;
}

void SequiturGrammar::reclaimPending() {
  // Pending nodes were readable for the duration of the last append
  // cascade (the sanctioned stale-index dead-check window). Moving to
  // the free list ends that window, so poison them now.
  while (SymbolPendingList != NilIdx) {
    NodeIdx I = SymbolPendingList;
    Symbol &S = sym(I);
    SymbolPendingList = S.Next;
    S.Next = SymbolFreeList;
    SymbolFreeList = I;
    check::poisonRegion(&S, sizeof(Symbol));
  }
  while (RulePendingList != NilIdx) {
    NodeIdx I = RulePendingList;
    Rule &R = rule(I);
    RulePendingList = R.UseXor;
    R.UseXor = RuleFreeList;
    RuleFreeList = I;
    check::poisonRegion(&R, sizeof(Rule));
  }
}

void SequiturGrammar::releaseArena() {
  for (const auto &Slab : SymbolSlabs)
    check::unpoisonRegion(Slab.get(), sizeof(Symbol) * SymbolsPerSlab);
  for (const auto &Slab : RuleSlabs)
    check::unpoisonRegion(Slab.get(), sizeof(Rule) * RulesPerSlab);
  std::vector<std::unique_ptr<Symbol[]>>().swap(SymbolSlabs);
  std::vector<std::unique_ptr<Rule[]>>().swap(RuleSlabs);
  FreshSymbol = FreshRule = 1;
  SymbolFreeList = SymbolPendingList = NilIdx;
  RuleFreeList = RulePendingList = NilIdx;
  Start = NilIdx;
}

//===----------------------------------------------------------------------===//
// Terminal codes
//===----------------------------------------------------------------------===//

ORP_SEQ_INLINE uint32_t SequiturGrammar::codeOf(uint64_t Value) {
  if (Value < Symbol::WideBit) [[likely]]
    return static_cast<uint32_t>(Value);
  return internWide(Value);
}

uint32_t SequiturGrammar::internWide(uint64_t Value) {
  if (Value >> 63)
    ORP_FATAL_ERROR("sequitur: terminal of 2^63 or more (the image "
                    "encoding holds 63 bits)");
  // Grow at load 1/2, so a probe walk always ends at an empty slot.
  if ((WideValues.size() + 1) * 2 > WideSlots.size()) {
    std::vector<uint32_t> Old = std::move(WideSlots);
    WideSlots.assign(std::max<size_t>(16, Old.size() * 2), 0);
    for (uint32_t Slot : Old)
      if (Slot != 0)
        WideSlots[wideSlotOf(WideValues[Slot - 1])] = Slot;
  }
  uint32_t &Slot = WideSlots[wideSlotOf(Value)];
  if (Slot == 0) {
    // Wide terminals are distinct symbols, so their count stays below
    // the symbol index space (2^31) and an index fits beside WideBit.
    WideValues.push_back(Value);
    Slot = static_cast<uint32_t>(WideValues.size());
  }
  return Symbol::WideBit | (Slot - 1);
}

size_t SequiturGrammar::wideSlotOf(uint64_t Value) const {
  const size_t Mask = WideSlots.size() - 1;
  size_t I = avalanche64(Value) & Mask;
  while (WideSlots[I] != 0 && WideValues[WideSlots[I] - 1] != Value)
    I = (I + 1) & Mask;
  return I;
}

bool SequiturGrammar::wideSetConsistent() const {
  // Checked in this order, so that every lookup below reads only table
  // entries and finds an empty slot to stop at.
  size_t Indexed = 0;
  for (uint32_t Slot : WideSlots) {
    if (Slot > WideValues.size())
      return false;
    Indexed += Slot != 0;
  }
  if (Indexed != WideValues.size() || Indexed * 2 > WideSlots.size())
    return false;
  for (size_t W = 0; W != WideValues.size(); ++W)
    if (WideSlots[wideSlotOf(WideValues[W])] != W + 1)
      return false;
  return true;
}

ORP_SEQ_INLINE uint64_t SequiturGrammar::terminalOf(const Symbol &S) const {
  return S.Value < Symbol::WideBit ? S.Value
                                   : WideValues[S.Value & ~Symbol::WideBit];
}

//===----------------------------------------------------------------------===//
// Node lifecycle
//===----------------------------------------------------------------------===//

SequiturGrammar::SequiturGrammar() { Start = newRule(); }

// Nodes are trivially destructible; dropping the slabs releases
// everything (live, pending and free alike).
SequiturGrammar::~SequiturGrammar() { releaseArena(); }

ORP_SEQ_INLINE SequiturGrammar::NodeIdx
SequiturGrammar::newTerminal(uint32_t Code) {
  NodeIdx I = allocSymbol();
  sym(I).Value = Code;
  return I;
}

ORP_SEQ_INLINE SequiturGrammar::NodeIdx
SequiturGrammar::newNonTerminal(NodeIdx RI) {
  NodeIdx I = allocSymbol();
  Symbol &S = sym(I);
  Rule &R = rule(RI);
  S.Value = RI;
  S.PrevTag = Symbol::RefBit;
  R.UseXor ^= I;
  ++R.UseCount;
  return I;
}

ORP_SEQ_INLINE void SequiturGrammar::destroySymbol(NodeIdx I) {
  Symbol &S = sym(I);
  ORP_CHECK1(!S.isGuard(), "guards are destroyed with their rule");
  if (S.isNonTerminal()) {
    Rule &R = rule(S.ruleRef());
    R.UseXor ^= I;
    --R.UseCount;
    if (R.UseCount <= 1 && S.ruleRef() != Start)
      MaybeUnderused.push_back(S.ruleRef());
  }
  releaseSymbol(I);
}

SequiturGrammar::NodeIdx SequiturGrammar::newRule() {
  NodeIdx RI = allocRule();
  NodeIdx GI = allocSymbol();
  Rule &R = rule(RI);
  Symbol &G = sym(GI);
  R.Guard = GI;
  G.Value = Symbol::GuardTag | RI;
  G.Next = GI;
  G.PrevTag = GI | Symbol::RefBit;
  ++NumLiveRules;
  return RI;
}

void SequiturGrammar::destroyRule(NodeIdx RI) {
  Rule &R = rule(RI);
  ORP_CHECK1(RI != Start, "cannot destroy the start rule");
  ORP_CHECK1(R.UseCount == 0 && R.UseXor == NilIdx,
             "destroying a rule in use");
  --NumLiveRules;
  releaseSymbol(R.Guard);
  releaseRule(RI);
}

//===----------------------------------------------------------------------===//
// Digram index maintenance
//===----------------------------------------------------------------------===//

ORP_SEQ_INLINE void SequiturGrammar::link(NodeIdx A, NodeIdx B) {
  sym(A).Next = B;
  sym(B).setPrev(A);
}

ORP_SEQ_INLINE void SequiturGrammar::removeDigramAt(NodeIdx A) {
  if (A == NilIdx)
    return;
  const Symbol &SA = sym(A);
  if (SA.isGuard() || SA.Next == NilIdx || sym(SA.Next).isGuard())
    return;
  // Only A's own entry is erased: when another occurrence is the
  // indexed one, A has no entry and findEntry() finds nothing.
  size_t Slot = Index.findEntry(keyOf(A), A);
  if (Slot != DigramTable::Npos)
    Index.eraseSlot(Slot);
}

//===----------------------------------------------------------------------===//
// Core algorithm
//===----------------------------------------------------------------------===//

void SequiturGrammar::append(uint64_t Value) {
  if (IndexReleased) [[unlikely]]
    rebuildIndex();
  // No references into the grammar are held across appends, so nodes
  // freed during the previous append are now safe to recycle.
  reclaimPending();
  NodeIdx S = newTerminal(codeOf(Value));
  NodeIdx Guard = rule(Start).Guard;
  NodeIdx Tail = sym(Guard).prev();
  link(Tail, S);
  link(S, Guard);
  if (!sym(Tail).isGuard())
    checkDigram(Tail);
  ++InputLen;
  repairUtility();
}

void SequiturGrammar::appendAll(const std::vector<uint64_t> &Values) {
  for (uint64_t V : Values)
    append(V);
}

GrammarStats SequiturGrammar::stats() const {
  return {.InputLength = InputLen,
          .Rules = NumLiveRules,
          .BodySymbols = totalBodySymbols(),
          .Digrams = numDigrams(),
          .IndexSlots = indexSlots(),
          .SymbolSlabs = SymbolSlabs.size(),
          .RuleSlabs = RuleSlabs.size(),
          .Work = Counters};
}

GrammarImage SequiturGrammar::seal() && {
  // Counted before anything goes (a released index was counted when it
  // went); its twins are not needed.
  const GrammarStats Stats = stats();
  Index.release();
  std::vector<NodeIdx>().swap(RightTwins);
  std::vector<NodeIdx>().swap(MaybeUnderused);
  std::vector<uint32_t>().swap(WideSlots);
  // The one serialization, kept with the capacity it grew to.
  std::vector<uint8_t> Bytes = serialize();
  releaseArena();
  std::vector<uint64_t>().swap(WideValues);
  return GrammarImage(std::move(Bytes), Stats);
}

bool SequiturGrammar::isRightTwin(NodeIdx A) const {
  const NodeIdx P = sym(A).prev();
  return !sym(P).isGuard() && keyOf(P) == keyOf(A);
}

void SequiturGrammar::releaseIndex() {
  if (IndexReleased)
    return;
  // A run holds one digram twice, and the index names one of the two:
  // record the runs whose entry names the right occurrence. Appending
  // never leaves a longer run (its outer digrams would not overlap).
  forEachBodyDigram([&](NodeIdx A) {
    if (isRightTwin(A) && Index.findEntry(keyOf(A), A) != DigramTable::Npos)
      RightTwins.push_back(A);
  });
  ReleasedDigrams = Index.size();
  ReleasedIndexSlots = Index.capacity();
  Index.release();
  IndexReleased = true;
}

void SequiturGrammar::rebuildIndex() {
  if (!IndexReleased)
    return;
  if (ReleasedIndexSlots != 0)
    Index.reserve(ReleasedIndexSlots);
  // Left to right, so each run's left occurrence is the one inserted.
  const IndexKeys Keys = indexKeys();
  forEachBodyDigram(
      [&](NodeIdx A) { (void)Index.findOrInsert(keyOf(A), A, Keys); });
  for (NodeIdx A : RightTwins) {
    const size_t Slot = Index.findEntry(keyOf(A), sym(A).prev());
    if (Slot == DigramTable::Npos)
      ORP_FATAL_ERROR("sequitur: a recorded right twin is not the right "
                      "occurrence of an indexed run");
    Index.replaceNode(Slot, A);
  }
  if (Index.size() != ReleasedDigrams)
    ORP_FATAL_ERROR("sequitur: the rebuilt digram index differs in size "
                    "from the released one");
  std::vector<NodeIdx>().swap(RightTwins);
  IndexReleased = false;
}

bool SequiturGrammar::checkDigram(NodeIdx A) {
  ++Counters.DigramChecks;
  NodeIdx B = sym(A).Next;
  if (sym(A).isGuard() || sym(B).isGuard())
    return false;
  size_t Slot = Index.findOrInsert(keyOf(A), A, indexKeys());
  if (Slot == DigramTable::Npos) // Newly indexed at A.
    return false;
  NodeIdx M = Index.nodeAt(Slot);
  if (M == A)
    return false;
  // Overlapping occurrences (e.g. the middle of "aaa") never substitute.
  if (sym(M).Next == A || B == M)
    return false;
  processMatch(A, M);
  return true;
}

void SequiturGrammar::processMatch(NodeIdx A, NodeIdx M) {
  ++Counters.Matches;
  const Symbol &SM = sym(M);
  if (sym(SM.prev()).isGuard() && sym(sym(SM.Next).Next).isGuard()) {
    // The indexed occurrence is a complete rule body: reuse that rule.
    substituteDigram(A, sym(SM.prev()).ruleRef());
    return;
  }

  // Otherwise create a new rule from copies of the digram. The copies
  // are taken from A before any substitution can destroy it.
  NodeIdx R = newRule();
  ++Counters.RulesCreated;
  auto CopyOf = [&](NodeIdx S) {
    return sym(S).isNonTerminal() ? newNonTerminal(sym(S).ruleRef())
                                  : newTerminal(sym(S).Value);
  };
  NodeIdx C1 = CopyOf(A);
  NodeIdx C2 = CopyOf(sym(A).Next);
  NodeIdx Guard = rule(R).Guard;
  link(Guard, C1);
  link(C1, C2);
  link(C2, Guard);

  substituteDigram(M, R);
  // Substituting at M can cascade through the grammar; only substitute
  // the second occurrence if it survived with its digram intact. (When it
  // did not, R may be left under-used, which repairUtility() then fixes.)
  if (sym(A).live() && !sym(sym(A).Next).isGuard() &&
      keyOf(A) == keyOf(sym(Guard).Next))
    substituteDigram(A, R);
  // Index the rule body as the canonical occurrence of its digram. The
  // substitution cascades above may have created (and indexed) fresh
  // occurrences of the same digram elsewhere; fold every such occurrence
  // into R first, or digram uniqueness would be silently violated.
  while (rule(R).live() && !sym(sym(Guard).Next).isGuard() &&
         !sym(sym(sym(Guard).Next).Next).isGuard()) {
    NodeIdx Body = sym(Guard).Next;
    size_t Slot = Index.findOrInsert(keyOf(Body), Body, indexKeys());
    if (Slot == DigramTable::Npos) // Newly indexed at Body.
      break;
    NodeIdx Other = Index.nodeAt(Slot);
    if (Other == Body)
      break;
    substituteDigram(Other, R);
  }
  // A freshly created rule that gained only one use (second substitution
  // skipped) must be queued for utility repair: it was never decremented,
  // so destroySymbol() has not queued it.
  if (rule(R).live() && rule(R).UseCount <= 1)
    MaybeUnderused.push_back(R);
}

void SequiturGrammar::substituteDigram(NodeIdx First, NodeIdx R) {
  NodeIdx Second = sym(First).Next;
  ORP_CHECK1(!sym(First).isGuard() && !sym(Second).isGuard(),
             "substituting a guard");
  NodeIdx Prev = sym(First).prev();
  NodeIdx Next = sym(Second).Next;
  bool PrevIsGuard = sym(Prev).isGuard();
  NodeIdx PrevPrev = PrevIsGuard ? NilIdx : sym(Prev).prev();

  if (!PrevIsGuard)
    removeDigramAt(Prev);
  removeDigramAt(First);
  removeDigramAt(Second);

  destroySymbol(First);
  destroySymbol(Second);

  NodeIdx Use = newNonTerminal(R);
  link(Prev, Use);
  link(Use, Next);

  // Re-establish digram uniqueness on both new junctions. If the left
  // junction substituted, Use is gone and the cascade already covered
  // the neighborhood.
  if (!checkDigram(Prev) && sym(Use).live())
    checkDigram(Use);

  // Twin repair. In a run of one repeated symbol ("aaa"-style) only one
  // of the overlapping digram occurrences is indexed; the removals above
  // may have dropped exactly that canonical occurrence while an
  // overlapping twin just outside the replaced region survived. Re-check
  // the surviving neighbors so the twin is re-indexed (or folded into an
  // existing rule).
  if (Next != NilIdx && sym(Next).live())
    checkDigram(Next);
  if (PrevPrev != NilIdx && sym(PrevPrev).live())
    checkDigram(PrevPrev);
}

void SequiturGrammar::expandSingleUse(NodeIdx RI) {
  const Rule &R = rule(RI);
  ORP_CHECK1(R.UseCount == 1, "not a single-use rule");
  ++Counters.RulesInlined;
  NodeIdx Use = R.UseXor; // The XOR of a single use is that use.
  NodeIdx Prev = sym(Use).prev();
  NodeIdx Next = sym(Use).Next;
  NodeIdx First = sym(R.Guard).Next;
  NodeIdx Last = sym(R.Guard).prev();
  assert(First != R.Guard && "expanding an empty rule");

  removeDigramAt(Prev);
  removeDigramAt(Use);

  // Splice the body in place of the use.
  link(Prev, First);
  link(Last, Next);
  destroySymbol(Use); // Drops UseCount to 0.
  destroyRule(RI);

  // Check the two junction digrams; the body's interior digrams keep
  // their existing index entries (the symbols were moved, not copied).
  checkDigram(Prev);
  if (sym(Last).live())
    checkDigram(Last);
}

void SequiturGrammar::repairUtility() {
  while (!MaybeUnderused.empty()) {
    NodeIdx RI = MaybeUnderused.back();
    MaybeUnderused.pop_back();
    const Rule &R = rule(RI);
    if (!R.live())
      continue;
    if (R.UseCount == 1) {
      expandSingleUse(RI);
    } else if (R.UseCount == 0) {
      // Defensive: an unreferenced rule's body is garbage; drop it.
      NodeIdx S = sym(R.Guard).Next;
      while (S != R.Guard) {
        NodeIdx Next = sym(S).Next;
        removeDigramAt(S);
        destroySymbol(S);
        S = Next;
      }
      destroyRule(RI);
    }
  }
}

//===----------------------------------------------------------------------===//
// Inspection, expansion, serialization
//===----------------------------------------------------------------------===//

std::vector<SequiturGrammar::NodeIdx>
SequiturGrammar::reachableRules(std::vector<uint64_t> *DenseIds) const {
  constexpr uint64_t Unseen = ~uint64_t(0);
  std::vector<uint64_t> Local;
  std::vector<uint64_t> &Ids = DenseIds ? *DenseIds : Local;
  Ids.assign(static_cast<size_t>(FreshRule), Unseen);
  std::vector<NodeIdx> Order;
  Order.push_back(Start);
  Ids[Start] = 0;
  for (size_t I = 0; I != Order.size(); ++I) {
    NodeIdx Guard = rule(Order[I]).Guard;
    for (NodeIdx S = sym(Guard).Next; S != Guard; S = sym(S).Next) {
      const Symbol &Sym = sym(S);
      if (Sym.isNonTerminal() && Ids[Sym.ruleRef()] == Unseen) {
        Ids[Sym.ruleRef()] = Order.size();
        Order.push_back(Sym.ruleRef());
      }
    }
  }
  return Order;
}

std::vector<uint64_t> SequiturGrammar::expandAll() const {
  std::vector<uint64_t> Out;
  Out.reserve(InputLen);
  // Iterative expansion: the stack holds the next symbol to visit per
  // nesting level.
  std::vector<NodeIdx> Stack;
  Stack.push_back(sym(rule(Start).Guard).Next);
  while (!Stack.empty()) {
    const Symbol &S = sym(Stack.back());
    if (S.isGuard()) {
      Stack.pop_back();
      continue;
    }
    Stack.back() = S.Next;
    if (S.isNonTerminal())
      Stack.push_back(sym(rule(S.ruleRef()).Guard).Next);
    else
      Out.push_back(terminalOf(S));
  }
  return Out;
}

template <typename EmitFn>
void SequiturGrammar::forEachImageCode(EmitFn &&Emit) const {
  std::vector<uint64_t> Ids;
  std::vector<NodeIdx> Order = reachableRules(&Ids);
  Emit(Order.size());
  Emit(InputLen);
  // Symbol encoding per rule: (terminal << 1) or (ruleIndex << 1 | 1).
  for (NodeIdx R : Order) {
    NodeIdx Guard = rule(R).Guard;
    size_t BodyLen = 0;
    for (NodeIdx S = sym(Guard).Next; S != Guard; S = sym(S).Next)
      ++BodyLen;
    Emit(BodyLen);
    for (NodeIdx I = sym(Guard).Next; I != Guard; I = sym(I).Next) {
      const Symbol &S = sym(I);
      // append() refused terminals of 2^63 or more, so the shift
      // keeps every bit.
      if (S.isNonTerminal())
        Emit((Ids[S.ruleRef()] << 1) | 1);
      else
        Emit(terminalOf(S) << 1);
    }
  }
}

std::vector<uint8_t> SequiturGrammar::serialize() const {
  std::vector<uint8_t> Out;
  forEachImageCode([&](uint64_t V) { encodeULEB128(V, Out); });
  return Out;
}

size_t SequiturGrammar::serializedSizeBytes() const {
  size_t Size = 0;
  forEachImageCode([&](uint64_t V) { Size += sizeULEB128(V); });
  return Size;
}

bool orp::sequitur::parseImageChecked(std::vector<uint8_t> Bytes,
                                     ParsedImage &Out, std::string &Err,
                                     uint64_t MaxTerminals) {
  Out = ParsedImage();
  const uint8_t *Data = Bytes.data();
  const size_t Size = Bytes.size();
  size_t Pos = 0;
  auto ReadU = [&](const char *What, uint64_t &Value) {
    VarIntStatus S = decodeULEB128Fast(Data, Size, Pos, Value);
    if (S != VarIntStatus::Ok) {
      Err = std::string("sequitur image: ") + What + ": " +
            varIntStatusName(S) + " varint";
      return false;
    }
    return true;
  };
  auto Fail = [&](std::string Msg) {
    Err = "sequitur image: " + std::move(Msg);
    return false;
  };
  uint64_t NumRules = 0, ExpectLen = 0;
  if (!ReadU("rule count", NumRules) || !ReadU("input length", ExpectLen))
    return false;
  if (NumRules == 0)
    return Fail("no rules");
  // Every rule needs at least its body-length byte, so a rule count past
  // the remaining bytes is corruption — and would otherwise size the
  // Rules table from attacker-chosen input.
  if (NumRules > Size - Pos + 1)
    return Fail("rule count exceeds remaining bytes");
  if (ExpectLen > MaxTerminals)
    return Fail("declared expansion of " + std::to_string(ExpectLen) +
                " terminals exceeds the cap of " +
                std::to_string(MaxTerminals));
  std::vector<ParsedImage::Rule> Rules(NumRules);
  for (ParsedImage::Rule &Rule : Rules) {
    uint64_t BodyLen = 0, Code = 0;
    if (!ReadU("body length", BodyLen))
      return false;
    if (BodyLen > Size - Pos) // Each symbol is at least one byte.
      return Fail("body length exceeds remaining bytes");
    Rule.Symbols.Begin = Pos;
    for (uint64_t I = 0; I != BodyLen; ++I)
      if (!ReadU("symbol", Code))
        return false;
    Rule.Symbols.End = Pos;
  }
  if (Pos != Size)
    return Fail("trailing bytes");

  // Counting walk of the expansion, one step per loop turn, with a step
  // budget: a well-formed grammar expands in O(ExpectLen) steps (every
  // rule body has two or more symbols), so blowing the budget means
  // degenerate empty-body chains rather than slow legitimate input. Once
  // a rule's expansion has completed, its step count, length and nesting
  // height are known, and a later use skips the rule whenever none of
  // the checks could fire inside it — so the walk costs the grammar's
  // size, yet every diagnostic is the one a step-by-step walk reports.
  struct Summary {
    uint64_t Steps = 0, Len = 0, Height = 0;
    bool Known = false;
  };
  struct Frame {
    uint64_t Rule;
    ParsedImage::Body Rest;
    uint64_t StepsBase, LenBase, Height;
  };
  std::vector<Summary> Sums(NumRules);
  std::vector<uint64_t> Finished; ///< Rules in completion order.
  const uint64_t MaxSteps = 64 + 4 * ExpectLen + 4 * NumRules;
  uint64_t Steps = 0, Len = 0;
  std::vector<Frame> Stack;
  Stack.push_back(Frame{0, Rules[0].Symbols, 0, 0, 0});
  while (!Stack.empty()) {
    if (++Steps > MaxSteps)
      return Fail("expansion exceeds its step budget");
    Frame &Top = Stack.back();
    if (Top.Rest.Begin == Top.Rest.End) {
      Sums[Top.Rule] = Summary{Steps - Top.StepsBase, Len - Top.LenBase,
                               Top.Height, true};
      Finished.push_back(Top.Rule);
      uint64_t Height = Top.Height;
      Stack.pop_back();
      if (!Stack.empty())
        Stack.back().Height = std::max(Stack.back().Height, Height + 1);
      continue;
    }
    uint64_t Code = decodeValidated(Data, Top.Rest.Begin);
    if (!(Code & 1)) {
      if (Len == ExpectLen)
        return Fail("expansion exceeds declared length");
      ++Len;
      continue;
    }
    uint64_t Ref = Code >> 1;
    if (Ref >= NumRules)
      return Fail("rule reference out of range");
    if (Stack.size() >= NumRules)
      return Fail("cyclic rule references");
    // Inside Ref, frames are pushed at stack sizes Stack.size() + 1 up to
    // Stack.size() + Height; the cycle check fires at NumRules.
    const Summary &S = Sums[Ref];
    if (S.Known && S.Steps <= MaxSteps - Steps && S.Len <= ExpectLen - Len &&
        S.Height < NumRules - Stack.size()) {
      Steps += S.Steps;
      Len += S.Len;
      Top.Height = std::max(Top.Height, S.Height + 1);
      continue;
    }
    Stack.push_back(Frame{Ref, Rules[Ref].Symbols, Steps, Len, 0});
  }
  if (Len != ExpectLen)
    return Fail("deserialized length mismatch");

  // Cache short expansions, children before parents (completion order).
  std::vector<uint64_t> &Cache = Out.ShortExpansions;
  for (uint64_t R : Finished) {
    uint64_t RuleLen = Sums[R].Len;
    if (RuleLen == 0 || RuleLen > ParsedImage::kShortRule ||
        RuleLen > ExpectLen - Cache.size())
      continue;
    size_t At = Cache.size();
    for (size_t P = Rules[R].Symbols.Begin; P != Rules[R].Symbols.End;) {
      uint64_t Code = decodeValidated(Data, P);
      if (!(Code & 1)) {
        Cache.push_back(Code >> 1);
        continue;
      }
      uint64_t Child = Rules[Code >> 1].Short;
      if (Child == 0 && Sums[Code >> 1].Len != 0) // Not cached: the cap.
        break;
      for (uint64_t K = Child >> 5, E = K + (Child & 31); K != E; ++K)
        Cache.push_back(Cache[K]);
    }
    if (Cache.size() - At == RuleLen)
      Rules[R].Short = (uint64_t(At) << 5) | RuleLen;
    else
      Cache.resize(At);
  }
  Out.Bytes = std::move(Bytes);
  Out.Rules = std::move(Rules);
  Out.Length = ExpectLen;
  Out.MaxDepth = Sums[0].Height + 1;
  return true;
}

ImageCursor::ImageCursor(const ParsedImage &Image)
    : Image(&Image), Left(Image.Length) {
  if (Left == 0)
    return;
  Stack.resize(Image.MaxDepth);
  Stack[0] = Image.Rules[0].Symbols;
  Depth = 1;
}

void ImageCursor::refill() {
  const uint8_t *Data = Image->Bytes.data();
  const ParsedImage::Rule *Rules = Image->Rules.data();
  const uint64_t *Cache = Image->ShortExpansions.data();
  ParsedImage::Body *Bottom = Stack.data();
  ParsedImage::Body *Top = Bottom + Depth - 1;
  unsigned Want = static_cast<unsigned>(std::min<uint64_t>(Left, kChunk));
  unsigned I = 0;
  // The parse proved the expansion is exactly Length terminals and at
  // most MaxDepth frames deep, so the stack bound is never checked. The
  // top frame is kept non-empty: finished bodies are popped as soon as
  // their last symbol is read, and a rule used as the last symbol of a
  // body replaces that body's frame instead of nesting under it. A cached
  // rule may overshoot Want by less than kShortRule terminals.
  while (I < Want) {
    uint64_t Code = decodeValidated(Data, Top->Begin);
    if (!(Code & 1)) {
      Buffer[I++] = Code >> 1;
    } else if (uint64_t Short = Rules[Code >> 1].Short) {
      const uint64_t *From = Cache + (Short >> 5);
      for (unsigned K = 0, N = Short & 31; K != N; ++K)
        Buffer[I++] = From[K];
    } else if (Top->Begin == Top->End) {
      *Top = Rules[Code >> 1].Symbols;
    } else {
      *++Top = Rules[Code >> 1].Symbols;
    }
    while (Top->Begin == Top->End && Top != Bottom)
      --Top;
  }
  Depth = static_cast<size_t>(Top - Bottom) + 1;
  Left -= I;
  Head = 0;
  Tail = I;
}

std::vector<uint64_t> ParsedImage::expand() const {
  std::vector<uint64_t> Out;
  Out.reserve(Length);
  for (ImageCursor C(*this); !C.done();)
    Out.push_back(C.next());
  return Out;
}

bool orp::sequitur::sameExpansion(const ParsedImage &A, const ParsedImage &B) {
  if (A.length() != B.length())
    return false;
  for (ImageCursor CA(A), CB(B); !CA.done();)
    if (CA.next() != CB.next())
      return false;
  return true;
}

bool orp::sequitur::deserializeAndExpandChecked(const uint8_t *Data,
                                               size_t Size,
                                               std::vector<uint64_t> &Out,
                                               std::string &Err,
                                               uint64_t MaxTerminals) {
  Out.clear();
  ParsedImage Image;
  if (!parseImageChecked(std::vector<uint8_t>(Data, Data + Size), Image, Err,
                         MaxTerminals))
    return false;
  Out = Image.expand();
  return true;
}

ParsedImage GrammarImage::parse() const {
  ParsedImage Parsed;
  std::string Err;
  if (!parseImageChecked(Bytes, Parsed, Err, ~uint64_t(0)))
    ORP_FATAL_ERROR(Err.c_str());
  return Parsed;
}

std::vector<uint64_t> GrammarImage::expandAll() const {
  return parse().expand();
}

std::string GrammarImage::dump() const { return parse().dump(); }

std::vector<RuleStats> GrammarImage::ruleStats(size_t PrefixCap) const {
  return parse().ruleStats(PrefixCap);
}

template <typename VisitFn>
void ParsedImage::forEachCode(size_t R, VisitFn &&Visit) const {
  for (size_t Pos = Rules[R].Symbols.Begin; Pos != Rules[R].Symbols.End;)
    Visit(decodeValidated(Bytes.data(), Pos));
}

std::string ParsedImage::dump() const {
  std::string Out;
  char Buf[64];
  for (size_t R = 0; R != Rules.size(); ++R) {
    std::snprintf(Buf, sizeof(Buf), "R%llu ->",
                  static_cast<unsigned long long>(R));
    Out += Buf;
    // A code is (rule id << 1 | 1) or (terminal << 1).
    forEachCode(R, [&](uint64_t Code) {
      std::snprintf(Buf, sizeof(Buf), (Code & 1) ? " R%llu" : " %llu",
                    static_cast<unsigned long long>(Code >> 1));
      Out += Buf;
    });
    Out += '\n';
  }
  return Out;
}

std::vector<RuleStats> ParsedImage::ruleStats(size_t PrefixCap) const {
  const size_t N = Rules.size();

  // Expanded lengths, memoized over the rule DAG (the parse proved it
  // acyclic), and the rules in completion order: children first.
  std::vector<uint64_t> Expanded(N, 0);
  std::vector<bool> Done(N, false);
  std::vector<size_t> Finished;
  Finished.reserve(N);
  auto LengthOf = [&](auto &&Self, size_t R) -> uint64_t {
    if (Done[R])
      return Expanded[R];
    uint64_t Len = 0;
    forEachCode(R, [&](uint64_t Code) {
      Len += (Code & 1) ? Self(Self, Code >> 1) : 1;
    });
    Expanded[R] = Len;
    Done[R] = true;
    Finished.push_back(R);
    return Len;
  };
  for (size_t R = 0; R != N; ++R)
    LengthOf(LengthOf, R);

  // Occurrence counts: the start rule occurs once, and every use inside
  // a rule P adds P's count. Parents before children (reverse completion
  // order), so each count is final before it is passed on.
  std::vector<uint64_t> Count(N, 0);
  Count[0] = 1;
  for (auto It = Finished.rbegin(); It != Finished.rend(); ++It)
    forEachCode(*It, [&](uint64_t Code) {
      if (Code & 1)
        Count[Code >> 1] += Count[*It];
    });

  std::vector<RuleStats> Stats;
  Stats.reserve(N);
  std::vector<Body> Stack;
  for (size_t R = 0; R != N; ++R) {
    RuleStats RS;
    RS.Id = R;
    RS.ExpandedLength = Expanded[R];
    RS.Occurrences = Count[R];
    RS.BodyLength = 0;
    forEachCode(R, [&](uint64_t) { ++RS.BodyLength; });
    // Expand the rule's terminal prefix iteratively, up to the cap.
    Stack.assign(1, Rules[R].Symbols);
    while (!Stack.empty() && RS.Prefix.size() < PrefixCap) {
      Body &Top = Stack.back();
      if (Top.Begin == Top.End) {
        Stack.pop_back();
        continue;
      }
      uint64_t Code = decodeValidated(Bytes.data(), Top.Begin);
      if (Code & 1)
        Stack.push_back(Rules[Code >> 1].Symbols);
      else
        RS.Prefix.push_back(Code >> 1);
    }
    Stats.push_back(std::move(RS));
  }
  return Stats;
}
