//===- tools/orp_analyze.cpp - Structural static analyzer -----------------===//
//
// Part of the ORP reproduction of "Exposing Memory Access Regularities
// Using Object-Relative Memory Profiling" (CGO 2004).
//
//===----------------------------------------------------------------------===//
//
// orp-analyze: the repository's lint wall. It tokenizes the tree,
// builds the include graph and a heuristic per-function call graph, and
// enforces the repository contracts the compiler cannot see. The Rules
// table near the end is the rule list (and what --list-rules prints):
//
//   layering             #include edges between src/ modules follow the
//                        declared layering DAG (ranks below), except
//                        the check<->omc / check<->sequitur seam.
//   unordered-serialize  no serialization function reaches, directly or
//                        through calls, a range-for over an unordered
//                        container: its order would leak into the bytes.
//   atomics              non-relaxed memory orderings only in the files
//                        that own a published happens-before edge.
//   raw-thread           std::thread/mutex/... only in src/support.
//   iostream             no #include <iostream> in src/.
//   raw-new-delete       no new/delete expressions (use a container or a
//                        unique_ptr); `= delete` is fine anywhere.
//   endian-io            a src/ or tools/ .cpp doing raw file I/O
//                        includes support/Endian.h (fixed-width fields
//                        go through its little-endian helpers).
//   no-asan-include      the ASan poisoning intrinsics only in
//                        src/check/Check.h (use check::poisonRegion).
//   log-sink             fprintf(stderr, ...) only in src/support;
//                        elsewhere support::logMessage.
//   static-counter       static atomics and initialized static integers
//                        only in src/support and src/telemetry;
//                        elsewhere register a telemetry metric.
//   raw-socket           socket/poll headers only in src/session and
//                        tools/, the daemon transport.
//
// Usage:
//   orp-analyze [--root=DIR] [--json] [--list-rules]
//
// Exit status: 0 clean, 1 findings, 2 usage/IO error. Findings print
// one per line as `orp-analyze: <rule>: <file>:<line>: <message>`, or
// as a JSON array with --json.
//
// Escapes sit next to the code they cover, with a reason:
//
//   // orp-analyze: allow(<rule>): reason
//
// on the flagged line or the line above; an endian-io escape anywhere
// in a file covers the whole file.
//
// The tool is dependency-free C++ over the standard library: it must
// build anywhere the repo builds, with no LLVM/clang libraries — and
// no orp libraries either, so it can never deadlock the lint wall
// against the code it checks.
//
// orp-analyze: allow(endian-io): reads text source files, no binary
// fields ever cross this tool's I/O.
//
//===----------------------------------------------------------------------===//

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

//===----------------------------------------------------------------------===//
// Findings
//===----------------------------------------------------------------------===//

struct Finding {
  std::string Rule;
  std::string File; // Root-relative path.
  size_t Line = 0;
  std::string Message;
};

std::vector<Finding> Findings;

void report(const std::string &Rule, const std::string &File, size_t Line,
            const std::string &Message) {
  Findings.push_back({Rule, File, Line, Message});
}

//===----------------------------------------------------------------------===//
// Source model: one file, comment/string-stripped with line fidelity
//===----------------------------------------------------------------------===//

/// Blanks comments and literal contents across \p Lines, preserving
/// line structure. Quotes of string literals are kept (as '"') so
/// tokenizers still see a literal token; contents become spaces.
std::vector<std::string> stripLines(const std::vector<std::string> &Lines) {
  std::vector<std::string> Out;
  Out.reserve(Lines.size());
  enum class St { Normal, Block, Str, Chr } S = St::Normal;
  for (const std::string &L : Lines) {
    std::string R(L.size(), ' ');
    for (size_t I = 0; I < L.size(); ++I) {
      char C = L[I];
      char N = I + 1 < L.size() ? L[I + 1] : '\0';
      switch (S) {
      case St::Normal:
        if (C == '/' && N == '/') {
          I = L.size(); // Rest of line is comment.
        } else if (C == '/' && N == '*') {
          S = St::Block;
          ++I;
        } else if (C == '"') {
          R[I] = '"';
          S = St::Str;
        } else if (C == '\'') {
          R[I] = '\'';
          S = St::Chr;
        } else {
          R[I] = C;
        }
        break;
      case St::Block:
        if (C == '*' && N == '/') {
          S = St::Normal;
          ++I;
        }
        break;
      case St::Str:
        if (C == '\\') {
          ++I;
        } else if (C == '"') {
          R[I] = '"';
          S = St::Normal;
        }
        break;
      case St::Chr:
        if (C == '\\') {
          ++I;
        } else if (C == '\'') {
          R[I] = '\'';
          S = St::Normal;
        }
        break;
      }
    }
    // Unterminated string states do not leak across lines (no raw
    // string literals in this tree; a lone quote would otherwise eat
    // the rest of the file).
    if (S == St::Str || S == St::Chr)
      S = St::Normal;
    Out.push_back(std::move(R));
  }
  return Out;
}

struct Token {
  enum class Kind { Ident, Punct, Literal } K = Kind::Punct;
  std::string Text;
  size_t Line = 0; // 1-based.
};

bool isIdentChar(char C) {
  return std::isalnum(static_cast<unsigned char>(C)) || C == '_';
}

std::vector<Token> tokenize(const std::vector<std::string> &Code) {
  std::vector<Token> Toks;
  for (size_t LN = 0; LN != Code.size(); ++LN) {
    const std::string &L = Code[LN];
    for (size_t I = 0; I != L.size();) {
      char C = L[I];
      if (std::isspace(static_cast<unsigned char>(C))) {
        ++I;
        continue;
      }
      if (isIdentChar(C)) {
        size_t J = I;
        while (J != L.size() && isIdentChar(L[J]))
          ++J;
        std::string T = L.substr(I, J - I);
        Toks.push_back({std::isdigit(static_cast<unsigned char>(C))
                            ? Token::Kind::Literal
                            : Token::Kind::Ident,
                        std::move(T), LN + 1});
        I = J;
        continue;
      }
      if (C == '"' || C == '\'') {
        Toks.push_back({Token::Kind::Literal, std::string(1, C), LN + 1});
        ++I;
        continue;
      }
      // Two-char puncts the scans care about ("::" must not look like
      // the range-for colon).
      if (I + 1 < L.size()) {
        char N = L[I + 1];
        if ((C == ':' && N == ':') || (C == '-' && N == '>') ||
            (C == '=' && N == '=')) {
          Toks.push_back({Token::Kind::Punct, L.substr(I, 2), LN + 1});
          I += 2;
          continue;
        }
      }
      Toks.push_back({Token::Kind::Punct, std::string(1, C), LN + 1});
      ++I;
    }
  }
  return Toks;
}

/// One scanned file. Raw holds the original lines (for allow() escapes
/// and diagnostics); Code holds the same lines with comments and
/// string/char literal *contents* blanked, so structural scans never
/// trip over text, and Toks is Code tokenized once for every pass.
/// Line numbering is identical between the three.
struct SourceFile {
  std::string Path;   ///< Root-relative, '/'-separated.
  std::string Module; ///< "support", "core", ... or "tools", "tests", ...
  std::vector<std::string> Raw;
  std::vector<std::string> Code;
  std::vector<Token> Toks;
};

std::string escapeFor(const char *Rule) {
  return std::string("orp-analyze: allow(") + Rule + ")";
}

/// True when line \p Line (1-based) of \p F carries an allow() escape
/// for \p Rule, on the line itself or the line above.
bool isAllowed(const SourceFile &F, size_t Line, const char *Rule) {
  const std::string Escape = escapeFor(Rule);
  auto lineHasEscape = [&](size_t N) {
    return N >= 1 && N <= F.Raw.size() &&
           F.Raw[N - 1].find(Escape) != std::string::npos;
  };
  return lineHasEscape(Line) || lineHasEscape(Line - 1);
}

/// The target of an #include directive on line \p LN (0-based) of \p F
/// with its delimiters ("<iostream>", "\"core/Types.h\""), or "" when
/// the line is no directive. The directive is found in Code, so an
/// #include inside a comment does not count; a quoted name is read
/// back from Raw, where it was not blanked.
std::string includeTarget(const SourceFile &F, size_t LN) {
  const std::string &C = F.Code[LN];
  size_t H = C.find_first_not_of(" \t");
  if (H == std::string::npos || C[H] != '#')
    return "";
  size_t Inc = C.find_first_not_of(" \t", H + 1);
  if (Inc == std::string::npos || C.compare(Inc, 7, "include") != 0)
    return "";
  size_t Open = C.find_first_of("<\"", Inc + 7);
  if (Open == std::string::npos)
    return "";
  size_t Close = C.find(C[Open] == '<' ? '>' : '"', Open + 1);
  if (Close == std::string::npos)
    return "";
  return F.Raw[LN].substr(Open, Close - Open + 1);
}

//===----------------------------------------------------------------------===//
// Rules
//===----------------------------------------------------------------------===//

struct Rule;
using Pass = void (*)(const Rule &, const std::vector<SourceFile> &);

/// One row of the Rules table. Scope and Sanctioned are root-relative
/// path prefixes: a rule covers a file when some Scope prefix matches
/// (an empty Scope is the whole tree) and no Sanctioned prefix does.
/// A row without a Run pass of its own is a confinement rule: checkConfined
/// reports every match of its Tokens pattern (see parsePattern) and
/// every #include of one of its '|'-separated Includes in a covered
/// file, as the matched text followed by Message.
struct Rule {
  const char *Name;
  std::vector<std::string> Scope = {};
  std::vector<std::string> Sanctioned = {};
  const char *Tokens = "";
  const char *Includes = "";
  const char *Message = "";
  Pass Run = nullptr;
};

bool covers(const Rule &R, const std::string &Path) {
  auto Under = [&](const std::vector<std::string> &Prefixes) {
    return std::any_of(Prefixes.begin(), Prefixes.end(),
                       [&](const std::string &P) {
                         return Path.rfind(P, 0) == 0;
                       });
  };
  return (R.Scope.empty() || Under(R.Scope)) && !Under(R.Sanctioned);
}

//===----------------------------------------------------------------------===//
// Module layering
//===----------------------------------------------------------------------===//

/// The declared layering DAG of src/ modules. An #include edge must go
/// strictly downward in rank; same-rank edges are legal only for the
/// allowlisted pairs below. Pseudo-modules (tools, tests, examples,
/// bench, fuzz) sit above everything and may include any src module.
const std::map<std::string, int> &moduleRanks() {
  static const std::map<std::string, int> Ranks = {
      {"support", 0},
      {"memsim", 1},
      {"telemetry", 1},
      {"lmad", 1},
      {"trace", 2},
      {"check", 3},
      {"omc", 3},
      {"sequitur", 3},
      {"traceio", 3},
      {"core", 4},
      {"workloads", 4},
      {"whomp", 5},
      {"leap", 5},
      {"analysis", 6},
      {"advisor", 7},
      {"baseline", 7},
      {"session", 7},
  };
  return Ranks;
}

/// Same-rank include pairs that are deliberate: the invariant
/// validators (src/check) reach into the structures they validate, and
/// those structures call back into check's poison/validate hooks.
bool isAllowlistedSeam(const std::string &A, const std::string &B) {
  auto Pair = [&](const char *X, const char *Y) {
    return (A == X && B == Y) || (A == Y && B == X);
  };
  return Pair("check", "omc") || Pair("check", "sequitur");
}

/// Extracts `#include "mod/Header.h"` module references with lines.
std::vector<std::pair<std::string, size_t>>
firstPartyIncludes(const SourceFile &F) {
  std::vector<std::pair<std::string, size_t>> Refs;
  for (size_t LN = 0; LN != F.Code.size(); ++LN) {
    std::string T = includeTarget(F, LN);
    size_t Slash = T.find('/');
    if (T.empty() || T[0] != '"' || Slash == std::string::npos)
      continue;
    Refs.emplace_back(T.substr(1, Slash - 1), LN + 1);
  }
  return Refs;
}

void checkLayering(const Rule &R, const std::vector<SourceFile> &Files) {
  const auto &Ranks = moduleRanks();
  // Module-level edge set (for cycle detection) with one witness line.
  std::map<std::pair<std::string, std::string>,
           std::pair<std::string, size_t>>
      Edges;
  for (const SourceFile &F : Files) {
    for (const auto &[Mod, Line] : firstPartyIncludes(F)) {
      auto It = Ranks.find(Mod);
      if (It == Ranks.end()) {
        // Only src/ is held to the module table; tools/tests/bench may
        // quote-include their own helpers (bench/common, gtest).
        if (covers(R, F.Path) && !isAllowed(F, Line, R.Name))
          report(R.Name, F.Path, Line,
                 "include of unknown module '" + Mod +
                     "' (not in the layering table; see "
                     "tools/orp_analyze.cpp moduleRanks())");
        continue;
      }
      if (!covers(R, F.Path))
        continue; // tools/tests/... sit above all src modules.
      int FromRank = Ranks.at(F.Module);
      int ToRank = It->second;
      if (Mod == F.Module)
        continue;
      Edges.emplace(std::make_pair(F.Module, Mod),
                    std::make_pair(F.Path, Line));
      if (isAllowlistedSeam(F.Module, Mod))
        continue;
      if (ToRank >= FromRank && !isAllowed(F, Line, R.Name))
        report(R.Name, F.Path, Line,
               "module '" + F.Module + "' (rank " +
                   std::to_string(FromRank) + ") may not include '" + Mod +
                   "' (rank " + std::to_string(ToRank) +
                   "): layering back-edge");
    }
  }
  // Cycle detection over the module graph minus the allowlisted seam:
  // belt to the rank check's braces, and the diagnostic that names the
  // loop when someone edits the table into an inconsistency.
  std::map<std::string, std::vector<std::string>> Adj;
  for (const auto &[Edge, Witness] : Edges) {
    (void)Witness;
    if (!isAllowlistedSeam(Edge.first, Edge.second))
      Adj[Edge.first].push_back(Edge.second);
  }
  std::map<std::string, int> Color; // 0 white, 1 grey, 2 black.
  std::vector<std::string> Stack;
  // Iterative DFS with a grey path for cycle reporting.
  std::function<void(const std::string &)> Dfs =
      [&](const std::string &U) {
        Color[U] = 1;
        Stack.push_back(U);
        for (const std::string &V : Adj[U]) {
          if (Color[V] == 1) {
            std::string Cycle = V;
            for (size_t I = Stack.size(); I-- > 0;) {
              Cycle += " -> " + Stack[I];
              if (Stack[I] == V)
                break;
            }
            auto W = Edges.at({U, V});
            report(R.Name, W.first, W.second,
                   "module include cycle: " + Cycle);
          } else if (Color[V] == 0) {
            Dfs(V);
          }
        }
        Stack.pop_back();
        Color[U] = 2;
      };
  for (const auto &Entry : Adj)
    if (Color[Entry.first] == 0)
      Dfs(Entry.first);
}

//===----------------------------------------------------------------------===//
// Function model: names, bodies, calls, unordered iterations
//===----------------------------------------------------------------------===//

struct Func {
  std::string Name;  ///< Unqualified name.
  std::string Qual;  ///< As written (maybe Class::name).
  size_t File = 0;   ///< Index into the file list.
  size_t Line = 0;   ///< Definition line.
  std::vector<std::string> Callees; ///< Unqualified callee names.
  size_t UnorderedIterLine = 0;     ///< First unsuppressed unordered
                                    ///< range-for (0 = none).
};

bool isKeyword(const std::string &T) {
  static const std::set<std::string> KW = {
      "if",     "for",      "while",   "switch",  "return", "sizeof",
      "catch",  "new",      "delete",  "alignof", "static", "case",
      "throw",  "else",     "do",      "default", "using",  "typedef",
      "struct", "class",    "enum",    "public",  "private", "protected",
      "const",  "noexcept", "decltype"};
  return KW.count(T) != 0;
}

/// Collects names declared as std::unordered_map/set variables or
/// members anywhere in \p F (whitespace-insensitive, multi-line safe):
/// `unordered_map< ...balanced... > Name`.
void collectUnorderedNames(const SourceFile &F,
                          std::set<std::string> &Names) {
  const std::vector<Token> &Toks = F.Toks;
  for (size_t I = 0; I != Toks.size(); ++I) {
    const std::string &T = Toks[I].Text;
    if (T != "unordered_map" && T != "unordered_set")
      continue;
    size_t J = I + 1;
    if (J == Toks.size() || Toks[J].Text != "<")
      continue;
    int Depth = 0;
    for (; J != Toks.size(); ++J) {
      if (Toks[J].Text == "<")
        ++Depth;
      else if (Toks[J].Text == ">") {
        if (--Depth == 0) {
          ++J;
          break;
        }
      }
    }
    // `> Name ;` / `> Name =` / `> Name {` is a variable or member.
    if (J < Toks.size() && Toks[J].K == Token::Kind::Ident &&
        !isKeyword(Toks[J].Text) && J + 1 < Toks.size() &&
        (Toks[J + 1].Text == ";" || Toks[J + 1].Text == "=" ||
         Toks[J + 1].Text == "{"))
      Names.insert(Toks[J].Text);
  }
}

/// Parses \p F's token stream into function definitions with their
/// callees and unordered range-for lines. Heuristic by design: it
/// recognizes `qualified-name ( params ) [stuff] {` as a definition
/// and any `identifier (` inside a body as a call.
void extractFunctions(const std::vector<SourceFile> &Files, size_t FileIdx,
                      const std::set<std::string> &UnorderedNames,
                      std::vector<Func> &Out) {
  const SourceFile &F = Files[FileIdx];
  const std::vector<Token> &Toks = F.Toks;

  // Find candidate definition heads: scan for '(' whose preceding
  // token is an identifier (possibly qualified); find its matching
  // ')'; if the next tokens reach '{' before ';', it is a definition.
  size_t I = 0;
  while (I != Toks.size()) {
    if (Toks[I].Text != "(" || I == 0 ||
        Toks[I - 1].K != Token::Kind::Ident ||
        isKeyword(Toks[I - 1].Text)) {
      ++I;
      continue;
    }
    // Match the parens.
    size_t J = I;
    int Depth = 0;
    for (; J != Toks.size(); ++J) {
      if (Toks[J].Text == "(")
        ++Depth;
      else if (Toks[J].Text == ")" && --Depth == 0)
        break;
    }
    if (J == Toks.size()) {
      ++I;
      continue;
    }
    // Skip trailing specifiers (const, noexcept(...), override,
    // attributes, ctor-initializers) until '{', ';' or something that
    // rules a definition out.
    size_t K = J + 1;
    bool IsDef = false;
    int Guard = 0;
    while (K < Toks.size() && Guard++ < 4096) {
      const std::string &T = Toks[K].Text;
      if (T == "{") {
        IsDef = true;
        break;
      }
      if (T == ";" || T == "=" || T == ",")
        break;
      if (T == "(" || T == ":") {
        // noexcept(...) / ctor-initializer: skip balanced parens and
        // initializer commas until the body brace.
        if (T == "(") {
          int D = 0;
          for (; K < Toks.size(); ++K) {
            if (Toks[K].Text == "(")
              ++D;
            else if (Toks[K].Text == ")" && --D == 0)
              break;
          }
        }
        if (K < Toks.size())
          ++K;
        continue;
      }
      ++K;
    }
    if (!IsDef) {
      I = J + 1;
      continue;
    }
    // Name: identifier before '(', with Class:: qualifiers folded in.
    std::string Name = Toks[I - 1].Text;
    std::string Qual = Name;
    for (size_t Q = I - 1; Q >= 2 && Toks[Q - 1].Text == "::"; Q -= 2)
      Qual = Toks[Q - 2].Text + "::" + Qual;

    Func Fn;
    Fn.Name = Name;
    Fn.Qual = Qual;
    Fn.File = FileIdx;
    Fn.Line = Toks[I].Line;

    // Walk the body.
    size_t B = K; // At '{'.
    int BDepth = 0;
    for (; B != Toks.size(); ++B) {
      const std::string &T = Toks[B].Text;
      if (T == "{") {
        ++BDepth;
        continue;
      }
      if (T == "}") {
        if (--BDepth == 0)
          break;
        continue;
      }
      // Call site: identifier '(' — skip keywords and declarations of
      // the form `Type Name(...)` are rare inside bodies; accept the
      // noise, the call graph is used as an over-approximation.
      if (Toks[B].K == Token::Kind::Ident && B + 1 != Toks.size() &&
          Toks[B + 1].Text == "(" && !isKeyword(T))
        Fn.Callees.push_back(T);
      // Range-for: `for ( ... : RangeExpr )` with the ':' at paren
      // depth 1.
      if (T == "for" && B + 1 != Toks.size() && Toks[B + 1].Text == "(") {
        size_t P = B + 1;
        int PD = 0;
        size_t ColonAt = 0;
        for (; P != Toks.size(); ++P) {
          if (Toks[P].Text == "(")
            ++PD;
          else if (Toks[P].Text == ")") {
            if (--PD == 0)
              break;
          } else if (Toks[P].Text == ":" && PD == 1 && !ColonAt) {
            ColonAt = P;
          }
        }
        if (ColonAt && P != Toks.size()) {
          bool Unordered = false;
          for (size_t E = ColonAt + 1; E != P; ++E) {
            const std::string &ET = Toks[E].Text;
            if (ET == "unordered_map" || ET == "unordered_set" ||
                (Toks[E].K == Token::Kind::Ident &&
                 UnorderedNames.count(ET)))
              Unordered = true;
          }
          size_t Line = Toks[B].Line;
          if (Unordered && !Fn.UnorderedIterLine &&
              !isAllowed(F, Line, "unordered-serialize"))
            Fn.UnorderedIterLine = Line;
        }
      }
    }
    Out.push_back(std::move(Fn));
    I = J + 1; // Nested definitions (lambdas) fold into the parent.
  }
}

/// The transitive unordered-into-serialization check. A "sink" is any
/// function whose name contains "serialize"/"encode" (the byte-stream
/// producers); from each sink, walk the call graph by callee name and
/// report any reachable function that iterates an unordered container.
void checkUnorderedSerialize(const Rule &R,
                             const std::vector<SourceFile> &Files) {
  // Unordered variable/member names are collected per module, so a
  // name like `Instrs` in leap does not taint an unrelated `Instrs`
  // in another subsystem.
  std::map<std::string, std::set<std::string>> ModuleUnordered;
  for (const SourceFile &F : Files)
    collectUnorderedNames(F, ModuleUnordered[F.Module]);

  std::vector<Func> Funcs;
  for (size_t I = 0; I != Files.size(); ++I)
    extractFunctions(Files, I, ModuleUnordered[Files[I].Module], Funcs);

  // Name -> function indices (cross-file resolution is by name; the
  // walk below restricts edges to the same module to keep the
  // over-approximation honest).
  std::map<std::string, std::vector<size_t>> ByName;
  for (size_t I = 0; I != Funcs.size(); ++I)
    ByName[Funcs[I].Name].push_back(I);

  auto isSink = [](const std::string &Name) {
    std::string L;
    for (char C : Name)
      L += static_cast<char>(std::tolower(static_cast<unsigned char>(C)));
    return L.find("serialize") != std::string::npos ||
           L.find("encode") != std::string::npos;
  };

  for (size_t S = 0; S != Funcs.size(); ++S) {
    if (!isSink(Funcs[S].Name))
      continue;
    // BFS from the sink through same-module call edges.
    std::vector<size_t> Queue = {S};
    std::map<size_t, size_t> Parent; // callee -> caller, for the path.
    std::set<size_t> Seen = {S};
    for (size_t Q = 0; Q != Queue.size() && Q < 4096; ++Q) {
      const Func &Fn = Funcs[Queue[Q]];
      if (Fn.UnorderedIterLine) {
        // Build the call path sink -> ... -> iterator.
        std::string Path = Fn.Qual;
        for (size_t P = Queue[Q]; Parent.count(P);) {
          P = Parent.at(P);
          Path = Funcs[P].Qual + " -> " + Path;
        }
        const SourceFile &IterFile = Files[Fn.File];
        const SourceFile &SinkFile = Files[Funcs[S].File];
        report(R.Name, SinkFile.Path, Funcs[S].Line,
               "serialization path iterates an unordered container at " +
                   IterFile.Path + ":" +
                   std::to_string(Fn.UnorderedIterLine) +
                   " (iteration order leaks into the byte stream; sort "
                   "first) [" +
                   Path + "]");
        break; // One finding per sink.
      }
      for (const std::string &Callee : Fn.Callees) {
        auto It = ByName.find(Callee);
        if (It == ByName.end())
          continue;
        for (size_t Next : It->second) {
          if (Files[Funcs[Next].File].Module != Files[Fn.File].Module)
            continue;
          if (Seen.insert(Next).second) {
            Parent[Next] = Queue[Q];
            Queue.push_back(Next);
          }
        }
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Atomics discipline
//===----------------------------------------------------------------------===//

void checkAtomics(const Rule &R, const std::vector<SourceFile> &Files) {
  static const char *const Orders[] = {
      "memory_order_acquire", "memory_order_release",
      "memory_order_acq_rel", "memory_order_seq_cst",
      "memory_order_consume"};
  for (const SourceFile &F : Files) {
    if (!covers(R, F.Path))
      continue;
    for (size_t LN = 0; LN != F.Code.size(); ++LN) {
      for (const char *O : Orders) {
        if (F.Code[LN].find(O) == std::string::npos)
          continue;
        if (!isAllowed(F, LN + 1, R.Name))
          report(R.Name, F.Path, LN + 1,
                 std::string("non-relaxed ordering '") + O +
                     "' outside the sanctioned set (publish through a "
                     "support queue, or sanction the file in "
                     "tools/orp_analyze.cpp)");
        break;
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Confinement: tokens or includes outside a path set
//===----------------------------------------------------------------------===//

/// One position of a token pattern: the token must be one of Alts
/// (`$id` is any identifier). Look is 0 for a consumed token, '!' (first
/// element only) for a token that must NOT precede the match, '?' (last
/// element only) for a token that must follow it; neither lookaround
/// token is part of the matched text.
struct PatElem {
  char Look = 0;
  bool AnyIdent = false; ///< Alts holds `$id`.
  std::vector<std::string> Alts;
};

std::vector<std::string> split(const std::string &S, char Sep) {
  std::vector<std::string> Out;
  for (size_t I = 0, J; I < S.size(); I = J + 1) {
    J = std::min(S.find(Sep, I), S.size());
    if (J != I)
      Out.push_back(S.substr(I, J - I));
  }
  return Out;
}

/// Parses "seq; seq; ..." where each seq is space-separated elements
/// of '|'-separated alternatives, optionally prefixed '!' or '?'.
std::vector<std::vector<PatElem>> parsePattern(const std::string &P) {
  std::vector<std::vector<PatElem>> Seqs;
  for (const std::string &Seq : split(P, ';')) {
    std::vector<PatElem> Elems;
    for (std::string E : split(Seq, ' ')) {
      PatElem Elem;
      if (E[0] == '!' || E[0] == '?') {
        Elem.Look = E[0];
        E.erase(0, 1);
      }
      Elem.Alts = split(E, '|');
      Elem.AnyIdent = std::count(Elem.Alts.begin(), Elem.Alts.end(), "$id");
      Elems.push_back(std::move(Elem));
    }
    if (!Elems.empty())
      Seqs.push_back(std::move(Elems));
  }
  return Seqs;
}

bool elemMatches(const PatElem &P, const Token &T) {
  return (P.AnyIdent && T.K == Token::Kind::Ident) ||
         std::find(P.Alts.begin(), P.Alts.end(), T.Text) != P.Alts.end();
}

/// True when \p Seq matches at Toks[I]; \p Text gets the matched tokens
/// as spelled (a space only between two words).
bool matchSeq(const std::vector<Token> &Toks, size_t I,
              const std::vector<PatElem> &Seq, std::string &Text) {
  size_t J = I;
  for (const PatElem &P : Seq) {
    if (P.Look == '!')
      continue;
    if (J == Toks.size() || !elemMatches(P, Toks[J]))
      return false;
    if (P.Look != '?')
      ++J;
  }
  if (Seq[0].Look == '!' && I != 0 && elemMatches(Seq[0], Toks[I - 1]))
    return false;
  Text.clear();
  for (size_t K = I; K != J; ++K) {
    if (!Text.empty() && isIdentChar(Text.back()) &&
        isIdentChar(Toks[K].Text[0]))
      Text += ' ';
    Text += Toks[K].Text;
  }
  return true;
}

bool matchAt(const std::vector<Token> &Toks, size_t I,
             const std::vector<std::vector<PatElem>> &Seqs, std::string &Text) {
  return std::any_of(Seqs.begin(), Seqs.end(), [&](const auto &Seq) {
    return matchSeq(Toks, I, Seq, Text);
  });
}

void checkConfined(const Rule &R, const std::vector<SourceFile> &Files) {
  const auto Seqs = parsePattern(R.Tokens);
  const auto Headers = split(R.Includes, '|');
  std::string Text;
  for (const SourceFile &F : Files) {
    if (!covers(R, F.Path))
      continue;
    auto Flag = [&](size_t Line, const std::string &What) {
      if (!isAllowed(F, Line, R.Name))
        report(R.Name, F.Path, Line, What + " " + R.Message);
    };
    for (size_t LN = 0; !Headers.empty() && LN != F.Code.size(); ++LN) {
      std::string H = includeTarget(F, LN);
      if (std::find(Headers.begin(), Headers.end(), H) != Headers.end())
        Flag(LN + 1, "#include " + H);
    }
    for (size_t I = 0; I != F.Toks.size(); ++I)
      if (matchAt(F.Toks, I, Seqs, Text))
        Flag(F.Toks[I].Line, Text);
  }
}

/// endian-io holds per file: a covered .cpp that matches the rule's
/// Tokens must include support/Endian.h or carry the escape anywhere.
/// The finding sits on the first I/O token.
void checkEndianIo(const Rule &R, const std::vector<SourceFile> &Files) {
  const auto Seqs = parsePattern(R.Tokens);
  const std::string Escape = escapeFor(R.Name);
  std::string Text;
  for (const SourceFile &F : Files) {
    if (!covers(R, F.Path) || !F.Path.ends_with(".cpp"))
      continue;
    bool Exempt = false;
    for (size_t LN = 0; LN != F.Raw.size() && !Exempt; ++LN)
      Exempt = includeTarget(F, LN) == "\"support/Endian.h\"" ||
               F.Raw[LN].find(Escape) != std::string::npos;
    for (size_t I = 0; !Exempt && I != F.Toks.size(); ++I) {
      if (matchAt(F.Toks, I, Seqs, Text)) {
        report(R.Name, F.Path, F.Toks[I].Line, Text + " " + R.Message);
        break;
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// The rule table
//===----------------------------------------------------------------------===//

/// Every rule, in --list-rules order.
const std::vector<Rule> Rules = {
    {.Name = "layering", .Scope = {"src/"}, .Run = checkLayering},
    {.Name = "unordered-serialize", .Run = checkUnorderedSerialize},
    // Each sanctioned file owns a documented happens-before edge
    // (DESIGN.md section 16).
    {.Name = "atomics",
     .Scope = {"src/"},
     .Sanctioned = {"src/support/", "src/telemetry/Registry.cpp",
                    "src/session/SessionManager.cpp"},
     .Run = checkAtomics},
    {.Name = "raw-thread",
     .Sanctioned = {"src/support/"},
     .Tokens = "std :: thread|jthread|mutex|recursive_mutex|shared_mutex|"
               "condition_variable|lock_guard|unique_lock|scoped_lock|"
               "shared_lock",
     .Message = "outside src/support (build on SpscQueue, QueueWorker or "
                "ScopedThread)"},
    {.Name = "iostream",
     .Scope = {"src/"},
     .Includes = "<iostream>",
     .Message = "is banned in src/ (use support/LogSink.h or "
                "support/TablePrinter.h)"},
    // `::new` (placement), `operator new` and `= delete;` are not
    // new/delete expressions.
    {.Name = "raw-new-delete",
     .Tokens = "!::|operator new|delete ?$id|(|[|*",
     .Message = "expression (use a container or a unique_ptr)"},
    {.Name = "endian-io",
     .Scope = {"src/", "tools/"},
     .Tokens = "fwrite|fread|ifstream|ofstream",
     .Message = "in a file without support/Endian.h (fixed-width fields "
                "go through its little-endian helpers)",
     .Run = checkEndianIo},
    {.Name = "no-asan-include",
     .Sanctioned = {"src/check/Check.h"},
     .Tokens = "__asan_poison_memory_region|__asan_unpoison_memory_region|"
               "__asan_address_is_poisoned",
     .Message = "outside src/check/Check.h (use check::poisonRegion)"},
    // bench/ and fuzz/ are standalone harnesses with their own stderr
    // conventions and counters.
    {.Name = "log-sink",
     .Scope = {"src/", "tools/", "examples/", "tests/"},
     .Sanctioned = {"src/support/"},
     .Tokens = "fprintf ( stderr",
     .Message = "...) outside src/support (use support::logMessage)"},
    {.Name = "static-counter",
     .Scope = {"src/", "tools/", "examples/", "tests/"},
     .Sanctioned = {"src/support/", "src/telemetry/"},
     .Tokens = "static std :: atomic ?<; "
               "static uint64_t|uint32_t|int64_t|unsigned|size_t|int|long "
               "$id ?=|{",
     .Message = "outside src/support and src/telemetry (register a "
                "telemetry::Counter or publish through a snapshot "
                "collector)"},
    {.Name = "raw-socket",
     .Sanctioned = {"src/session/", "tools/"},
     .Includes = "<sys/socket.h>|<sys/un.h>|<poll.h>",
     .Message = "outside src/session and tools/ (the daemon transport is "
                "the one network surface)"},
};

//===----------------------------------------------------------------------===//
// Driver
//===----------------------------------------------------------------------===//

std::vector<SourceFile> loadTree(const fs::path &Root, bool &IoError) {
  std::vector<SourceFile> Files;
  static const char *const TopDirs[] = {"src",      "tools", "tests",
                                        "examples", "bench", "fuzz"};
  for (const char *Top : TopDirs) {
    fs::path Dir = Root / Top;
    std::error_code Ec;
    if (!fs::is_directory(Dir, Ec))
      continue;
    for (fs::recursive_directory_iterator It(Dir, Ec), End;
         It != End && !Ec; It.increment(Ec)) {
      if (It->is_directory()) {
        // Seeded-violation fixtures are a separate analysis root.
        if (It->path().filename() == "analysis_fixtures")
          It.disable_recursion_pending();
        continue;
      }
      fs::path P = It->path();
      std::string Ext = P.extension().string();
      if (Ext != ".h" && Ext != ".cpp")
        continue;
      SourceFile F;
      F.Path = fs::relative(P, Root, Ec).generic_string();
      F.Module = F.Path.rfind("src/", 0) == 0
                     ? F.Path.substr(4, F.Path.find('/', 4) - 4)
                     : Top;
      std::ifstream In(P);
      if (!In) {
        // orp-analyze: allow(log-sink): standalone tool, links no orp libs.
        std::fprintf(stderr, "orp-analyze: cannot read %s\n",
                     F.Path.c_str());
        IoError = true;
        continue;
      }
      std::string Line;
      while (std::getline(In, Line))
        F.Raw.push_back(Line);
      F.Code = stripLines(F.Raw);
      F.Toks = tokenize(F.Code);
      Files.push_back(std::move(F));
    }
  }
  std::sort(Files.begin(), Files.end(),
            [](const SourceFile &A, const SourceFile &B) {
              return A.Path < B.Path;
            });
  return Files;
}

std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
  return Out;
}

int usage() {
  // orp-analyze: allow(log-sink): standalone tool, links no orp libs.
  std::fprintf(stderr,
               "usage: orp-analyze [--root=DIR] [--json] [--list-rules]\n"
               "\n"
               "Checks the ORP tree against the repository rules that\n"
               "--list-rules names (see tools/orp_analyze.cpp).\n");
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  std::string RootArg = ".";
  bool Json = false;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg.rfind("--root=", 0) == 0) {
      RootArg = Arg.substr(7);
    } else if (Arg == "--json") {
      Json = true;
    } else if (Arg == "--list-rules") {
      for (const Rule &R : Rules)
        std::printf("%s\n", R.Name);
      return 0;
    } else {
      return usage();
    }
  }

  fs::path Root(RootArg);
  std::error_code Ec;
  if (!fs::is_directory(Root / "src", Ec)) {
    // Convenience: when launched from a build dir, walk up to the
    // first parent that looks like the repo root.
    fs::path Probe = fs::absolute(Root, Ec);
    while (!Probe.empty() && Probe.has_parent_path()) {
      if (fs::is_directory(Probe / "src", Ec)) {
        Root = Probe;
        break;
      }
      if (Probe == Probe.parent_path())
        break;
      Probe = Probe.parent_path();
    }
  }
  if (!fs::is_directory(Root / "src", Ec)) {
    // orp-analyze: allow(log-sink): standalone tool, links no orp libs.
    std::fprintf(stderr, "orp-analyze: no src/ under --root=%s\n",
                 RootArg.c_str());
    return 2;
  }

  bool IoError = false;
  std::vector<SourceFile> Files = loadTree(Root, IoError);
  if (IoError)
    return 2;

  for (const Rule &R : Rules)
    (R.Run ? R.Run : checkConfined)(R, Files);

  std::sort(Findings.begin(), Findings.end(),
            [](const Finding &A, const Finding &B) {
              if (A.File != B.File)
                return A.File < B.File;
              if (A.Line != B.Line)
                return A.Line < B.Line;
              return A.Rule < B.Rule;
            });

  if (Json) {
    std::printf("[");
    for (size_t I = 0; I != Findings.size(); ++I) {
      const Finding &F = Findings[I];
      std::printf("%s\n  {\"rule\": \"%s\", \"file\": \"%s\", "
                  "\"line\": %zu, \"message\": \"%s\"}",
                  I ? "," : "", jsonEscape(F.Rule).c_str(),
                  jsonEscape(F.File).c_str(), F.Line,
                  jsonEscape(F.Message).c_str());
    }
    std::printf("%s]\n", Findings.empty() ? "" : "\n");
  } else {
    for (const Finding &F : Findings)
      std::printf("orp-analyze: %s: %s:%zu: %s\n", F.Rule.c_str(),
                  F.File.c_str(), F.Line, F.Message.c_str());
    if (Findings.empty())
      std::printf("orp-analyze: %zu files, all rules clean\n",
                  Files.size());
  }
  return Findings.empty() ? 0 : 1;
}
