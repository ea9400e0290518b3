//===- check/CheckReport.h - Structured validator findings -----*- C++ -*-===//
//
// Part of the ORP reproduction of "Exposing Memory Access Regularities
// Using Object-Relative Memory Profiling" (CGO 2004).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The result type shared by the deep validators (GrammarValidator,
/// OmcValidator). Validators never abort: they collect every violation
/// they can see into a CheckReport, so tests can assert that a
/// deliberately-injected corruption is caught, and the level-2 hot-path
/// hooks can abort with the full list in one diagnostic.
///
//===----------------------------------------------------------------------===//

#ifndef ORP_CHECK_CHECKREPORT_H
#define ORP_CHECK_CHECKREPORT_H

#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace orp {
namespace check {

/// Accumulates invariant violations found by one validator pass.
class CheckReport {
public:
  /// Records one violation.
  void fail(std::string What) { Failures.push_back(std::move(What)); }

  /// Records one violation when \p Cond is false; returns \p Cond so
  /// callers can chain dependent checks. \p What is the message, or a
  /// callable that builds it, so that a passing check builds no string.
  template <typename MessageT> bool require(bool Cond, MessageT &&What) {
    if (!Cond) [[unlikely]] {
      if constexpr (std::is_invocable_v<MessageT>)
        fail(What());
      else
        fail(std::string(std::forward<MessageT>(What)));
    }
    return Cond;
  }

  /// True when no violation was recorded.
  bool ok() const { return Failures.empty(); }

  /// All recorded violations, in discovery order.
  const std::vector<std::string> &failures() const { return Failures; }

  /// Renders every failure on its own line (empty string when ok()).
  std::string str() const {
    std::string Out;
    for (const std::string &F : Failures) {
      Out += F;
      Out += '\n';
    }
    return Out;
  }

private:
  std::vector<std::string> Failures;
};

} // namespace check
} // namespace orp

#endif // ORP_CHECK_CHECKREPORT_H
