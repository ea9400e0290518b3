//===- check/OmcValidator.h - Deep OMC validation --------------*- C++ -*-===//
//
// Part of the ORP reproduction of "Exposing Memory Access Regularities
// Using Object-Relative Memory Profiling" (CGO 2004).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deep structural validator for the object-management component — the
/// OMC half of the level-2 invariant framework (see check/Check.h). As a
/// friend of ObjectManager it audits what the public interface cannot
/// see:
///
///   * the live index's intervals are non-empty and pairwise disjoint;
///   * every index entry resolves to a live record whose base matches
///     its key, and every live record is indexed exactly once;
///   * per-group object serials are strictly monotonic in allocation
///     order and consistent with the NextSerial counters;
///   * the site<->group maps form a bijection;
///   * the shared one-entry translation cache and every occupied
///     per-instruction MRU line agree with an authoritative index lookup;
///   * pool bookkeeping is parallel to the records array.
///
/// The validator never aborts: violations accumulate in a CheckReport.
/// It also ships fault injectors (injectForTest) so the negative tests
/// can prove that a corruption of each class is actually caught.
///
//===----------------------------------------------------------------------===//

#ifndef ORP_CHECK_OMCVALIDATOR_H
#define ORP_CHECK_OMCVALIDATOR_H

#include "check/CheckReport.h"
#include "omc/ObjectManager.h"

namespace orp {
namespace check {

/// Friend-of-ObjectManager deep checker. Stateless; every entry point is
/// a static function.
class OmcValidator {
public:
  /// Runs every structural and cache-coherence check and returns the
  /// collected violations.
  static CheckReport validate(const omc::ObjectManager &M);

  /// Classes of deliberate corruption for negative tests.
  enum class Corruption {
    SharedCacheStale, ///< Shared cache serves a range no object covers.
    InstrCacheStale,  ///< An MRU line serves a range no object covers.
    SerialRegression, ///< A later object repeats an earlier serial.
  };

  /// Injects \p K into \p M. Returns false when the manager holds too
  /// little state to host that corruption (caller should grow it first).
  static bool injectForTest(omc::ObjectManager &M, Corruption K);
};

} // namespace check
} // namespace orp

#endif // ORP_CHECK_OMCVALIDATOR_H
