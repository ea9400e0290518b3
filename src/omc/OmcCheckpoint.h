//===- omc/OmcCheckpoint.h - OMC state snapshot/restore --------*- C++ -*-===//
//
// Part of the ORP reproduction of "Exposing Memory Access Regularities
// Using Object-Relative Memory Profiling" (CGO 2004).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Serializes an ObjectManager's authoritative state — object records,
/// group/site tables, serial counters, pool parameters and the live
/// interval set — so a replay can stop at a block boundary and resume
/// later (or elsewhere) with identical translations. Only authoritative
/// state is stored: the translation caches restart cold without
/// affecting any result, the live index is rebuilt from the live
/// records, and the stats counters restart at zero for the new segment.
///
/// The byte image is deterministic (unordered maps are emitted in
/// sorted order) and self-describing enough to be validated on restore:
/// group references, serial monotonicity and live-interval disjointness
/// are all checked, so a corrupt checkpoint fails loudly instead of
/// producing silently wrong translations.
///
//===----------------------------------------------------------------------===//

#ifndef ORP_OMC_OMCCHECKPOINT_H
#define ORP_OMC_OMCCHECKPOINT_H

#include "omc/ObjectManager.h"

#include <cstdint>
#include <string>
#include <vector>

namespace orp {
namespace omc {

/// Snapshot/restore of an ObjectManager (friend of the class).
class OmcCheckpoint {
public:
  /// Appends the serialized state of \p Omc to \p Out (LEB128 section,
  /// no header of its own — the embedding artifact provides framing and
  /// checksumming).
  static void serialize(const ObjectManager &Omc, std::vector<uint8_t> &Out);

  /// Restores a snapshot into \p Omc, which must be freshly constructed
  /// (no allocations seen). Reads from \p Data starting at \p Pos and
  /// advances \p Pos past the section. Returns false with a diagnostic
  /// in \p Err on malformed or inconsistent input; \p Omc is left in an
  /// unspecified but safe state on failure and must be discarded.
  [[nodiscard]] static bool restore(const uint8_t *Data, size_t Size,
                                    size_t &Pos, ObjectManager &Omc,
                                    std::string &Err);
};

} // namespace omc
} // namespace orp

#endif // ORP_OMC_OMCCHECKPOINT_H
