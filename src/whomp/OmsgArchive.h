//===- whomp/OmsgArchive.h - Detached OMSG profiles ------------*- C++ -*-===//
//
// Part of the ORP reproduction of "Exposing Memory Access Regularities
// Using Object-Relative Memory Profiling" (CGO 2004).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A WHOMP profile as a standalone artifact. Per Section 2.3, "the
/// profiler can also output the object lifetime and other auxiliary
/// information from the OMC unit. This run- and alloc-dependent
/// information is separated from the invariant object-relative tuples"
/// — so the archive has two parts: the invariant OMSG (four dimension
/// grammars) and an optional auxiliary table of object lifetimes. The
/// grammars stay compressed: the archive holds their validated images,
/// and consumers read the dimension streams through cursors.
///
//===----------------------------------------------------------------------===//

#ifndef ORP_WHOMP_OMSGARCHIVE_H
#define ORP_WHOMP_OMSGARCHIVE_H

#include "omc/ObjectManager.h"
#include "sequitur/Sequitur.h"
#include "whomp/Whomp.h"

#include <cstdint>
#include <string>
#include <vector>

namespace orp {
namespace whomp {

/// One auxiliary object-lifetime row.
struct ObjectAux {
  omc::GroupId Group;
  omc::ObjectSerial Serial;
  uint64_t Size;
  uint64_t AllocTime;
  uint64_t FreeTime; ///< ObjectManager::kLiveForever when never freed.

  bool operator==(const ObjectAux &O) const {
    return Group == O.Group && Serial == O.Serial && Size == O.Size &&
           AllocTime == O.AllocTime && FreeTime == O.FreeTime;
  }
};

/// A parsed (or freshly built) OMSG archive.
class OmsgArchive {
public:
  /// Builds the invariant part from a finished \p Profiler by parsing
  /// each dimension's grammar image (WhompProfiler::imageFor). When
  /// \p Omc is given, the auxiliary lifetime table is included (base
  /// addresses — the run-dependent raw data — are deliberately NOT
  /// stored).
  static OmsgArchive build(const WhompProfiler &Profiler,
                           const omc::ObjectManager *Omc = nullptr);

  /// Archive magic ("OMSA") and current format version.
  static constexpr uint8_t kMagic[4] = {'O', 'M', 'S', 'A'};
  static constexpr uint8_t kFormatVersion = 1;

  /// Serializes the archive: a fixed header (magic, version, explicit
  /// little-endian u32 payload CRC-32 — byte order is pinned so archives
  /// are portable across hosts) followed by the ULEB128-framed grammar
  /// images and aux rows.
  std::vector<uint8_t> serialize() const;

  /// Parses a serialize()d image. Returns false (with a diagnostic in
  /// \p Err) on any malformed input — bad magic, version, checksum,
  /// truncation, or grammar images that fail
  /// sequitur::parseImageChecked — and never reads out of bounds:
  /// archive files are untrusted input. Nothing is expanded.
  [[nodiscard]] static bool deserialize(const std::vector<uint8_t> &Bytes,
                                        OmsgArchive &Out, std::string &Err);

  /// Concatenates the archives of consecutive trace segments into the
  /// archive of the unsplit run: the dimension streams join in order and
  /// recompress through fresh grammars (Sequitur is a deterministic
  /// streaming algorithm, so this reproduces the unsplit grammars byte
  /// for byte), and the auxiliary table is taken from the last segment,
  /// whose checkpointed OMC saw every object. Fails when the segments'
  /// dimension counts disagree.
  [[nodiscard]] static bool
  mergeSequential(const std::vector<const OmsgArchive *> &Segments,
                  OmsgArchive &Out, std::string &Err);

  /// Number of dimension grammars; those WHOMP builds are in
  /// (instr, group, object, offset) order.
  size_t numDimensions() const { return Images.size(); }

  /// Per-dimension grammar images (what Figure 5 sizes), validated.
  const std::vector<sequitur::ParsedImage> &grammarImages() const {
    return Images;
  }

  /// Pull cursor over dimension \p D's stream. Cursors over several
  /// dimensions walk the tuple stream in lockstep; the archive must
  /// outlive them.
  sequitur::ImageCursor cursor(size_t D) const {
    return sequitur::ImageCursor(Images[D]);
  }

  /// Materializes dimension \p D's stream, for tests and tools that want
  /// a vector; the profiling path walks cursor() instead.
  std::vector<uint64_t> expandDimension(size_t D) const {
    return Images[D].expand();
  }

  /// Auxiliary object rows (empty when built without an OMC).
  const std::vector<ObjectAux> &objects() const { return Aux; }

  /// Number of recorded accesses (length of every dimension stream).
  uint64_t accessCount() const {
    return Images.empty() ? 0 : Images.front().length();
  }

  /// Equal when every dimension expands to the same stream and the aux
  /// tables match (compared through cursors, never materialized).
  bool operator==(const OmsgArchive &O) const;

private:
  /// One validated image per dimension: exactly what serialize() writes,
  /// never the expanded streams.
  std::vector<sequitur::ParsedImage> Images;
  std::vector<ObjectAux> Aux;
};

} // namespace whomp
} // namespace orp

#endif // ORP_WHOMP_OMSGARCHIVE_H
