//===- traceio/TraceWriter.h - Streaming .orpt trace recorder --*- C++ -*-===//
//
// Part of the ORP reproduction of "Exposing Memory Access Regularities
// Using Object-Relative Memory Profiling" (CGO 2004).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A TraceSink that records the probe event stream to a .orpt file.
/// Attach to any ProfilingSession with addRawSink(); events are
/// delta+LEB128 encoded into blocks and streamed to disk as blocks fill,
/// each payload bare while its length, event count and CRC-32 are kept
/// for the block table. close() (or onFinish(), or destruction) appends
/// the snapshot of the run's InstructionRegistry — complete only once
/// the workload has registered all its probe sites — and the block
/// table, and patches the fixed header, which until then marks the file
/// unfinalized.
///
/// I/O failures never throw; they latch an error message and turn the
/// writer into a sink-shaped no-op (query with ok()/error()).
///
//===----------------------------------------------------------------------===//

#ifndef ORP_TRACEIO_TRACEWRITER_H
#define ORP_TRACEIO_TRACEWRITER_H

#include "memsim/Allocator.h"
#include "trace/Events.h"
#include "trace/InstructionRegistry.h"
#include "traceio/TraceFormat.h"

#include <cstdio>
#include <string>
#include <vector>

namespace orp {
namespace traceio {

/// Records a probe event stream into a .orpt file.
class TraceWriter : public trace::TraceSink {
public:
  /// Default block payload size at which a block is flushed to disk.
  static constexpr size_t kDefaultBlockBytes = 64 * 1024;

  /// Opens \p Path for writing. \p Registry is the session registry whose
  /// final contents are snapshotted at close(); \p Policy and \p Seed are
  /// the run configuration recorded in the header so replays can recreate
  /// an identical session. Event payloads are always encoded columnar
  /// (kFormatVersionV2); \p FormatVersion must name that encoding, and
  /// any other value fails the writer with "unsupported format version
  /// N".
  TraceWriter(std::string Path, const trace::InstructionRegistry &Registry,
              memsim::AllocPolicy Policy, uint64_t Seed,
              size_t BlockBytes = kDefaultBlockBytes,
              uint8_t FormatVersion = kFormatVersionV2);

  /// Closes the file if still open.
  ~TraceWriter() override;

  TraceWriter(const TraceWriter &) = delete;
  TraceWriter &operator=(const TraceWriter &) = delete;

  void onAccess(const trace::AccessEvent &Event) override;
  void onAlloc(const trace::AllocEvent &Event) override;
  void onFree(const trace::FreeEvent &Event) override;

  /// End of the instrumented run: finalizes the file (close()).
  void onFinish() override;

  /// Flushes the tail block, writes the registry and block-table
  /// sections and the end marker, patches the header and closes the
  /// file. Idempotent. Returns false when any write failed (see error()).
  bool close();

  /// True while no I/O error has occurred.
  bool ok() const { return Err.empty(); }

  /// The first I/O error, or empty.
  const std::string &error() const { return Err; }

  /// Events recorded so far.
  uint64_t eventsWritten() const { return TotalEvents; }

  /// Bytes written to disk so far (final after close()).
  uint64_t bytesWritten() const { return BytesOut; }

private:
  void fail(const std::string &Msg);
  void writeBytes(const void *Data, size_t Size);
  void flushBlock();
  void maybeFlush();
  size_t pendingBlockBytes() const;
  std::vector<uint8_t> encodeHeader(uint64_t RegistryOffset) const;
  /// Writes one section: kind, uleb length, CRC-32, payload.
  void writeSection(uint8_t Kind, const std::vector<uint8_t> &Payload);

  std::string Path;
  const trace::InstructionRegistry &Registry;
  memsim::AllocPolicy Policy;
  uint64_t Seed;
  size_t BlockBytes;
  std::FILE *File = nullptr;
  std::string Err;
  bool Closed = false;

  /// Current block columns (TraceFormat.h column order), and the
  /// payload they are assembled into at flush.
  std::vector<uint8_t> KindCol, IdCol, AddrCol, TimeCol, SizeCol;
  std::vector<uint8_t> Block;
  uint64_t BlockEvents = 0;
  /// Block table entries of the blocks written so far, encoded as the
  /// table section stores them (TraceFormat.h); written at close().
  std::vector<uint8_t> BlockEntries;
  uint64_t NumBlocks = 0;
  /// Delta-encoder state; reset at every block boundary.
  uint64_t PrevAddr = 0;
  uint64_t PrevTime = 0;

  uint64_t TotalEvents = 0;
  uint64_t BytesOut = 0;
};

} // namespace traceio
} // namespace orp

#endif // ORP_TRACEIO_TRACEWRITER_H
