//===- examples/quickstart.cpp - Five-minute tour of the library ---------===//
//
// The paper's running example (Figures 1 and 3) as a program: profile a
// linked-list traversal, look at the raw address stream, translate it
// into object-relative tuples, and compress it with WHOMP.
//
// Build and run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
//
//===----------------------------------------------------------------------===//

#include "core/ProfilingSession.h"
#include "whomp/Whomp.h"
#include "workloads/Workload.h"

#include <cstdio>
#include <vector>

using namespace orp;

namespace {

/// Keep the translated stream around so we can print a slice of it.
struct TupleBuffer : core::OrTupleConsumer {
  std::vector<core::OrTuple> Tuples;
  void consume(const core::OrTuple &T) override { Tuples.push_back(T); }
};

} // namespace

int main() {
  // 1. A profiling session wires the simulated runtime (heap allocator +
  //    probes) to the object-management component and the CDC translator.
  core::ProfilingSession Session(memsim::AllocPolicy::FirstFit,
                                 /*Seed=*/42);

  // 2. Attach consumers: a buffer (so we can look at the stream) and a
  //    WHOMP profiler (lossless object-relative Sequitur grammars).
  TupleBuffer Tuples;
  whomp::WhompProfiler Whomp;
  trace::BufferSink Raw;
  Session.addConsumer(&Tuples);
  Session.addConsumer(&Whomp);
  Session.addRawSink(&Raw);

  // 3. Run an instrumented program. Workloads program against
  //    trace::MemoryInterface: every load/store/alloc/free they perform
  //    emits a probe event. Here: the paper's linked-list example.
  auto Workload = workloads::createListTraversal();
  workloads::WorkloadConfig Config; // Scale=1, Seed=42.
  uint64_t Checksum = Workload->run(Session.memory(), Session.registry(),
                                    Config);
  Session.finish();

  std::printf("ran %s: %llu accesses, checksum %llu\n\n", Workload->name(),
              static_cast<unsigned long long>(Raw.accesses().size()),
              static_cast<unsigned long long>(Checksum));

  // 4. The raw address stream looks unstructured (Figure 1)...
  std::printf("raw stream (first traversal accesses):\n");
  std::printf("  %-28s %-14s\n", "instruction", "address");
  unsigned Shown = 0;
  for (const auto &E : Raw.accesses()) {
    if (E.Instr < 2)
      continue; // Skip the list-construction stores.
    std::printf("  %-28s 0x%llx\n",
                Session.registry().instruction(E.Instr).Name.c_str(),
                static_cast<unsigned long long>(E.Addr));
    if (++Shown == 6)
      break;
  }

  // 5. ... while the object-relative stream exposes the regularity
  //    (Figure 3): same group, serial numbers counting up, two fixed
  //    field offsets.
  std::printf("\nobject-relative stream (same accesses):\n");
  std::printf("  %-28s %-6s %-7s %-7s\n", "instruction", "group",
              "object", "offset");
  Shown = 0;
  for (const auto &T : Tuples.Tuples) {
    if (T.Instr < 2)
      continue;
    std::printf("  %-28s %-6u %-7llu %-7llu\n",
                Session.registry().instruction(T.Instr).Name.c_str(),
                T.Group, static_cast<unsigned long long>(T.Object),
                static_cast<unsigned long long>(T.Offset));
    if (++Shown == 6)
      break;
  }

  // 6. The exposed regularity compresses: print the offset-dimension
  //    grammar, which captures the data/next field interleave as rules.
  const auto &OffsetGrammar = Whomp.imageFor(core::Dimension::Offset);
  std::printf("\noffset-dimension Sequitur grammar "
              "(%llu input symbols -> %zu rules, %zu bytes):\n%s\n",
              static_cast<unsigned long long>(
                  OffsetGrammar.stats().InputLength),
              OffsetGrammar.stats().Rules,
              OffsetGrammar.serializedSizeBytes(),
              OffsetGrammar.stats().Rules <= 24
                  ? OffsetGrammar.dump().c_str()
                  : "  (large; omitted)\n");

  whomp::OmsgSizes Sizes = Whomp.sizes();
  std::printf("OMSG total: %zu bytes (instr %zu, group %zu, object %zu, "
              "offset %zu)\n",
              Sizes.total(), Sizes.Instr, Sizes.Group, Sizes.Object,
              Sizes.Offset);
  return 0;
}
