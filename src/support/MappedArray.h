//===- support/MappedArray.h - Array on its own anonymous pages -*- C++ -*-===//
//
// Part of the ORP reproduction of "Exposing Memory Access Regularities
// Using Object-Relative Memory Profiling" (CGO 2004).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-size array of trivial elements on private anonymous pages
/// that the program maps itself and unmaps in the destructor. For large,
/// short-lived tables: their memory goes back to the kernel the moment
/// the array dies, and never passes through malloc, so freeing it cannot
/// move glibc's dynamic mmap threshold (a freed mmapped chunk raises the
/// threshold to its size, pushing later large allocations into the brk
/// heap, where they stay resident).
///
/// Fresh pages are zero-filled by the kernel, so an element type whose
/// all-zero value means "empty" needs no initialisation pass. Element
/// bounds are asserted in checked builds: sanitizers put no redzones
/// around mapped pages.
///
/// A power-of-two table that doubles rehashes through rehashWalk(),
/// which gives the old array back as it walks it (releasePrefix(): the
/// whole pages behind the walk's cursor, through releaseWholePages(),
/// which the trace reader also uses for the file pages behind its own
/// cursor).
///
//===----------------------------------------------------------------------===//

#ifndef ORP_SUPPORT_MAPPEDARRAY_H
#define ORP_SUPPORT_MAPPEDARRAY_H

#include "support/Error.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <limits>
#include <type_traits>
#include <utility>

namespace orp {
namespace support {

/// The kernel's page size in bytes.
inline size_t pageSize() {
  static const size_t Bytes = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
  return Bytes;
}

/// Gives the whole pages of [Base, Base + Bytes) back to the kernel
/// (madvise MADV_DONTNEED); a partial last page stays. \p Base must be
/// page-aligned. A private anonymous page reads zero-filled when next
/// touched, and a private file page refaults from the file. Releasing is
/// only an optimization, so a failure is ignored.
inline void releaseWholePages(const void *Base, size_t Bytes) {
  Bytes &= ~(pageSize() - 1);
  if (Bytes != 0)
    (void)::madvise(const_cast<void *>(Base), Bytes, MADV_DONTNEED);
}

template <typename T> class MappedArray {
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "MappedArray holds raw zero-filled pages");

public:
  MappedArray() = default;

  /// Maps \p N zero-filled elements; N == 0 maps nothing. Failure to map
  /// is a fatal error.
  explicit MappedArray(size_t N) : Size(N) {
    if (N == 0)
      return;
    if (N > std::numeric_limits<size_t>::max() / sizeof(T))
      ORP_FATAL_ERROR("MappedArray: size overflows the address space");
    void *P = ::mmap(nullptr, N * sizeof(T), PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (P == MAP_FAILED)
      ORP_FATAL_ERROR("MappedArray: mmap failed");
    Data = static_cast<T *>(P);
  }

  ~MappedArray() { unmap(); }

  MappedArray(const MappedArray &) = delete;
  MappedArray &operator=(const MappedArray &) = delete;

  MappedArray(MappedArray &&O) noexcept
      : Data(std::exchange(O.Data, nullptr)), Size(std::exchange(O.Size, 0)),
        Released(std::exchange(O.Released, 0)) {}

  MappedArray &operator=(MappedArray &&O) noexcept {
    if (this != &O) {
      unmap();
      Data = std::exchange(O.Data, nullptr);
      Size = std::exchange(O.Size, 0);
      Released = std::exchange(O.Released, 0);
    }
    return *this;
  }

  size_t size() const { return Size; }
  bool empty() const { return Size == 0; }

  /// Bytes the array maps: its size rounded up to whole pages, however
  /// many of them are resident.
  size_t mappedBytes() const {
    return (Size * sizeof(T) + pageSize() - 1) & ~(pageSize() - 1);
  }

  /// Gives back the whole pages that hold only elements [0, \p N): they
  /// read as zero afterwards, and every element from the page holding
  /// element N on keeps its value. Pages that an earlier call gave back
  /// are not released again, so a walk can call this as its cursor
  /// advances at the cost of one madvise per new run of whole pages.
  void releasePrefix(size_t N) {
    assert(N <= Size && "MappedArray prefix past the end");
    const size_t End = N * sizeof(T) & ~(pageSize() - 1);
    if (End <= Released)
      return;
    releaseWholePages(reinterpret_cast<char *>(Data) + Released,
                      End - Released);
    Released = End;
  }

  T &operator[](size_t I) {
    assert(I < Size && "MappedArray index out of range");
    return Data[I];
  }
  const T &operator[](size_t I) const {
    assert(I < Size && "MappedArray index out of range");
    return Data[I];
  }

  T *begin() { return Data; }
  T *end() { return Data + Size; }
  const T *begin() const { return Data; }
  const T *end() const { return Data + Size; }

private:
  void unmap() {
    if (Data)
      ::munmap(Data, Size * sizeof(T));
  }

  T *Data = nullptr;
  size_t Size = 0;
  size_t Released = 0; ///< Leading bytes releasePrefix() gave back.
};

/// Walks \p Old, the array of a power-of-two table being doubled, and
/// calls \p Visit(I, Old[I]) for every element in order; \p Visit
/// re-places the element in the new array. A doubling sends the element
/// of old home h to h or h + Old.size(), so the new array's pages fill
/// in step with the walk, and every 64 KiB of \p Old the walk gives
/// back the whole pages of \p Old behind it: the two arrays are never
/// resident in full at once.
template <typename T, typename Fn>
void rehashWalk(MappedArray<T> &Old, Fn &&Visit) {
  constexpr size_t Step = std::max<size_t>(1, (64 * 1024) / sizeof(T));
  const size_t N = Old.size();
  for (size_t Begin = 0; Begin < N; Begin += Step) {
    const size_t End = std::min(N, Begin + Step);
    Old.releasePrefix(Begin);
    for (size_t I = Begin; I != End; ++I)
      Visit(I, Old[I]);
  }
}

} // namespace support
} // namespace orp

#endif // ORP_SUPPORT_MAPPEDARRAY_H
