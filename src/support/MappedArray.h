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
//===----------------------------------------------------------------------===//

#ifndef ORP_SUPPORT_MAPPEDARRAY_H
#define ORP_SUPPORT_MAPPEDARRAY_H

#include "support/Error.h"

#include <sys/mman.h>

#include <cassert>
#include <cstddef>
#include <limits>
#include <type_traits>
#include <utility>

namespace orp {
namespace support {

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
      : Data(std::exchange(O.Data, nullptr)), Size(std::exchange(O.Size, 0)) {}

  MappedArray &operator=(MappedArray &&O) noexcept {
    if (this != &O) {
      unmap();
      Data = std::exchange(O.Data, nullptr);
      Size = std::exchange(O.Size, 0);
    }
    return *this;
  }

  size_t size() const { return Size; }
  bool empty() const { return Size == 0; }

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
};

} // namespace support
} // namespace orp

#endif // ORP_SUPPORT_MAPPEDARRAY_H
