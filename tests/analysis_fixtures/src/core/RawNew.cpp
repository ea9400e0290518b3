//===- RawNew.cpp - seeded raw-new-delete violation ----------------------===//
//
// new/delete expressions must be reported wherever they appear. A
// deleted function and a placement ::new are not new/delete
// expressions and must not be.
//
//===----------------------------------------------------------------------===//

#include <new>

namespace fixture {

struct NoCopy {
  NoCopy() = default;
  NoCopy(const NoCopy &) = delete;
};

void churn() {
  int *P = new int[4];
  delete[] P;
  alignas(int) unsigned char Buf[sizeof(int)];
  ::new (Buf) int(7);
}

} // namespace fixture
