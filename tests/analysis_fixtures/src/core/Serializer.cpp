//===- Serializer.cpp - seeded unordered-serialize violation -------------===//
//
// The leak is two calls deep: serialize() -> flushGroups() ->
// emitGroups(), and only the last function touches the container. A
// scan of the serializing function alone cannot see this; the
// analyzer's transitive call-graph walk must.
//
//===----------------------------------------------------------------------===//

#include "core/Serializer.h"

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace fixture {

class GroupSerializer {
public:
  std::vector<uint8_t> serialize() const;

private:
  void flushGroups(std::vector<uint8_t> &Out) const;
  void emitGroups(std::vector<uint8_t> &Out) const;

  std::unordered_map<uint64_t, uint32_t> Groups;
};

std::vector<uint8_t> GroupSerializer::serialize() const {
  std::vector<uint8_t> Out;
  flushGroups(Out);
  return Out;
}

void GroupSerializer::flushGroups(std::vector<uint8_t> &Out) const {
  emitGroups(Out);
}

void GroupSerializer::emitGroups(std::vector<uint8_t> &Out) const {
  for (const auto &Entry : Groups) {
    Out.push_back(static_cast<uint8_t>(Entry.first));
    Out.push_back(static_cast<uint8_t>(Entry.second));
  }
}

} // namespace fixture
