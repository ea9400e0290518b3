//===- Socket.cpp - seeded raw-socket violation --------------------------===//
//
// Socket headers belong to src/session and tools/ (the daemon
// transport); anywhere else they must be reported.
//
//===----------------------------------------------------------------------===//

#include <sys/socket.h>

namespace fixture {

int openSocket() { return ::socket(AF_UNIX, SOCK_STREAM, 0); }

} // namespace fixture
