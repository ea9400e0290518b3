//===- session/Daemon.h - orp-traced server core ---------------*- C++ -*-===//
//
// Part of the ORP reproduction of "Exposing Memory Access Regularities
// Using Object-Relative Memory Profiling" (CGO 2004).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The orp-traced server: a Unix-domain stream socket accepting the
/// Wire.h framed protocol, dispatching onto a SessionManager from one
/// poll()-driven control thread. The event loop IS the manager's
/// control thread, so no locks are needed around session state (the
/// raw-thread lint rule: raw threading stays in src/support; this file's only
/// concurrency primitives are the manager's queues). That single-thread
/// contract is the SessionControlRole capability: start()/run() and the
/// connection state require it, and the thread driving the daemon
/// claims it with a support::ScopedRole (orp-traced's main, or a test).
///
/// Flow control: when a session's ingest queue is full (WouldBlock),
/// the connection's remaining parsed frames stay queued and the daemon
/// simply stops reading from that socket — TCP-style backpressure on a
/// Unix socket — while other connections keep streaming. A client that
/// disconnects mid-stream has its unclosed sessions aborted; nobody
/// else notices.
///
//===----------------------------------------------------------------------===//

#ifndef ORP_SESSION_DAEMON_H
#define ORP_SESSION_DAEMON_H

#include "session/SessionManager.h"
#include "session/Wire.h"

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace orp {
namespace session {

/// Configuration of one daemon instance.
struct DaemonConfig {
  std::string SocketPath;  ///< Unix-domain socket path to listen on.
  std::string OutDir;      ///< Artifact directory; empty = don't write.
  ManagerConfig Manager;   ///< Scheduler/limit configuration.
};

/// The server: socket accept/IO loop over a SessionManager.
class Daemon {
public:
  explicit Daemon(const DaemonConfig &Config);
  ~Daemon();

  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  /// Binds and listens on the configured socket path (removing a stale
  /// socket file first). Returns false with \p Err set on failure.
  [[nodiscard]] bool start(std::string &Err)
      ORP_REQUIRES(SessionControlRole);

  /// Serves until \p StopRequested returns true (checked every poll
  /// timeout, ~50ms). Aborts live connections' sessions on exit.
  void run(const std::function<bool()> &StopRequested)
      ORP_REQUIRES(SessionControlRole);

  /// The manager, for in-process tests driving both sides.
  SessionManager &manager() { return Manager; }

  /// Artifact file path for \p SessionName with \p Extension
  /// ("omsg"/"leap"); empty when no OutDir is configured.
  std::string artifactPath(const std::string &SessionName,
                           const char *Extension) const;

private:
  /// One accepted connection.
  struct Conn {
    int Fd = -1;
    FrameParser Parser;
    /// Parsed-but-unprocessed frames (head blocked on backpressure).
    std::deque<Frame> PendingIn;
    /// Bytes awaiting write (replies), drained on POLLOUT.
    std::vector<uint8_t> OutBuf;
    size_t OutPos = 0;
    /// Sessions opened over this connection and not yet closed.
    std::vector<SessionId> Owned;
    bool Dead = false;
  };

  void acceptNew() ORP_REQUIRES(SessionControlRole);
  void readFrom(Conn &C) ORP_REQUIRES(SessionControlRole);
  void writeTo(Conn &C) ORP_REQUIRES(SessionControlRole);
  /// Processes queued frames until empty or the head WouldBlock.
  void processPending(Conn &C) ORP_REQUIRES(SessionControlRole);
  /// Handles one frame; false = leave it queued (backpressure).
  bool handleFrame(Conn &C, const Frame &F)
      ORP_REQUIRES(SessionControlRole);
  void handleOpen(Conn &C, const Frame &F)
      ORP_REQUIRES(SessionControlRole);
  bool handleEvents(Conn &C, const Frame &F)
      ORP_REQUIRES(SessionControlRole);
  void handleSnapshot(Conn &C, const Frame &F)
      ORP_REQUIRES(SessionControlRole);
  void handleClose(Conn &C, const Frame &F)
      ORP_REQUIRES(SessionControlRole);
  void reply(Conn &C, FrameType Type, const std::vector<uint8_t> &Payload)
      ORP_REQUIRES(SessionControlRole);
  void replyErr(Conn &C, const std::string &Message)
      ORP_REQUIRES(SessionControlRole);
  void dropConn(Conn &C) ORP_REQUIRES(SessionControlRole);
  void writeArtifacts(const SessionArtifacts &A);

  DaemonConfig Config;
  SessionManager Manager;
  int ListenFd ORP_GUARDED_BY(SessionControlRole) = -1;
  std::vector<std::unique_ptr<Conn>> Conns
      ORP_GUARDED_BY(SessionControlRole);
};

} // namespace session
} // namespace orp

#endif // ORP_SESSION_DAEMON_H
