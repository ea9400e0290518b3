//===- session/Daemon.cpp - orp-traced server core -----------------------===//

#include "session/Daemon.h"

#include "support/LogSink.h"
#include "support/VarInt.h"
#include "telemetry/Registry.h"

#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace orp;
using namespace orp::session;
using support::LogLevel;
using support::logMessage;

namespace {

/// Frames a connection may hold parsed-but-unprocessed before the
/// daemon stops reading its socket (bounds memory per stalled client).
constexpr size_t kMaxPendingFrames = 32;

bool setNonBlocking(int Fd) {
  int Flags = ::fcntl(Fd, F_GETFL, 0);
  return Flags >= 0 && ::fcntl(Fd, F_SETFL, Flags | O_NONBLOCK) == 0;
}

} // namespace

Daemon::Daemon(const DaemonConfig &Config)
    : Config(Config), Manager(Config.Manager) {
  // Construction happens on the (future) control thread.
  support::ScopedRole Role(SessionControlRole);
  Manager.setEvictionHandler(
      [this](SessionId, SessionArtifacts A) { writeArtifacts(A); });
}

Daemon::~Daemon() {
  support::ScopedRole Role(SessionControlRole);
  for (auto &C : Conns)
    if (C->Fd >= 0)
      ::close(C->Fd);
  if (ListenFd >= 0) {
    ::close(ListenFd);
    ::unlink(Config.SocketPath.c_str());
  }
}

bool Daemon::start(std::string &Err) {
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (Config.SocketPath.empty() ||
      Config.SocketPath.size() >= sizeof(Addr.sun_path)) {
    Err = "socket path too long: '" + Config.SocketPath + "'";
    return false;
  }
  std::memcpy(Addr.sun_path, Config.SocketPath.c_str(),
              Config.SocketPath.size() + 1);
  ListenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (ListenFd < 0) {
    Err = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  ::unlink(Config.SocketPath.c_str()); // Stale socket from a dead run.
  if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr),
             sizeof(Addr)) != 0 ||
      ::listen(ListenFd, 16) != 0 || !setNonBlocking(ListenFd)) {
    Err = "bind/listen '" + Config.SocketPath +
          "': " + std::strerror(errno);
    ::close(ListenFd);
    ListenFd = -1;
    return false;
  }
  return true;
}

void Daemon::run(const std::function<bool()> &StopRequested) {
  while (!StopRequested()) {
    std::vector<pollfd> Fds;
    Fds.push_back(pollfd{ListenFd, POLLIN, 0});
    for (auto &C : Conns) {
      short Events = 0;
      // Backpressure: a connection with a blocked head frame (or too
      // many queued) is not read from until the shard drains.
      if (C->PendingIn.size() < kMaxPendingFrames && !C->Parser.failed())
        Events |= POLLIN;
      if (C->OutPos < C->OutBuf.size())
        Events |= POLLOUT;
      Fds.push_back(pollfd{C->Fd, Events, 0});
    }
    int Ready = ::poll(Fds.data(), Fds.size(), /*timeout ms=*/50);
    if (Ready < 0 && errno != EINTR)
      break;
    if (Fds[0].revents & POLLIN)
      acceptNew();
    // Only the connections that were polled: acceptNew() may have grown
    // Conns past the end of Fds; newcomers get their first service on
    // the next pass.
    size_t NumPolled = Fds.size() - 1;
    for (size_t I = 0; I != NumPolled; ++I) {
      Conn &C = *Conns[I];
      short Re = Fds[I + 1].revents;
      if (Re & (POLLHUP | POLLERR))
        C.Dead = true;
      if (!C.Dead && (Re & POLLIN))
        readFrom(C);
      // Retry queued frames every pass — the shard may have drained the
      // session's ingest queue since the last poll tick.
      if (!C.Dead)
        processPending(C);
      if (!C.Dead && C.OutPos < C.OutBuf.size())
        writeTo(C);
      if (C.Dead)
        dropConn(C);
    }
    for (size_t I = Conns.size(); I-- > 0;)
      if (Conns[I]->Fd < 0)
        Conns.erase(Conns.begin() + static_cast<ptrdiff_t>(I));
  }
  for (auto &C : Conns)
    dropConn(*C);
  Conns.clear();
}

void Daemon::acceptNew() {
  for (;;) {
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0)
      return;
    if (!setNonBlocking(Fd)) {
      ::close(Fd);
      continue;
    }
    auto C = std::make_unique<Conn>();
    C->Fd = Fd;
    Conns.push_back(std::move(C));
    telemetry::Registry::global().counter("daemon.connections").add();
  }
}

void Daemon::readFrom(Conn &C) {
  uint8_t Buf[64 * 1024];
  for (;;) {
    ssize_t N = ::recv(C.Fd, Buf, sizeof(Buf), 0);
    if (N > 0) {
      C.Parser.feed(Buf, static_cast<size_t>(N));
      Frame F;
      while (C.Parser.next(F))
        C.PendingIn.push_back(std::move(F));
      if (C.Parser.failed()) {
        logMessage(LogLevel::Warn, "orp-traced: dropping client: %s",
                   C.Parser.error().c_str());
        C.Dead = true;
        return;
      }
      if (C.PendingIn.size() >= kMaxPendingFrames)
        return;
      continue;
    }
    if (N == 0) { // Orderly shutdown (or mid-stream disconnect).
      C.Dead = true;
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      return;
    if (errno == EINTR)
      continue;
    C.Dead = true;
    return;
  }
}

void Daemon::writeTo(Conn &C) {
  while (C.OutPos < C.OutBuf.size()) {
    ssize_t N = ::send(C.Fd, C.OutBuf.data() + C.OutPos,
                       C.OutBuf.size() - C.OutPos, MSG_NOSIGNAL);
    if (N > 0) {
      C.OutPos += static_cast<size_t>(N);
      continue;
    }
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      return;
    if (N < 0 && errno == EINTR)
      continue;
    C.Dead = true;
    return;
  }
  C.OutBuf.clear();
  C.OutPos = 0;
}

void Daemon::processPending(Conn &C) {
  while (!C.PendingIn.empty()) {
    if (!handleFrame(C, C.PendingIn.front()))
      return; // Head blocked on backpressure; retried next pass.
    C.PendingIn.pop_front();
    if (C.Dead)
      return;
  }
}

bool Daemon::handleFrame(Conn &C, const Frame &F) {
  telemetry::Registry::global().counter("daemon.frames").add();
  switch (F.Type) {
  case FrameType::Open:
    handleOpen(C, F);
    return true;
  case FrameType::Events:
    return handleEvents(C, F);
  case FrameType::Snapshot:
    handleSnapshot(C, F);
    return true;
  case FrameType::Close:
    handleClose(C, F);
    return true;
  default:
    replyErr(C, "unexpected frame type " +
                    std::to_string(static_cast<unsigned>(F.Type)));
    return true;
  }
}

void Daemon::handleOpen(Conn &C, const Frame &F) {
  OpenRequest Req;
  std::string Err;
  if (!decodeOpen(F.Payload.data(), F.Payload.size(), Req, Err)) {
    replyErr(C, Err);
    return;
  }
  // The engine keeps sessions serial; parallelism is across sessions.
  Req.Config.ProfilerThreads = 1;
  SessionId Id = Manager.open(Req.Name, Req.Config, Req.Instrs, Req.Sites);
  C.Owned.push_back(Id);
  std::vector<uint8_t> Payload;
  encodeULEB128(Id, Payload);
  reply(C, FrameType::ReplyOk, Payload);
}

bool Daemon::handleEvents(Conn &C, const Frame &F) {
  EventsHeader H;
  std::string Err;
  if (!decodeEventsHeader(F.Payload.data(), F.Payload.size(), H, Err)) {
    replyErr(C, Err);
    return true;
  }
  SubmitStatus St = Manager.submitBlock(
      H.SessionId, F.Payload.data() + H.PayloadOffset,
      F.Payload.size() - H.PayloadOffset, H.EventCount, H.Crc,
      H.FormatVersion);
  switch (St) {
  case SubmitStatus::Ok:
    reply(C, FrameType::ReplyOk, {});
    return true;
  case SubmitStatus::WouldBlock:
    return false; // Keep the frame queued; stall this connection only.
  case SubmitStatus::NotFound:
    replyErr(C, "unknown session id " + std::to_string(H.SessionId));
    return true;
  case SubmitStatus::Failed: {
    SessionStats Stats;
    std::string Detail = Manager.stats(H.SessionId, Stats)
                             ? Stats.Error
                             : std::string("session failed");
    replyErr(C, "session " + std::to_string(H.SessionId) +
                    " failed: " + Detail);
    return true;
  }
  }
  return true;
}

void Daemon::handleSnapshot(Conn &C, const Frame &F) {
  SnapshotRequest Req;
  std::string Err;
  if (!decodeSnapshot(F.Payload.data(), F.Payload.size(), Req, Err)) {
    replyErr(C, Err);
    return;
  }
  // This thread is the manager's control thread, so the registry's
  // snapshot discipline holds here.
  telemetry::MetricsSnapshot S = telemetry::Registry::global().snapshot();
  if (!Req.SessionName.empty())
    S = S.filterByPrefix("session." + Req.SessionName + ".");
  std::string Text;
  switch (Req.Format) {
  case 0:
    Text = S.toJson(true);
    break;
  case 1:
    Text = S.toJson(false);
    break;
  default:
    Text = S.toPrometheus();
    break;
  }
  std::vector<uint8_t> Payload(Text.begin(), Text.end());
  reply(C, FrameType::ReplySnapshot, Payload);
}

void Daemon::handleClose(Conn &C, const Frame &F) {
  size_t Pos = 0;
  uint64_t Id;
  if (!tryDecodeULEB128(F.Payload.data(), F.Payload.size(), Pos, Id)) {
    replyErr(C, "CLOSE frame: truncated");
    return;
  }
  bool Owned = false;
  for (size_t I = 0; I != C.Owned.size(); ++I)
    if (C.Owned[I] == Id) {
      C.Owned.erase(C.Owned.begin() + static_cast<ptrdiff_t>(I));
      Owned = true;
      break;
    }
  if (!Owned) {
    replyErr(C, "session " + std::to_string(Id) +
                    " not open on this connection");
    return;
  }
  SessionArtifacts A = Manager.close(Id);
  if (!A.Failed)
    writeArtifacts(A);
  CloseSummary Summary;
  Summary.Events = A.Events;
  Summary.Failed = A.Failed;
  Summary.Error = A.Error;
  Summary.Omsg = std::move(A.Omsg);
  Summary.Leap = std::move(A.Leap);
  std::vector<uint8_t> Payload;
  encodeCloseSummary(Summary, Payload);
  reply(C, FrameType::ReplyOk, Payload);
}

void Daemon::reply(Conn &C, FrameType Type,
                   const std::vector<uint8_t> &Payload) {
  appendFrame(Type, Payload, C.OutBuf);
  writeTo(C); // Opportunistic flush; leftovers drain on POLLOUT.
}

void Daemon::replyErr(Conn &C, const std::string &Message) {
  telemetry::Registry::global().counter("daemon.errors").add();
  std::vector<uint8_t> Payload(Message.begin(), Message.end());
  reply(C, FrameType::ReplyErr, Payload);
}

void Daemon::dropConn(Conn &C) {
  if (C.Fd < 0)
    return;
  // A disconnected client's unclosed sessions are aborted — their
  // pipelines drain and die without touching any other session.
  for (SessionId Id : C.Owned)
    Manager.abort(Id);
  C.Owned.clear();
  ::close(C.Fd);
  C.Fd = -1;
}

std::string Daemon::artifactPath(const std::string &SessionName,
                                 const char *Extension) const {
  if (Config.OutDir.empty())
    return std::string();
  return Config.OutDir + "/" + SessionName + "." + Extension;
}

void Daemon::writeArtifacts(const SessionArtifacts &A) {
  if (Config.OutDir.empty())
    return;
  auto WriteOne = [&](const std::vector<uint8_t> &Bytes,
                      const char *Extension) {
    if (Bytes.empty())
      return;
    std::string Path = artifactPath(A.Name, Extension);
    // orp-analyze: allow(endian-io): writes opaque, already-serialized
    // artifact images; all field encoding happened inside serialize().
    std::FILE *Out = std::fopen(Path.c_str(), "wb");
    if (!Out || std::fwrite(Bytes.data(), 1, Bytes.size(), Out) !=
                    Bytes.size()) {
      logMessage(LogLevel::Error, "orp-traced: cannot write '%s'",
                 Path.c_str());
      if (Out)
        std::fclose(Out);
      return;
    }
    std::fclose(Out);
  };
  WriteOne(A.Omsg, "omsg");
  WriteOne(A.Leap, "leap");
}
