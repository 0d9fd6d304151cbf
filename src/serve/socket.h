// Thin RAII wrappers over POSIX stream sockets (TCP loopback-or-any and
// AF_UNIX) — just enough for the serve daemon and its load generator.
//
// The client half (Socket) blocks, with a non-blocking read for opportunistic
// credit reads. The server half (Listener, Conn) never blocks: one poll loop
// thread owns every daemon fd.
//
// Error reporting is by out-parameter string, never exceptions: socket
// failures are expected operational events (port in use, peer reset) the
// daemon logs and survives.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>

#include "util/bytes.h"

namespace pnm::serve {

/// One connected stream socket. Move-only; closes on destruction.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  static Socket connect_tcp(const std::string& host, std::uint16_t port,
                            std::string* error);
  static Socket connect_unix(const std::string& path, std::string* error);

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Disable Nagle (TCP only; silently ignored on unix sockets). The session
  /// protocol is request/response at EOF time — a 40 ms Nagle stall per
  /// digest would dominate small-trace latencies.
  void set_nodelay();

  /// Write the whole buffer (retrying short writes / EINTR). False on error
  /// or peer close.
  bool send_all(ByteView data);

  /// Blocking read of up to `cap` bytes. >0 bytes read, 0 = clean EOF,
  /// -1 = error.
  long recv_some(void* buf, std::size_t cap);

  /// Non-blocking read of up to `cap` bytes. >0 bytes read, 0 = clean EOF,
  /// -1 = nothing available (EAGAIN), -2 = error.
  long recv_nonblocking(void* buf, std::size_t cap);

  void close();

 private:
  int fd_ = -1;
};

/// One accepted connection as the poll loop drives it: a non-blocking
/// socket, the bytes the peer has not taken yet, and a state machine.
class Conn {
 public:
  using Clock = std::chrono::steady_clock;
  explicit Conn(Socket sock) : sock_(std::move(sock)) { sock_.set_nodelay(); }
  virtual ~Conn() = default;

  /// Poll interest now; -1 = leave the fd out of this poll.
  virtual short events() const = 0;
  /// Bytes the peer sent.
  virtual void on_bytes(ByteView data) = 0;
  /// The peer closed or failed (or the daemon is closing the connection).
  virtual void on_hangup() = 0;
  /// Completions and deadlines; true = close the connection now.
  virtual bool tick(Clock::time_point now) = 0;
  /// When tick() next has work (Clock::time_point{} = at once).
  virtual Clock::time_point deadline() const = 0;
  /// Owes nothing and is owed nothing: a drain closes it at once.
  virtual bool idle() const = 0;

  int fd() const { return sock_.fd(); }
  /// Non-blocking read: >0 bytes read, 0 = peer closed, -1 = nothing yet,
  /// -2 = error.
  long read(void* buf, std::size_t cap) { return sock_.recv_nonblocking(buf, cap); }
  /// Queue `data` and write as much as the socket takes now. False once the
  /// peer is gone.
  bool send(ByteView data);
  /// Write queued bytes until done or the socket is full. False once the
  /// peer is gone; the queue is then dropped.
  bool flush();
  bool flushed() const { return out_head_ == out_.size(); }

  /// Last time bytes moved in either direction (the idle deadlines).
  Clock::time_point last_io = Clock::now();

 private:
  Socket sock_;
  Bytes out_;
  std::size_t out_head_ = 0;
};

/// A non-blocking listening socket: TCP on 127.0.0.1:<port> (port 0 =
/// ephemeral) or AF_UNIX at a path, which close() unlinks.
class Listener {
 public:
  static Listener tcp(std::uint16_t port, std::string* error);
  static Listener unix_path(const std::string& path, std::string* error);

  bool valid() const { return sock_.valid(); }
  int fd() const { return sock_.fd(); }
  /// Bound TCP port (after tcp() with port 0 resolves the ephemeral bind).
  std::uint16_t port() const { return port_; }

  /// Accept one pending connection as a non-blocking socket. An invalid
  /// Socket means none was accepted: *err is 0 when the backlog is empty,
  /// else the accept errno (ECONNABORTED, EMFILE, ...), which leaves the
  /// listener usable.
  Socket accept_conn(int* err);

  void close();

 private:
  Socket sock_;
  std::uint16_t port_ = 0;
  std::string unlink_path_;
};

}  // namespace pnm::serve
