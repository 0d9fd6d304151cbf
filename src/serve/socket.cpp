#include "serve/socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace pnm::serve {

namespace {

std::string errno_string(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

bool fill_unix_addr(const std::string& path, sockaddr_un* addr, std::string* error) {
  if (path.size() >= sizeof(addr->sun_path)) {
    if (error) *error = "unix socket path too long: " + path;
    return false;
  }
  std::memset(addr, 0, sizeof(*addr));
  addr->sun_family = AF_UNIX;
  std::memcpy(addr->sun_path, path.c_str(), path.size() + 1);
  return true;
}

/// A fresh stream socket connected to `addr` (backlog 0), or non-blocking,
/// bound there and listening. Invalid (and *error) on failure.
Socket open_socket(int family, int backlog, const sockaddr* addr, socklen_t len,
                   std::string* error) {
  Socket sock(::socket(family, SOCK_STREAM | (backlog ? SOCK_NONBLOCK | SOCK_CLOEXEC : 0), 0));
  int one = 1;
  if (sock.valid() && backlog && family == AF_INET)
    ::setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  const char* failed = nullptr;
  if (!sock.valid())
    failed = "socket";
  else if (!backlog)
    failed = ::connect(sock.fd(), addr, len) != 0 ? "connect" : nullptr;
  else if (::bind(sock.fd(), addr, len) != 0)
    failed = "bind";
  else if (::listen(sock.fd(), backlog) != 0)
    failed = "listen";
  if (!failed) return sock;
  if (error) *error = errno_string(failed);
  return Socket();
}

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Socket Socket::connect_tcp(const std::string& host, std::uint16_t port,
                           std::string* error) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    if (error) *error = "bad host address: " + host;
    return Socket();
  }
  Socket s = open_socket(AF_INET, 0, reinterpret_cast<sockaddr*>(&addr), sizeof(addr), error);
  if (s.valid()) s.set_nodelay();
  return s;
}

Socket Socket::connect_unix(const std::string& path, std::string* error) {
  sockaddr_un addr;
  if (!fill_unix_addr(path, &addr, error)) return Socket();
  return open_socket(AF_UNIX, 0, reinterpret_cast<sockaddr*>(&addr), sizeof(addr), error);
}

void Socket::set_nodelay() {
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

bool Socket::send_all(ByteView data) {
  const std::uint8_t* p = data.data();
  std::size_t left = data.size();
  while (left > 0) {
    // MSG_NOSIGNAL: a peer that closed mid-stream yields EPIPE, not SIGPIPE.
    ssize_t n = ::send(fd_, p, left, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  return true;
}

long Socket::recv_some(void* buf, std::size_t cap) {
  while (true) {
    ssize_t n = ::recv(fd_, buf, cap, 0);
    if (n < 0 && errno == EINTR) continue;
    return n < 0 ? -1 : static_cast<long>(n);
  }
}

long Socket::recv_nonblocking(void* buf, std::size_t cap) {
  while (true) {
    ssize_t n = ::recv(fd_, buf, cap, MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return -1;
      return -2;
    }
    return static_cast<long>(n);
  }
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool Conn::send(ByteView data) {
  out_.insert(out_.end(), data.begin(), data.end());
  return flush();
}

bool Conn::flush() {
  while (!flushed()) {
    ssize_t n = ::send(fd(), out_.data() + out_head_, out_.size() - out_head_,
                       MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0) break;  // peer gone: nothing queued can be delivered
    out_head_ += static_cast<std::size_t>(n);
    last_io = Clock::now();
  }
  bool ok = flushed();
  out_.clear();
  out_head_ = 0;
  return ok;
}

Listener Listener::tcp(std::uint16_t port, std::string* error) {
  Listener l;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  l.sock_ = open_socket(AF_INET, 64, reinterpret_cast<sockaddr*>(&addr), sizeof(addr), error);
  socklen_t len = sizeof(addr);
  if (l.valid() && ::getsockname(l.fd(), reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    if (error) *error = errno_string("getsockname");
    l.sock_.close();
  }
  l.port_ = ntohs(addr.sin_port);
  return l;
}

Listener Listener::unix_path(const std::string& path, std::string* error) {
  Listener l;
  sockaddr_un addr;
  if (!fill_unix_addr(path, &addr, error)) return l;
  ::unlink(path.c_str());  // stale socket from a previous run
  l.sock_ = open_socket(AF_UNIX, 64, reinterpret_cast<sockaddr*>(&addr), sizeof(addr), error);
  if (l.valid()) l.unlink_path_ = path;
  return l;
}

Socket Listener::accept_conn(int* err) {
  while (true) {
    int fd = ::accept4(sock_.fd(), nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd >= 0 || errno != EINTR) {
      *err = fd >= 0 || errno == EAGAIN || errno == EWOULDBLOCK ? 0 : errno;
      return Socket(fd);
    }
  }
}

void Listener::close() {
  sock_.close();
  if (!unlink_path_.empty()) ::unlink(std::exchange(unlink_path_, {}).c_str());
}

}  // namespace pnm::serve
