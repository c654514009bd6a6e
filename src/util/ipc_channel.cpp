#include "util/ipc_channel.h"

#include <cerrno>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <utility>

namespace knnpc {
namespace {

constexpr std::uint32_t kFrameMagic = 0x4350494bu;  // "KIPC" little-endian

struct FrameHeader {
  std::uint32_t magic = kFrameMagic;
  std::uint32_t type = 0;
  std::uint32_t length = 0;
};
static_assert(sizeof(FrameHeader) == 12);

std::int64_t monotonic_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Converts the uniform timeout contract (< 0 forever, 0 poll-once, > 0
/// bounded) to an absolute monotonic deadline (-1 = none). A zero timeout
/// yields an already-expired deadline, which the wait helpers turn into
/// exactly one poll at timeout 0.
std::int64_t deadline_from_timeout(double timeout_s) {
  return timeout_s < 0.0
             ? -1
             : monotonic_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
}

[[noreturn]] void throw_errno(IpcErrorKind kind, const char* what) {
  throw IpcError(kind, std::string(what) + ": " + std::strerror(errno));
}

/// Waits for `fd` to match `events` before `deadline_ns` (-1 = forever).
/// Throws Timeout (with `timeout_what`) when the deadline passes, SysError
/// on poll failure.
void wait_pollable(int fd, short events, std::int64_t deadline_ns,
                   const char* timeout_what) {
  for (;;) {
    int timeout_ms = -1;
    if (deadline_ns >= 0) {
      const std::int64_t remaining_ns = deadline_ns - monotonic_ns();
      // An expired deadline still polls once with timeout 0: data already
      // buffered in the pipe must be drained (and buffer space the peer
      // already freed must be used), not reported as a timeout — the peer
      // delivered in time even if the caller got here late.
      timeout_ms = remaining_ns <= 0
                       ? 0
                       : static_cast<int>((remaining_ns + 999'999) /
                                          1'000'000);
    }
    struct pollfd pfd{};
    pfd.fd = fd;
    pfd.events = events;
    const int r = ::poll(&pfd, 1, timeout_ms);
    if (r > 0) return;  // ready, error or hangup: read()/write() will tell
    if (r == 0) {
      if (deadline_ns < 0) continue;  // spurious; loop re-derives timeout
      throw IpcError(IpcErrorKind::Timeout, timeout_what);
    }
    if (errno == EINTR) continue;
    throw_errno(IpcErrorKind::SysError, "poll");
  }
}

/// Waits for `fd` to become readable before `deadline_ns` (-1 = forever).
void wait_readable(int fd, std::int64_t deadline_ns) {
  wait_pollable(fd, POLLIN, deadline_ns,
                "no complete frame before the deadline");
}

/// Waits for `fd` to accept more bytes before `deadline_ns` (-1 =
/// forever) — the backpressure path for non-blocking sockets.
void wait_writable(int fd, std::int64_t deadline_ns) {
  wait_pollable(fd, POLLOUT, deadline_ns,
                "peer applied backpressure past the deadline");
}

/// Applies the channel socket options: no Nagle (strict request/reply
/// would otherwise serialise on the delayed-ACK timer), keepalive (a
/// vanished peer must surface as an error eventually), non-blocking (so
/// send() can honor deadlines under backpressure via wait_writable).
void configure_channel_socket(int fd) {
  const int one = 1;
  // TCP_NODELAY fails harmlessly on AF_UNIX sockets; ignore the error.
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (::setsockopt(fd, SOL_SOCKET, SO_KEEPALIVE, &one, sizeof(one)) != 0) {
    throw_errno(IpcErrorKind::SysError, "setsockopt(SO_KEEPALIVE)");
  }
  const int flags = ::fcntl(fd, F_GETFL);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    throw_errno(IpcErrorKind::SysError, "fcntl(O_NONBLOCK)");
  }
}

/// Closes `fd` preserving errno (for error-path cleanup).
void close_quietly(int fd) noexcept {
  const int err = errno;
  ::close(fd);
  errno = err;
}

struct ResolvedAddr {
  sockaddr_storage addr{};
  socklen_t len = 0;
  int family = AF_INET;
};

/// Resolves `host:port` to one sockaddr (numeric or named hosts; the
/// first result wins). Throws IpcError{SysError} on resolution failure.
ResolvedAddr resolve_host(const std::string& host, std::uint16_t port) {
  struct addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_protocol = IPPROTO_TCP;
  struct addrinfo* result = nullptr;
  const std::string service = std::to_string(port);
  const int rc = ::getaddrinfo(host.c_str(), service.c_str(), &hints,
                               &result);
  if (rc != 0 || result == nullptr) {
    throw IpcError(IpcErrorKind::SysError,
                   "cannot resolve \"" + host + "\": " +
                       (rc != 0 ? ::gai_strerror(rc) : "no addresses"));
  }
  ResolvedAddr out;
  std::memcpy(&out.addr, result->ai_addr, result->ai_addrlen);
  out.len = static_cast<socklen_t>(result->ai_addrlen);
  out.family = result->ai_family;
  ::freeaddrinfo(result);
  return out;
}

}  // namespace

const char* ipc_error_kind_name(IpcErrorKind kind) noexcept {
  switch (kind) {
    case IpcErrorKind::Eof:
      return "eof";
    case IpcErrorKind::TruncatedFrame:
      return "truncated-frame";
    case IpcErrorKind::BadMagic:
      return "bad-magic";
    case IpcErrorKind::OversizedFrame:
      return "oversized-frame";
    case IpcErrorKind::Timeout:
      return "timeout";
    case IpcErrorKind::SysError:
      return "sys-error";
  }
  return "unknown";
}

IpcChannel::IpcChannel(int read_fd, int write_fd,
                       std::uint32_t max_frame_bytes)
    : read_fd_(read_fd), write_fd_(write_fd),
      max_frame_bytes_(max_frame_bytes) {
  // A peer that died mid-conversation must surface as EPIPE from write(),
  // not as a process-killing SIGPIPE. Installing SIG_IGN once is the
  // standard middleware move; done lazily here so programs that never use
  // IPC keep their default disposition.
  static const bool sigpipe_ignored = [] {
    std::signal(SIGPIPE, SIG_IGN);
    return true;
  }();
  (void)sigpipe_ignored;
}

IpcChannel IpcChannel::connect_tcp(const std::string& host,
                                   std::uint16_t port, double timeout_s,
                                   std::uint32_t max_frame_bytes) {
  const std::int64_t deadline_ns = deadline_from_timeout(timeout_s);
  const ResolvedAddr target = resolve_host(host, port);
  const int fd = ::socket(target.family,
                          SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK,
                          IPPROTO_TCP);
  if (fd < 0) throw_errno(IpcErrorKind::SysError, "socket");
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&target.addr),
                target.len) != 0) {
    if (errno != EINPROGRESS) {
      close_quietly(fd);
      throw_errno(IpcErrorKind::SysError, "connect");
    }
    // Non-blocking connect: completion is "socket writable"; the result
    // lands in SO_ERROR.
    try {
      wait_pollable(fd, POLLOUT, deadline_ns,
                    "connect did not complete before the deadline");
    } catch (...) {
      ::close(fd);
      throw;
    }
    int err = 0;
    socklen_t err_len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len) != 0) {
      close_quietly(fd);
      throw_errno(IpcErrorKind::SysError, "getsockopt(SO_ERROR)");
    }
    if (err != 0) {
      ::close(fd);
      errno = err;
      throw_errno(IpcErrorKind::SysError, "connect");
    }
  }
  try {
    configure_channel_socket(fd);
  } catch (...) {
    ::close(fd);
    throw;
  }
  return IpcChannel(fd, fd, max_frame_bytes);
}

IpcChannel::IpcChannel(IpcChannel&& other) noexcept
    : read_fd_(std::exchange(other.read_fd_, -1)),
      write_fd_(std::exchange(other.write_fd_, -1)),
      max_frame_bytes_(other.max_frame_bytes_) {}

IpcChannel& IpcChannel::operator=(IpcChannel&& other) noexcept {
  if (this != &other) {
    close_read();
    close_write();
    read_fd_ = std::exchange(other.read_fd_, -1);
    write_fd_ = std::exchange(other.write_fd_, -1);
    max_frame_bytes_ = other.max_frame_bytes_;
  }
  return *this;
}

IpcChannel::~IpcChannel() {
  close_read();
  close_write();
}

void IpcChannel::close_read() noexcept {
  if (read_fd_ < 0) return;
  if (read_fd_ == write_fd_) {
    // Both directions share a socket: half-close so the peer sees EOF,
    // and let whichever direction goes last do the real close.
    ::shutdown(read_fd_, SHUT_RD);
  } else {
    ::close(read_fd_);
  }
  read_fd_ = -1;
}

void IpcChannel::close_write() noexcept {
  if (write_fd_ < 0) return;
  if (write_fd_ == read_fd_) {
    ::shutdown(write_fd_, SHUT_WR);
  } else {
    ::close(write_fd_);
  }
  write_fd_ = -1;
}

std::pair<int, int> IpcChannel::release() noexcept {
  return {std::exchange(read_fd_, -1), std::exchange(write_fd_, -1)};
}

void IpcChannel::send(std::uint32_t type, std::span<const std::byte> payload,
                      double timeout_s) {
  send_gather(type, std::span<const std::span<const std::byte>>(&payload, 1),
              timeout_s);
}

void IpcChannel::send_gather(std::uint32_t type,
                             std::span<const std::span<const std::byte>> parts,
                             double timeout_s) {
  if (write_fd_ < 0) {
    throw IpcError(IpcErrorKind::SysError, "send on a read-only channel");
  }
  std::size_t total = 0;
  for (const std::span<const std::byte> part : parts) total += part.size();
  if (total > max_frame_bytes_) {
    throw IpcError(IpcErrorKind::OversizedFrame,
                   "refusing to send frame type " + std::to_string(type) +
                       " with a " + std::to_string(total) +
                       "-byte payload (max " +
                       std::to_string(max_frame_bytes_) + " bytes)");
  }
  const std::int64_t deadline_ns = deadline_from_timeout(timeout_s);
  FrameHeader header;
  header.type = type;
  header.length = static_cast<std::uint32_t>(total);

  // A frame larger than the kernel buffer legitimately lands in several
  // short writes, so loop until every byte of header + parts is out.
  // EAGAIN (a non-blocking socket whose peer applies backpressure) polls
  // for writability with the remaining deadline — never a busy-spin.
  auto write_part = [&](const std::byte* data, std::size_t remaining) {
    while (remaining > 0) {
      const ssize_t written = ::write(write_fd_, data, remaining);
      if (written < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          wait_writable(write_fd_, deadline_ns);
          continue;
        }
        throw_errno(IpcErrorKind::SysError, "write");
      }
      data += written;
      remaining -= static_cast<std::size_t>(written);
    }
  };
  write_part(reinterpret_cast<const std::byte*>(&header), sizeof(header));
  for (const std::span<const std::byte> part : parts) {
    write_part(part.data(), part.size());
  }
}

void IpcChannel::read_exact(std::byte* out, std::size_t size,
                            std::int64_t deadline_ns, bool header) {
  std::size_t have = 0;
  while (have < size) {
    wait_readable(read_fd_, deadline_ns);
    const ssize_t got = ::read(read_fd_, out + have, size - have);
    if (got < 0) {
      // EAGAIN after "readable": a spurious wakeup or a racing reader —
      // safe to re-poll (wait_readable re-derives the remaining time, so
      // this cannot spin).
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
        continue;
      }
      throw_errno(IpcErrorKind::SysError, "read");
    }
    if (got == 0) {
      if (header && have == 0) {
        throw IpcError(IpcErrorKind::Eof, "peer closed the channel");
      }
      throw IpcError(IpcErrorKind::TruncatedFrame,
                     "EOF after " + std::to_string(have) + " of " +
                         std::to_string(size) + " bytes" +
                         (header ? " of the frame header" : " of the payload"));
    }
    have += static_cast<std::size_t>(got);
  }
}

IpcFrame IpcChannel::recv(double timeout_s) {
  if (read_fd_ < 0) {
    throw IpcError(IpcErrorKind::SysError, "recv on a write-only channel");
  }
  const std::int64_t deadline_ns = deadline_from_timeout(timeout_s);
  FrameHeader header;
  read_exact(reinterpret_cast<std::byte*>(&header), sizeof(header),
             deadline_ns, /*header=*/true);
  if (header.magic != kFrameMagic) {
    throw IpcError(IpcErrorKind::BadMagic,
                   "frame header starts with unexpected bytes");
  }
  // Bound BEFORE the allocation: a corrupt length prefix must not drive
  // the buffer size.
  if (header.length > max_frame_bytes_) {
    throw IpcError(IpcErrorKind::OversizedFrame,
                   "frame type " + std::to_string(header.type) +
                       " length prefix claims " +
                       std::to_string(header.length) + " bytes (max " +
                       std::to_string(max_frame_bytes_) + " bytes)");
  }
  IpcFrame frame;
  frame.type = header.type;
  frame.payload.resize(header.length);
  if (header.length > 0) {
    read_exact(frame.payload.data(), frame.payload.size(), deadline_ns,
               /*header=*/false);
  }
  return frame;
}

IpcListener::IpcListener(const std::string& host, std::uint16_t port,
                         std::uint32_t max_frame_bytes)
    : max_frame_bytes_(max_frame_bytes) {
  const ResolvedAddr bind_addr = resolve_host(host, port);
  // Non-blocking: accept() polls first, but the queued connection can be
  // reset between poll and accept4 — on a blocking fd that accept4 would
  // hang forever instead of returning EAGAIN for the re-poll path.
  fd_ = ::socket(bind_addr.family,
                 SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, IPPROTO_TCP);
  if (fd_ < 0) throw_errno(IpcErrorKind::SysError, "socket");
  const int one = 1;
  if (::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) != 0) {
    close_quietly(std::exchange(fd_, -1));
    throw_errno(IpcErrorKind::SysError, "setsockopt(SO_REUSEADDR)");
  }
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&bind_addr.addr),
             bind_addr.len) != 0) {
    close_quietly(std::exchange(fd_, -1));
    throw_errno(IpcErrorKind::SysError, "bind");
  }
  if (::listen(fd_, 64) != 0) {
    close_quietly(std::exchange(fd_, -1));
    throw_errno(IpcErrorKind::SysError, "listen");
  }
  // Re-read the bound address: a port-0 request resolves here.
  sockaddr_storage bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len) !=
      0) {
    close_quietly(std::exchange(fd_, -1));
    throw_errno(IpcErrorKind::SysError, "getsockname");
  }
  if (bound.ss_family == AF_INET6) {
    port_ = ntohs(reinterpret_cast<const sockaddr_in6&>(bound).sin6_port);
  } else {
    port_ = ntohs(reinterpret_cast<const sockaddr_in&>(bound).sin_port);
  }
}

IpcListener::IpcListener(IpcListener&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      port_(std::exchange(other.port_, 0)),
      max_frame_bytes_(other.max_frame_bytes_) {}

IpcListener& IpcListener::operator=(IpcListener&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    port_ = std::exchange(other.port_, 0);
    max_frame_bytes_ = other.max_frame_bytes_;
  }
  return *this;
}

IpcListener::~IpcListener() { close(); }

void IpcListener::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  port_ = 0;
}

IpcChannel IpcListener::accept(double timeout_s) {
  if (fd_ < 0) {
    throw IpcError(IpcErrorKind::SysError, "accept on a closed listener");
  }
  const std::int64_t deadline_ns = deadline_from_timeout(timeout_s);
  for (;;) {
    wait_pollable(fd_, POLLIN, deadline_ns,
                  "no connection before the deadline");
    const int conn = ::accept4(fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (conn < 0) {
      // The pending connection can vanish between poll and accept
      // (client reset); re-poll with the remaining deadline.
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK ||
          errno == ECONNABORTED) {
        continue;
      }
      throw_errno(IpcErrorKind::SysError, "accept4");
    }
    try {
      configure_channel_socket(conn);
    } catch (...) {
      ::close(conn);
      throw;
    }
    return IpcChannel(conn, conn, max_frame_bytes_);
  }
}

IpcChannelPair make_ipc_channel_pair(std::uint32_t max_frame_bytes) {
  int to_child[2];   // parent writes -> child stdin
  int to_parent[2];  // child stdout -> parent reads
  if (::pipe2(to_child, O_CLOEXEC) != 0) {
    throw_errno(IpcErrorKind::SysError, "pipe2");
  }
  if (::pipe2(to_parent, O_CLOEXEC) != 0) {
    const int err = errno;
    ::close(to_child[0]);
    ::close(to_child[1]);
    errno = err;
    throw_errno(IpcErrorKind::SysError, "pipe2");
  }
  IpcChannelPair pair;
  pair.parent = IpcChannel(to_parent[0], to_child[1], max_frame_bytes);
  pair.child_read_fd = to_child[0];
  pair.child_write_fd = to_parent[1];
  return pair;
}

std::pair<std::string, std::uint16_t> parse_host_port(
    const std::string& endpoint) {
  std::string host;
  std::string port_text;
  if (!endpoint.empty() && endpoint.front() == '[') {
    // Bracketed IPv6 literal: "[::1]:7070".
    const std::size_t close = endpoint.find(']');
    if (close == std::string::npos || close < 2 ||
        close + 2 >= endpoint.size() || endpoint[close + 1] != ':') {
      throw IpcError(IpcErrorKind::SysError,
                     "malformed endpoint \"" + endpoint +
                         "\" (expected [ipv6-addr]:port)");
    }
    host = endpoint.substr(1, close - 1);
    port_text = endpoint.substr(close + 2);
  } else {
    const std::size_t colon = endpoint.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= endpoint.size()) {
      throw IpcError(IpcErrorKind::SysError,
                     "malformed endpoint \"" + endpoint +
                         "\" (expected host:port)");
    }
    if (endpoint.find(':') != colon) {
      throw IpcError(IpcErrorKind::SysError,
                     "malformed endpoint \"" + endpoint +
                         "\" (bare IPv6 literals are ambiguous; use "
                         "[addr]:port)");
    }
    host = endpoint.substr(0, colon);
    port_text = endpoint.substr(colon + 1);
  }
  std::uint32_t port = 0;
  for (const char c : port_text) {
    if (c < '0' || c > '9') {
      throw IpcError(IpcErrorKind::SysError,
                     "malformed endpoint \"" + endpoint +
                         "\" (port is not a number)");
    }
    port = port * 10 + static_cast<std::uint32_t>(c - '0');
    if (port > 65535) {
      throw IpcError(IpcErrorKind::SysError,
                     "malformed endpoint \"" + endpoint +
                         "\" (port out of range)");
    }
  }
  return {host, static_cast<std::uint16_t>(port)};
}

}  // namespace knnpc
