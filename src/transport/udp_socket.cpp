#include "transport/udp_socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "transport/wire_format.hpp"

namespace precinct::transport {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::runtime_error(std::string(what) + ": " +
                           std::strerror(errno));
}

[[nodiscard]] sockaddr_in to_sockaddr(const UdpAddress& addr) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(addr.host);
  sa.sin_port = htons(addr.port);
  return sa;
}

}  // namespace

UdpAddress parse_address(const std::string& text) {
  const auto colon = text.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= text.size()) {
    throw std::invalid_argument("udp address must be a.b.c.d:port, got '" +
                                text + "'");
  }
  const std::string host = text.substr(0, colon);
  const std::string port = text.substr(colon + 1);
  in_addr parsed{};
  if (inet_pton(AF_INET, host.c_str(), &parsed) != 1) {
    throw std::invalid_argument("bad IPv4 host in udp address '" + text +
                                "'");
  }
  std::size_t used = 0;
  unsigned long value = 0;
  try {
    value = std::stoul(port, &used);
  } catch (const std::exception&) {
    throw std::invalid_argument("bad port in udp address '" + text + "'");
  }
  if (used != port.size() || value == 0 || value > 65535) {
    throw std::invalid_argument("bad port in udp address '" + text + "'");
  }
  UdpAddress out;
  out.host = ntohl(parsed.s_addr);
  out.port = static_cast<std::uint16_t>(value);
  return out;
}

std::string to_string(const UdpAddress& addr) {
  in_addr ia{};
  ia.s_addr = htonl(addr.host);
  char text[INET_ADDRSTRLEN] = {};
  inet_ntop(AF_INET, &ia, text, sizeof text);
  return std::string(text) + ":" + std::to_string(addr.port);
}

UdpSocket::UdpSocket(const UdpAddress& bind_addr) {
  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd_ < 0) throw_errno("socket");
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK) < 0) {
    const int err = errno;
    ::close(fd_);
    errno = err;
    throw_errno("fcntl(O_NONBLOCK)");
  }
  sockaddr_in sa = to_sockaddr(bind_addr);
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&sa), sizeof sa) < 0) {
    const int err = errno;
    ::close(fd_);
    errno = err;
    throw std::runtime_error("bind " + to_string(bind_addr) + ": " +
                             std::strerror(errno));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
    const int err = errno;
    ::close(fd_);
    errno = err;
    throw_errno("getsockname");
  }
  local_port_ = ntohs(bound.sin_port);
}

UdpSocket::~UdpSocket() {
  if (fd_ >= 0) ::close(fd_);
}

UdpSocket::UdpSocket(UdpSocket&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      local_port_(std::exchange(other.local_port_, 0)) {}

UdpSocket& UdpSocket::operator=(UdpSocket&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    local_port_ = std::exchange(other.local_port_, 0);
  }
  return *this;
}

bool UdpSocket::send_to(const UdpAddress& dst, const std::uint8_t* data,
                        std::size_t size) {
  if (size > kMaxDatagram) {
    throw std::runtime_error("datagram exceeds kMaxDatagram: " +
                             std::to_string(size));
  }
  const sockaddr_in sa = to_sockaddr(dst);
  const ssize_t n =
      ::sendto(fd_, data, size, 0, reinterpret_cast<const sockaddr*>(&sa),
               sizeof sa);
  if (n < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ENOBUFS ||
        errno == ECONNREFUSED) {
      // Full buffer or a peer that has not bound yet: both look like
      // datagram loss; the window protocol retransmits.
      return false;
    }
    throw_errno("sendto");
  }
  return static_cast<std::size_t>(n) == size;
}

std::optional<std::size_t> UdpSocket::recv_from(std::span<std::uint8_t> buf,
                                                UdpAddress* from) {
  sockaddr_in sa{};
  socklen_t len = sizeof sa;
  const ssize_t n = ::recvfrom(fd_, buf.data(), buf.size(), 0,
                               reinterpret_cast<sockaddr*>(&sa), &len);
  if (n < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR ||
        errno == ECONNREFUSED) {
      return std::nullopt;
    }
    throw_errno("recvfrom");
  }
  if (from != nullptr) {
    from->host = ntohl(sa.sin_addr.s_addr);
    from->port = ntohs(sa.sin_port);
  }
  return static_cast<std::size_t>(n);
}

bool UdpSocket::wait_readable(int timeout_ms) {
  pollfd pfd{};
  pfd.fd = fd_;
  pfd.events = POLLIN;
  const int rc = ::poll(&pfd, 1, timeout_ms);
  if (rc < 0) {
    if (errno == EINTR) return false;
    throw_errno("poll");
  }
  return rc > 0 && (pfd.revents & POLLIN) != 0;
}

}  // namespace precinct::transport
