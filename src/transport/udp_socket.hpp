// Thin RAII wrapper over a non-blocking AF_INET UDP socket.  The transport
// runs fleets on one host (loopback) by default, but nothing here assumes
// it: addresses are plain IPv4 host:port pairs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>

namespace precinct::transport {

/// IPv4 endpoint in host byte order.
struct UdpAddress {
  std::uint32_t host = 0;  ///< e.g. 127.0.0.1 == 0x7F000001
  std::uint16_t port = 0;

  [[nodiscard]] bool operator==(const UdpAddress&) const = default;
};

/// Parse "a.b.c.d:port".  Throws std::invalid_argument on malformed input.
[[nodiscard]] UdpAddress parse_address(const std::string& text);

/// Render an address back to "a.b.c.d:port".
[[nodiscard]] std::string to_string(const UdpAddress& addr);

inline constexpr std::uint32_t kLoopbackHost = 0x7F000001;

/// Non-blocking datagram socket.  Move-only; the descriptor closes with
/// the object.  All methods throw std::runtime_error on unexpected OS
/// errors; would-block conditions are normal returns.
class UdpSocket {
 public:
  /// Create + bind.  `port` 0 lets the OS pick (see local_port()).
  explicit UdpSocket(const UdpAddress& bind_addr);
  ~UdpSocket();

  UdpSocket(UdpSocket&& other) noexcept;
  UdpSocket& operator=(UdpSocket&& other) noexcept;
  UdpSocket(const UdpSocket&) = delete;
  UdpSocket& operator=(const UdpSocket&) = delete;

  /// Send one datagram.  Returns false if the kernel buffer is full
  /// (EAGAIN) — callers treat that like datagram loss and rely on the
  /// retransmit path.
  bool send_to(const UdpAddress& dst, const std::uint8_t* data,
               std::size_t size);

  /// Receive one datagram into `buf` (a longer one is cut to its size).
  /// Returns the datagram's length, or nothing when none is pending.
  /// `from`, if non-null, receives the sender address.
  std::optional<std::size_t> recv_from(std::span<std::uint8_t> buf,
                                       UdpAddress* from = nullptr);

  /// Block until readable or `timeout_ms` elapses (<0 waits forever).
  /// Returns true when readable.
  bool wait_readable(int timeout_ms);

  [[nodiscard]] std::uint16_t local_port() const { return local_port_; }
  [[nodiscard]] int fd() const noexcept { return fd_; }

 private:
  int fd_ = -1;
  std::uint16_t local_port_ = 0;
};

}  // namespace precinct::transport
