#ifndef TLP_NET_CLIENT_H_
#define TLP_NET_CLIENT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "net/socket.h"
#include "net/wire.h"

namespace tlp::net {

/// Blocking request/reply client for one tlp_serve connection. One
/// outstanding query at a time (Execute = send + receive); the closed-loop
/// benchmark drives many connections from one thread with its own
/// nonblocking loop over the same wire primitives instead.
class QueryClient {
 public:
  QueryClient() = default;

  /// Connects to `host:port` (IPv4 dotted quad).
  [[nodiscard]] Status Connect(const std::string& host, std::uint16_t port);

  [[nodiscard]] bool connected() const { return fd_.valid(); }

  /// Sends one query and blocks for its reply. A BUSY or ERR reply is a
  /// SUCCESSFUL round-trip (inspect reply->kind); a failed Status means
  /// the connection itself broke and the client must reconnect — except
  /// kInvalidArgument for a statement over kMaxFrameBytes, which is
  /// refused before anything is sent.
  [[nodiscard]] Status Execute(std::string_view query, Reply* reply);

  void Close() { fd_.reset(); }

 private:
  UniqueFd fd_;
  FrameDecoder decoder_;
};

}  // namespace tlp::net

#endif  // TLP_NET_CLIENT_H_
