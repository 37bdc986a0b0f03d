// Blocking NDJSON client for the estimation service. One connection, one
// outstanding request at a time (the protocol answers in order, so callers
// wanting pipelining open one Client per worker thread).
#pragma once

#include <cstdint>
#include <string>

#include "service/protocol.hpp"
#include "support/status.hpp"

namespace segbus::service {

/// Move-only connection handle to a SocketServer endpoint.
class Client {
 public:
  static Result<Client> connect_unix(const std::string& path);
  static Result<Client> connect_tcp(std::uint16_t port,
                                    const std::string& host = "127.0.0.1");

  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  ~Client();

  /// Sends one request line and blocks for its response line.
  Result<JobResponse> call(const JobRequest& request);

  /// Raw variant: sends `line` (newline appended) and returns the response
  /// line verbatim. Used by tests probing wire-level behaviour.
  Result<std::string> call_raw(const std::string& line);

  bool connected() const noexcept { return fd_ >= 0; }
  void close();

 private:
  explicit Client(int fd) : fd_(fd) {}

  int fd_ = -1;
  std::string buffer_;  ///< bytes read past the last newline
};

}  // namespace segbus::service
