// Client side of the ptaint-serve socket protocol.
//
// Client is a thin line-oriented connection: one newline-delimited JSON
// request out, reply lines (and, for streaming submits, verdict events)
// back.  submit_stream() is the one streaming-submit sequence, shared by
// ptaint-client and bench_serve.
#pragma once

#include <optional>
#include <string>
#include <vector>

namespace ptaint::serve {

class Client {
 public:
  /// Connects to the daemon's Unix-domain socket; throws
  /// std::runtime_error when nobody is listening.
  explicit Client(const std::string& socket_path);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Writes one protocol line (terminator appended).  Throws on a broken
  /// connection.
  void send_line(const std::string& line);

  /// Reads the next line from the daemon; nullopt once it hangs up.
  std::optional<std::string> read_line();

  /// send_line + read_line for single-reply commands; throws if the
  /// daemon hangs up before replying.
  std::string request(const std::string& line);

  /// What one streaming submit got back.
  struct Streamed {
    /// The daemon's reply line: an `accepted` event, or an `error` event
    /// when it rejected the batch or a suffix of it (over quota, draining).
    std::string reply;
    bool accepted = false;
    /// One event line per job the daemon accepted (a `verdict`, or
    /// `cancelled` if another client cancelled it), in submission order
    /// although they stream in completion order.
    std::vector<std::string> events;
  };

  /// Submits `jobs` (each a JSON job-spec object) as one streaming batch
  /// and reads the event of every accepted job, the accepted prefix of a
  /// rejected batch included, so the connection is ready for the next
  /// request.  Throws std::runtime_error if the daemon hangs up first.
  Streamed submit_stream(const std::vector<std::string>& jobs);

 private:
  int fd_ = -1;
  std::string buffer_;
};

}  // namespace ptaint::serve
