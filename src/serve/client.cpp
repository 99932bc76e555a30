#include "serve/client.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <map>
#include <stdexcept>

#include "serve/json.hpp"

namespace ptaint::serve {

Client::Client(const std::string& socket_path) {
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) {
    throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof addr.sun_path) {
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("socket path too long: " + socket_path);
  }
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof addr.sun_path - 1);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("connect " + socket_path + ": " +
                             std::strerror(err));
  }
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

void Client::send_line(const std::string& line) {
  std::string out = line;
  out += '\n';
  size_t off = 0;
  while (off < out.size()) {
    const ssize_t n =
        ::send(fd_, out.data() + off, out.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("send: ") + std::strerror(errno));
    }
    off += static_cast<size_t>(n);
  }
}

std::optional<std::string> Client::read_line() {
  for (;;) {
    const size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      std::string line = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      return line;
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return std::nullopt;
    }
    if (n == 0) return std::nullopt;
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

std::string Client::request(const std::string& line) {
  send_line(line);
  auto reply = read_line();
  if (!reply) throw std::runtime_error("daemon hung up mid-request");
  return *reply;
}

Client::Streamed Client::submit_stream(const std::vector<std::string>& jobs) {
  std::string req = "{\"cmd\": \"submit\", \"stream\": true, \"jobs\": [";
  for (size_t i = 0; i < jobs.size(); ++i) {
    if (i != 0) req += ", ";
    req += jobs[i];
  }
  req += "]}";

  Streamed out;
  out.reply = request(req);
  const JsonValue reply = JsonValue::parse(out.reply);
  out.accepted = reply.get_string("event") == "accepted";
  // An error reply lists the accepted prefix; those jobs still run and
  // stream their events on this connection.
  std::map<uint64_t, size_t> slot;
  if (const JsonValue* ids = reply.get(out.accepted ? "ids" : "accepted")) {
    for (const JsonValue& id : ids->as_array()) {
      const size_t index = slot.size();
      slot.emplace(id.as_u64(), index);
    }
  }
  out.events.resize(slot.size());
  for (size_t seen = 0; seen < slot.size();) {
    auto line = read_line();
    if (!line) throw std::runtime_error("daemon hung up mid-stream");
    const auto it = slot.find(JsonValue::parse(*line).get_u64("id"));
    if (it == slot.end() || !out.events[it->second].empty()) continue;
    out.events[it->second] = std::move(*line);
    ++seen;
  }
  return out;
}

}  // namespace ptaint::serve
