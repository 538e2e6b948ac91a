#include "serve/http.hpp"

#include <sys/socket.h>
#include <sys/time.h>

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstring>

namespace latol::serve {

namespace {

std::string to_lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

/// A "token" per RFC 9110 — what method and header names must be.
bool is_token(std::string_view s) {
  if (s.empty()) return false;
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    const bool ok = std::isalnum(u) != 0 ||
                    std::strchr("!#$%&'*+-.^_`|~", c) != nullptr;
    if (!ok) return false;
  }
  return true;
}

bool set_socket_timeout(int fd, int option, double seconds) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>(
      (seconds - std::floor(seconds)) * 1e6);
  return ::setsockopt(fd, SOL_SOCKET, option, &tv, sizeof tv) == 0;
}

}  // namespace

const std::string* HttpRequest::header(std::string_view name) const {
  const std::string wanted = to_lower(name);
  for (const auto& [key, value] : headers) {
    if (key == wanted) return &value;
  }
  return nullptr;
}

const char* http_status_reason(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 408:
      return "Request Timeout";
    case 413:
      return "Content Too Large";
    case 500:
      return "Internal Server Error";
    case 503:
      return "Service Unavailable";
    case 504:
      return "Gateway Timeout";
    default:
      return "Unknown";
  }
}

bool parse_http_head(std::string_view head, HttpRequest& out,
                     std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  out.method.clear();
  out.target.clear();
  out.headers.clear();

  // Request line: METHOD SP target SP HTTP/1.x
  std::size_t line_end = head.find("\r\n");
  const std::string_view request_line =
      line_end == std::string_view::npos ? head : head.substr(0, line_end);
  const std::size_t sp1 = request_line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string_view::npos ? sp1 : request_line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos) {
    return fail("malformed request line");
  }
  const std::string_view method = request_line.substr(0, sp1);
  const std::string_view target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::string_view version = request_line.substr(sp2 + 1);
  if (!is_token(method)) return fail("malformed request method");
  if (target.empty() || target.front() != '/') {
    return fail("request target must be an absolute path");
  }
  if (version != "HTTP/1.1" && version != "HTTP/1.0") {
    return fail("unsupported protocol version");
  }
  out.method = std::string(method);
  out.target = std::string(target);

  // Header lines: token ":" value
  std::size_t pos =
      line_end == std::string_view::npos ? head.size() : line_end + 2;
  while (pos < head.size()) {
    std::size_t end = head.find("\r\n", pos);
    if (end == std::string_view::npos) end = head.size();
    const std::string_view line = head.substr(pos, end - pos);
    pos = end + 2;
    if (line.empty()) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) {
      return fail("header line without `:`");
    }
    const std::string_view name = line.substr(0, colon);
    if (!is_token(name)) return fail("malformed header name");
    out.headers.emplace_back(to_lower(name),
                             std::string(trim(line.substr(colon + 1))));
  }
  return true;
}

ReadStatus read_http_request(int fd, const HttpLimits& limits,
                             HttpRequest& out, std::string* error) {
  const auto fail = [&](ReadStatus status, const std::string& why) {
    if (error != nullptr) *error = why;
    return status;
  };
  // A stalling peer must not pin the worker: every recv() is bounded by
  // the configured receive timeout.
  (void)set_socket_timeout(fd, SO_RCVTIMEO, limits.read_timeout_s);

  std::string buffer;
  std::size_t head_end = std::string::npos;
  char chunk[4096];
  while (true) {
    head_end = buffer.find("\r\n\r\n");
    if (head_end != std::string::npos) break;
    if (buffer.size() > limits.max_head_bytes) {
      return fail(ReadStatus::kTooLarge,
                  "request head exceeds " +
                      std::to_string(limits.max_head_bytes) + " bytes");
    }
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n == 0) {
      if (buffer.empty()) return ReadStatus::kClosed;
      return fail(ReadStatus::kClosed, "connection closed mid-head");
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return fail(ReadStatus::kTimeout, "timed out reading request head");
      }
      if (errno == EINTR) continue;
      return fail(ReadStatus::kClosed, "recv failed mid-head");
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
  if (head_end > limits.max_head_bytes) {
    return fail(ReadStatus::kTooLarge,
                "request head exceeds " +
                    std::to_string(limits.max_head_bytes) + " bytes");
  }
  if (!parse_http_head(std::string_view(buffer).substr(0, head_end), out,
                       error)) {
    return ReadStatus::kMalformed;
  }

  if (out.header("transfer-encoding") != nullptr) {
    return fail(ReadStatus::kMalformed,
                "transfer-encoding is not supported; send Content-Length");
  }
  std::size_t content_length = 0;
  if (const std::string* cl = out.header("content-length")) {
    const auto [ptr, ec] = std::from_chars(
        cl->data(), cl->data() + cl->size(), content_length);
    if (ec != std::errc() || ptr != cl->data() + cl->size()) {
      return fail(ReadStatus::kMalformed, "malformed Content-Length");
    }
  }
  if (content_length > limits.max_body_bytes) {
    return fail(ReadStatus::kTooLarge,
                "declared body of " + std::to_string(content_length) +
                    " bytes exceeds " +
                    std::to_string(limits.max_body_bytes) + " bytes");
  }

  out.body = buffer.substr(head_end + 4);
  if (out.body.size() > content_length) {
    // Trailing bytes beyond the declared body (pipelining is not
    // supported; one request per connection).
    return fail(ReadStatus::kMalformed,
                "more body bytes than Content-Length declares");
  }
  while (out.body.size() < content_length) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n == 0) {
      return fail(ReadStatus::kClosed, "connection closed mid-body");
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return fail(ReadStatus::kTimeout, "timed out reading request body");
      }
      if (errno == EINTR) continue;
      return fail(ReadStatus::kClosed, "recv failed mid-body");
    }
    out.body.append(chunk, static_cast<std::size_t>(n));
    if (out.body.size() > content_length) {
      return fail(ReadStatus::kMalformed,
                  "more body bytes than Content-Length declares");
    }
  }
  return ReadStatus::kOk;
}

bool write_http_response(int fd, const HttpResponse& response) {
  std::string out = "HTTP/1.1 " + std::to_string(response.status) + " " +
                    http_status_reason(response.status) + "\r\n";
  out += "Content-Type: " + response.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  out += "Connection: close\r\n";
  for (const auto& [name, value] : response.extra_headers) {
    out += name + ": " + value + "\r\n";
  }
  out += "\r\n";
  out += response.body;

  // MSG_NOSIGNAL: a client that disconnected mid-response must produce a
  // return code here, not SIGPIPE the whole daemon.
  std::size_t sent = 0;
  while (sent < out.size()) {
    const ssize_t n =
        ::send(fd, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace latol::serve
