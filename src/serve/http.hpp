// Minimal HTTP/1.1 framing over POSIX sockets for the analysis daemon.
//
// This is deliberately not a web framework: the server speaks exactly the
// subset `latol serve` needs — request line + headers + Content-Length
// body in, status + headers + body out, one request per connection
// (Connection: close). Parsing is separated from socket I/O so the
// malformed-input corpus can be unit-tested without a file descriptor,
// and every read is bounded (head size, body size, receive timeout) so a
// hostile or broken client cannot wedge a worker or exhaust memory
// (DESIGN.md §11).
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace latol::serve {

/// Bounds on what the server will read from one connection; exceeding
/// them fails the read with a typed status instead of growing buffers.
struct HttpLimits {
  /// Request line + headers ceiling, bytes.
  std::size_t max_head_bytes = 16 * 1024;
  /// Request body (Content-Length) ceiling, bytes.
  std::size_t max_body_bytes = 1024 * 1024;
  /// Socket receive timeout, seconds: a client that stops sending
  /// mid-request is cut off (408) after this long, freeing the worker.
  double read_timeout_s = 10.0;
};

/// One parsed request. Header names are stored lowercased (HTTP headers
/// are case-insensitive); values keep their bytes minus surrounding
/// whitespace.
struct HttpRequest {
  std::string method;  ///< "GET", "POST", ... (uppercase per RFC)
  std::string target;  ///< request target, e.g. "/v1/analyze"
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  /// Value of header `name` (matched case-insensitively against the
  /// stored lowercase names); nullptr when absent.
  [[nodiscard]] const std::string* header(std::string_view name) const;
};

/// One response to serialize. `extra_headers` ride between the standard
/// headers and the blank line (used for Retry-After, X-Latol-Exit).
struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::vector<std::pair<std::string, std::string>> extra_headers;
  std::string body;
};

/// How reading one request from a socket ended.
enum class ReadStatus {
  kOk,         ///< a complete request was parsed
  kClosed,     ///< peer closed before sending a complete request
  kMalformed,  ///< bytes arrived but do not form a valid request
  kTooLarge,   ///< head or declared body exceeds HttpLimits
  kTimeout,    ///< peer stalled longer than the receive timeout
};

/// Canonical reason phrase for the status codes the server emits
/// ("Not Found" for 404, ...); "Unknown" for anything else.
[[nodiscard]] const char* http_status_reason(int status);

/// Parse the head (request line + header lines, NOT including the
/// terminating blank line) into `out.method/target/headers`. Returns
/// false and sets `error` on malformed input. Pure function of the bytes,
/// separated from socket I/O so the fault corpus is unit-testable.
[[nodiscard]] bool parse_http_head(std::string_view head, HttpRequest& out,
                                   std::string* error);

/// Read one full request from connected socket `fd`, honoring `limits`
/// (head/body ceilings, receive timeout). On kMalformed/kTooLarge,
/// `error` (when non-null) receives a human-readable reason. Chunked
/// transfer encoding is not supported and reports kMalformed.
[[nodiscard]] ReadStatus read_http_request(int fd, const HttpLimits& limits,
                                           HttpRequest& out,
                                           std::string* error);

/// Serialize `response` (status line, standard + extra headers,
/// Content-Length, Connection: close, body) and send it fully to `fd`.
/// Returns false when the peer is gone (EPIPE, reset) — callers just
/// close; a dead client is not an error worth propagating.
[[nodiscard]] bool write_http_response(int fd, const HttpResponse& response);

}  // namespace latol::serve
