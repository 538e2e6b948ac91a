// Fault-injection and robustness suite for the analysis daemon: the HTTP
// parse corpus, admission control (bounded queue + 503 shedding),
// request deadlines (504 without wedging a worker), graceful drain, and
// byte-identity of /v1/<command> responses with the CLI.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli/options.hpp"
#include "cli/serve_cmd.hpp"
#include "io/json.hpp"
#include "serve/http.hpp"
#include "serve/server.hpp"
#include "util/error.hpp"

namespace latol::serve {
namespace {

// --- raw TCP client helpers ----------------------------------------------

int connect_to(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  return fd;
}

void send_all(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    sent += static_cast<std::size_t>(n);
  }
}

std::string read_to_eof(int fd) {
  std::string out;
  char chunk[4096];
  while (true) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) break;
    out.append(chunk, static_cast<std::size_t>(n));
  }
  return out;
}

/// A parsed raw response: status line code, headers, body.
struct RawResponse {
  int status = 0;
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  [[nodiscard]] std::string header(const std::string& name) const {
    for (const auto& [key, value] : headers) {
      if (key == name) return value;
    }
    return "";
  }
};

RawResponse parse_response(const std::string& raw) {
  RawResponse r;
  const std::size_t head_end = raw.find("\r\n\r\n");
  if (head_end == std::string::npos) return r;
  r.body = raw.substr(head_end + 4);
  std::size_t pos = raw.find("\r\n");
  if (pos == std::string::npos || raw.size() < 12) return r;
  r.status = std::stoi(raw.substr(9, 3));
  pos += 2;
  while (pos < head_end) {
    std::size_t end = raw.find("\r\n", pos);
    if (end == std::string::npos || end > head_end) end = head_end;
    const std::string line = raw.substr(pos, end - pos);
    pos = end + 2;
    const std::size_t colon = line.find(": ");
    if (colon != std::string::npos) {
      r.headers.emplace_back(line.substr(0, colon), line.substr(colon + 2));
    }
  }
  return r;
}

/// Send one full request and collect the response.
RawResponse roundtrip(int port, const std::string& request) {
  const int fd = connect_to(port);
  send_all(fd, request);
  const RawResponse r = parse_response(read_to_eof(fd));
  ::close(fd);
  return r;
}

std::string make_request(const std::string& method, const std::string& target,
                         const std::string& body = "",
                         const std::string& extra_headers = "") {
  return method + " " + target + " HTTP/1.1\r\nHost: t\r\n" + extra_headers +
         "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n" + body;
}

/// A running server for one test, torn down via drain.
class TestServer {
 public:
  explicit TestServer(ServerConfig config)
      : server_(std::move(config), cli::make_command_runner(), nullptr) {
    server_.start();
  }
  ~TestServer() {
    if (!stopped_) stop();
  }
  int stop() {
    stopped_ = true;
    server_.request_stop();
    return server_.run();
  }
  [[nodiscard]] int port() const { return server_.port(); }
  [[nodiscard]] Server& server() { return server_; }

 private:
  Server server_;
  bool stopped_ = false;
};

ServerConfig small_config() {
  ServerConfig config;
  config.port = 0;
  config.max_concurrent = 2;
  config.queue_limit = 4;
  config.http.read_timeout_s = 5.0;
  return config;
}

// --- parse_http_head corpus ----------------------------------------------

TEST(ParseHttpHead, ValidRequestLineAndHeaders) {
  HttpRequest req;
  std::string error;
  ASSERT_TRUE(parse_http_head(
      "POST /v1/analyze HTTP/1.1\r\nContent-Type: application/json\r\n"
      "X-Deadline-Ms:  250 ",
      req, &error));
  EXPECT_EQ(req.method, "POST");
  EXPECT_EQ(req.target, "/v1/analyze");
  ASSERT_EQ(req.headers.size(), 2u);
  EXPECT_EQ(req.headers[0].first, "content-type");  // names lowercased
  EXPECT_EQ(req.headers[1].second, "250");          // values trimmed
  ASSERT_NE(req.header("x-deadline-ms"), nullptr);
  ASSERT_NE(req.header("X-DEADLINE-MS"), nullptr);  // lookup insensitive
}

TEST(ParseHttpHead, MalformedCorpusAllRejected) {
  const char* corpus[] = {
      "",                                    // empty
      "GARBAGE",                             // no spaces
      "GET /x",                              // missing version
      "GET /x HTTP/2.0",                     // unsupported version
      "GET x HTTP/1.1",                      // target not absolute
      "G@T /x HTTP/1.1",                     // method not a token
      "GET /x HTTP/1.1\r\nno-colon-line",    // header without colon
      "GET /x HTTP/1.1\r\nbad name: v",      // header name with space
      " GET /x HTTP/1.1",                    // leading space
  };
  for (const char* head : corpus) {
    HttpRequest req;
    std::string error;
    EXPECT_FALSE(parse_http_head(head, req, &error)) << "head: " << head;
    EXPECT_FALSE(error.empty()) << "head: " << head;
  }
}

// --- config parsing -------------------------------------------------------

TEST(ServerConfig, UnknownKeyIsRejected) {
  EXPECT_THROW(
      (void)ServerConfig::from_json(io::parse_json("{\"prot\": 80}")),
      InvalidArgument);
}

TEST(ServerConfig, IllTypedValueIsRejected) {
  EXPECT_THROW(
      (void)ServerConfig::from_json(io::parse_json("{\"port\": \"80\"}")),
      InvalidArgument);
  EXPECT_THROW(
      (void)ServerConfig::from_json(io::parse_json("{\"port\": 70000}")),
      InvalidArgument);
  EXPECT_THROW(
      (void)ServerConfig::from_json(io::parse_json("{\"queue_limit\": 0}")),
      InvalidArgument);
}

TEST(ServerConfig, ParsesEveryKnownKey) {
  const ServerConfig c = ServerConfig::from_json(io::parse_json(R"({
    "host": "127.0.0.1", "port": 8080, "max_concurrent": 3,
    "queue_limit": 7, "default_deadline_ms": 100, "max_deadline_ms": 5000,
    "retry_after_s": 2, "cache_path": "/tmp/c.json", "cache_capacity": 50,
    "read_timeout_s": 1.5, "max_head_bytes": 1024, "max_body_bytes": 2048
  })"));
  EXPECT_EQ(c.port, 8080);
  EXPECT_EQ(c.max_concurrent, 3u);
  EXPECT_EQ(c.queue_limit, 7u);
  EXPECT_DOUBLE_EQ(c.default_deadline_ms, 100.0);
  EXPECT_DOUBLE_EQ(c.max_deadline_ms, 5000.0);
  EXPECT_EQ(c.retry_after_s, 2);
  EXPECT_EQ(c.cache_path, "/tmp/c.json");
  EXPECT_EQ(c.cache_capacity, 50u);
  EXPECT_DOUBLE_EQ(c.http.read_timeout_s, 1.5);
  EXPECT_EQ(c.http.max_head_bytes, 1024u);
  EXPECT_EQ(c.http.max_body_bytes, 2048u);
}

// --- endpoints ------------------------------------------------------------

TEST(Serve, HealthzAnswersOk) {
  TestServer ts(small_config());
  const RawResponse r = roundtrip(ts.port(), make_request("GET", "/healthz"));
  EXPECT_EQ(r.status, 200);
  // Body carries the build version after the token: "ok <version>\n".
  EXPECT_EQ(r.body.rfind("ok ", 0), 0u);
  EXPECT_EQ(r.body.back(), '\n');
}

TEST(Serve, UnknownPathIs404AndWrongMethodIs405) {
  TestServer ts(small_config());
  EXPECT_EQ(roundtrip(ts.port(), make_request("GET", "/nope")).status, 404);
  EXPECT_EQ(roundtrip(ts.port(), make_request("POST", "/healthz")).status,
            405);
  EXPECT_EQ(roundtrip(ts.port(), make_request("GET", "/v1/analyze")).status,
            405);
  EXPECT_EQ(roundtrip(ts.port(), make_request("POST", "/v1/nope")).status,
            404);
}

TEST(Serve, AnalyzeResponseIsByteIdenticalToCli) {
  TestServer ts(small_config());
  const RawResponse r = roundtrip(
      ts.port(), make_request("POST", "/v1/analyze",
                              R"({"args": ["--k", "3", "--threads", "4"]})"));
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.header("X-Latol-Exit"), "0");

  std::ostringstream expected;
  const cli::CliOptions opts = cli::parse_command_line(
      {"analyze", "--k", "3", "--threads", "4"});
  EXPECT_EQ(cli::run_command(opts, expected), 0);
  EXPECT_EQ(r.body, expected.str());
}

TEST(Serve, UsageErrorsMapTo400) {
  TestServer ts(small_config());
  const RawResponse r = roundtrip(
      ts.port(),
      make_request("POST", "/v1/analyze", R"({"args": ["--bogus"]})"));
  EXPECT_EQ(r.status, 400);
  EXPECT_EQ(r.header("X-Latol-Exit"), "2");
}

TEST(Serve, FileWritingFlagsAreRejected) {
  TestServer ts(small_config());
  const RawResponse r = roundtrip(
      ts.port(),
      make_request("POST", "/v1/analyze",
                   R"({"args": ["--trace", "/tmp/x.json"]})"));
  EXPECT_EQ(r.status, 400);
  EXPECT_NE(r.body.find("not allowed"), std::string::npos);
}

TEST(Serve, ScenarioEndpointRunsAgainstTheWarmCache) {
  TestServer ts(small_config());
  const std::string scenario = R"({
    "name": "served",
    "base": {"k": 2},
    "axes": [{"param": "p_remote", "values": [0.1, 0.2]}],
    "outputs": {"network_tolerance": true}
  })";
  const RawResponse r1 = roundtrip(
      ts.port(), make_request("POST", "/v1/scenario", scenario));
  EXPECT_EQ(r1.status, 200);
  EXPECT_EQ(r1.header("X-Latol-Exit"), "0");
  const io::Json doc = io::parse_json(r1.body);
  ASSERT_NE(doc.find("results"), nullptr);
  ASSERT_NE(doc.find("manifest"), nullptr);

  // The second run of the same scenario is served from the warm cache.
  const RawResponse r2 = roundtrip(
      ts.port(), make_request("POST", "/v1/scenario", scenario));
  EXPECT_EQ(r2.status, 200);
  EXPECT_GT(ts.server().cache().hits(), 0u);
}

TEST(Serve, DefaultCacheCapacityBoundsTheCache) {
  ServerConfig config = small_config();
  ASSERT_EQ(config.cache_capacity, 4096u);  // the default, not set here
  TestServer ts(config);
  // 4,200 distinct points at p_remote = 0: each solves node 0's two
  // stations in microseconds and leaves one cache entry.
  const std::string scenario = R"({
    "name": "fill",
    "base": {"k": 2, "p_remote": 0},
    "axes": [{"param": "runlength",
              "range": {"from": 1, "to": 4200, "steps": 4200}}]
  })";
  const RawResponse r = roundtrip(
      ts.port(), make_request("POST", "/v1/scenario", scenario));
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.header("X-Latol-Exit"), "0");
  EXPECT_EQ(ts.server().cache().size(), 4096u);
  EXPECT_EQ(ts.server().cache().evictions(), 4200u - 4096u);
}

TEST(Serve, MetricsExposesPrometheusText) {
  TestServer ts(small_config());
  (void)roundtrip(ts.port(), make_request("GET", "/healthz"));
  const RawResponse r = roundtrip(ts.port(), make_request("GET", "/metrics"));
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("# TYPE latol_serve_requests_total counter"),
            std::string::npos);
  EXPECT_NE(r.body.find("latol_serve_queue_depth"), std::string::npos);
  EXPECT_NE(r.body.find("latol_serve_in_flight"), std::string::npos);
  EXPECT_NE(r.body.find("latol_serve_cache_hit_ratio"), std::string::npos);
  // Process gauges and the request-latency histogram (cumulative buckets
  // plus _sum/_count) ride along on the same endpoint.
  EXPECT_NE(r.body.find("latol_process_uptime_seconds"), std::string::npos);
  EXPECT_NE(r.body.find("# TYPE latol_process_peak_rss_kb gauge"),
            std::string::npos);
  EXPECT_NE(r.body.find(
                "# TYPE latol_serve_request_latency_seconds histogram"),
            std::string::npos);
  EXPECT_NE(r.body.find("latol_serve_request_latency_seconds_bucket{le=\""),
            std::string::npos);
  EXPECT_NE(r.body.find(
                "latol_serve_request_latency_seconds_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(r.body.find("latol_serve_request_latency_seconds_count"),
            std::string::npos);
  EXPECT_NE(r.body.find("latol_serve_accepted_total"), std::string::npos);
}

TEST(Serve, EveryResponseCarriesAUniqueRequestId) {
  TestServer ts(small_config());
  const RawResponse a = roundtrip(ts.port(), make_request("GET", "/healthz"));
  const RawResponse b = roundtrip(ts.port(), make_request("GET", "/nope"));
  const std::string id_a = a.header("X-Latol-Request-Id");
  const std::string id_b = b.header("X-Latol-Request-Id");
  // Format: 16-hex boot token, dash, sequence number.
  ASSERT_EQ(id_a.size(), 23u);
  EXPECT_EQ(id_a[16], '-');
  ASSERT_EQ(id_b.size(), 23u);
  EXPECT_NE(id_a, id_b);  // unique within a boot
  EXPECT_EQ(id_a.substr(0, 16), id_b.substr(0, 16));  // same boot token
}

// --- fault injection ------------------------------------------------------

TEST(Serve, MalformedRequestGets400) {
  TestServer ts(small_config());
  const int fd = connect_to(ts.port());
  send_all(fd, "GARBAGE\r\n\r\n");
  const RawResponse r = parse_response(read_to_eof(fd));
  ::close(fd);
  EXPECT_EQ(r.status, 400);
}

TEST(Serve, OversizedDeclaredBodyGets413) {
  ServerConfig config = small_config();
  config.http.max_body_bytes = 64;
  TestServer ts(config);
  const int fd = connect_to(ts.port());
  send_all(fd,
           "POST /v1/analyze HTTP/1.1\r\nContent-Length: 100000\r\n\r\n");
  const RawResponse r = parse_response(read_to_eof(fd));
  ::close(fd);
  EXPECT_EQ(r.status, 413);
}

TEST(Serve, OversizedHeadGets413) {
  ServerConfig config = small_config();
  config.http.max_head_bytes = 256;
  TestServer ts(config);
  const int fd = connect_to(ts.port());
  send_all(fd, "GET /healthz HTTP/1.1\r\nX-Junk: " +
                   std::string(1024, 'a') + "\r\n\r\n");
  const RawResponse r = parse_response(read_to_eof(fd));
  ::close(fd);
  EXPECT_EQ(r.status, 413);
}

TEST(Serve, MidRequestDisconnectDoesNotPoisonTheServer) {
  TestServer ts(small_config());
  const int fd = connect_to(ts.port());
  send_all(fd, "POST /v1/analyze HTTP/1.1\r\nContent-Length: 50\r\n\r\npar");
  ::close(fd);  // disconnect mid-body
  // The server must shrug it off and keep answering.
  const RawResponse r = roundtrip(ts.port(), make_request("GET", "/healthz"));
  EXPECT_EQ(r.status, 200);
}

TEST(Serve, SlowClientIsCutOffWith408) {
  ServerConfig config = small_config();
  config.http.read_timeout_s = 0.2;
  TestServer ts(config);
  const int fd = connect_to(ts.port());
  send_all(fd, "GET /healthz HTT");  // stall mid request line
  const RawResponse r = parse_response(read_to_eof(fd));
  ::close(fd);
  EXPECT_EQ(r.status, 408);
}

// --- admission control ----------------------------------------------------

TEST(Serve, BurstBeyondCapacityShedsWith503) {
  ServerConfig config = small_config();
  config.max_concurrent = 1;
  config.queue_limit = 1;
  config.http.read_timeout_s = 2.0;
  TestServer ts(config);

  // Occupy the single worker with a slow-loris connection...
  const int slow = connect_to(ts.port());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // ...then burst 4 real requests: one fits the queue, three are shed.
  std::vector<int> burst;
  for (int i = 0; i < 4; ++i) {
    const int fd = connect_to(ts.port());
    send_all(fd, make_request("GET", "/healthz"));
    burst.push_back(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  int ok = 0;
  int shed = 0;
  for (const int fd : burst) {
    const RawResponse r = parse_response(read_to_eof(fd));
    ::close(fd);
    if (r.status == 200) ++ok;
    if (r.status == 503) {
      ++shed;
      EXPECT_FALSE(r.header("Retry-After").empty());
    }
  }
  ::close(slow);
  EXPECT_EQ(shed, 3);  // queue_limit = 1: exactly one burst request queued
  EXPECT_EQ(ok, 1);    // ...and answered once the worker freed up
  EXPECT_GE(ts.server().stats().shed, 3u);
}

// --- deadlines ------------------------------------------------------------

TEST(Serve, ExpiredDeadlineReturns504Promptly) {
  TestServer ts(small_config());
  const auto start = std::chrono::steady_clock::now();
  const RawResponse r = roundtrip(
      ts.port(),
      make_request("POST", "/v1/analyze", R"({"args": ["--k", "4"]})",
                   "X-Deadline-Ms: 0.001\r\n"));
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_EQ(r.status, 504);
  EXPECT_EQ(r.header("X-Latol-Exit"), std::to_string(kDeadlineExit));
  EXPECT_LT(elapsed, 2.0);  // the worker was freed, not wedged
  EXPECT_GE(ts.server().stats().deadline, 1u);
}

TEST(Serve, ExpiredDeadlineOnSweepReturns504) {
  // A sweep solves through the grid executor, which records each step's
  // failure; the deadline must still surface as one.
  TestServer ts(small_config());
  const RawResponse r = roundtrip(
      ts.port(),
      make_request("POST", "/v1/sweep", R"({"args": ["--steps", "8"]})",
                   "X-Deadline-Ms: 0.001\r\n"));
  EXPECT_EQ(r.status, 504);
  EXPECT_EQ(r.header("X-Latol-Exit"), std::to_string(kDeadlineExit));
  EXPECT_GE(ts.server().stats().deadline, 1u);
}

TEST(Serve, MalformedDeadlineHeaderIs400) {
  TestServer ts(small_config());
  const RawResponse r = roundtrip(
      ts.port(), make_request("POST", "/v1/analyze", "",
                              "X-Deadline-Ms: soon\r\n"));
  EXPECT_EQ(r.status, 400);
}

TEST(Serve, MaxDeadlineClampsClientRequests) {
  ServerConfig config = small_config();
  config.max_deadline_ms = 0.001;  // everything expires immediately
  TestServer ts(config);
  const RawResponse r = roundtrip(
      ts.port(),
      make_request("POST", "/v1/analyze", R"({"args": ["--k", "4"]})",
                   "X-Deadline-Ms: 3600000\r\n"));
  EXPECT_EQ(r.status, 504);
}

// --- graceful drain -------------------------------------------------------

TEST(Serve, CleanDrainExitsZero) {
  TestServer ts(small_config());
  (void)roundtrip(ts.port(), make_request("GET", "/healthz"));
  EXPECT_EQ(ts.stop(), 0);
  const ServerStats stats = ts.server().stats();
  EXPECT_GE(stats.accepted, 1u);
  EXPECT_GE(stats.handled, 1u);
}

TEST(Serve, DrainShedsQueuedConnections) {
  ServerConfig config = small_config();
  config.max_concurrent = 1;
  config.queue_limit = 4;
  config.http.read_timeout_s = 1.0;
  TestServer ts(config);

  // Worker busy on a slow-loris; the next request sits in the queue.
  const int slow = connect_to(ts.port());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const int queued = connect_to(ts.port());
  send_all(queued, make_request("GET", "/healthz"));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  EXPECT_EQ(ts.stop(), 0);

  // The queued connection was shed with 503, not silently dropped.
  const RawResponse r = parse_response(read_to_eof(queued));
  ::close(queued);
  ::close(slow);
  EXPECT_EQ(r.status, 503);
  EXPECT_GE(ts.server().stats().shed, 1u);
}

TEST(Serve, DrainFlushesTheCacheAtomically) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "latol_serve_cache.json")
          .string();
  std::filesystem::remove(path);
  {
    ServerConfig config = small_config();
    config.cache_path = path;
    TestServer ts(config);
    (void)roundtrip(
        ts.port(),
        make_request("POST", "/v1/scenario", R"({
          "name": "warm", "base": {"k": 2},
          "axes": [{"param": "p_remote", "values": [0.1]}]
        })"));
    EXPECT_EQ(ts.stop(), 0);
  }
  EXPECT_TRUE(std::filesystem::exists(path));
  const io::Json doc = io::parse_json_file(path);
  ASSERT_NE(doc.find("entries"), nullptr);
  EXPECT_FALSE(doc.find("entries")->as_array().empty());
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace latol::serve
