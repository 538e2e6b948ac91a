#include "serve/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ostream>
#include <random>
#include <sstream>
#include <utility>

#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "obs/span.hpp"
#include "util/error.hpp"

namespace latol::serve {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Flags a request must not smuggle into an injected CLI command: they
/// write files on the server host (or redirect its cache), which a remote
/// caller has no business doing.
constexpr const char* kForbiddenFlags[] = {"--trace", "--trace-out",
                                           "--metrics-out", "--out",
                                           "--cache"};

HttpResponse text_response(int status, std::string body) {
  HttpResponse r;
  r.status = status;
  r.body = std::move(body);
  return r;
}

HttpResponse error_response(int status, const std::string& message) {
  return text_response(status, "latol serve: " + message + "\n");
}

double json_field_number(const io::Json& doc, const std::string& key) {
  const io::Json* v = doc.find(key);
  if (v == nullptr || !v->is_number()) {
    throw InvalidArgument("server config key `" + key + "` must be a number");
  }
  return v->as_number();
}

std::size_t json_field_size(const io::Json& doc, const std::string& key) {
  const double v = json_field_number(doc, key);
  if (v < 0 || v != std::floor(v)) {
    throw InvalidArgument("server config key `" + key +
                          "` must be a non-negative integer");
  }
  return static_cast<std::size_t>(v);
}

void set_send_timeout(int fd, double seconds) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec =
      static_cast<suseconds_t>((seconds - std::floor(seconds)) * 1e6);
  (void)::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
}

}  // namespace

ServerConfig ServerConfig::from_json(const io::Json& doc) {
  ServerConfig config;
  if (!doc.is_object()) {
    throw InvalidArgument("server config must be a JSON object");
  }
  for (const auto& [key, value] : doc.as_object()) {
    if (key == "host") {
      if (!value.is_string()) {
        throw InvalidArgument("server config key `host` must be a string");
      }
      config.host = value.as_string();
    } else if (key == "port") {
      const double p = json_field_number(doc, key);
      if (p < 0 || p > 65535 || p != std::floor(p)) {
        throw InvalidArgument("server config key `port` must be 0..65535");
      }
      config.port = static_cast<int>(p);
    } else if (key == "max_concurrent") {
      config.max_concurrent = json_field_size(doc, key);
    } else if (key == "queue_limit") {
      config.queue_limit = json_field_size(doc, key);
    } else if (key == "default_deadline_ms") {
      config.default_deadline_ms = json_field_number(doc, key);
    } else if (key == "max_deadline_ms") {
      config.max_deadline_ms = json_field_number(doc, key);
    } else if (key == "retry_after_s") {
      config.retry_after_s = static_cast<int>(json_field_size(doc, key));
    } else if (key == "cache_path") {
      if (!value.is_string()) {
        throw InvalidArgument(
            "server config key `cache_path` must be a string");
      }
      config.cache_path = value.as_string();
    } else if (key == "cache_capacity") {
      config.cache_capacity = json_field_size(doc, key);
    } else if (key == "read_timeout_s") {
      config.http.read_timeout_s = json_field_number(doc, key);
    } else if (key == "max_head_bytes") {
      config.http.max_head_bytes = json_field_size(doc, key);
    } else if (key == "max_body_bytes") {
      config.http.max_body_bytes = json_field_size(doc, key);
    } else {
      throw InvalidArgument("unknown server config key `" + key + "`");
    }
  }
  if (config.queue_limit == 0) {
    throw InvalidArgument("server config `queue_limit` must be >= 1");
  }
  if (config.http.read_timeout_s <= 0) {
    throw InvalidArgument("server config `read_timeout_s` must be > 0");
  }
  return config;
}

ServerConfig ServerConfig::load(const std::string& path) {
  return from_json(io::parse_json_file(path));
}

Server::Server(ServerConfig config, CommandRunner runner, std::ostream* log)
    : config_(std::move(config)), runner_(std::move(runner)), log_(log) {
  LATOL_REQUIRE(runner_ != nullptr, "Server needs a CommandRunner");
  std::random_device rd;
  boot_token_ = (static_cast<std::uint64_t>(rd()) << 32) |
                static_cast<std::uint64_t>(rd());
}

std::string Server::next_request_id() {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%016llx-%06llu",
                static_cast<unsigned long long>(boot_token_),
                static_cast<unsigned long long>(
                    request_seq_.fetch_add(1, std::memory_order_relaxed)));
  return buf;
}

Server::~Server() {
  request_stop();
  if (acceptor_.joinable()) acceptor_.join();
  queue_cv_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  for (const int fd : queue_) ::close(fd);
  queue_.clear();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_pipe_[0] >= 0) ::close(wake_pipe_[0]);
  if (wake_pipe_[1] >= 0) ::close(wake_pipe_[1]);
  if (registry_installed_) obs::set_default_registry(previous_registry_);
}

void Server::log_line(const std::string& line) {
  if (log_ != nullptr) {
    *log_ << line << '\n';
    log_->flush();  // serve_smoke.py reads the port from this stream live
  }
}

void Server::start() {
  LATOL_REQUIRE(listen_fd_ < 0, "Server already started");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  LATOL_REQUIRE(listen_fd_ >= 0, "cannot create listen socket");
  const int one = 1;
  (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(config_.port));
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    throw InvalidArgument("cannot parse listen address `" + config_.host +
                          "` (IPv4 dotted quad expected)");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
      0) {
    throw InvalidArgument("cannot bind " + config_.host + ":" +
                          std::to_string(config_.port) + ": " +
                          std::strerror(errno));
  }
  LATOL_REQUIRE(::listen(listen_fd_, SOMAXCONN) == 0,
                "listen failed: " << std::strerror(errno));
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  LATOL_REQUIRE(
      ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
          0,
      "getsockname failed");
  port_ = static_cast<int>(ntohs(bound.sin_port));

  // Self-pipe: request_stop() can only use async-signal-safe calls, so it
  // wakes the poll()ing acceptor with a one-byte write.
  LATOL_REQUIRE(::pipe(wake_pipe_) == 0, "cannot create wake pipe");

  if (!config_.cache_path.empty()) {
    std::string warning;
    const std::size_t n =
        cache_.load(config_.cache_path, exp::build_version(), &warning);
    if (!warning.empty()) {
      log_line("latol serve: warning: " + warning);
    } else if (n > 0) {
      log_line("latol serve: loaded " + std::to_string(n) +
               " cache entries from " + config_.cache_path);
    }
  }
  if (config_.cache_capacity > 0) cache_.set_capacity(config_.cache_capacity);

  previous_registry_ = obs::set_default_registry(&registry_);
  registry_installed_ = true;
  started_at_ = std::chrono::steady_clock::now();

  std::size_t n_workers = config_.max_concurrent;
  if (n_workers == 0) {
    n_workers = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(n_workers);
  for (std::size_t i = 0; i < n_workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  acceptor_ = std::thread([this] { accept_loop(); });

  log_line("latol serve: listening on " + config_.host + ":" +
           std::to_string(port_) + " (" + std::to_string(n_workers) +
           " workers, queue limit " + std::to_string(config_.queue_limit) +
           ")");
}

void Server::request_stop() noexcept {
  stopping_.store(true, std::memory_order_release);
  if (wake_pipe_[1] >= 0) {
    const char byte = 'x';
    // Best-effort: a full pipe still wakes the poller; EINTR is fine too.
    [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
  }
}

int Server::run() {
  LATOL_REQUIRE(acceptor_.joinable(), "start() must be called before run()");
  // The acceptor exits only after request_stop(); this join IS the wait.
  acceptor_.join();
  std::size_t queued = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    queued = queue_.size();
  }
  log_line("latol serve: draining (" + std::to_string(in_flight_.load()) +
           " in flight, " + std::to_string(queued) + " queued)");

  // Workers observe stopping_, shed whatever is still queued, finish their
  // in-flight request, and exit.
  queue_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
  workers_.clear();

  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }

  if (!config_.cache_path.empty()) {
    try {
      cache_.save(config_.cache_path, exp::build_version());
      log_line("latol serve: flushed " + std::to_string(cache_.size()) +
               " cache entries to " + config_.cache_path);
    } catch (const std::exception& e) {
      log_line("latol serve: warning: cache flush failed: " +
               std::string(e.what()));
    }
  }

  obs::set_default_registry(previous_registry_);
  registry_installed_ = false;  // the destructor must not restore twice

  const ServerStats final = stats();
  log_line("latol serve: drained cleanly (" + std::to_string(final.handled) +
           " handled, " + std::to_string(final.shed) + " shed, " +
           std::to_string(final.deadline) + " deadline-exceeded)");
  return failed_.load() ? 4 : 0;
}

ServerStats Server::stats() const {
  ServerStats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.handled = handled_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.deadline = deadline_.load(std::memory_order_relaxed);
  s.read_errors = read_errors_.load(std::memory_order_relaxed);
  return s;
}

void Server::accept_loop() {
  pollfd pfds[2] = {{listen_fd_, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
  while (!stopping_.load(std::memory_order_acquire)) {
    pfds[0].revents = 0;
    pfds[1].revents = 0;
    const int rc = ::poll(pfds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      failed_.store(true);
      request_stop();
      break;
    }
    if ((pfds[1].revents & POLLIN) != 0 ||
        stopping_.load(std::memory_order_acquire)) {
      break;
    }
    if ((pfds[0].revents & POLLIN) == 0) continue;
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR || errno == ECONNABORTED || errno == EAGAIN ||
          errno == EMFILE || errno == ENFILE) {
        continue;  // transient; the listen socket itself is fine
      }
      failed_.store(true);
      request_stop();
      break;
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);
    registry_.counter("serve.accepted").add(1);
    set_send_timeout(client, config_.http.read_timeout_s);

    // Admission control: bounded queue, shed beyond it. The 503 write
    // happens outside the lock (it is a tiny buffered send, but a worker
    // must never wait on a client's socket through our mutex).
    bool admit = false;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (!stopping_.load(std::memory_order_acquire) &&
          queue_.size() < config_.queue_limit) {
        queue_.push_back(client);
        admit = true;
      }
      registry_.gauge("serve.queue_depth")
          .set(static_cast<double>(queue_.size()));
    }
    if (admit) {
      queue_cv_.notify_one();
    } else {
      shed_connection(client);
    }
  }
}

void Server::shed_connection(int fd) {
  shed_.fetch_add(1, std::memory_order_relaxed);
  registry_.counter("serve.shed").add(1);
  HttpResponse busy;
  busy.status = 503;
  busy.extra_headers.emplace_back("Retry-After",
                                  std::to_string(config_.retry_after_s));
  busy.body = "latol serve: busy, retry later\n";
  (void)write_http_response(fd, busy);
  // Lingering close: the client's request bytes were never read, and
  // close() on a socket with unread data sends an RST that can destroy
  // the 503 before the client receives it. Half-close our side, then
  // drain what the client already sent. The drain is tightly bounded
  // (shedding runs on the accept loop; a slow client must not stall
  // admission) — past the bound we close anyway and accept the race.
  ::shutdown(fd, SHUT_WR);
  const auto deadline = Clock::now() + std::chrono::milliseconds(250);
  char sink[4096];
  for (;;) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (left.count() <= 0) break;
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, static_cast<int>(left.count())) <= 0) break;
    if (::recv(fd, sink, sizeof sink, 0) <= 0) break;  // FIN, or error
  }
  ::close(fd);
}

void Server::worker_loop() {
  while (true) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      queue_cv_.wait(lock, [this] {
        return stopping_.load(std::memory_order_acquire) || !queue_.empty();
      });
      if (stopping_.load(std::memory_order_acquire)) {
        // Drain: queued connections are shed (they never started), then
        // this worker exits; its in-flight request already finished.
        while (!queue_.empty()) {
          const int queued = queue_.front();
          queue_.pop_front();
          lock.unlock();
          registry_.counter("serve.drained").add(1);
          shed_connection(queued);
          lock.lock();
        }
        registry_.gauge("serve.queue_depth").set(0.0);
        return;
      }
      fd = queue_.front();
      queue_.pop_front();
      registry_.gauge("serve.queue_depth")
          .set(static_cast<double>(queue_.size()));
    }
    handle_connection(fd);
  }
}

void Server::handle_connection(int fd) {
  in_flight_.fetch_add(1, std::memory_order_relaxed);
  registry_.gauge("serve.in_flight")
      .set(static_cast<double>(in_flight_.load(std::memory_order_relaxed)));

  // One id per request, from accept to response: returned in
  // X-Latol-Request-Id, attached to the request span and the per-request
  // log line, so a client report, a trace, and the log join on it.
  const std::string request_id = next_request_id();
  obs::Span request_span("serve.request", "serve");
  request_span.detail(request_id);

  const auto t_read = Clock::now();
  HttpRequest request;
  std::string error;
  const ReadStatus status =
      read_http_request(fd, config_.http, request, &error);
  registry_.timer("serve.stage.read").add_seconds(seconds_since(t_read));

  bool respond = true;
  HttpResponse response;
  switch (status) {
    case ReadStatus::kOk: {
      const auto t_handle = Clock::now();
      response = route(request);
      registry_.timer("serve.stage.handle")
          .add_seconds(seconds_since(t_handle));
      break;
    }
    case ReadStatus::kClosed:
      // Mid-request disconnect (or a probe that sent nothing): nobody is
      // listening for a response.
      respond = false;
      if (!error.empty()) {
        read_errors_.fetch_add(1, std::memory_order_relaxed);
        registry_.counter("serve.read_errors").add(1);
      }
      break;
    case ReadStatus::kMalformed:
      read_errors_.fetch_add(1, std::memory_order_relaxed);
      registry_.counter("serve.read_errors").add(1);
      response = error_response(400, error);
      break;
    case ReadStatus::kTooLarge:
      read_errors_.fetch_add(1, std::memory_order_relaxed);
      registry_.counter("serve.read_errors").add(1);
      response = error_response(413, error);
      break;
    case ReadStatus::kTimeout:
      read_errors_.fetch_add(1, std::memory_order_relaxed);
      registry_.counter("serve.read_errors").add(1);
      response = error_response(408, error);
      break;
  }
  if (respond) {
    response.extra_headers.emplace_back("X-Latol-Request-Id", request_id);
    const auto t_write = Clock::now();
    (void)write_http_response(fd, response);
    registry_.timer("serve.stage.write").add_seconds(seconds_since(t_write));
    handled_.fetch_add(1, std::memory_order_relaxed);
    registry_.counter("serve.requests").add(1);
    log_line("latol serve: [" + request_id + "] " + request.method + " " +
             request.target + " -> " + std::to_string(response.status));
  }
  ::close(fd);
  const double request_seconds = seconds_since(t_read);
  registry_.histogram("serve.request.latency_seconds")
      .observe(request_seconds);
  request_span.arg("status",
                   respond ? static_cast<double>(response.status) : 0.0);
  in_flight_.fetch_sub(1, std::memory_order_relaxed);
  registry_.gauge("serve.in_flight")
      .set(static_cast<double>(in_flight_.load(std::memory_order_relaxed)));
}

HttpResponse Server::route(const HttpRequest& request) {
  if (request.target == "/healthz") {
    if (request.method != "GET") {
      return error_response(405, "healthz is GET-only");
    }
    return text_response(200, "ok " + exp::build_version() + "\n");
  }
  if (request.target == "/metrics") {
    if (request.method != "GET") {
      return error_response(405, "metrics is GET-only");
    }
    return metrics_response();
  }
  if (request.target.starts_with("/v1/")) {
    if (request.method != "POST") {
      return error_response(405, "v1 endpoints are POST-only");
    }
    const std::string command = request.target.substr(4);
    if (command == "scenario") return run_scenario_request(request);
    if (command == "analyze" || command == "tolerance" ||
        command == "bottleneck" || command == "sweep") {
      return run_cli_command(command, request);
    }
    return error_response(
        404, "unknown endpoint `" + request.target +
                 "` (try /v1/analyze, /v1/tolerance, /v1/bottleneck, "
                 "/v1/sweep, /v1/scenario)");
  }
  return error_response(404, "unknown path `" + request.target +
                                 "` (try /healthz, /metrics, /v1/...)");
}

bool Server::arm_deadline(const HttpRequest& request,
                          util::CancelToken& token, std::string* error) {
  double ms = config_.default_deadline_ms;
  if (const std::string* h = request.header("x-deadline-ms")) {
    std::size_t used = 0;
    double v = 0.0;
    try {
      v = std::stod(*h, &used);
    } catch (const std::exception&) {
      used = 0;
    }
    if (used != h->size() || !(v > 0.0) || !std::isfinite(v)) {
      if (error != nullptr) {
        *error = "malformed X-Deadline-Ms `" + *h +
                 "` (positive milliseconds expected)";
      }
      return false;
    }
    ms = v;
  }
  if (config_.max_deadline_ms > 0.0 &&
      (ms <= 0.0 || ms > config_.max_deadline_ms)) {
    ms = config_.max_deadline_ms;
  }
  if (ms <= 0.0) return false;
  token.set_deadline_after(ms / 1000.0);
  return true;
}

HttpResponse Server::run_cli_command(const std::string& command,
                                     const HttpRequest& request) {
  util::CancelToken token;
  std::string bad_deadline;
  const bool has_deadline = arm_deadline(request, token, &bad_deadline);
  if (!bad_deadline.empty()) return error_response(400, bad_deadline);

  std::vector<std::string> args{command};
  if (!request.body.empty()) {
    io::Json doc;
    try {
      doc = io::parse_json(request.body);
    } catch (const InvalidArgument& e) {
      return error_response(400, std::string("request body: ") + e.what());
    }
    if (!doc.is_object()) {
      return error_response(400, "request body must be a JSON object");
    }
    for (const auto& [key, value] : doc.as_object()) {
      if (key != "args") {
        return error_response(400, "unknown request key `" + key + "`");
      }
      if (!value.is_array()) {
        return error_response(400, "`args` must be an array of strings");
      }
      for (const io::Json& arg : value.as_array()) {
        if (!arg.is_string()) {
          return error_response(400, "`args` must be an array of strings");
        }
        args.push_back(arg.as_string());
      }
    }
  }
  for (const std::string& arg : args) {
    for (const char* forbidden : kForbiddenFlags) {
      if (arg == forbidden) {
        return error_response(400, std::string("flag ") + forbidden +
                                       " is not allowed over the server "
                                       "(it writes server-side files)");
      }
    }
  }

  std::ostringstream out;
  const int code = runner_(args, has_deadline ? &token : nullptr, out);
  HttpResponse response;
  response.body = out.str();
  response.extra_headers.emplace_back("X-Latol-Exit", std::to_string(code));
  if (code == kDeadlineExit) {
    deadline_.fetch_add(1, std::memory_order_relaxed);
    registry_.counter("serve.deadline_exceeded").add(1);
    response.status = 504;
  } else if (code == 0 || code == 1) {
    response.status = 200;
  } else if (code == 2) {
    response.status = 400;
  } else {
    response.status = 500;
  }
  return response;
}

HttpResponse Server::run_scenario_request(const HttpRequest& request) {
  util::CancelToken token;
  std::string bad_deadline;
  const bool has_deadline = arm_deadline(request, token, &bad_deadline);
  if (!bad_deadline.empty()) return error_response(400, bad_deadline);

  exp::Scenario scenario;
  try {
    scenario = exp::scenario_from_json(io::parse_json(request.body));
  } catch (const InvalidArgument& e) {
    return error_response(400, std::string("scenario: ") + e.what());
  }

  exp::RunOptions ropts;
  ropts.cache = &cache_;
  ropts.cancel = has_deadline ? &token : nullptr;
  exp::RunResult run;
  try {
    run = exp::run_scenario(scenario, ropts);
  } catch (const InvalidArgument& e) {
    return error_response(400, std::string("scenario: ") + e.what());
  } catch (const std::exception& e) {
    return error_response(500, std::string("scenario run failed: ") +
                                   e.what());
  }

  const exp::RunStats& st = run.stats;
  io::Json doc = io::Json::object();
  doc.set("results", exp::results_to_json(scenario, run));
  doc.set("manifest", exp::manifest_to_json(scenario, run));

  HttpResponse response;
  response.content_type = "application/json";
  response.body = doc.dump(1) + "\n";
  int exit_code = exp::run_exit_code(st);
  if (st.deadline_points > 0 && has_deadline && token.expired()) {
    exit_code = kDeadlineExit;
  }
  response.extra_headers.emplace_back("X-Latol-Exit",
                                      std::to_string(exit_code));
  if (exit_code == kDeadlineExit) {
    deadline_.fetch_add(1, std::memory_order_relaxed);
    registry_.counter("serve.deadline_exceeded").add(1);
    response.status = 504;
  } else if (exit_code == 3) {
    response.status = 500;
  } else {
    response.status = 200;
  }
  return response;
}

HttpResponse Server::metrics_response() {
  // Refresh the derived gauges so a scrape sees consistent numbers.
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    registry_.gauge("serve.queue_depth")
        .set(static_cast<double>(queue_.size()));
  }
  registry_.gauge("serve.in_flight")
      .set(static_cast<double>(in_flight_.load(std::memory_order_relaxed)));
  registry_.gauge("process.uptime_seconds").set(seconds_since(started_at_));
  registry_.gauge("process.peak_rss_kb")
      .set(static_cast<double>(obs::peak_rss_kb()));
  const double hits = static_cast<double>(cache_.hits());
  const double misses = static_cast<double>(cache_.misses());
  registry_.gauge("serve.cache_entries")
      .set(static_cast<double>(cache_.size()));
  registry_.gauge("serve.cache_hits").set(hits);
  registry_.gauge("serve.cache_misses").set(misses);
  registry_.gauge("serve.cache_hit_ratio")
      .set(hits + misses > 0 ? hits / (hits + misses) : 0.0);

  HttpResponse response;
  response.content_type = "text/plain; version=0.0.4; charset=utf-8";
  response.body = obs::to_prometheus(registry_.snapshot());
  return response;
}

}  // namespace latol::serve
