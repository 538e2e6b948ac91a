// `latol serve`: a long-running analysis daemon with admission control,
// request deadlines, and graceful drain (DESIGN.md §11).
//
// The server answers the CLI's analysis commands over plain TCP with
// HTTP/1.1 framing, against ONE warm process: a shared exp::SolveCache
// (scenario grids and repeated requests coalesce and reuse solves) and
// the shared thread pool. Robustness is the point, not features:
//
//  - admission control: a bounded accept queue plus a fixed worker count;
//    when the queue is full new connections are shed with 503 +
//    Retry-After instead of growing memory without bound;
//  - deadlines: X-Deadline-Ms (or the configured default) arms a
//    util::CancelToken that the solvers check cooperatively, so an
//    expired request frees its worker promptly with 504 instead of
//    wedging it;
//  - graceful drain: request_stop() (signal-safe, wired to
//    SIGTERM/SIGINT by the CLI) stops accepting, sheds what is queued,
//    lets in-flight requests finish, flushes the cache atomically, and
//    exits 0;
//  - observability: GET /healthz and GET /metrics (Prometheus text
//    rendering of the obs registry: queue depth, shed count, in-flight,
//    cache hits/misses, per-stage and per-solver timers).
//
// Layering: serve sits between exp and cli. It cannot link the CLI, yet
// POST /v1/<command> responses must be byte-identical to the CLI's
// stdout for the same arguments — so the CLI injects its own entry point
// as a CommandRunner callback when it constructs the Server.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "exp/solve_cache.hpp"
#include "io/json.hpp"
#include "obs/registry.hpp"
#include "serve/http.hpp"
#include "util/cancel.hpp"

namespace latol::serve {

/// Exit code a CommandRunner returns when the request's deadline expired
/// mid-command; the server maps it to HTTP 504. Distinct from the CLI's
/// documented 0-3 so a genuine solve failure (3 → 500) is not confused
/// with a caller that stopped waiting.
inline constexpr int kDeadlineExit = 4;

/// The injected command entry point: run CLI `args` (argv[1:] form, e.g.
/// {"analyze", "--k", "8"}) with `cancel` as the cooperative deadline,
/// writing what the CLI would print to stdout into `out`, and return the
/// CLI exit code (0 clean, 1 degraded, 2 usage error, 3 solve failed,
/// kDeadlineExit deadline). Must not throw — the wiring maps exceptions
/// to codes exactly like the CLI's main() does.
using CommandRunner = std::function<int(
    const std::vector<std::string>& args, const util::CancelToken* cancel,
    std::ostream& out)>;

/// Daemon configuration, normally loaded from the JSON file passed to
/// `latol serve <config.json>` (every key optional; unknown keys are
/// rejected so typos fail loudly).
struct ServerConfig {
  /// Listen address. Loopback by default: the daemon trusts its callers.
  std::string host = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (printed on startup).
  int port = 0;
  /// Worker threads = maximum concurrently executing requests
  /// (0 = hardware concurrency).
  std::size_t max_concurrent = 0;
  /// Accepted-but-not-started connections the server will hold; beyond
  /// this, new connections are shed with 503 + Retry-After.
  std::size_t queue_limit = 16;
  /// Deadline applied when a request carries no X-Deadline-Ms header
  /// (0 = none).
  double default_deadline_ms = 0.0;
  /// Ceiling on client-requested deadlines (0 = no ceiling). Keeps one
  /// client from parking a worker on an hour-long solve.
  double max_deadline_ms = 0.0;
  /// Retry-After value (seconds) sent with 503 shed responses.
  int retry_after_s = 1;
  /// Solve-cache persistence file; loaded (with corrupt-file quarantine)
  /// on startup and flushed atomically on drain. Empty = in-memory only.
  std::string cache_path;
  /// SolveCache entry bound, oldest entries evicted first; an entry
  /// costs about 1.2 KB, so the default holds the cache near 5 MB.
  /// 0 = unlimited.
  std::size_t cache_capacity = 4096;
  /// Framing/read bounds per connection.
  HttpLimits http;

  /// Build from a parsed JSON object; throws InvalidArgument naming any
  /// unknown key or ill-typed value.
  [[nodiscard]] static ServerConfig from_json(const io::Json& doc);
  /// Parse `path` and build; JSON errors carry line/column context.
  [[nodiscard]] static ServerConfig load(const std::string& path);
};

/// Point-in-time admission/traffic accounting, for tests and logs (the
/// same numbers are exported through /metrics).
struct ServerStats {
  std::uint64_t accepted = 0;   ///< connections accepted
  std::uint64_t handled = 0;    ///< requests that got a response
  std::uint64_t shed = 0;       ///< connections shed (admission or drain)
  std::uint64_t deadline = 0;   ///< requests that ended deadline-exceeded
  std::uint64_t read_errors = 0;///< malformed/oversized/timed-out reads
};

/// The daemon. Lifecycle: construct -> start() (binds and spins up
/// threads; the port is known afterwards) -> run() (blocks until
/// request_stop(), then drains and returns the process exit code).
/// request_stop() is async-signal-safe.
class Server {
 public:
  /// `log`, when non-null, receives one line on startup ("listening on
  /// host:port") and one per lifecycle event; it must outlive run().
  Server(ServerConfig config, CommandRunner runner,
         std::ostream* log = nullptr);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind, listen, and start the acceptor and worker threads. Throws
  /// InvalidArgument when the address cannot be bound.
  void start();

  /// Block until request_stop(), then drain: shed queued connections,
  /// finish in-flight requests, flush the cache. Returns the process
  /// exit code (0 = clean drain, 4 = runtime failure).
  int run();

  /// Initiate shutdown. Async-signal-safe (an atomic store plus a write
  /// to the self-pipe); safe to call from any thread or a signal
  /// handler, and idempotent.
  void request_stop() noexcept;

  /// The bound TCP port (after start(); useful with port = 0).
  [[nodiscard]] int port() const { return port_; }

  /// Current accounting snapshot (for tests; /metrics serves the same).
  [[nodiscard]] ServerStats stats() const;

  /// The server's metric registry (installed as the process default
  /// between start() and the end of run()).
  [[nodiscard]] obs::Registry& registry() { return registry_; }

  /// The warm solve cache shared by every /v1/scenario request.
  [[nodiscard]] exp::SolveCache& cache() { return cache_; }

 private:
  void accept_loop();
  void worker_loop();
  void handle_connection(int fd);
  [[nodiscard]] HttpResponse route(const HttpRequest& request);
  [[nodiscard]] HttpResponse run_cli_command(const std::string& command,
                                             const HttpRequest& request);
  [[nodiscard]] HttpResponse run_scenario_request(const HttpRequest& request);
  [[nodiscard]] HttpResponse metrics_response();
  /// Arm a request-scoped token from X-Deadline-Ms / the defaults;
  /// returns whether any deadline applies.
  bool arm_deadline(const HttpRequest& request, util::CancelToken& token,
                    std::string* error);
  void shed_connection(int fd);
  void log_line(const std::string& line);
  /// Fresh process-unique request id: a random per-boot token plus a
  /// sequence number, so ids from different server runs never collide.
  [[nodiscard]] std::string next_request_id();

  ServerConfig config_;
  CommandRunner runner_;
  std::ostream* log_;

  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  int port_ = 0;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> failed_{false};

  std::mutex mutex_;
  std::condition_variable queue_cv_;
  std::deque<int> queue_;  ///< accepted fds awaiting a worker

  std::vector<std::thread> workers_;
  std::thread acceptor_;

  obs::Registry registry_;
  obs::Registry* previous_registry_ = nullptr;
  bool registry_installed_ = false;  ///< registry_ is the process default
  exp::SolveCache cache_;

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> handled_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> deadline_{0};
  std::atomic<std::uint64_t> read_errors_{0};
  std::atomic<std::size_t> in_flight_{0};

  std::uint64_t boot_token_ = 0;  ///< random per-boot request-id prefix
  std::atomic<std::uint64_t> request_seq_{0};
  std::chrono::steady_clock::time_point started_at_{};
};

}  // namespace latol::serve
