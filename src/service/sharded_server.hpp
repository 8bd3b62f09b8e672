// spta_serve's one transport: an epoll event loop in front of worker
// shards that share one analysis engine.
//
//   * One edge-triggered epoll event loop owns every connection: the TCP
//     or AF_UNIX listener's accepted sockets and an adopted fd (the
//     spta_fleet watchdog's health socketpair, or spta_serve --pipe's
//     stdin/stdout bridge). Reads are non-blocking and banked into an
//     incremental FrameReassembler (frame_reader.hpp — a slow or hostile
//     client can stall only its own connection, never a shard); writes are
//     non-blocking and ordered (a per-connection reorder buffer; the loop
//     thread is the sole reader and writer of every fd).
//   * N worker shards, each a Server executor (own SessionManager and
//     ServiceMetrics) fed over a bounded FIFO queue; a full queue answers
//     ERR busy. Every shard executes against the fleet's ONE AnalysisEngine
//     (result cache of cache_capacity x shards entries). Session-bound
//     verbs route by the session name's hash — one session's whole life
//     happens on one shard, in order. Stateless requests route by load: to
//     the shard with the fewest pending requests, ties to the body digest's
//     home shard (ShardFor), so an idle or synchronous fleet routes by
//     content. A stateless request whose body digest is already queued or
//     executing follows that twin to its shard, so pipelined identical
//     requests answer in FIFO order (one cache=miss, then cache=hit). That
//     route is the only single flight: same-key analyses sent as different
//     bytes may run on two shards at once, and both answer cache=miss.
//   * The loop answers SHUTDOWN, HEALTH, METRICS, METRICS_PROM and TRACE
//     itself, without crossing a queue — HEALTH answers even when every
//     shard is wedged.
//   * A memoized warm path on the loop thread: a repeated inline-sample
//     ANALYZE is answered from one fleet-wide LRU memo of rendered response
//     bytes (each entry's report shared with the engine's cache, not
//     copied) without ever crossing a thread, whatever the shards' load —
//     the same bytes a shard would produce (only the volatile analyze_us
//     timing field is re-rendered per request). A session ANALYZE always
//     runs on its session's shard; a repeat without an APPEND between
//     answers cache=hit from the engine's cache.
//   * Zero-loss drain: SHUTDOWN (in-band or TriggerShutdown) stops intake,
//     waits for every accepted request to complete and flush, acks, then
//     exits.
//   * Shards are threads of this process and never die on their own
//     (Server::Execute answers every exception as ERR internal), so the
//     shard set is fixed: a route is digest % shards, always. Process
//     death is the spta_fleet supervisor's business (respawn, backoff).
//   * Self-protection: a request whose deadline_ms the target shard's EWMA
//     backlog estimate cannot meet is shed at admission (ERR busy with a
//     retry_after_ms hint, counted as shed — never queued to miss its
//     deadline at execution); a full queue answers ERR busy.
//     io_fault_hook_factory guards the loop's recv/send calls per
//     connection (docs/FAULTS.md).
//
// ServeScript() drives the same per-frame dispatch synchronously over an
// in-memory byte string, as a connection with no fd whose requests execute
// on the calling thread — the golden and routing tests and the load
// generator use it to pin served bytes without socket noise.
//
// Persistence: when cache_dir is set, the fleet owns ONE
// PersistentResultCache (a single writer lock per process), attached to
// the engine and loaded into its cache once at construction, so a restart
// warm-starts every shard.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/hash.hpp"
#include "service/fd_stream.hpp"
#include "service/frame_reader.hpp"
#include "service/persistent_cache.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"

namespace spta::service {

struct ShardedServerOptions {
  /// Worker shard count (>= 1).
  std::size_t shards = 1;
  /// Per-shard executor options.
  ServerOptions server;
  /// Result-cache entries per shard: the fleet's one engine holds
  /// cache_capacity x shards entries (>= 1).
  std::size_t cache_capacity = 128;
  /// Default ANALYZE deadline in ms, measured from admission; 0 = none. A
  /// request can override it with its own deadline_ms argument.
  double default_deadline_ms = 0.0;
  /// Queued requests per shard before busy-rejection (ERR busy).
  std::size_t shard_queue_capacity = 256;
  /// Memoized warm responses retained per shard: the fleet's one memo
  /// holds warm_memo_capacity x shards, evicting the least recently used
  /// (0 = off).
  std::size_t warm_memo_capacity = 4096;
  /// listen(2) backlog. The historical hard-coded 16 drops connections
  /// under a burst: a storm of simultaneous connects overflows the accept
  /// queue before the loop runs (pinned by the burst-accept regression in
  /// service_fleet_test).
  int listen_backlog = 128;
  /// Directory for the disk-backed result cache; empty = no persistence.
  /// When set, the directory (which must exist) is scanned at construction
  /// and every validated entry pre-warms the engine's cache, and every
  /// fresh analysis is written through to it — so a restarted fleet
  /// answers repeat requests from cache immediately.
  std::string cache_dir;
  /// On-disk budget for the persistent cache; overshoot evicts the
  /// least-recently-written entries. 0 = unbounded.
  std::uint64_t cache_max_bytes = 0;
  /// Simulated device capacity for the persistent cache (fault injection:
  /// Puts past this behave like ENOSPC). 0 = no simulation.
  std::uint64_t cache_quota_bytes = 0;
  /// SO_REUSEPORT on the listener: lets several fleet processes (spawned
  /// by the spta_fleet supervisor) share one port.
  bool reuseport = false;
  /// HEALTH readiness: a shard with queued work whose last completion is
  /// older than this is reported stalled=1 (fleet status=degraded).
  double health_stall_after_ms = 5000.0;
  /// An already-connected stream fd adopted as a served connection at
  /// Start(): the spta_fleet supervisor's health-probe socketpair (a
  /// watchdog HEALTH probe reaches the event loop without competing for
  /// the SO_REUSEPORT listener, which load-balances across processes), or
  /// spta_serve --pipe's stdin/stdout bridge. -1 = none.
  int adopt_fd = -1;
  /// Fault-injection hook factory (tests only). Called once per served
  /// connection with its ordinal (arrival order, from 0); the returned
  /// hook (may be empty) guards every recv/send the loop issues on that
  /// connection through GuardedIo, the syscall discipline the client
  /// shares (service/fd_stream.hpp).
  /// Fired faults are counted into METRICS faults_injected; a connection
  /// that closes with faults fired and no SHUTDOWN counts into
  /// sessions_degraded. The fleet itself must survive any decision the
  /// hook makes — that invariant is what tests/fault_matrix_smoke.cpp
  /// pins down.
  std::function<IoFaultHook(std::uint64_t)> io_fault_hook_factory;
};

class ShardedServer {
 public:
  explicit ShardedServer(ShardedServerOptions options = {});
  ~ShardedServer();
  ShardedServer(const ShardedServer&) = delete;
  ShardedServer& operator=(const ShardedServer&) = delete;

  // --- Routing (exposed for the routing tests) ---

  /// The digest a frame routes by: the session name's byte hash for
  /// session-bound requests (one session, one shard, in order), otherwise
  /// `body_digest`, the raw body bytes' hash (the home shard that wins
  /// load ties).
  static std::uint64_t RouteDigest(const Request& request,
                                   std::uint64_t body_digest);
  /// digest % shards. Session verbs go here; it is also a stateless
  /// request's home shard, which wins load ties.
  std::size_t ShardFor(std::uint64_t route_digest) const;

  // --- Synchronous scripted mode (tests + load generator) ---

  /// Feeds a byte string of frames through the full routing/memo/execute
  /// pipeline on the calling thread, appending response frames to `out`.
  /// Returns true iff a SHUTDOWN frame was processed. Not concurrency-
  /// safe against the event loop (drive one or the other).
  bool ServeScript(std::string_view in, std::string* out);

  // --- Event-loop mode ---

  /// Binds and listens on host:port (IPv4 dotted quad; port 0 = pick an
  /// ephemeral port, see bound_port()). Returns 0 or an errno.
  int ListenTcp(const std::string& host, std::uint16_t port);
  std::uint16_t bound_port() const { return bound_port_; }

  /// Binds and listens on an AF_UNIX stream socket at `path`, replacing a
  /// stale socket file; the file is unlinked when the listener closes.
  /// Returns 0 or an errno.
  int ListenUnix(const std::string& path);

  /// Spawns the shard workers and the event loop thread. Requires a
  /// listener or an adopt_fd. Returns 0 or an errno.
  int Start();

  /// Blocks until the loop exits (drain complete), then stops and joins
  /// every shard. Returns 0 on a clean drain.
  int Wait();

  /// Initiates the zero-loss drain from outside a request stream (signal
  /// watcher, supervisor). Idempotent, thread-safe, async-signal-UNSAFE.
  void TriggerShutdown();

  bool shutdown_requested() const { return shutdown_.load(); }

  // --- Introspection ---

  std::size_t shard_count() const { return shards_.size(); }
  Server& shard(std::size_t index);
  /// The one engine every shard executes against.
  AnalysisEngine& engine() { return engine_; }
  /// Requests routed to this shard: executed there, or answered from the
  /// warm memo on its behalf.
  std::uint64_t shard_routed_total(std::size_t index) const;
  std::uint64_t shard_memo_hits(std::size_t index) const;
  /// ANALYZE requests shed at admission (unmeetable deadline_ms).
  std::uint64_t shed_deadline_total() const {
    return shed_deadline_.load(std::memory_order_relaxed);
  }
  std::uint64_t protocol_errors_total() const {
    return protocol_errors_.load();
  }
  PersistentResultCache* persistent_cache() { return store_.get(); }

  /// Fleet-level HEALTH response, answered on the event loop (liveness)
  /// and never queued: args carry the fleet readiness verdict, the
  /// payload one "== shard N ==" readiness section per shard (queue
  /// depth, inflight, admission cost, last-completion age, stalled flag).
  Response FleetHealthResponse();

  /// Fleet-level METRICS response: counters summed across shards (the
  /// documented Snapshot key surface, cache_hit_ratio recomputed from the
  /// summed hit/miss counts) plus fleet_* keys; the payload concatenates
  /// each shard's rendered table under a "== shard N ==" heading.
  Response FleetMetricsResponse();

  /// Fleet-level TRACE response, answered on the event loop: the Chrome
  /// trace-event JSON export of the process-wide tracer (loop + shard
  /// threads share one Tracer), args carrying format/events/dropped/
  /// enabled.
  Response FleetTraceResponse();

  /// Prometheus text exposition of the fleet surface (METRICS_PROM and
  /// spta_serve --prom-out): spta_fleet_* families, per-shard series
  /// labeled shard="N".
  std::string RenderFleetProm();

 private:
  struct Conn;
  struct ShardRuntime;
  struct WarmMemo;
  struct Item {
    std::shared_ptr<Conn> conn;
    std::uint64_t id = 0;
    Request request;
    DualHash body_digest;
    std::int64_t enqueue_ns = 0;  ///< Admission time (EWMA cost input).
    bool stateless = false;       ///< Counted in twins_ while queued.
  };
  /// Where the queued or executing requests of one body digest went.
  struct Twin {
    std::size_t shard = 0;
    std::uint64_t count = 0;
  };

  // Shared pipeline.
  /// A stateless request's shard: its in-flight twin's, else the
  /// least-loaded shard (ties to `home`, ShardFor(digest)).
  std::size_t RouteStateless(std::uint64_t digest, std::size_t home) const;
  void ReleaseTwin(const Item& item);
  /// Answers from the fleet memo on `shard`'s behalf (its counters).
  bool TryServeWarm(ShardRuntime& shard, const DualHash& digest,
                    std::string* frame);
  Response ExecuteOnShard(ShardRuntime& shard, const Request& request,
                          const DualHash& digest,
                          std::int64_t enqueue_ns = 0);
  /// 0 = admissible; otherwise the retry_after_ms hint for a request
  /// whose deadline_ms the shard's EWMA backlog estimate cannot meet.
  std::uint64_t DeadlineShedHint(const ShardRuntime& shard,
                                 const Request& request) const;
  /// retry_after_ms hint for a plain queue-full busy rejection (0 = no
  /// estimate available, hint omitted).
  std::uint64_t BusyRetryHint(const ShardRuntime& shard) const;
  /// Memoizes an inline-sample analysis response whose payload is the
  /// report part of `body`, the engine's cached body, which the memo
  /// shares.
  void Memoize(const DualHash& digest, const Response& response,
               ResultCache::Body body);

  // Per-connection dispatch (both modes).
  /// Parses and dispatches every frame banked in the connection's
  /// reassembler; `at_eof` applies the end-of-stream rules.
  void ProcessFrames(const std::shared_ptr<Conn>& conn, bool at_eof);
  /// Counts one more accepted frame and returns its response slot.
  std::uint64_t Admit(Conn& conn);
  /// Answers, memo-serves, sheds, executes (no fd) or queues one request.
  void Dispatch(const std::shared_ptr<Conn>& conn, Request request,
                std::string_view body);
  void Answer(const std::shared_ptr<Conn>& conn, std::uint64_t id,
              const Response& response);
  void CompleteItem(const std::shared_ptr<Conn>& conn, std::uint64_t id,
                    std::string frame, bool on_loop_thread);

  // Event-loop internals.
  void CloseListener();
  std::shared_ptr<Conn> AddConn(int fd);
  void EventLoop();
  void ShardWorker(std::size_t index);
  bool PushToShard(std::size_t index, Item item);
  void AcceptReady();
  void ReadConn(const std::shared_ptr<Conn>& conn);
  /// One GuardedIo recv/send on a connection under its fault hook,
  /// counting fired faults into the connection and faults_injected.
  ssize_t ConnIo(Conn& conn, IoOp op, char* read_buf, const char* write_buf,
                 std::size_t count);
  void FlushConn(const std::shared_ptr<Conn>& conn);
  void CloseConn(const std::shared_ptr<Conn>& conn);
  void BeginDrain(const std::shared_ptr<Conn>& conn, std::uint64_t id);
  void CheckDrain();
  void WakeLoop();

  ShardedServerOptions options_;
  AnalysisEngine engine_;
  std::unique_ptr<WarmMemo> memo_;
  std::vector<std::unique_ptr<ShardRuntime>> shards_;
  std::unique_ptr<PersistentResultCache> store_;
  mutable std::mutex twins_mutex_;
  /// Body digest -> in-flight stateless requests (loop adds, workers drop).
  std::unordered_map<std::uint64_t, Twin> twins_;

  std::atomic<bool> shutdown_{false};
  std::atomic<std::uint64_t> shed_deadline_{0};  ///< Admission sheds.
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> connections_total_{0};
  std::atomic<std::uint64_t> fleet_requests_{0};  ///< Loop-handled verbs.
  std::atomic<std::uint64_t> faults_injected_{0};
  std::atomic<std::uint64_t> sessions_degraded_{0};

  // Event-loop state.
  int listen_fd_ = -1;
  bool listen_tcp_ = false;  ///< TCP_NODELAY goes on accepted sockets.
  std::string unix_path_;    ///< AF_UNIX listener's file, unlinked on close.
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  ///< eventfd: cross-thread completion/shutdown wake.
  std::uint16_t bound_port_ = 0;
  std::thread loop_thread_;
  std::atomic<std::uint64_t> inflight_{0};  ///< Shard-queued, unanswered.
  bool draining_ = false;                   ///< Loop thread only.
  std::shared_ptr<Conn> drain_ack_conn_;    ///< Loop thread only.
  std::uint64_t drain_ack_id_ = 0;          ///< Loop thread only.
  bool drain_acked_ = false;                ///< Loop thread only.
  std::unordered_map<int, std::shared_ptr<Conn>> conns_;  ///< Loop only.
  std::atomic<bool> stop_workers_{false};
};

}  // namespace spta::service
