#include "service/sharded_server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fcntl.h>
#include <map>
#include <sstream>

#include "common/double_text.hpp"
#include "obs/prometheus.hpp"
#include "obs/trace.hpp"
#include "obs/trace_context.hpp"

namespace spta::service {
namespace {

using Clock = std::chrono::steady_clock;

Response DrainedResponse() {
  Args args;
  args.Set("drained", "1");
  return OkResponse(std::move(args));
}

/// Monotonic nanoseconds (EWMA timestamps, stall ages).
std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// bind(2) + listen(2); on failure closes `fd` and returns the errno.
int BindAndListen(int fd, const sockaddr* addr, socklen_t len, int backlog) {
  if (::bind(fd, addr, len) != 0 || ::listen(fd, backlog) != 0) {
    const int err = errno;
    ::close(fd);
    return err;
  }
  return 0;
}

}  // namespace

/// One served connection, owned by the event loop. The loop thread is
/// the sole reader and the sole writer of the fd; shard workers only touch
/// the mutex-guarded completion state and then wake the loop. ServeScript
/// drives a Conn with no fd (-1): its responses collect in `out`.
struct ShardedServer::Conn {
  int fd = -1;

  // Loop-thread-only state.
  FrameReassembler reassembler;
  std::uint64_t next_id = 0;  ///< Arrival-order request ids.
  bool read_closed = false;   ///< No more frames will be accepted.
  /// Intake stopped at a malformed frame while the peer may still send.
  bool cut = false;
  bool lingering = false;  ///< Half-closed; discarding until the peer's FIN.
  bool writable = true;  ///< Cleared on EAGAIN, re-armed by EPOLLOUT.
  bool saw_shutdown = false;
  IoFaultHook hook;        ///< Empty unless fault injection is armed.
  std::uint64_t faults_fired = 0;

  // Cross-thread completion state (under mutex).
  std::mutex mutex;
  /// Out-of-order completions parked until the head of line arrives.
  std::map<std::uint64_t, std::string> ready;
  std::string out;  ///< Contiguous, in-order bytes awaiting the socket.
  std::size_t out_off = 0;
  std::uint64_t next_write = 0;
  std::uint64_t accepted = 0;  ///< Frames parsed into requests.
  std::uint64_t answered = 0;  ///< Responses appended to `out`.
  bool closed = false;
};

/// One worker shard: a Server executor plus its FIFO queue and its load.
struct ShardedServer::ShardRuntime {
  std::unique_ptr<Server> server;

  std::mutex qmutex;
  std::condition_variable qcv;
  std::deque<Item> queue;  ///< Under qmutex.
  /// Queued + executing requests: the load stateless routing balances.
  std::atomic<std::uint64_t> pending{0};
  std::atomic<std::uint64_t> routed{0};
  std::atomic<std::uint64_t> memo_hits{0};
  std::thread thread;

  /// EWMA of per-request occupancy cost (queue wait + service time) in
  /// microseconds; 0 = no completions yet (admission control stands
  /// down until it has data). Clamped to >= 1 once fed.
  std::atomic<std::uint64_t> ewma_cost_us{0};
  /// Monotonic ns stamp of the last completed execution — the HEALTH
  /// stall detector's progress signal. Seeded at construction.
  std::atomic<std::int64_t> last_completion_ns{0};
};

/// The fleet's warm-response memo: cache=hit responses to inline-sample
/// ANALYZEs keyed by request-body digest, bounded by entry count with
/// least-recently-used eviction. An entry renders its own args line and
/// shares the report with the engine's cached body, so a response is stored
/// once. The recency list runs through the entries themselves (map nodes
/// never move), so a hit relinks two pointers and allocates nothing.
struct ShardedServer::WarmMemo {
  struct Entry {
    std::uint64_t key = 0;
    std::uint64_t verify = 0;
    /// The hit response's args line without its analyze_us digits, which
    /// a hit renders fresh at `split`.
    std::string args;
    std::size_t split = 0;
    /// The engine's cached body; the response payload is its tail from
    /// `report`.
    ResultCache::Body body;
    std::size_t report = 0;
    Entry* newer = nullptr;
    Entry* older = nullptr;
  };

  explicit WarmMemo(std::size_t capacity) : capacity(capacity) {}

  /// The entry for `digest`, or null (absent, or another body's key).
  Entry* Find(const DualHash& digest) {
    const auto it = entries.find(digest.lo);
    return it == entries.end() || it->second.verify != digest.hi ? nullptr
                                                                 : &it->second;
  }

  void Unlink(Entry* e) {
    (e->newer != nullptr ? e->newer->older : newest) = e->older;
    (e->older != nullptr ? e->older->newer : oldest) = e->newer;
    e->newer = e->older = nullptr;
  }

  void PushNewest(Entry* e) {
    e->older = newest;
    if (newest != nullptr) newest->newer = e;
    newest = e;
    if (oldest == nullptr) oldest = e;
  }

  void Touch(Entry* e) {
    if (e == newest) return;
    Unlink(e);
    PushNewest(e);
  }

  void Erase(Entry* e) {
    Unlink(e);
    const std::uint64_t key = e->key;  // Not a reference into the node.
    entries.erase(key);
  }

  void Insert(const DualHash& digest, Entry entry) {
    const auto [it, inserted] = entries.try_emplace(digest.lo);
    Entry& e = it->second;
    if (!inserted) Unlink(&e);
    e = std::move(entry);
    e.key = digest.lo;
    e.verify = digest.hi;
    PushNewest(&e);
    while (entries.size() > capacity) Erase(oldest);
  }

  const std::size_t capacity;
  std::mutex mutex;  ///< Guards everything below.
  std::unordered_map<std::uint64_t, Entry> entries;
  Entry* newest = nullptr;
  Entry* oldest = nullptr;
};

ShardedServer::ShardedServer(ShardedServerOptions options)
    : options_(std::move(options)),
      engine_(std::max<std::size_t>(options_.shards, 1) *
              options_.cache_capacity),
      memo_(std::make_unique<WarmMemo>(std::max<std::size_t>(
                                           options_.shards, 1) *
                                       options_.warm_memo_capacity)) {
  if (options_.shards == 0) options_.shards = 1;
  // One store for the whole fleet (single in-process writer lock), loaded
  // once into the one engine every shard shares.
  if (!options_.cache_dir.empty()) {
    PersistentResultCache::Limits limits;
    limits.max_bytes = options_.cache_max_bytes;
    limits.quota_bytes = options_.cache_quota_bytes;
    store_ = std::make_unique<PersistentResultCache>(options_.cache_dir,
                                                    limits);
  }
  for (std::size_t i = 0; i < options_.shards; ++i) {
    auto shard = std::make_unique<ShardRuntime>();
    shard->server = std::make_unique<Server>(options_.server, engine_);
    // "No completion yet" must not read as an infinite stall age.
    shard->last_completion_ns.store(NowNs(), std::memory_order_relaxed);
    shards_.push_back(std::move(shard));
  }
  if (store_) {
    store_->LoadAll([this](std::uint64_t key, std::uint64_t verifier,
                           std::string body) {
      return engine_.Restore(key, verifier, std::move(body));
    });
    engine_.AttachStore(store_.get());
  }
}

ShardedServer::~ShardedServer() {
  if (loop_thread_.joinable()) {
    TriggerShutdown();
    Wait();
  } else {
    stop_workers_.store(true);
    for (auto& shard : shards_) shard->qcv.notify_all();
    for (auto& shard : shards_) {
      if (shard->thread.joinable()) shard->thread.join();
    }
  }
  CloseListener();
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
}

Server& ShardedServer::shard(std::size_t index) {
  return *shards_[index]->server;
}

std::uint64_t ShardedServer::shard_routed_total(std::size_t index) const {
  return shards_[index]->routed.load(std::memory_order_relaxed);
}

std::uint64_t ShardedServer::shard_memo_hits(std::size_t index) const {
  return shards_[index]->memo_hits.load(std::memory_order_relaxed);
}

std::uint64_t ShardedServer::RouteDigest(const Request& request,
                                         std::uint64_t body_digest) {
  const std::string session = request.args.GetString("session");
  return session.empty() ? body_digest : HashBytes(session).lo;
}

std::size_t ShardedServer::ShardFor(std::uint64_t route_digest) const {
  return route_digest % shards_.size();
}

std::size_t ShardedServer::RouteStateless(std::uint64_t digest,
                                          std::size_t home) const {
  std::size_t twin = SIZE_MAX;
  {
    std::lock_guard<std::mutex> lock(twins_mutex_);
    const auto it = twins_.find(digest);
    if (it != twins_.end()) twin = it->second.shard;
  }
  if (twin != SIZE_MAX) return twin;
  // Least pending wins; scanning from the home shard lets it win ties.
  std::size_t best = home;
  std::uint64_t best_pending =
      shards_[home]->pending.load(std::memory_order_acquire);
  for (std::size_t k = 1; k < shards_.size() && best_pending != 0; ++k) {
    const std::size_t i = (home + k) % shards_.size();
    const std::uint64_t pending =
        shards_[i]->pending.load(std::memory_order_acquire);
    if (pending < best_pending) {
      best = i;
      best_pending = pending;
    }
  }
  return best;
}

void ShardedServer::ReleaseTwin(const Item& item) {
  if (!item.stateless) return;
  std::lock_guard<std::mutex> lock(twins_mutex_);
  const auto it = twins_.find(item.body_digest.lo);
  if (it != twins_.end() && --it->second.count == 0) twins_.erase(it);
}

std::uint64_t ShardedServer::DeadlineShedHint(const ShardRuntime& shard,
                                              const Request& request) const {
  if (request.kind != RequestKind::kAnalyze) return 0;
  const double deadline_ms = request.args.GetDouble(
      "deadline_ms", options_.default_deadline_ms);
  if (deadline_ms <= 0.0) return 0;
  const std::uint64_t ewma_us =
      shard.ewma_cost_us.load(std::memory_order_relaxed);
  if (ewma_us == 0) return 0;  // No data yet: admit, learn from it.
  const double backlog = static_cast<double>(
      shard.pending.load(std::memory_order_acquire) + 1);
  const double est_us = backlog * static_cast<double>(ewma_us);
  if (est_us <= deadline_ms * 1000.0) return 0;
  // The hint is how far past the deadline the backlog estimate runs —
  // roughly when a resubmission stops being futile.
  const double over_ms = (est_us - deadline_ms * 1000.0) / 1000.0 + 1.0;
  return static_cast<std::uint64_t>(std::min(over_ms, 60'000.0));
}

std::uint64_t ShardedServer::BusyRetryHint(const ShardRuntime& shard) const {
  const std::uint64_t ewma_us =
      shard.ewma_cost_us.load(std::memory_order_relaxed);
  if (ewma_us == 0) return 0;
  const double backlog = static_cast<double>(
      shard.pending.load(std::memory_order_acquire));
  const double est_ms = backlog * static_cast<double>(ewma_us) / 1000.0 + 1.0;
  return static_cast<std::uint64_t>(std::min(est_ms, 60'000.0));
}

// --- Warm memo path -------------------------------------------------------

bool ShardedServer::TryServeWarm(ShardRuntime& shard, const DualHash& digest,
                                 std::string* frame) {
  const auto start = Clock::now();
  std::string body;
  double micros = 0.0;
  {
    std::lock_guard<std::mutex> lock(memo_->mutex);
    WarmMemo::Entry* entry = memo_->Find(digest);
    if (entry == nullptr) return false;
    memo_->Touch(entry);
    micros = std::chrono::duration<double, std::micro>(Clock::now() - start)
                 .count();
    const std::string value = DoubleText(micros);
    body.reserve(entry->args.size() + value.size() + 1 + entry->body->size() -
                 entry->report);
    body.append(entry->args, 0, entry->split);
    body += value;
    body.append(entry->args, entry->split);
    body.push_back('\n');
    body.append(*entry->body, entry->report);
  }
  shard.server->metrics().RecordAnalyzeLatency(micros, /*cache_hit=*/true);
  shard.server->metrics().CountRequest(RequestKind::kAnalyze, true);
  shard.memo_hits.fetch_add(1, std::memory_order_relaxed);
  shard.routed.fetch_add(1, std::memory_order_relaxed);
  frame->reserve(frame->size() + body.size() + 16);
  frame->append("spta1 OK ");
  frame->append(std::to_string(body.size()));
  frame->push_back('\n');
  frame->append(body);
  return true;
}

void ShardedServer::Memoize(const DualHash& digest, const Response& response,
                            ResultCache::Body body) {
  if (memo_->capacity == 0 || !response.ok || body == nullptr ||
      !response.args.Has("analyze_us")) {
    return;
  }
  // The payload is the cached body after its result line (the engine
  // renders it from that body; AnalysisEngineTest pins the identity).
  const std::size_t newline = body->find('\n');
  const std::size_t report =
      newline == std::string::npos ? body->size() : newline + 1;
  // The HIT-version args line with a placeholder where the volatile
  // analyze_us digits go; args values never contain control bytes, so the
  // placeholder's position is unambiguous.
  Args args = response.args;
  args.Set("cache", "hit");
  args.Set("analyze_us", "\x01");
  WarmMemo::Entry entry;
  entry.args = args.Encode();
  entry.split = entry.args.find('\x01');
  if (entry.split == std::string::npos) return;
  entry.args.erase(entry.split, 1);
  entry.args.shrink_to_fit();
  entry.body = std::move(body);
  entry.report = report;
  std::lock_guard<std::mutex> lock(memo_->mutex);
  memo_->Insert(digest, std::move(entry));
}

Response ShardedServer::ExecuteOnShard(ShardRuntime& shard,
                                       const Request& request,
                                       const DualHash& digest,
                                       std::int64_t enqueue_ns) {
  const std::int64_t start_ns = NowNs();
  // deadline_ms runs from ADMISSION, not execution: a request that spent
  // its whole budget waiting in the shard queue is already dead, and
  // executing it would only delay the live requests behind it.
  Response response;
  ResultCache::Body analysis_body;
  const double deadline_ms = request.args.GetDouble(
      "deadline_ms", options_.default_deadline_ms);
  if (enqueue_ns > 0 && deadline_ms > 0.0 &&
      static_cast<double>(start_ns - enqueue_ns) > deadline_ms * 1e6) {
    shard.server->metrics().CountDeadlineMiss();
    response = ErrResponse("deadline", "deadline expired in shard queue");
  } else {
    response = shard.server->Execute(request, &analysis_body);
  }
  const std::int64_t end_ns = NowNs();
  shard.routed.fetch_add(1, std::memory_order_relaxed);
  // Admission-cost EWMA: queue wait + service time of this completion
  // (queued items carry their admission stamp; synchronous callers pay
  // service time only). Clamped >= 1 so "fed" is distinguishable from
  // the no-data sentinel 0.
  constexpr double kAlpha = 0.2;  // EWMA smoothing factor.
  const std::int64_t base_ns = enqueue_ns > 0 ? enqueue_ns : start_ns;
  const std::uint64_t cost_us = static_cast<std::uint64_t>(
      std::max<std::int64_t>((end_ns - base_ns) / 1000, 1));
  const std::uint64_t prev =
      shard.ewma_cost_us.load(std::memory_order_relaxed);
  const std::uint64_t next =
      prev == 0 ? cost_us
                : static_cast<std::uint64_t>(
                      (1.0 - kAlpha) * static_cast<double>(prev) +
                      kAlpha * static_cast<double>(cost_us));
  shard.ewma_cost_us.store(std::max<std::uint64_t>(next, 1),
                           std::memory_order_relaxed);
  shard.last_completion_ns.store(end_ns, std::memory_order_relaxed);
  // A session's samples change under the same body bytes, so only an
  // inline sample's response is memoized.
  if (request.kind == RequestKind::kAnalyze &&
      request.args.GetString("session").empty()) {
    Memoize(digest, response, std::move(analysis_body));
  }
  return response;
}

// --- Per-connection dispatch ----------------------------------------------

bool ShardedServer::ServeScript(std::string_view in, std::string* out) {
  const auto conn = std::make_shared<Conn>();
  conn->reassembler.Feed(in);
  ProcessFrames(conn, /*at_eof=*/true);
  out->append(conn->out);
  return conn->saw_shutdown;
}

void ShardedServer::ProcessFrames(const std::shared_ptr<Conn>& conn,
                                  bool at_eof) {
  std::string type;
  std::string body;
  std::string error;
  while (!conn->read_closed) {
    const FrameReassembler::Result result =
        at_eof ? conn->reassembler.Finish(&type, &body, &error)
               : conn->reassembler.Next(&type, &body, &error);
    if (result == FrameReassembler::Result::kNeedMore) return;
    Request request;
    if (result == FrameReassembler::Result::kMalformed ||
        !BuildRequest(type, body, &request, &error)) {
      // Framing (or the frame's contract) is lost: answer once, then stop
      // reading this connection.
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      conn->read_closed = true;
      conn->cut = !at_eof;
      Answer(conn, Admit(*conn), ErrResponse("malformed", error));
      return;
    }
    // The reassembler parsed the optional trace token off the header; it
    // scopes the loop-side routing work and rides the Item to the shard.
    request.trace = conn->reassembler.last_trace();
    Dispatch(conn, std::move(request), body);
  }
}

std::uint64_t ShardedServer::Admit(Conn& conn) {
  {
    std::lock_guard<std::mutex> lock(conn.mutex);
    ++conn.accepted;
  }
  return conn.next_id++;
}

void ShardedServer::Dispatch(const std::shared_ptr<Conn>& conn,
                             Request request, std::string_view body) {
  const std::uint64_t id = Admit(*conn);
  obs::ScopedTraceContext trace_scope(request.trace);
  SPTA_OBS_SPAN_ARG("fleet", "route", "id", id);
  switch (request.kind) {
    case RequestKind::kShutdown:
      fleet_requests_.fetch_add(1, std::memory_order_relaxed);
      conn->saw_shutdown = true;
      conn->read_closed = true;
      if (conn->fd < 0) {
        // Synchronous: nothing can be in flight, so the drain is complete
        // when the ack is appended.
        shutdown_.store(true);
        Answer(conn, id, DrainedResponse());
      } else {
        BeginDrain(conn, id);
      }
      return;
    // Loop-answered verbs: HEALTH among them is the liveness contract —
    // it must answer even when every shard queue is wedged solid.
    case RequestKind::kMetrics:
      fleet_requests_.fetch_add(1, std::memory_order_relaxed);
      Answer(conn, id, FleetMetricsResponse());
      return;
    case RequestKind::kMetricsProm: {
      fleet_requests_.fetch_add(1, std::memory_order_relaxed);
      Args args;
      args.Set("format", "prometheus-0.0.4");
      Answer(conn, id, OkResponse(std::move(args), RenderFleetProm()));
      return;
    }
    case RequestKind::kHealth:
      fleet_requests_.fetch_add(1, std::memory_order_relaxed);
      Answer(conn, id, FleetHealthResponse());
      return;
    case RequestKind::kTrace:
      fleet_requests_.fetch_add(1, std::memory_order_relaxed);
      Answer(conn, id, FleetTraceResponse());
      return;
    default:
      break;
  }
  const DualHash digest = HashBytes(body);
  const bool stateless = request.args.GetString("session").empty();
  const std::size_t home = ShardFor(RouteDigest(request, digest.lo));
  // A stateless ANALYZE probes the memo before the load scan, and a hit is
  // charged to the digest's home shard.
  if (stateless && request.kind == RequestKind::kAnalyze) {
    std::string frame;
    if (TryServeWarm(*shards_[home], digest, &frame)) {
      CompleteItem(conn, id, std::move(frame), /*on_loop_thread=*/true);
      return;
    }
  }
  const std::size_t target =
      stateless ? RouteStateless(digest.lo, home) : home;
  ShardRuntime& shard = *shards_[target];
  if (const std::uint64_t hint = DeadlineShedHint(shard, request)) {
    // Admission control: queueing this request would only make it miss
    // its deadline at execution. Shed it now — counted as a shed, not a
    // failure (the request itself is fine; the timing isn't).
    shed_deadline_.fetch_add(1, std::memory_order_relaxed);
    Response shed = ErrResponse(
        "busy", "deadline unmeetable at admission, retry later");
    shed.args.SetUint("retry_after_ms", hint);
    shed.args.Set("shed", "deadline");
    Answer(conn, id, shed);
    return;
  }
  if (conn->fd < 0) {
    Answer(conn, id, ExecuteOnShard(shard, request, digest));
    return;
  }
  const RequestKind kind = request.kind;
  Item item;
  item.conn = conn;
  item.id = id;
  item.request = std::move(request);
  item.body_digest = digest;
  item.enqueue_ns = NowNs();
  item.stateless = stateless;
  inflight_.fetch_add(1, std::memory_order_acq_rel);
  if (!PushToShard(target, std::move(item))) {
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
    shard.server->metrics().CountBusyRejection();
    shard.server->metrics().CountRequest(kind, false);
    Response busy = ErrResponse("busy", "shard queue full, retry later");
    if (const std::uint64_t hint = BusyRetryHint(shard)) {
      busy.args.SetUint("retry_after_ms", hint);
    }
    Answer(conn, id, busy);
  }
}

void ShardedServer::Answer(const std::shared_ptr<Conn>& conn,
                           std::uint64_t id, const Response& response) {
  std::string frame;
  AppendResponseFrame(response, &frame);
  CompleteItem(conn, id, std::move(frame), /*on_loop_thread=*/true);
}

void ShardedServer::CompleteItem(const std::shared_ptr<Conn>& conn,
                                 std::uint64_t id, std::string frame,
                                 bool on_loop_thread) {
  bool flushable = false;
  {
    std::lock_guard<std::mutex> lock(conn->mutex);
    conn->ready.emplace(id, std::move(frame));
    while (!conn->ready.empty() &&
           conn->ready.begin()->first == conn->next_write) {
      conn->out += conn->ready.begin()->second;
      conn->ready.erase(conn->ready.begin());
      ++conn->next_write;
      ++conn->answered;
    }
    flushable = conn->out.size() > conn->out_off && !conn->closed;
  }
  if (on_loop_thread) {
    if (flushable) FlushConn(conn);
  } else {
    WakeLoop();  // The loop flushes; only it may touch the fd.
  }
}

// --- Event loop -------------------------------------------------------------

int ShardedServer::ListenTcp(const std::string& host, std::uint16_t port) {
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return errno;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (options_.reuseport) {
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return EINVAL;
  }
  if (const int err =
          BindAndListen(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr), options_.listen_backlog)) {
    return err;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    bound_port_ = ntohs(bound.sin_port);
  }
  listen_fd_ = fd;
  listen_tcp_ = true;
  return 0;
}

int ShardedServer::ListenUnix(const std::string& path) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) return ENAMETOOLONG;
  const int fd =
      ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return errno;
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ::unlink(path.c_str());  // A stale socket file from an earlier run.
  if (const int err =
          BindAndListen(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr), options_.listen_backlog)) {
    return err;
  }
  listen_fd_ = fd;
  listen_tcp_ = false;
  unix_path_ = path;
  return 0;
}

void ShardedServer::CloseListener() {
  if (listen_fd_ < 0) return;
  if (epoll_fd_ >= 0) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
  if (!unix_path_.empty()) ::unlink(unix_path_.c_str());
}

int ShardedServer::Start() {
  if (listen_fd_ < 0 && options_.adopt_fd < 0) return EINVAL;
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return errno;
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) {
    const int err = errno;
    ::close(epoll_fd_);
    epoll_fd_ = -1;
    return err;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;  // Level-triggered: accept/wake loops drain fully.
  ev.data.ptr = nullptr;
  if (listen_fd_ >= 0 &&
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) != 0) {
    return errno;
  }
  ev.data.ptr = reinterpret_cast<void*>(1);
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
    return errno;
  }
  if (options_.adopt_fd >= 0) {
    // An already-connected stream (the supervisor's health-probe
    // socketpair, or spta_serve --pipe's stdio bridge), served exactly
    // like an accepted connection. Registered before the loop thread
    // starts — conns_ is loop-owned after that.
    const int fd = options_.adopt_fd;
    const int fl = ::fcntl(fd, F_GETFL, 0);
    if (fl >= 0) ::fcntl(fd, F_SETFL, fl | O_NONBLOCK);
    if (AddConn(fd) == nullptr) return errno;
  }
  stop_workers_.store(false);
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    shards_[i]->thread = std::thread(&ShardedServer::ShardWorker, this, i);
  }
  loop_thread_ = std::thread(&ShardedServer::EventLoop, this);
  return 0;
}

int ShardedServer::Wait() {
  if (loop_thread_.joinable()) loop_thread_.join();
  stop_workers_.store(true);
  for (auto& shard : shards_) shard->qcv.notify_all();
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
  return 0;
}

void ShardedServer::TriggerShutdown() {
  shutdown_.store(true);
  WakeLoop();
}

void ShardedServer::WakeLoop() {
  if (wake_fd_ < 0) return;
  const std::uint64_t one = 1;
  // A full eventfd counter still wakes the loop; the value is irrelevant.
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

std::shared_ptr<ShardedServer::Conn> ShardedServer::AddConn(int fd) {
  auto conn = std::make_shared<Conn>();
  conn->fd = fd;
  if (options_.io_fault_hook_factory) {
    conn->hook = options_.io_fault_hook_factory(
        connections_total_.load(std::memory_order_relaxed));
  }
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET;
  ev.data.ptr = conn.get();
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) return nullptr;
  connections_total_.fetch_add(1, std::memory_order_relaxed);
  conns_.emplace(fd, conn);
  return conn;
}

void ShardedServer::AcceptReady() {
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN: burst drained.
    }
    if (draining_) {
      ::close(fd);
      continue;
    }
    if (listen_tcp_) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
    if (AddConn(fd) == nullptr) ::close(fd);
  }
}

ssize_t ShardedServer::ConnIo(Conn& conn, IoOp op, char* read_buf,
                              const char* write_buf, std::size_t count) {
  const std::uint64_t fired = conn.faults_fired;
  const ssize_t r = GuardedIo(conn.fd, op, read_buf, write_buf, count,
                              conn.hook, &conn.faults_fired);
  if (conn.faults_fired != fired) {
    faults_injected_.fetch_add(conn.faults_fired - fired,
                               std::memory_order_relaxed);
  }
  return r;
}

void ShardedServer::FlushConn(const std::shared_ptr<Conn>& conn) {
  if (!conn->writable || conn->fd < 0) return;
  std::lock_guard<std::mutex> lock(conn->mutex);
  if (conn->closed) return;
  while (conn->out_off < conn->out.size()) {
    const ssize_t n =
        ConnIo(*conn, IoOp::kWrite, nullptr, conn->out.data() + conn->out_off,
               conn->out.size() - conn->out_off);
    if (n > 0) {
      conn->out_off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      conn->writable = false;  // EPOLLOUT edge re-arms.
      return;
    }
    // Peer is gone; responses to it are undeliverable. Drop them so the
    // drain accounting still converges.
    conn->out_off = conn->out.size();
    conn->read_closed = true;
    return;
  }
  if (conn->out_off == conn->out.size() && conn->out_off >= 1 << 16) {
    conn->out.clear();
    conn->out_off = 0;
  }
}

void ShardedServer::CloseConn(const std::shared_ptr<Conn>& conn) {
  {
    std::lock_guard<std::mutex> lock(conn->mutex);
    if (conn->closed) return;
    conn->closed = true;
  }
  // A connection that ended under injected faults without a clean
  // SHUTDOWN handshake was degraded; the fleet itself carries on.
  if (conn->faults_fired > 0 && !conn->saw_shutdown) {
    sessions_degraded_.fetch_add(1, std::memory_order_relaxed);
  }
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  conns_.erase(conn->fd);
}

bool ShardedServer::PushToShard(std::size_t index, Item item) {
  ShardRuntime& shard = *shards_[index];
  {
    std::lock_guard<std::mutex> lock(shard.qmutex);
    if (shard.queue.size() >= options_.shard_queue_capacity) {
      return false;  // Busy-rejection: answered, never buffered.
    }
    if (item.stateless) {
      // Registered before the worker can see the item, so its release
      // always finds the entry.
      std::lock_guard<std::mutex> twins_lock(twins_mutex_);
      Twin& twin = twins_[item.body_digest.lo];
      twin.shard = index;
      ++twin.count;
    }
    shard.pending.fetch_add(1, std::memory_order_acq_rel);
    shard.queue.push_back(std::move(item));
  }
  shard.qcv.notify_one();
  return true;
}

void ShardedServer::ReadConn(const std::shared_ptr<Conn>& conn) {
  char buffer[65536];
  if (conn->lingering) {
    for (;;) {
      const ssize_t n = ::recv(conn->fd, buffer, sizeof(buffer), 0);
      if (n > 0 || (n < 0 && errno == EINTR)) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      break;  // The peer's FIN (or its death): nothing left to discard.
    }
    CloseConn(conn);
    return;
  }
  while (!conn->read_closed) {
    if (draining_) {
      conn->read_closed = true;  // Intake stopped fleet-wide.
      return;
    }
    const ssize_t n =
        ConnIo(*conn, IoOp::kRead, buffer, nullptr, sizeof(buffer));
    if (n > 0) {
      conn->reassembler.Feed(
          std::string_view(buffer, static_cast<std::size_t>(n)));
      ProcessFrames(conn, /*at_eof=*/false);
      continue;  // Edge-triggered: read until EAGAIN.
    }
    if (n == 0) {
      // EOF flush: trailing bytes may still complete a frame under
      // FrameReassembler::Finish's end-of-stream rules.
      ProcessFrames(conn, /*at_eof=*/true);
      conn->read_closed = true;
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    conn->read_closed = true;  // Hard error: treat as peer death.
  }
}

void ShardedServer::BeginDrain(const std::shared_ptr<Conn>& conn,
                               std::uint64_t id) {
  if (draining_) {
    // A second SHUTDOWN during the drain: ack it right away.
    if (conn != nullptr) Answer(conn, id, DrainedResponse());
    return;
  }
  draining_ = true;
  shutdown_.store(true);
  drain_ack_conn_ = conn;
  drain_ack_id_ = id;
  CloseListener();
}

void ShardedServer::CheckDrain() {
  if (!draining_ || drain_acked_) return;
  if (inflight_.load(std::memory_order_acquire) != 0) return;
  // Every accepted request has been answered into its connection's
  // buffers; the SHUTDOWN ack may now go out (strictly after them, via
  // the per-connection ordering).
  drain_acked_ = true;
  if (drain_ack_conn_ != nullptr) {
    Answer(drain_ack_conn_, drain_ack_id_, DrainedResponse());
    drain_ack_conn_.reset();
  }
}

void ShardedServer::EventLoop() {
  std::vector<epoll_event> events(64);
  Clock::time_point flush_deadline{};
  for (;;) {
    const int timeout_ms = draining_ ? 20 : 200;
    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()), timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      void* tag = events[i].data.ptr;
      if (tag == nullptr) {
        if (listen_fd_ >= 0) AcceptReady();
        continue;
      }
      if (tag == reinterpret_cast<void*>(1)) {
        std::uint64_t junk = 0;
        while (::read(wake_fd_, &junk, sizeof(junk)) > 0) {
        }
        continue;  // Flush + drain checks run below for every wake.
      }
      Conn* raw = static_cast<Conn*>(tag);
      const auto it = conns_.find(raw->fd);
      if (it == conns_.end()) continue;  // Already closed this pass.
      const std::shared_ptr<Conn> conn = it->second;
      if ((events[i].events & EPOLLOUT) != 0) conn->writable = true;
      if ((events[i].events &
           (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR)) != 0) {
        ReadConn(conn);
      }
    }
    if (shutdown_.load(std::memory_order_acquire) && !draining_) {
      BeginDrain(nullptr, 0);
    }
    CheckDrain();
    // Flush-and-reap pass over every connection (completions arrive from
    // shard threads at any time; the conn set stays small enough that a
    // full sweep beats bookkeeping a dirty list).
    std::vector<std::shared_ptr<Conn>> sweep;
    sweep.reserve(conns_.size());
    for (const auto& [fd, conn] : conns_) sweep.push_back(conn);
    for (const std::shared_ptr<Conn>& conn : sweep) {
      FlushConn(conn);
      bool done = false;
      {
        std::lock_guard<std::mutex> lock(conn->mutex);
        done = conn->read_closed && conn->accepted == conn->answered &&
               conn->ready.empty() && conn->out_off == conn->out.size();
      }
      // During the drain, responses already banked must still go out
      // before teardown — only reap once the ack has been ordered in.
      if (!done || (draining_ && !drain_acked_)) continue;
      if (conn->cut && !draining_) {
        // Closing on unread bytes (the rest of a pipelined batch) would
        // answer them with a RST that can drop the ERR still in flight:
        // half-close after it instead, and discard until the peer's FIN.
        if (!conn->lingering) {
          conn->lingering = true;
          ::shutdown(conn->fd, SHUT_WR);
          ReadConn(conn);
        }
        continue;
      }
      CloseConn(conn);
    }
    if (drain_acked_) {
      if (flush_deadline == Clock::time_point{}) {
        flush_deadline = Clock::now() + std::chrono::seconds(5);
      }
      bool unflushed = false;
      for (const auto& [fd, conn] : conns_) {
        std::lock_guard<std::mutex> lock(conn->mutex);
        if (conn->out_off < conn->out.size() || !conn->ready.empty() ||
            conn->accepted != conn->answered) {
          unflushed = true;
          break;
        }
      }
      if (!unflushed || Clock::now() > flush_deadline) break;
    }
  }
  // Teardown: every answered byte either left or timed out; close what
  // remains so clients observe EOF.
  std::vector<std::shared_ptr<Conn>> leftover;
  leftover.reserve(conns_.size());
  for (const auto& [fd, conn] : conns_) leftover.push_back(conn);
  for (const std::shared_ptr<Conn>& conn : leftover) CloseConn(conn);
}

void ShardedServer::ShardWorker(std::size_t index) {
  ShardRuntime& shard = *shards_[index];
  for (;;) {
    Item item;
    {
      std::unique_lock<std::mutex> lock(shard.qmutex);
      shard.qcv.wait(lock, [&] {
        return stop_workers_.load(std::memory_order_acquire) ||
               !shard.queue.empty();
      });
      if (shard.queue.empty()) {
        if (stop_workers_.load(std::memory_order_acquire)) return;
        continue;
      }
      item = std::move(shard.queue.front());
      shard.queue.pop_front();
    }
    // The request's wire trace context crossed the queue inside the Item;
    // re-install it on this worker thread so the shard's spans (and any
    // metric exemplars) link into the same distributed trace, and record
    // the cross-thread queue-wait span from the admission timestamp
    // (enqueue_ns and Tracer::NowNs share the absolute monotonic clock).
    obs::ScopedTraceContext trace_scope(item.request.trace);
    if (obs::Tracer::Enabled() && item.enqueue_ns > 0) {
      obs::Tracer::Instance().RecordComplete(
          "fleet", "queue_wait", static_cast<std::uint64_t>(item.enqueue_ns),
          obs::Tracer::NowNs(), "id", item.id);
    }
    const Response response =
        ExecuteOnShard(shard, item.request, item.body_digest,
                       item.enqueue_ns);
    std::string frame;
    AppendResponseFrame(response, &frame);
    CompleteItem(item.conn, item.id, std::move(frame),
                 /*on_loop_thread=*/false);
    // Release order matters: the response (and any memo and cache entry)
    // must be visible before a twin can route elsewhere, or a later
    // identical request could run on another shard and miss.
    ReleaseTwin(item);
    shard.pending.fetch_sub(1, std::memory_order_release);
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
    WakeLoop();
  }
}

// --- Fleet metrics surface ------------------------------------------------

Response ShardedServer::FleetMetricsResponse() {
  // The shards share one engine: its cache counts once, in its own section.
  const Args cache = CacheArgs(engine_.cache().stats());
  std::string payload = "== engine ==\n";
  for (const auto& [key, value] : cache.values()) {
    payload += key + ' ' + value + '\n';
  }
  payload.push_back('\n');
  std::map<std::string, std::uint64_t> sums;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const ServiceMetrics& metrics = shards_[i]->server->metrics();
    const Args snapshot = metrics.Snapshot();
    for (const auto& [key, value] : snapshot.values()) {
      sums[key] += snapshot.GetUint(key, 0);
    }
    payload += "== shard " + std::to_string(i) + " ==\n";
    payload += metrics.Render();
    payload.push_back('\n');
  }
  // I/O faults happen on the loop's connections, not inside a shard.
  sums["faults_injected"] += faults_injected_.load(std::memory_order_relaxed);
  sums["sessions_degraded"] +=
      sessions_degraded_.load(std::memory_order_relaxed);
  Args args = cache;
  for (const auto& [key, value] : sums) args.SetUint(key, value);
  std::uint64_t memo = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) memo += shard_memo_hits(i);
  args.SetUint("fleet_shards", shards_.size());
  args.SetUint("fleet_memo_hits", memo);
  args.SetUint("fleet_protocol_errors",
               protocol_errors_.load(std::memory_order_relaxed));
  args.SetUint("fleet_connections",
               connections_total_.load(std::memory_order_relaxed));
  args.SetUint("fleet_shed_deadline",
               shed_deadline_.load(std::memory_order_relaxed));
  return OkResponse(std::move(args), std::move(payload));
}

Response ShardedServer::FleetTraceResponse() {
  // The Tracer is process-global: its thread rings already cover the event
  // loop and every shard worker.
  std::ostringstream trace_json;
  if (!obs::Tracer::Instance().WriteChromeTrace(trace_json)) {
    return ErrResponse("trace", "trace serialization failed");
  }
  const obs::Tracer::Stats stats = obs::Tracer::Instance().GetStats();
  Args args;
  args.Set("format", "chrome-trace");
  args.SetUint("events", stats.recorded);
  args.SetUint("dropped", stats.dropped);
  args.SetUint("enabled", obs::Tracer::Enabled() ? 1 : 0);
  return OkResponse(std::move(args), trace_json.str());
}

Response ShardedServer::FleetHealthResponse() {
  const std::int64_t now = NowNs();
  std::string payload;
  std::size_t stalled_count = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    ShardRuntime& shard = *shards_[i];
    const std::uint64_t pending =
        shard.pending.load(std::memory_order_acquire);
    std::size_t queue_depth = 0;
    {
      std::lock_guard<std::mutex> lock(shard.qmutex);
      queue_depth = shard.queue.size();
    }
    const std::int64_t age_ns =
        now - shard.last_completion_ns.load(std::memory_order_relaxed);
    const std::uint64_t age_ms = static_cast<std::uint64_t>(
        std::max<std::int64_t>(age_ns, 0) / 1'000'000);
    // Stalled = has work but is making no progress: exactly the wedged
    // shard the watchdog/readiness story exists to surface. A busy shard
    // still completing requests keeps its age fresh and stays ready.
    const bool stalled =
        pending > 0 &&
        static_cast<double>(age_ms) > options_.health_stall_after_ms;
    if (stalled) ++stalled_count;
    payload += "== shard " + std::to_string(i) + " ==\n";
    payload += "queue_depth=" + std::to_string(queue_depth);
    payload += " inflight=" + std::to_string(pending);
    payload += " ewma_cost_us=" +
               std::to_string(shard.ewma_cost_us.load(
                   std::memory_order_relaxed));
    payload += " last_completion_age_ms=" + std::to_string(age_ms);
    payload += " stalled=" + std::to_string(stalled ? 1 : 0);
    payload.push_back('\n');
  }
  const bool draining = shutdown_.load(std::memory_order_acquire);
  const bool degraded = draining || stalled_count > 0;
  Args args;
  args.Set("status", degraded ? "degraded" : "ok");
  args.Set("role", "fleet");
  args.SetUint("fleet_shards", shards_.size());
  args.SetUint("fleet_stalled", stalled_count);
  args.SetUint("fleet_inflight",
               inflight_.load(std::memory_order_acquire));
  args.SetUint("fleet_shed_deadline",
               shed_deadline_.load(std::memory_order_relaxed));
  args.SetUint("draining", draining ? 1 : 0);
  return OkResponse(std::move(args), std::move(payload));
}

std::string ShardedServer::RenderFleetProm() {
  obs::PromText prom;
  const auto counter = [&prom](const char* name, const char* help,
                               std::uint64_t value) {
    prom.Declare(name, "counter", help);
    prom.Sample(name, static_cast<double>(value));
  };
  const auto per_shard = [&](const char* name, const char* type,
                             const char* help, auto value) {
    prom.Declare(name, type, help);
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      prom.Sample(name, "shard=\"" + std::to_string(i) + "\"",
                  static_cast<double>(value(i)));
    }
  };
  prom.Declare("spta_fleet_shards", "gauge", "Worker shard count.");
  prom.Sample("spta_fleet_shards", static_cast<double>(shards_.size()));
  per_shard("spta_fleet_routed_total", "counter",
            "Requests routed to each shard.",
            [this](std::size_t i) { return shard_routed_total(i); });
  per_shard("spta_fleet_memo_hits_total", "counter",
            "ANALYZE requests answered from the warm response memo.",
            [this](std::size_t i) { return shard_memo_hits(i); });
  per_shard("spta_fleet_requests_total", "counter",
            "Requests finished per shard.", [this](std::size_t i) {
              return shards_[i]->server->metrics().requests_total();
            });
  counter("spta_fleet_shed_deadline_total",
          "Requests shed at admission (unmeetable deadline_ms).",
          shed_deadline_.load(std::memory_order_relaxed));
  counter("spta_fleet_protocol_errors_total",
          "Malformed frames cut off by the event loop.",
          protocol_errors_.load(std::memory_order_relaxed));
  counter("spta_fleet_connections_total",
          "Connections served by the event loop.",
          connections_total_.load(std::memory_order_relaxed));
  counter("spta_fleet_loop_requests_total",
          "Verbs handled on the event loop (METRICS/SHUTDOWN).",
          fleet_requests_.load(std::memory_order_relaxed));
  if (store_ != nullptr) {
    const PersistentResultCache::Stats stats = store_->stats();
    counter("spta_fleet_persistent_loaded_total",
            "Persistent cache entries restored at startup.", stats.loaded);
    counter("spta_fleet_persistent_rejected_total",
            "Persistent cache files rejected as corrupt or unusable.",
            stats.rejected);
    counter("spta_fleet_persistent_stored_total",
            "Persistent cache entries written.", stats.stored);
    counter("spta_fleet_persistent_store_failures_total",
            "Persistent cache writes that failed.", stats.store_failures);
    counter("spta_fleet_persistent_evicted_total",
            "Persistent cache entries unlinked to stay in budget.",
            stats.evicted);
    counter("spta_fleet_persistent_evicted_bytes_total",
            "Bytes reclaimed by persistent cache eviction.",
            stats.evicted_bytes);
    counter("spta_fleet_persistent_enospc_total",
            "Persistent cache writes failed with ENOSPC/EDQUOT.",
            stats.enospc_failures);
    counter("spta_fleet_persistent_eio_total",
            "Persistent cache writes failed with EIO.", stats.eio_failures);
    prom.Declare("spta_fleet_persistent_degraded", "gauge",
                 "Sticky flag: persistent cache gave up and runs "
                 "memory-only.");
    prom.Sample("spta_fleet_persistent_degraded",
                static_cast<double>(stats.degraded));
  }
  return prom.str();
}

}  // namespace spta::service
