// Copyright (c) 2026 moqo authors. MIT license.
//
// NetServer (PR 7): the streaming network front end of the optimization
// service — a dependency-free epoll event loop that maps one TCP
// connection onto one FrontierSession and *server-pushes* every refined
// frontier the session publishes, so a remote client gets the same
// anytime contract an in-process caller gets from OnRefined: a first
// frontier within quick-mode latency, then monotonically tightening
// updates until the target alpha, a DONE frame, or cancellation.
//
// Design:
//
//   - One event-loop thread, edge-triggered epoll, non-blocking sockets.
//     The loop owns the connection table; nothing else touches it.
//   - Session callbacks (OnRefined/OnDone) run on the service's worker
//     threads. They only ENCODE the frame, append it to the connection's
//     mutex-protected outbox, and wake the loop through an eventfd — they
//     never write to the socket and never block, which is what the
//     FrontierSession callback contract requires.
//   - Backpressure is newest-wins per connection: when a slow reader has
//     max_queued_pushes FRONTIER_UPDATE frames queued, the OLDEST queued
//     update is dropped to admit the new one (each update supersedes its
//     predecessors — the session's own BestFrontier semantics). Control
//     frames (SELECT_RESULT, DONE, ERROR) are never dropped. A slow
//     reader therefore costs bounded memory and zero event-loop stalls;
//     it just skips intermediate rungs.
//   - Teardown order per connection: RemoveCallback (blocks until any
//     in-flight delivery finishes), then Cancel() exactly once for the
//     connection's opener handle, then close(fd). This is what makes
//     connection churn safe against rungs landing concurrently.
//
// Observability: net.accept / net.read / net.push spans on the service
// tracer, and a moqo_net_* metric family registered on the service's
// MetricsRegistry (samplers share ownership of the counters, so a scrape
// after the server is gone still reads the final values).
//
// Lifetime: the NetServer must be destroyed (or Stop()ped) before the
// OptimizationService it serves — callbacks and spans reach into the
// service's sessions and tracer.

#ifndef MOQO_NET_NET_SERVER_H_
#define MOQO_NET_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/push_queue.h"
#include "net/wire.h"
#include "obs/counter.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace moqo {

class OptimizationService;
class Query;

namespace net {

struct NetOptions {
  /// Bind address. Loopback by default: the front end is meant to sit
  /// behind the process boundary, not the trust boundary.
  std::string host = "127.0.0.1";
  /// 0 = ephemeral; the bound port is available from port() after Start().
  uint16_t port = 0;
  /// Per-frame payload cap for inbound frames; oversized declarations
  /// close the connection.
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Newest-wins backpressure: max FRONTIER_UPDATE frames queued per
  /// connection before the oldest queued update is dropped.
  size_t max_queued_pushes = 8;
  /// Maps an OPEN_FRONTIER query_id to the query it names; null return =
  /// unknown (the connection gets an ERROR and is closed). The serving
  /// tier owns the catalog — queries never travel over this wire.
  std::function<std::shared_ptr<const Query>(const std::string&)>
      resolve_query;
  /// Accept → first decodable frame deadline (PR 8). A connection that
  /// never produces a complete frame within this window is reaped with
  /// ERROR{timeout} — a half-open or dribbling client cannot pin a
  /// connection-table slot forever. <= 0 disables.
  int64_t handshake_timeout_ms = -1;
  /// No-traffic deadline, counting BOTH directions: client frames in and
  /// server pushes out. An open ladder that is still publishing keeps its
  /// connection alive; only a truly quiet connection is reaped with
  /// ERROR{timeout}. <= 0 disables.
  int64_t idle_timeout_ms = -1;
};

/// The wire-path counters. The server increments one shared block in
/// place from the loop thread and session callbacks; Stats() returns a
/// copy, and the moqo_net_* samplers share the block.
struct NetStatsSnapshot {
  Counter connections_accepted;
  Counter connections_active;  ///< Gauge.
  Counter sessions_opened;     ///< OPEN_FRONTIER frames served.
  Counter bytes_in;
  Counter bytes_out;
  Counter frames_in;
  Counter pushes_sent;       ///< FRONTIER_UPDATE frames written.
  Counter pushes_dropped;    ///< Updates superseded by newest-wins.
  Counter push_queue_depth;  ///< Gauge: queued frames, all conns.
  Counter protocol_errors;
  /// Connections closed by the handshake/idle deadline sweep (distinct
  /// from protocol_errors: the peer spoke no ill, it just went quiet).
  Counter connections_reaped;
};

class NetServer {
 public:
  /// Does not start anything; call Start(). `service` must outlive this
  /// object.
  NetServer(OptimizationService* service, NetOptions options = {});

  /// Stops and joins the loop, closing every connection.
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Binds, listens, registers the moqo_net_* metrics, and spawns the
  /// event loop. False on socket/bind/listen failure (errno preserved).
  bool Start();

  /// Idempotent; joins the loop thread and tears down every connection
  /// (callbacks removed, sessions cancelled, sockets closed).
  void Stop();

  /// The bound port (resolves port 0), valid after a successful Start().
  uint16_t port() const { return port_; }

  NetStatsSnapshot Stats() const { return *stats_; }

 private:
  struct Connection;

  void LoopMain();
  void HandleAccept();
  /// ET read-drain: recv until EAGAIN/EOF, feeding the frame decoder and
  /// dispatching every complete frame. Returns false when the connection
  /// must close.
  bool HandleReadable(const std::shared_ptr<Connection>& conn);
  bool HandleFrame(const std::shared_ptr<Connection>& conn, MsgType type,
                   const std::vector<uint8_t>& payload);
  bool HandleOpenFrontier(const std::shared_ptr<Connection>& conn,
                          const std::vector<uint8_t>& payload);
  bool HandleSelect(const std::shared_ptr<Connection>& conn,
                    const std::vector<uint8_t>& payload);
  /// Writes queued frames until the outbox is empty or the socket would
  /// block (EPOLLOUT finishes the job). False on write error.
  bool FlushOutbox(const std::shared_ptr<Connection>& conn);
  /// Sends a final ERROR frame (best-effort) and closes. Counts a
  /// protocol error; the deadline sweep uses SendErrorAndClose directly.
  void FailConnection(const std::shared_ptr<Connection>& conn,
                      ErrorCode code, const std::string& message);
  void SendErrorAndClose(const std::shared_ptr<Connection>& conn,
                         ErrorCode code, const std::string& message);
  /// Closes every connection past its handshake or idle deadline with
  /// ERROR{timeout}; loop thread only, once per epoll pass.
  void ReapExpiredConnections();
  /// -1 (block) when both deadlines are disabled, else a fraction of the
  /// tightest one so a quiet connection is reaped promptly.
  int EpollTimeoutMs() const;
  void CloseConnection(const std::shared_ptr<Connection>& conn);
  /// Enqueues an encoded frame on the connection's outbox (newest-wins
  /// for frontier frames) and wakes the loop. Any thread.
  void Enqueue(const std::shared_ptr<Connection>& conn, std::string frame,
               bool is_frontier);
  void Wake();
  void RegisterMetrics();

  OptimizationService* service_;
  NetOptions options_;
  /// Shared with the metric samplers registered on the service, which can
  /// outlive the server.
  std::shared_ptr<NetStatsSnapshot> stats_ =
      std::make_shared<NetStatsSnapshot>();

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  bool started_ = false;
  bool metrics_registered_ = false;
  std::thread loop_;

  /// Owned by the loop thread exclusively.
  std::unordered_map<int, std::shared_ptr<Connection>> connections_;

  /// Connections with freshly enqueued frames, flagged by callback
  /// threads, drained by the loop on each eventfd wake. weak_ptrs, not
  /// fds: an fd can be closed and reused by a brand-new connection while
  /// its flush request is still queued here, and the drain would then
  /// flush the WRONG connection. A weak_ptr can only ever resolve to the
  /// connection that enqueued (or to nothing).
  Mutex pending_mu_;
  std::vector<std::weak_ptr<Connection>> pending_flush_
      MOQO_GUARDED_BY(pending_mu_);
};

}  // namespace net
}  // namespace moqo

#endif  // MOQO_NET_NET_SERVER_H_
