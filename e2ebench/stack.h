// The serving stack the text and live workloads share: one ShardServer
// per (shard, replica), one TcpTransport per replica, RemoteClusterIndex
// over ReplicaSets, RemoteBackend, Frontend and FrontendServer. With a
// Tracer the traced subclasses and decorators take their places.
#ifndef E2EBENCH_STACK_H_
#define E2EBENCH_STACK_H_

#include <memory>
#include <vector>

#include "net/remote_cluster.h"
#include "net/shard_server.h"
#include "net/tcp.h"
#include "serve/backend.h"
#include "serve/frontend.h"
#include "serve/frontend_server.h"
#include "trace.h"

namespace e2e {

inline constexpr size_t kReplicas = 2;

/// Shard servers, declared before the centre that calls them so that
/// the centre is torn down first.
struct ShardFleet {
  /// servers[shard * kReplicas + replica], each hosting node 0.
  std::vector<std::unique_ptr<dls::net::ShardServer>> servers;

  /// A server for (shard, replica): traced when `tracer` is non-null.
  dls::net::ShardServer* Add(Tracer* tracer, uint32_t shard,
                             uint32_t replica);
  dls::Status StartAll();
};

struct Centre {
  std::vector<std::unique_ptr<dls::net::TcpTransport>> tcp;
  std::vector<std::unique_ptr<TracedTransport>> traced;
  std::unique_ptr<dls::net::RemoteClusterIndex> remote;
  std::unique_ptr<dls::serve::RemoteBackend> backend;
  std::unique_ptr<TracedBackend> traced_backend;
  std::unique_ptr<dls::serve::Frontend> frontend;
  std::unique_ptr<dls::serve::FrontendServer> server;

  uint16_t port() const { return server->port(); }
};

/// Creates one transport per server of `fleet` and the (not yet
/// connected) RemoteClusterIndex over them.
void DialCentre(const ShardFleet& fleet, size_t shards, Tracer* tracer,
                Centre* centre);

/// Runs the stats handshake and brings the centre up to a listening
/// FrontendServer.
dls::Status ServeCentre(Tracer* tracer, Centre* centre);

/// Exchanges answered with a ranking.
size_t Answered(const std::vector<Exchange>& exchanges);

/// Closed-loop exchanges with the wall and process CPU time they took.
struct ClosedPhase {
  std::vector<Exchange> exchanges;
  double seconds = 0;
  double cpu_seconds = 0;
};

/// ClosedLoop() for `seconds`, timed.
ClosedPhase RunClosedPhase(std::vector<std::unique_ptr<Client>>& clients,
                           double seconds, uint64_t first_id, uint64_t end_id,
                           const MakeRequest& make);

/// Burst() of `count` requests, timed and appended to `phase`.
void AddBurst(std::vector<std::unique_ptr<Client>>& clients, uint64_t first_id,
              uint64_t count, const MakeRequest& make, ClosedPhase* phase);

/// The serving metrics: p50 (end-to-end) and p99 latency of the
/// open-loop exchanges; the closed loop's answered queries per second
/// and process CPU time per answered query (end-to-end); the stack's
/// resident memory (end-to-end).
void AddServeMetrics(const std::vector<Exchange>& open,
                     const ClosedPhase& closed, double rss_mb,
                     RunResult* result);

/// Per-layer frontend counters between two Stats() samples, and the
/// replica counters of `remote` when there is one.
void AddFrontendMetrics(const dls::serve::ServeStats& before,
                        const dls::serve::ServeStats& after,
                        const dls::net::RemoteClusterIndex* remote,
                        RunResult* result);

}  // namespace e2e

#endif  // E2EBENCH_STACK_H_
