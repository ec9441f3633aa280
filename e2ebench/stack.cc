#include "stack.h"

namespace e2e {
namespace {

/// Threads of the centre's shard fan-out pool.
constexpr size_t kFanOutThreads = 4;
/// Worker threads of each shard server: one connection per replica
/// transport, plus one spare for a reconnect.
constexpr size_t kShardWorkers = 2;

}  // namespace

dls::net::ShardServer* ShardFleet::Add(Tracer* tracer, uint32_t shard,
                                       uint32_t replica) {
  if (tracer != nullptr) {
    servers.push_back(std::make_unique<TracedShardServer>(
        tracer, shard, replica, kShardWorkers));
  } else {
    servers.push_back(std::make_unique<dls::net::ShardServer>(kShardWorkers));
  }
  return servers.back().get();
}

dls::Status ShardFleet::StartAll() {
  for (auto& server : servers) DLS_RETURN_IF_ERROR(server->Start(0));
  return dls::Status::Ok();
}

void DialCentre(const ShardFleet& fleet, size_t shards, Tracer* tracer,
                Centre* centre) {
  std::vector<dls::net::RemoteClusterIndex::ReplicaSet> sets(shards);
  for (size_t s = 0; s < shards; ++s) {
    for (size_t r = 0; r < kReplicas; ++r) {
      const auto& server = fleet.servers[s * kReplicas + r];
      centre->tcp.push_back(
          std::make_unique<dls::net::TcpTransport>("127.0.0.1", server->port()));
      dls::net::Transport* transport = centre->tcp.back().get();
      if (tracer != nullptr) {
        centre->traced.push_back(std::make_unique<TracedTransport>(
            tracer, transport, static_cast<uint32_t>(s),
            static_cast<uint32_t>(r)));
        transport = centre->traced.back().get();
      }
      sets[s].replicas.push_back({transport, 0});
    }
  }
  centre->remote = std::make_unique<dls::net::RemoteClusterIndex>(
      std::move(sets), dls::net::RemoteClusterIndex::Options{});
  centre->remote->EnableParallelism(kFanOutThreads);
}

dls::Status ServeCentre(Tracer* tracer, Centre* centre) {
  DLS_RETURN_IF_ERROR(centre->remote->Connect());
  centre->backend =
      std::make_unique<dls::serve::RemoteBackend>(centre->remote.get());
  const dls::serve::Backend* backend = centre->backend.get();
  if (tracer != nullptr) {
    centre->traced_backend = std::make_unique<TracedBackend>(
        tracer, backend, centre->remote.get());
    backend = centre->traced_backend.get();
  }
  centre->frontend = std::make_unique<dls::serve::Frontend>(backend);
  if (tracer != nullptr) {
    centre->server = std::make_unique<TracedFrontendServer>(
        tracer, centre->frontend.get(), 8);
  } else {
    centre->server =
        std::make_unique<dls::serve::FrontendServer>(centre->frontend.get());
  }
  return centre->server->Start(0);
}

size_t Answered(const std::vector<Exchange>& exchanges) {
  size_t answered = 0;
  for (const Exchange& e : exchanges) {
    if (e.ok && e.response.status.ok()) ++answered;
  }
  return answered;
}

ClosedPhase RunClosedPhase(std::vector<std::unique_ptr<Client>>& clients,
                           double seconds, uint64_t first_id, uint64_t end_id,
                           const MakeRequest& make) {
  ClosedPhase phase;
  const int64_t t0 = NowNs();
  const double cpu0 = ProcessCpuSeconds();
  phase.exchanges = ClosedLoop(clients, seconds, first_id, end_id, make);
  phase.cpu_seconds = ProcessCpuSeconds() - cpu0;
  phase.seconds = Since(t0);
  return phase;
}

void AddBurst(std::vector<std::unique_ptr<Client>>& clients, uint64_t first_id,
              uint64_t count, const MakeRequest& make, ClosedPhase* phase) {
  const int64_t t0 = NowNs();
  const double cpu0 = ProcessCpuSeconds();
  std::vector<Exchange> burst = Burst(clients, first_id, count, make);
  phase->cpu_seconds += ProcessCpuSeconds() - cpu0;
  phase->seconds += Since(t0);
  phase->exchanges.insert(phase->exchanges.end(),
                          std::make_move_iterator(burst.begin()),
                          std::make_move_iterator(burst.end()));
}

void AddServeMetrics(const std::vector<Exchange>& open,
                     const ClosedPhase& closed, double rss_mb,
                     RunResult* result) {
  std::vector<double> latency;
  for (const Exchange& e : open) {
    if (e.ok && e.response.status.ok()) latency.push_back(LatencyMs(e));
  }
  const double answered = static_cast<double>(Answered(closed.exchanges));
  result->Add("e2e.p50_ms", Quantile(latency, 0.5), "ms");
  result->Add("e2e.p99_ms", Quantile(latency, 0.99), "ms");
  result->Add("e2e.peak_qps", answered / closed.seconds, "queries/s");
  result->Add("e2e.cpu_ms_per_query", closed.cpu_seconds * 1e3 / answered,
              "ms");
  result->Add("serve_rss_mb", rss_mb, "MB");
}

void AddFrontendMetrics(const dls::serve::ServeStats& before,
                        const dls::serve::ServeStats& after,
                        const dls::net::RemoteClusterIndex* remote,
                        RunResult* result) {
  const uint64_t hits = after.cache_hits - before.cache_hits;
  const uint64_t lookups = hits + after.cache_misses - before.cache_misses;
  result->Add("serve.cache_hit_ratio",
              lookups == 0 ? 0.0
                           : static_cast<double>(hits) /
                                 static_cast<double>(lookups),
              "ratio");
  result->Add("serve.epoch_changes",
              static_cast<double>(after.epoch_changes - before.epoch_changes),
              "count");
  result->Add("serve.cache_warmed",
              static_cast<double>(after.cache_warmed - before.cache_warmed),
              "count");
  result->Add("serve.stale_served",
              static_cast<double>(after.stale_served - before.stale_served),
              "count");
  if (remote != nullptr) {
    result->Add("net.failovers",
                static_cast<double>(remote->replica_counters().failovers),
                "count");
  }
}

}  // namespace e2e
