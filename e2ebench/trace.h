// The traced run's instruments, all outside the program: subclasses of
// net::ShardServer and serve::FrontendServer that time HandleFrame,
// decorators of net::Transport and serve::Backend, and the analysis
// that turns their spans into per-layer metrics.
//
// Spans live in memory (Tracer) and are written out when the run ends.
// A span names every request it served: the frontend span its one
// request, a backend batch all its riders, a shard exchange and the
// shard's handling every rider of the batch that sent it. Requests are
// identified by the id the load generator stamps into the deadline
// field (see load.h); batches and exchanges are linked to their parent
// by the resolved stems of the query and by the exact frame bytes.
#ifndef E2EBENCH_TRACE_H_
#define E2EBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "load.h"
#include "net/remote_cluster.h"
#include "net/shard_server.h"
#include "net/transport.h"
#include "serve/backend.h"
#include "serve/frontend_server.h"

namespace e2e {

enum class Layer : uint8_t { kFrontend, kBackend, kExchange, kShard };

struct Span {
  Layer layer = Layer::kFrontend;
  uint32_t id = 0;
  uint32_t parent = 0;  ///< 0: none (frontend spans, unlinked children)
  uint32_t shard = 0;   ///< exchange and shard spans
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  std::vector<uint64_t> requests;  ///< request ids mod kDeadlineIdSpan
};

/// One shard exchange as it crossed the wire, kept for the replay of
/// the wire codec and of shard evaluation.
struct CapturedExchange {
  uint32_t shard = 0;
  std::vector<uint8_t> request;
  std::vector<uint8_t> response;
};

/// Counters the Backend decorator reads off ClusterQueryStats.
struct BackendCounts {
  uint64_t batches = 0;
  uint64_t queries = 0;
  uint64_t messages = 0;
  uint64_t bytes = 0;
  uint64_t hedges = 0;
  uint64_t failovers = 0;
  uint64_t postings = 0;
  uint64_t blocks_decoded = 0;
  uint64_t blocks_skipped = 0;
};

class Tracer {
 public:
  /// Recording is off until enabled; the wrappers then pass through.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_release); }
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }

  uint32_t NextId() { return next_id_.fetch_add(1) + 1; }
  void Record(Span span);

  // Links between layers, valid while the parent is in flight.
  void Register(const std::string& key, uint64_t value);
  void Unregister(const std::string& key, uint64_t value);
  std::vector<uint64_t> Lookup(const std::string& key);

  void Capture(CapturedExchange exchange);
  void CountBatch(size_t queries, const dls::ir::ClusterQueryStats& stats);

  std::vector<Span> spans() const;
  std::vector<CapturedExchange> captures() const;
  BackendCounts counts() const;

  /// Writes every span as one tab-separated line.
  void Dump(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<uint32_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::unordered_multimap<std::string, uint64_t> links_;
  std::vector<CapturedExchange> captures_;
  BackendCounts counts_;
};

/// Key under which a frame sent to replica `replica` of shard `shard` is
/// linked to the exchange that sent it.
std::string FrameKey(const std::vector<uint8_t>& frame, uint32_t shard,
                     uint32_t replica);

class TracedShardServer : public dls::net::ShardServer {
 public:
  TracedShardServer(Tracer* tracer, uint32_t shard, uint32_t replica,
                    size_t workers)
      : ShardServer(workers),
        tracer_(tracer),
        shard_(shard),
        replica_(replica) {}
  ~TracedShardServer() override { Stop(); }

  dls::Result<std::vector<uint8_t>> HandleFrame(
      const std::vector<uint8_t>& frame) const override;

 private:
  Tracer* tracer_;
  uint32_t shard_;
  uint32_t replica_;
};

class TracedFrontendServer : public dls::serve::FrontendServer {
 public:
  TracedFrontendServer(Tracer* tracer, dls::serve::Frontend* frontend,
                       size_t workers)
      : FrontendServer(frontend, workers), tracer_(tracer) {}
  ~TracedFrontendServer() override { Stop(); }

  dls::Result<std::vector<uint8_t>> HandleFrame(
      const std::vector<uint8_t>& frame) const override;

 private:
  Tracer* tracer_;
};

class TracedTransport : public dls::net::Transport {
 public:
  TracedTransport(Tracer* tracer, dls::net::Transport* inner, uint32_t shard,
                  uint32_t replica)
      : tracer_(tracer), inner_(inner), shard_(shard), replica_(replica) {}

  dls::Result<std::vector<uint8_t>> Call(const std::vector<uint8_t>& frame,
                                         dls::Deadline deadline) override;

 private:
  Tracer* tracer_;
  dls::net::Transport* inner_;
  uint32_t shard_;
  uint32_t replica_;
};

class TracedBackend : public dls::serve::Backend {
 public:
  /// `cluster` resolves stems the way the inner backend will.
  TracedBackend(Tracer* tracer, const dls::serve::Backend* inner,
                const dls::net::RemoteClusterIndex* cluster)
      : tracer_(tracer), inner_(inner), cluster_(cluster) {}

  uint64_t Epoch() const override { return inner_->Epoch(); }
  bool NormStem() const override { return inner_->NormStem(); }
  bool NormStop() const override { return inner_->NormStop(); }
  uint64_t BytesResident() const override { return inner_->BytesResident(); }
  uint64_t BytesMapped() const override { return inner_->BytesMapped(); }

  std::vector<std::vector<dls::ir::ClusterScoredDoc>> QueryBatch(
      const std::vector<std::vector<std::string>>& queries, size_t n,
      size_t max_fragments, dls::ir::ClusterQueryStats* stats,
      std::vector<dls::ir::ClusterQueryStats>* per_query_stats,
      const dls::ir::RankOptions& options) const override;

 private:
  Tracer* tracer_;
  const dls::serve::Backend* inner_;
  const dls::net::RemoteClusterIndex* cluster_;
};

/// Per-layer metrics of the traced open-loop phase whose exchanges are
/// `client`: each layer's own time along the path each request blocked
/// on, the layers' span durations, the counters, and the tracing
/// overhead against the untraced open loop `untraced`. The captured
/// shard queries are replayed against `segment_paths` (one per shard)
/// when given.
void AddTraceMetrics(const Tracer& tracer, const std::vector<Exchange>& client,
                     const std::vector<Exchange>& untraced,
                     const std::vector<std::string>& segment_paths,
                     size_t num_fragments, RunResult* result);

}  // namespace e2e

#endif  // E2EBENCH_TRACE_H_
