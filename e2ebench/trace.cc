#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <memory>
#include <optional>

#include "common/strings.h"
#include "ir/cluster.h"
#include "ir/fragments.h"
#include "ir/index.h"
#include "net/wire.h"

namespace e2e {
namespace {

using dls::net::MessageType;

std::string Join(const std::vector<std::string>& parts) {
  std::string out;
  for (const std::string& p : parts) {
    if (!out.empty()) out += ' ';
    out += p;
  }
  return out;
}

/// Decodes a request frame of the expected type; nullopt otherwise.
std::optional<dls::net::QueryRequest> AsQueryRequest(
    const std::vector<uint8_t>& frame) {
  MessageType type;
  const uint8_t* body = nullptr;
  size_t len = 0;
  if (!dls::net::DecodeFrame(frame, &type, &body, &len).ok() ||
      type != MessageType::kQueryRequest) {
    return std::nullopt;
  }
  dls::Result<dls::net::QueryRequest> request =
      dls::net::DecodeQueryRequest(body, len);
  if (!request.ok()) return std::nullopt;
  return std::move(request).value();
}

}  // namespace

std::string FrameKey(const std::vector<uint8_t>& frame, uint32_t shard,
                     uint32_t replica) {
  uint64_t h = 1469598103934665603ULL;
  for (uint8_t b : frame) h = (h ^ b) * 1099511628211ULL;
  return dls::StrFormat("f:%u:%u:%016llx:%zu", shard, replica,
                        static_cast<unsigned long long>(h), frame.size());
}

void Tracer::Record(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

void Tracer::Register(const std::string& key, uint64_t value) {
  std::lock_guard<std::mutex> lock(mu_);
  links_.emplace(key, value);
}

void Tracer::Unregister(const std::string& key, uint64_t value) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [begin, end] = links_.equal_range(key);
  for (auto it = begin; it != end; ++it) {
    if (it->second == value) {
      links_.erase(it);
      return;
    }
  }
}

std::vector<uint64_t> Tracer::Lookup(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<uint64_t> out;
  auto [begin, end] = links_.equal_range(key);
  for (auto it = begin; it != end; ++it) out.push_back(it->second);
  return out;
}

void Tracer::Capture(CapturedExchange exchange) {
  std::lock_guard<std::mutex> lock(mu_);
  captures_.push_back(std::move(exchange));
}

void Tracer::CountBatch(size_t queries,
                        const dls::ir::ClusterQueryStats& stats) {
  std::lock_guard<std::mutex> lock(mu_);
  counts_.batches += 1;
  counts_.queries += queries;
  counts_.messages += stats.messages;
  counts_.bytes += stats.bytes_shipped;
  counts_.hedges += stats.hedges_fired;
  counts_.failovers += stats.failovers;
  counts_.postings += stats.postings_touched_total;
  counts_.blocks_decoded += stats.blocks_decoded;
  counts_.blocks_skipped += stats.blocks_skipped;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<CapturedExchange> Tracer::captures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return captures_;
}

BackendCounts Tracer::counts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counts_;
}

void Tracer::Dump(const std::string& path) const {
  static const char* kNames[] = {"serve.frontend", "net.backend",
                                 "net.exchange", "net.shard_handle"};
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "id\tparent\tname\tshard\tstart_ns\tend_ns\trequests\n");
  for (const Span& s : spans()) {
    std::string requests;
    for (uint64_t r : s.requests) {
      if (!requests.empty()) requests += ',';
      requests += std::to_string(r);
    }
    std::fprintf(f, "%u\t%u\t%s\t%u\t%lld\t%lld\t%s\n", s.id, s.parent,
                 kNames[static_cast<int>(s.layer)], s.shard,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), requests.c_str());
  }
  std::fclose(f);
}

dls::Result<std::vector<uint8_t>> TracedShardServer::HandleFrame(
    const std::vector<uint8_t>& frame) const {
  if (!tracer_->enabled()) return ShardServer::HandleFrame(frame);
  Span span;
  span.layer = Layer::kShard;
  span.id = tracer_->NextId();
  span.shard = shard_;
  std::vector<uint64_t> parent = tracer_->Lookup(FrameKey(frame, shard_, replica_));
  if (!parent.empty()) span.parent = static_cast<uint32_t>(parent.front());
  span.start_ns = NowNs();
  dls::Result<std::vector<uint8_t>> reply = ShardServer::HandleFrame(frame);
  span.end_ns = NowNs();
  tracer_->Record(std::move(span));
  return reply;
}

dls::Result<std::vector<uint8_t>> TracedFrontendServer::HandleFrame(
    const std::vector<uint8_t>& frame) const {
  if (!tracer_->enabled()) return FrontendServer::HandleFrame(frame);
  MessageType type;
  const uint8_t* body = nullptr;
  size_t len = 0;
  std::optional<dls::net::SearchRequest> request;
  if (dls::net::DecodeFrame(frame, &type, &body, &len).ok() &&
      type == MessageType::kSearchRequest) {
    dls::Result<dls::net::SearchRequest> decoded =
        dls::net::DecodeSearchRequest(body, len);
    if (decoded.ok()) request = std::move(decoded).value();
  }
  if (!request) return FrontendServer::HandleFrame(frame);
  const uint64_t id = request->deadline_ms - kDeadlineBaseMs;
  const std::string key = "w:" + Join(request->words);
  tracer_->Register(key, id);
  Span span;
  span.layer = Layer::kFrontend;
  span.id = tracer_->NextId();
  span.requests = {id};
  span.start_ns = NowNs();
  dls::Result<std::vector<uint8_t>> reply = FrontendServer::HandleFrame(frame);
  span.end_ns = NowNs();
  tracer_->Unregister(key, id);
  tracer_->Record(std::move(span));
  return reply;
}

dls::Result<std::vector<uint8_t>> TracedTransport::Call(
    const std::vector<uint8_t>& frame, dls::Deadline deadline) {
  if (!tracer_->enabled()) return inner_->Call(frame, deadline);
  std::optional<dls::net::QueryRequest> request = AsQueryRequest(frame);
  if (!request) return inner_->Call(frame, deadline);
  Span span;
  span.layer = Layer::kExchange;
  span.id = tracer_->NextId();
  span.shard = shard_;
  if (!request->queries.empty()) {
    std::vector<uint64_t> parent =
        tracer_->Lookup("s:" + Join(request->queries.front().stems));
    if (!parent.empty()) span.parent = static_cast<uint32_t>(parent.front());
  }
  const std::string key = FrameKey(frame, shard_, replica_);
  tracer_->Register(key, span.id);
  span.start_ns = NowNs();
  dls::Result<std::vector<uint8_t>> reply = inner_->Call(frame, deadline);
  span.end_ns = NowNs();
  tracer_->Unregister(key, span.id);
  tracer_->Record(std::move(span));
  if (reply.ok()) tracer_->Capture({shard_, frame, reply.value()});
  return reply;
}

std::vector<std::vector<dls::ir::ClusterScoredDoc>> TracedBackend::QueryBatch(
    const std::vector<std::vector<std::string>>& queries, size_t n,
    size_t max_fragments, dls::ir::ClusterQueryStats* stats,
    std::vector<dls::ir::ClusterQueryStats>* per_query_stats,
    const dls::ir::RankOptions& options) const {
  dls::ir::ClusterQueryStats local;
  dls::ir::ClusterQueryStats* batch_stats = stats != nullptr ? stats : &local;
  if (!tracer_->enabled()) {
    return inner_->QueryBatch(queries, n, max_fragments, batch_stats,
                              per_query_stats, options);
  }
  Span span;
  span.layer = Layer::kBackend;
  span.id = tracer_->NextId();
  std::vector<std::string> stem_keys;
  for (const std::vector<std::string>& words : queries) {
    for (uint64_t r : tracer_->Lookup("w:" + Join(words))) {
      span.requests.push_back(r);
    }
    // The stems the cluster will ship: normalised, de-duplicated,
    // known to the global vocabulary.
    std::vector<std::string> stems;
    for (const std::string& word : words) {
      std::optional<std::string> stem =
          dls::ir::NormalizeWordAs(word, NormStem(), NormStop());
      if (!stem || cluster_->global_df(*stem) == 0) continue;
      if (std::find(stems.begin(), stems.end(), *stem) == stems.end()) {
        stems.push_back(*stem);
      }
    }
    stem_keys.push_back("s:" + Join(stems));
    tracer_->Register(stem_keys.back(), span.id);
  }
  span.start_ns = NowNs();
  auto results = inner_->QueryBatch(queries, n, max_fragments, batch_stats,
                                    per_query_stats, options);
  span.end_ns = NowNs();
  for (const std::string& key : stem_keys) tracer_->Unregister(key, span.id);
  tracer_->Record(std::move(span));
  tracer_->CountBatch(queries.size(), *batch_stats);
  return results;
}

namespace {

/// Durations in µs of the spans of one layer.
std::vector<double> Durations(const std::vector<Span>& spans, Layer layer) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.layer == layer) out.push_back((s.end_ns - s.start_ns) / 1e3);
  }
  return out;
}

double PerQuery(uint64_t total, uint64_t queries) {
  return queries == 0 ? 0.0
                      : static_cast<double>(total) /
                            static_cast<double>(queries);
}

}  // namespace

void AddTraceMetrics(const Tracer& tracer, const std::vector<Exchange>& client,
                     const std::vector<Exchange>& untraced,
                     const std::vector<std::string>& segment_paths,
                     size_t num_fragments, RunResult* result) {
  const std::vector<Span> spans = tracer.spans();
  std::unordered_map<uint64_t, const Span*> frontend_of;
  std::unordered_map<uint64_t, std::vector<const Span*>> backends_of;
  std::unordered_map<uint32_t, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    if (s.layer == Layer::kFrontend) frontend_of[s.requests.front()] = &s;
    if (s.layer == Layer::kBackend) {
      for (uint64_t r : s.requests) backends_of[r].push_back(&s);
    }
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  auto micros = [](int64_t ns) { return static_cast<double>(ns) / 1e3; };

  // Self time of each layer along the blocking path of every request:
  // generator lateness, client wire (socket + client codec), frontend
  // (decode, admission, queue, batcher, cache, encode), backend
  // (resolve, fan-out, merge), exchange (socket + transport lock) and
  // shard handling (decode, evaluation, encode). They sum to the
  // request's latency.
  std::vector<double> lateness_ms, latency_ms, gen, wire, front, queue, back,
      exch, shard;
  size_t full_paths = 0;
  for (const Exchange& e : client) {
    if (!e.ok) continue;
    auto f = frontend_of.find(e.id % kDeadlineIdSpan);
    if (f == frontend_of.end()) continue;
    const Span& fs = *f->second;
    const int64_t total = e.recv_ns - e.due_ns;
    latency_ms.push_back(total / 1e6);
    lateness_ms.push_back((e.send_ns - e.due_ns) / 1e6);
    gen.push_back(micros(e.send_ns - e.due_ns));
    wire.push_back(micros((e.recv_ns - e.send_ns) - (fs.end_ns - fs.start_ns)));
    const Span* bs = nullptr;
    for (const Span* b : backends_of[fs.requests.front()]) {
      if (b->start_ns >= fs.start_ns && b->end_ns <= fs.end_ns) bs = b;
    }
    if (bs == nullptr) {
      front.push_back(micros(fs.end_ns - fs.start_ns));
      back.push_back(0);
      exch.push_back(0);
      shard.push_back(0);
      continue;
    }
    const double fself = micros((fs.end_ns - fs.start_ns) -
                                (bs->end_ns - bs->start_ns));
    front.push_back(fself);
    queue.push_back(fself);
    const Span* xs = nullptr;
    for (const Span* x : children[bs->id]) {
      if (x->end_ns <= bs->end_ns && (xs == nullptr || x->end_ns > xs->end_ns)) {
        xs = x;
      }
    }
    if (xs == nullptr) {
      back.push_back(micros(bs->end_ns - bs->start_ns));
      exch.push_back(0);
      shard.push_back(0);
      continue;
    }
    back.push_back(micros((bs->end_ns - bs->start_ns) -
                          (xs->end_ns - xs->start_ns)));
    const Span* ss = nullptr;
    for (const Span* s : children[xs->id]) ss = s;
    if (ss == nullptr) {
      exch.push_back(micros(xs->end_ns - xs->start_ns));
      shard.push_back(0);
      continue;
    }
    exch.push_back(micros((xs->end_ns - xs->start_ns) -
                          (ss->end_ns - ss->start_ns)));
    shard.push_back(micros(ss->end_ns - ss->start_ns));
    ++full_paths;
  }
  const double p50_ms = Median(latency_ms);
  result->Add("client.lateness_ms_p99", Quantile(lateness_ms, 0.99), "ms");
  result->Add("trace.p50_ms", p50_ms, "ms");
  std::vector<double> untraced_ms;
  for (const Exchange& e : untraced) {
    if (e.ok && e.response.status.ok()) untraced_ms.push_back(LatencyMs(e));
  }
  result->Add("trace.overhead_ms", p50_ms - Median(untraced_ms), "ms");
  result->Add("trace.requests", static_cast<double>(latency_ms.size()),
              "count");
  result->Add("trace.full_paths", static_cast<double>(full_paths), "count");
  result->Add("serve.client_wire_us_p50", Median(wire), "us");
  // The breakdown of the median request: each layer's mean self time
  // over the requests whose latency lies in the 40th..60th percentile
  // band. Per request the self times sum to the latency, so the layers
  // account for the band's mean latency exactly, and that mean sits
  // next to the median.
  std::vector<size_t> order(latency_ms.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return latency_ms[a] < latency_ms[b]; });
  const size_t lo = order.size() * 2 / 5, hi = order.size() * 3 / 5;
  auto band_mean = [&](const std::vector<double>& self) {
    double sum = 0;
    for (size_t i = lo; i < hi; ++i) sum += self[order[i]];
    return hi > lo ? sum / static_cast<double>(hi - lo) : 0.0;
  };
  const double layers[] = {band_mean(gen),  band_mean(wire), band_mean(front),
                           band_mean(back), band_mean(exch), band_mean(shard)};
  const char* names[] = {"path.generator_us", "path.client_wire_us",
                         "path.frontend_us",  "path.backend_us",
                         "path.exchange_us",  "path.shard_us"};
  double self_sum = 0;
  for (size_t i = 0; i < std::size(layers); ++i) {
    result->Add(names[i], layers[i], "us");
    self_sum += layers[i];
  }
  result->Add("trace.self_sum_over_p50",
              p50_ms > 0 ? self_sum / (p50_ms * 1e3) : 0, "ratio");

  result->Add("serve.frontend_us_p50",
              Median(Durations(spans, Layer::kFrontend)), "us");
  result->Add("serve.queue_us_p50", Quantile(queue, 0.5), "us");
  result->Add("serve.queue_us_p99", Quantile(queue, 0.99), "us");
  const std::vector<double> backend = Durations(spans, Layer::kBackend);
  const std::vector<double> exchange = Durations(spans, Layer::kExchange);
  const std::vector<double> handle = Durations(spans, Layer::kShard);
  result->Add("net.backend_us_p50", Quantile(backend, 0.5), "us");
  result->Add("net.backend_us_p99", Quantile(backend, 0.99), "us");
  result->Add("net.exchange_us_p50", Quantile(exchange, 0.5), "us");
  result->Add("net.exchange_us_p99", Quantile(exchange, 0.99), "us");
  result->Add("net.shard_handle_us_p50", Quantile(handle, 0.5), "us");
  result->Add("net.shard_handle_us_p99", Quantile(handle, 0.99), "us");

  const BackendCounts c = tracer.counts();
  result->Add("serve.batch_riders", PerQuery(c.queries, c.batches),
              "queries/batch");
  result->Add("net.bytes_per_query", PerQuery(c.bytes, c.queries), "bytes");
  result->Add("net.messages_per_query", PerQuery(c.messages, c.queries),
              "count");
  result->Add("net.hedges_per_query", PerQuery(c.hedges, c.queries), "count");
  result->Add("ir.postings_per_query", PerQuery(c.postings, c.queries),
              "count");
  result->Add("ir.blocks_decoded_per_query",
              PerQuery(c.blocks_decoded, c.queries), "count");
  result->Add("ir.blocks_skipped_per_query",
              PerQuery(c.blocks_skipped, c.queries), "count");

  // Replay: the captured frames through the wire codec, and the shard
  // queries they carried through ir::EvaluateShardQuery on the same
  // segment files the shards serve.
  const std::vector<CapturedExchange> captures = tracer.captures();
  std::vector<std::unique_ptr<dls::ir::TextIndex>> indexes;
  std::vector<std::unique_ptr<dls::ir::FragmentedIndex>> fragments;
  for (const std::string& path : segment_paths) {
    auto loaded = dls::ir::TextIndex::LoadFromSegment(path);
    if (!loaded.ok()) {
      result->Fail("replay: cannot load " + path);
      return;
    }
    indexes.push_back(std::move(loaded).value());
    fragments.push_back(std::make_unique<dls::ir::FragmentedIndex>(
        indexes.back().get(), num_fragments));
  }
  std::vector<double> decode_us, encode_us, eval_us;
  for (const CapturedExchange& x : captures) {
    int64_t t0 = NowNs();
    std::optional<dls::net::QueryRequest> request = AsQueryRequest(x.request);
    MessageType type;
    const uint8_t* body = nullptr;
    size_t len = 0;
    if (!request || !dls::net::DecodeFrame(x.response, &type, &body, &len).ok() ||
        type != MessageType::kQueryResponse) {
      continue;
    }
    dls::Result<dls::net::QueryResponse> response =
        dls::net::DecodeQueryResponse(body, len);
    int64_t t1 = NowNs();
    if (!response.ok()) continue;
    dls::Result<std::vector<uint8_t>> re_request =
        dls::net::EncodeQueryRequest(*request);
    dls::Result<std::vector<uint8_t>> re_response =
        dls::net::EncodeQueryResponse(response.value());
    int64_t t2 = NowNs();
    if (!re_request.ok() || !re_response.ok() ||
        re_request.value() != x.request || re_response.value() != x.response) {
      result->Fail("replay: wire re-encoding differs from the captured frame");
      continue;
    }
    decode_us.push_back(micros(t1 - t0));
    encode_us.push_back(micros(t2 - t1));
    if (x.shard >= indexes.size() ||
        response.value().results.size() != request->queries.size()) {
      continue;
    }
    for (size_t q = 0; q < request->queries.size(); ++q) {
      const int64_t e0 = NowNs();
      dls::ir::ShardResult r = dls::ir::EvaluateShardQuery(
          *indexes[x.shard], *fragments[x.shard], request->queries[q]);
      eval_us.push_back(micros(NowNs() - e0));
      const auto& served = response.value().results[q].top;
      bool same = r.top.size() == served.size();
      for (size_t i = 0; same && i < served.size(); ++i) {
        same = r.top[i].url == served[i].url &&
               r.top[i].score == served[i].score;
      }
      if (!same) result->Fail("replay: shard evaluation differs from served");
    }
  }
  result->Add("net.wire_decode_us", Median(decode_us), "us");
  result->Add("net.wire_encode_us", Median(encode_us), "us");
  result->Add("ir.eval_us_p50", Quantile(eval_us, 0.5), "us");
  result->Add("ir.eval_us_p99", Quantile(eval_us, 0.99), "us");
}

}  // namespace e2e
