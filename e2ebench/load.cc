#include "load.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>
#include <unordered_set>

#include "bench.h"
#include "common/deadline.h"

namespace e2e {
namespace {

using dls::net::MessageType;

constexpr int64_t kCallTimeoutMs = 30000;

void Stamp(dls::net::SearchRequest* request, uint64_t id) {
  request->deadline_ms =
      kDeadlineBaseMs + static_cast<uint32_t>(id % kDeadlineIdSpan);
}

void RunOne(Client* client, const MakeRequest& make, Exchange* e) {
  dls::net::SearchRequest request = make(e->id);
  Stamp(&request, e->id);
  e->send_ns = NowNs();
  dls::Result<dls::net::SearchResponse> response = client->Search(request);
  e->recv_ns = NowNs();
  e->ok = response.ok();
  if (response.ok()) {
    e->response = std::move(response).value();
  } else {
    e->error = response.status();
  }
}

}  // namespace

dls::Result<dls::net::SearchResponse> Client::Search(
    const dls::net::SearchRequest& request) {
  dls::Result<std::vector<uint8_t>> frame =
      dls::net::EncodeSearchRequest(request);
  if (!frame.ok()) return frame.status();
  dls::Result<std::vector<uint8_t>> reply =
      transport_.Call(frame.value(), dls::Deadline::After(kCallTimeoutMs));
  if (!reply.ok()) return reply.status();
  MessageType type;
  const uint8_t* body = nullptr;
  size_t len = 0;
  DLS_RETURN_IF_ERROR(
      dls::net::DecodeFrame(reply.value(), &type, &body, &len));
  if (type == MessageType::kError) return dls::net::DecodeError(body, len);
  if (type != MessageType::kSearchResponse) {
    return dls::Status::Internal("unexpected reply frame type");
  }
  return dls::net::DecodeSearchResponse(body, len);
}

Exchange SearchOnce(Client* client, const dls::net::SearchRequest& request) {
  Exchange e;
  RunOne(client, [&](uint64_t) { return request; }, &e);
  return e;
}

std::vector<std::vector<std::string>> DistinctQueries(
    const dls::synth::SyntheticCorpus& corpus, size_t count, size_t terms) {
  std::vector<std::vector<std::string>> out;
  std::unordered_set<std::string> seen;
  for (uint64_t id = 0; out.size() < count; ++id) {
    std::vector<std::string> q = corpus.Query(id, terms);
    std::vector<std::string> sorted = q;
    std::sort(sorted.begin(), sorted.end());
    std::string key;
    for (const std::string& w : sorted) key += w + ' ';
    if (seen.insert(key).second) out.push_back(std::move(q));
  }
  return out;
}

dls::net::SearchRequest WordRequest(const std::vector<std::string>& words,
                                    size_t n, size_t max_fragments) {
  dls::net::SearchRequest request;
  request.words = words;
  request.n = n;
  request.max_fragments = max_fragments;
  return request;
}

std::string CheckFlags(const Exchange& e) {
  if (!e.ok) return "exchange failed: " + e.error.ToString();
  if (!e.response.status.ok()) return "shed: " + e.response.status.ToString();
  if (e.response.degraded) return "degraded answer";
  if (e.response.predicted_quality != 1.0) return "predicted_quality < 1";
  return "";
}

double LatencyMs(const Exchange& e) {
  const int64_t from = e.due_ns != 0 ? e.due_ns : e.send_ns;
  return static_cast<double>(e.recv_ns - from) / 1e6;
}

std::vector<Exchange> OpenLoop(std::vector<std::unique_ptr<Client>>& clients,
                               double rate, double seconds, uint64_t first_id,
                               const MakeRequest& make) {
  const size_t total = static_cast<size_t>(std::floor(rate * seconds));
  std::vector<Exchange> out(total);
  std::atomic<size_t> next{0};
  const int64_t start = NowNs() + 1'000'000;  // first request 1 ms out
  const double period_ns = 1e9 / rate;
  std::vector<std::thread> threads;
  for (auto& client : clients) {
    threads.emplace_back([&, c = client.get()] {
      for (size_t i = next.fetch_add(1); i < total; i = next.fetch_add(1)) {
        Exchange& e = out[i];
        e.id = first_id + i;
        e.due_ns = start + static_cast<int64_t>(period_ns * i);
        const int64_t wait = e.due_ns - NowNs();
        if (wait > 0) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
        }
        RunOne(c, make, &e);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return out;
}

std::vector<Exchange> ClosedLoop(std::vector<std::unique_ptr<Client>>& clients,
                                 double seconds, uint64_t first_id,
                                 uint64_t end_id, const MakeRequest& make) {
  std::atomic<uint64_t> next{first_id};
  const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::vector<Exchange>> per_thread(clients.size());
  std::vector<std::thread> threads;
  for (size_t t = 0; t < clients.size(); ++t) {
    threads.emplace_back([&, t] {
      while (NowNs() < end) {
        Exchange e;
        e.id = next.fetch_add(1);
        if (e.id >= end_id) break;
        RunOne(clients[t].get(), make, &e);
        per_thread[t].push_back(std::move(e));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<Exchange> out;
  for (auto& v : per_thread) {
    for (Exchange& e : v) out.push_back(std::move(e));
  }
  return out;
}

std::vector<Exchange> Burst(std::vector<std::unique_ptr<Client>>& clients,
                            uint64_t first_id, uint64_t count,
                            const MakeRequest& make) {
  std::vector<Exchange> out(count);
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (auto& client : clients) {
    threads.emplace_back([&, c = client.get()] {
      for (size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
        out[i].id = first_id + i;
        RunOne(c, make, &out[i]);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return out;
}

}  // namespace e2e
