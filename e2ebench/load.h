// The load generator: SearchRequest frames over TCP to a FrontendServer
// from one process, at most ClientConnections() connections, each on
// its own thread and each waiting for its reply.
#ifndef E2EBENCH_LOAD_H_
#define E2EBENCH_LOAD_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "net/tcp.h"
#include "net/wire.h"
#include "synth/corpus.h"

namespace e2e {

/// Every request carries deadline kDeadlineBaseMs + (id mod
/// kDeadlineIdSpan): far beyond any answer time, so admission never
/// sheds, and it lets the traced run tell which request a frame is
/// without changing the frame's size or meaning between modes.
inline constexpr uint32_t kDeadlineBaseMs = 100000;
inline constexpr uint64_t kDeadlineIdSpan = 100000;

/// One connection to a FrontendServer.
class Client {
 public:
  explicit Client(uint16_t port) : transport_("127.0.0.1", port) {}
  dls::Result<dls::net::SearchResponse> Search(
      const dls::net::SearchRequest& request);

 private:
  dls::net::TcpTransport transport_;
};

/// One request as the generator saw it. Times are steady-clock ns.
struct Exchange {
  uint64_t id = 0;
  int64_t due_ns = 0;   ///< open loop: when it was due to be sent
  int64_t send_ns = 0;
  int64_t recv_ns = 0;
  bool ok = false;      ///< the exchange and the response decode succeeded
  dls::Status error;
  dls::net::SearchResponse response;
};

/// Request `id`; called concurrently from the client threads.
using MakeRequest = std::function<dls::net::SearchRequest(uint64_t id)>;

/// Open loop: request first_id + i is due at start + i / rate and is
/// sent on the first free connection; its latency counts from the due
/// time, so a stall also charges the requests queued behind it.
std::vector<Exchange> OpenLoop(std::vector<std::unique_ptr<Client>>& clients,
                               double rate, double seconds, uint64_t first_id,
                               const MakeRequest& make);

/// Closed loop: every connection sends its next request as soon as the
/// previous reply arrives, for `seconds` or until ids reach `end_id`.
std::vector<Exchange> ClosedLoop(std::vector<std::unique_ptr<Client>>& clients,
                                 double seconds, uint64_t first_id,
                                 uint64_t end_id, const MakeRequest& make);

/// Sends requests [first_id, first_id + count) back to back over all
/// connections (warm-up; answers returned for checking).
std::vector<Exchange> Burst(std::vector<std::unique_ptr<Client>>& clients,
                            uint64_t first_id, uint64_t count,
                            const MakeRequest& make);

/// One request on one connection, with nothing else from the generator
/// in flight.
Exchange SearchOnce(Client* client, const dls::net::SearchRequest& request);

/// Latency of an exchange in ms: from due (open loop) or send time to
/// the decoded response.
double LatencyMs(const Exchange& e);

/// `count` distinct Zipf-drawn queries of `terms` words (no two share a
/// term set), from the corpus's own query stream.
std::vector<std::vector<std::string>> DistinctQueries(
    const dls::synth::SyntheticCorpus& corpus, size_t count, size_t terms);

dls::net::SearchRequest WordRequest(const std::vector<std::string>& words,
                                    size_t n, size_t max_fragments);

/// What every answer must be: answered (not shed), exact (predicted
/// quality 1) and not degraded. Empty string when it is.
std::string CheckFlags(const Exchange& e);

}  // namespace e2e

#endif  // E2EBENCH_LOAD_H_
