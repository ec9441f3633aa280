// text_open and text_hot: a synthetic corpus indexed into four nodes,
// flushed to segment files, each node served mmap'd by two replica
// ShardServers, and searched over TCP through the FrontendServer.
#include <algorithm>
#include <functional>
#include <thread>

#include "bench.h"
#include "common/rng.h"
#include "common/strings.h"
#include "ir/cluster.h"
#include "load.h"
#include "oracle.h"
#include "stack.h"
#include "synth/corpus.h"
#include "trace.h"

namespace e2e {
namespace {

constexpr size_t kDocs = 100'000;
constexpr size_t kWordsPerDoc = 40;
constexpr size_t kVocabulary = 2'000;
constexpr double kZipfTheta = 1.1;
constexpr size_t kNodes = 4;
constexpr size_t kFragments = 4;
constexpr size_t kTermsPerQuery = 3;
constexpr size_t kTopN = 10;
/// Distinct queries that prime the caches, the page cache and the
/// replicas' hedging windows before anything is measured.
constexpr size_t kWarmQueries = 400;
/// Offered rates of the open-loop phase (requests/s), fixed so two
/// commits are loaded alike. Both sit well below the measured peak
/// (text_open: 170 q/s against 600..1700 q/s, the host's speed varying),
/// and 170 q/s over the 6 s open loop of a 10 s run answers 1 020
/// requests, so at least ten lie beyond p99.
constexpr double kOpenRate = 170;
constexpr double kHotRate = 2000;
/// text_hot: pool size and skew of the repeated queries.
constexpr size_t kHotPool = 256;
constexpr double kHotTheta = 1.0;

struct TextStack {
  ShardFleet fleet;
  Centre centre;
  std::vector<std::string> segments;
  uint64_t segment_bytes = 0;
};

dls::Status BuildStack(const std::vector<std::string>& urls,
                       const std::vector<std::string>& bodies,
                       const std::string& dir, Tracer* tracer,
                       TextStack* stack, SetupTimes* times) {
  ResetDir(dir);
  // Shared nothing: each node is indexed by its own builder, in
  // parallel, from the documents the cluster's round-robin assigns it
  // (d mod kNodes), and flushed to its own segment file. The centre's
  // stats handshake aggregates the nodes' term statistics, so the
  // served cluster is the one a single kNodes-node ClusterIndex builds.
  // Bulk build: one flush per node at Finalize, as bench_segment
  // builds its corpus.
  std::vector<std::unique_ptr<dls::ir::ClusterIndex>> nodes(kNodes);
  std::vector<dls::Status> status(kNodes);
  auto parallel = [&](const std::function<void(size_t)>& fn) {
    std::vector<std::thread> threads;
    for (size_t i = 0; i < kNodes; ++i) threads.emplace_back(fn, i);
    for (std::thread& t : threads) t.join();
  };
  int64_t t0 = NowNs();
  parallel([&](size_t i) {
    dls::ir::TextIndex::Options node_options;
    node_options.flush_batch = urls.size() + 1;
    nodes[i] = std::make_unique<dls::ir::ClusterIndex>(1, kFragments,
                                                       node_options);
    for (size_t d = i; d < urls.size(); d += kNodes) {
      nodes[i]->AddDocument(urls[d], bodies[d]);
    }
    nodes[i]->Finalize();
  });
  times->index = Since(t0);
  t0 = NowNs();
  parallel([&](size_t i) {
    const std::string prefix = dir + dls::StrFormat("/node%zu", i);
    status[i] = nodes[i]->FlushToDisk(prefix);
    nodes[i].reset();
  });
  times->flush = Since(t0);
  for (const dls::Status& s : status) DLS_RETURN_IF_ERROR(s);
  t0 = NowNs();
  for (size_t i = 0; i < kNodes; ++i) {
    stack->segments.push_back(dls::ir::ClusterIndex::SegmentPath(
        dir + dls::StrFormat("/node%zu", i), 0));
    for (size_t r = 0; r < kReplicas; ++r) {
      dls::net::ShardServer* server = stack->fleet.Add(
          tracer, static_cast<uint32_t>(i), static_cast<uint32_t>(r));
      DLS_RETURN_IF_ERROR(
          server->AddNodeFromSegment(stack->segments[i], kFragments).status());
    }
  }
  times->load = Since(t0);
  t0 = NowNs();
  DLS_RETURN_IF_ERROR(stack->fleet.StartAll());
  DialCentre(stack->fleet, kNodes, tracer, &stack->centre);
  DLS_RETURN_IF_ERROR(ServeCentre(tracer, &stack->centre));
  times->connect = Since(t0);
  stack->segment_bytes = DirBytes(dir);
  return dls::Status::Ok();
}

}  // namespace

RunResult RunTextWorkload(const Args& args, bool hot) {
  RunResult result;
  dls::synth::CorpusSpec spec;
  spec.seed = args.seed;
  spec.documents = kDocs;
  spec.words_per_doc = kWordsPerDoc;
  spec.vocabulary = kVocabulary;
  spec.zipf_theta = kZipfTheta;
  const dls::synth::SyntheticCorpus corpus(spec);
  std::vector<std::string> urls(kDocs), bodies(kDocs);
  Oracle oracle;
  for (size_t d = 0; d < kDocs; ++d) {
    urls[d] = corpus.Url(d);
    bodies[d] = corpus.Body(d);
    oracle.Add(urls[d], bodies[d]);
  }

  // Phase lengths: open loop then closed loop; the traced run adds a
  // traced open loop of the same length after the untraced one.
  const double open_s = args.seconds * (args.trace ? 0.4 : 0.6);
  const double closed_s = args.seconds * (args.trace ? 0.2 : 0.4);
  const double rate = hot ? kHotRate : kOpenRate;
  const size_t open_total = static_cast<size_t>(rate * open_s);
  const size_t closed_cap = 60'000;

  // Request ids: [0, warm) warm-up, then the open phase(s), then the
  // closed phase. text_open maps each id to its own distinct query;
  // text_hot maps it to a Zipf-drawn member of the pool.
  const size_t warm = hot ? kHotPool : kWarmQueries;
  const uint64_t open_first = warm;
  const uint64_t closed_first = open_first + 2 * open_total;
  const uint64_t id_end = closed_first + (hot ? 10'000'000 : closed_cap);
  std::vector<std::vector<std::string>> queries =
      DistinctQueries(corpus, hot ? kHotPool : id_end, kTermsPerQuery);
  const dls::ZipfSampler pool_sampler(kHotPool, kHotTheta);
  auto query_index = [&](uint64_t id) -> size_t {
    if (!hot || id < kHotPool) return id;
    dls::Rng rng(args.seed * 0x2545F4914F6CDD1DULL + id);
    return pool_sampler.Sample(&rng);
  };
  auto words_of = [&](uint64_t id) -> const std::vector<std::string>& {
    return queries[query_index(id)];
  };
  const MakeRequest make = [&](uint64_t id) {
    return WordRequest(words_of(id), kTopN, kFragments);
  };

  std::unique_ptr<Tracer> tracer;
  if (args.trace) tracer = std::make_unique<Tracer>();
  std::unique_ptr<TextStack> stack;
  std::vector<SetupTimes> setups;
  std::vector<std::unique_ptr<Client>> clients;
  std::vector<Exchange> warmup;
  double rss_mb = 0;
  dls::Status st = RepeatedSetUp(
      [&](TextStack* s, SetupTimes* times, int attempt) {
        return BuildStack(urls, bodies,
                          args.workdir + dls::StrFormat("/stack%d", attempt),
                          tracer.get(), s, times);
      },
      [&](TextStack* s) {
        for (size_t c = 0; c < ClientConnections(); ++c) {
          clients.push_back(std::make_unique<Client>(s->centre.port()));
        }
        warmup = Burst(clients, 0, warm, make);
      },
      &stack, &setups, &rss_mb);
  if (!st.ok()) {
    result.Fail("set-up: " + st.ToString());
    return result;
  }
  const dls::serve::ServeStats before = stack->centre.frontend->Stats();

  std::vector<Exchange> open, traced;
  open = OpenLoop(clients, rate, open_s, open_first, make);
  if (args.trace) {
    tracer->set_enabled(true);
    traced = OpenLoop(clients, rate, open_s, open_first + open_total, make);
    tracer->set_enabled(false);
  }
  const ClosedPhase closed =
      RunClosedPhase(clients, closed_s, closed_first, id_end, make);
  const dls::serve::ServeStats after = stack->centre.frontend->Stats();

  // Every answer is checked: text_open each against the oracle; text_hot
  // the first answer per pool query against the oracle and every later
  // one against that first answer, bit for bit.
  CheckAll({&warmup, &open, &traced, &closed.exchanges},
           [&](const Exchange& e, Oracle::Scratch* scratch) -> std::string {
             if (hot && e.id >= kHotPool) {
               const Exchange& first = warmup[query_index(e.id)];
               return SameRanking(first.response.results, e.response.results)
                          ? ""
                          : "differs from the first answer to its query";
             }
             return oracle.Check(words_of(e.id), kTopN, e.response.results,
                                 nullptr, scratch);
           },
           &result);

  AddSetupMetrics(setups, args.trace, &result);
  AddServeMetrics(open, closed, rss_mb, &result);
  result.Add("index_bytes_per_posting",
             static_cast<double>(stack->segment_bytes) /
                 static_cast<double>(oracle.postings()),
             "bytes");
  if (args.trace) {
    AddTraceMetrics(*tracer, traced, open, stack->segments, kFragments,
                    &result);
    tracer->Dump(args.trace_out);
    AddFrontendMetrics(before, after, stack->centre.remote.get(), &result);
  }
  clients.clear();
  stack.reset();
  return result;
}

}  // namespace e2e
