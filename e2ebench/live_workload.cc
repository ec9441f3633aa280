// live_churn: live shard nodes (two replicas each) seeded with a
// starting corpus; a writer inserts and deletes through
// RemoteClusterIndex over TCP while open-loop readers search through
// the frontend. Every run is made of whole rounds:
//
//   churn      kReadsPerRound open-loop reads at kLiveRate beside the
//              writer's kWritesPerRound mutations and one MergeAll
//   peak       kPeakPerRound closed-loop reads
//   check      one never-issued query, compared with the oracle
//   probe      read-your-writes: search Q, insert a document that ranks
//              first for Q, search Q again and expect it
//
// so the share of failed operations is the same in every run.
#include <thread>

#include "bench.h"
#include "common/rng.h"
#include "common/strings.h"
#include "ingest/live_index.h"
#include "load.h"
#include "oracle.h"
#include "stack.h"
#include "synth/corpus.h"
#include "trace.h"

namespace e2e {
namespace {

constexpr size_t kShards = 4;
constexpr size_t kSeedDocs = 3'000;
constexpr size_t kWordsPerDoc = 40;
constexpr size_t kVocabulary = 2'000;
constexpr double kZipfTheta = 1.1;
constexpr size_t kFragments = 4;
constexpr size_t kTermsPerQuery = 3;
constexpr size_t kTopN = 10;
/// Readers' offered rate and reads per round (one second of churn).
constexpr double kLiveRate = 200;
constexpr size_t kReadsPerRound = 200;
/// Writer mutations per round: three inserts to one delete.
constexpr size_t kWritesPerRound = 64;
constexpr size_t kPeakPerRound = 200;
/// Repeated queries come from this pool; the rest are fresh.
constexpr size_t kRepeatedPool = 64;
constexpr size_t kMaxRounds = 60;
/// Warm-up reads before the first round (not counted as operations).
constexpr size_t kWarmQueries = 200;

struct LiveStack {
  /// live[shard * kReplicas + replica]; declared first so the servers
  /// and the centre that use them are torn down before them.
  std::vector<std::unique_ptr<dls::ingest::LiveIndex>> live;
  ShardFleet fleet;
  Centre centre;
  std::vector<std::string> segment_dirs;
};

dls::Status BuildStack(const std::vector<std::string>& urls,
                       const std::vector<std::string>& bodies,
                       const std::string& dir, Tracer* tracer,
                       LiveStack* stack, SetupTimes* times) {
  ResetDir(dir);
  int64_t t0 = NowNs();
  for (size_t s = 0; s < kShards; ++s) {
    for (size_t r = 0; r < kReplicas; ++r) {
      // No background auto-merge: each replica would merge on its own
      // schedule and publish its own epochs, and the stats handshake
      // refuses a shard whose replicas disagree on the epoch. Merges
      // come from the writer's MergeAll, which reaches every replica.
      dls::ingest::LiveIndexOptions options;
      options.num_fragments = kFragments;
      options.segment_dir = dir + dls::StrFormat("/shard%zu-replica%zu", s, r);
      ResetDir(options.segment_dir);
      stack->segment_dirs.push_back(options.segment_dir);
      stack->live.push_back(
          std::make_unique<dls::ingest::LiveIndex>(std::move(options)));
      stack->fleet.Add(tracer, static_cast<uint32_t>(s),
                       static_cast<uint32_t>(r))
          ->AddLiveNode(stack->live.back().get());
    }
  }
  DLS_RETURN_IF_ERROR(stack->fleet.StartAll());
  DialCentre(stack->fleet, kShards, tracer, &stack->centre);
  times->connect = Since(t0);

  // Seed every replica directly, routed as the centre routes inserts.
  t0 = NowNs();
  std::vector<std::vector<size_t>> docs_of(kShards);
  for (size_t d = 0; d < urls.size(); ++d) {
    docs_of[stack->centre.remote->ShardForUrl(urls[d])].push_back(d);
  }
  std::vector<dls::Status> status(stack->live.size());
  std::vector<std::thread> seeders;
  for (size_t t = 0; t < ClientConnections(); ++t) {
    seeders.emplace_back([&, t] {
      for (size_t i = t; i < stack->live.size(); i += ClientConnections()) {
        for (size_t d : docs_of[i / kReplicas]) {
          auto id = stack->live[i]->Insert(urls[d], bodies[d]);
          if (!id.ok() && status[i].ok()) status[i] = id.status();
        }
      }
    });
  }
  for (std::thread& t : seeders) t.join();
  for (const dls::Status& s : status) DLS_RETURN_IF_ERROR(s);
  times->index = Since(t0);
  t0 = NowNs();
  for (auto& live : stack->live) live->Merge();
  times->flush = Since(t0);

  t0 = NowNs();
  DLS_RETURN_IF_ERROR(ServeCentre(tracer, &stack->centre));
  times->connect += Since(t0);
  return dls::Status::Ok();
}

/// One writer mutation as acknowledged.
struct Mutation {
  bool insert = true;
  size_t doc = 0;  ///< corpus document inserted or deleted
  bool ok = false;
  double micros = 0;
  std::string error;
};

}  // namespace

RunResult RunLiveWorkload(const Args& args) {
  RunResult result;
  dls::synth::CorpusSpec spec;
  spec.seed = args.seed;
  spec.words_per_doc = kWordsPerDoc;
  spec.vocabulary = kVocabulary;
  spec.zipf_theta = kZipfTheta;
  const dls::synth::SyntheticCorpus corpus(spec);
  // Documents [0, kSeedDocs) seed the index; the writer inserts the
  // following ones and deletes the seed documents oldest first.
  const size_t max_inserts = kMaxRounds * kWritesPerRound;
  std::vector<std::string> urls(kSeedDocs + max_inserts);
  std::vector<std::string> bodies(urls.size());
  for (size_t d = 0; d < urls.size(); ++d) {
    urls[d] = corpus.Url(d);
    bodies[d] = corpus.Body(d);
  }
  const std::vector<std::string> seed_urls(urls.begin(),
                                           urls.begin() + kSeedDocs);
  const std::vector<std::string> seed_bodies(bodies.begin(),
                                             bodies.begin() + kSeedDocs);
  Oracle oracle;
  std::vector<uint32_t> oracle_id(urls.size(), 0);
  for (size_t d = 0; d < kSeedDocs; ++d) {
    oracle_id[d] = oracle.Add(urls[d], bodies[d]);
  }

  // Query ids: pool queries [0, kRepeatedPool), then per round one
  // check and one probe query, then one fresh query per read id.
  const uint64_t reads_per_round = kReadsPerRound + kPeakPerRound;
  const size_t special_base = kRepeatedPool;
  const size_t fresh_base = special_base + 2 * kMaxRounds;
  const std::vector<std::vector<std::string>> queries = DistinctQueries(
      corpus, fresh_base + kWarmQueries + kMaxRounds * reads_per_round,
      kTermsPerQuery);
  const dls::ZipfSampler pool_sampler(kRepeatedPool, 1.0);
  auto words_of = [&](uint64_t id) -> const std::vector<std::string>& {
    dls::Rng rng(args.seed * 0x9E3779B97F4A7C15ULL + id);
    if (rng.Next() % 2 == 0) return queries[pool_sampler.Sample(&rng)];
    return queries[fresh_base + id];
  };
  const MakeRequest make = [&](uint64_t id) {
    return WordRequest(words_of(id), kTopN, kFragments);
  };

  std::unique_ptr<Tracer> tracer;
  if (args.trace) tracer = std::make_unique<Tracer>();
  std::unique_ptr<LiveStack> stack;
  std::vector<SetupTimes> setups;
  // One client connection is the writer's share of the load's budget.
  std::vector<std::unique_ptr<Client>> readers;
  std::vector<Exchange> warmup;
  double rss_mb = 0;
  dls::Status st = RepeatedSetUp(
      [&](LiveStack* s, SetupTimes* times, int attempt) {
        return BuildStack(seed_urls, seed_bodies,
                          args.workdir + dls::StrFormat("/live%d", attempt),
                          tracer.get(), s, times);
      },
      [&](LiveStack* s) {
        for (size_t c = 0; c + 1 < std::max<size_t>(2, ClientConnections());
             ++c) {
          readers.push_back(std::make_unique<Client>(s->centre.port()));
        }
        warmup = Burst(readers, 0, kWarmQueries, make);
      },
      &stack, &setups, &rss_mb);
  if (!st.ok()) {
    result.Fail("set-up: " + st.ToString());
    return result;
  }
  for (const Exchange& e : warmup) {
    const std::string why = CheckFlags(e);
    if (!why.empty()) result.Fail("warm-up: " + why);
  }
  uint64_t seed_segment_bytes = 0;
  for (size_t s = 0; s < kShards; ++s) {
    seed_segment_bytes += DirBytes(stack->segment_dirs[s * kReplicas]);
  }
  const uint64_t seed_postings = oracle.postings();
  dls::net::RemoteClusterIndex* remote = stack->centre.remote.get();
  dls::serve::Frontend* frontend = stack->centre.frontend.get();
  const dls::serve::ServeStats before = frontend->Stats();
  uint64_t merges_before = 0;
  for (size_t s = 0; s < kShards; ++s) {
    merges_before += stack->live[s * kReplicas]->Stats().merges;
  }

  std::vector<Exchange> open, traced_open;
  ClosedPhase peak;
  std::vector<Mutation> mutations;
  double writer_busy_s = 0;
  size_t next_insert = kSeedDocs, next_delete = 0;
  size_t rounds = 0;
  const int64_t run_start = NowNs();
  // The traced run records its second half of rounds.
  const double trace_from_s = args.seconds / 2;
  while (rounds < kMaxRounds &&
         (rounds == 0 || Since(run_start) < args.seconds)) {
    const uint64_t first_read = kWarmQueries + rounds * reads_per_round;
    const bool tracing = args.trace && Since(run_start) >= trace_from_s;
    if (tracer) tracer->set_enabled(tracing);

    // Churn: the writer beside the open-loop readers.
    std::vector<Mutation> batch;
    for (size_t w = 0; w < kWritesPerRound; ++w) {
      Mutation m;
      m.insert = w % 4 != 3;
      m.doc = m.insert ? next_insert++ : next_delete++;
      batch.push_back(m);
    }
    std::string merge_error;
    std::thread writer([&] {
      const int64_t w0 = NowNs();
      for (Mutation& m : batch) {
        const int64_t t0 = NowNs();
        if (m.insert) {
          auto id = remote->Insert(urls[m.doc], bodies[m.doc]);
          m.ok = id.ok();
          if (!id.ok()) m.error = id.status().ToString();
        } else {
          auto found = remote->Delete(urls[m.doc]);
          m.ok = found.ok() && found.value();
          if (!m.ok) {
            m.error = found.ok() ? "not found" : found.status().ToString();
          }
        }
        m.micros = static_cast<double>(NowNs() - t0) / 1e3;
      }
      const dls::Status merged = remote->MergeAll();
      if (!merged.ok()) merge_error = merged.ToString();
      writer_busy_s += Since(w0);
    });
    std::vector<Exchange> reads = OpenLoop(
        readers, kLiveRate, kReadsPerRound / kLiveRate, first_read, make);
    writer.join();
    result.attempted += kWritesPerRound + 1;
    for (const Mutation& m : batch) {
      if (!m.ok) {
        result.failed += 1;
        result.Note("mutation failed: " + m.error);
        continue;
      }
      if (m.insert) {
        oracle_id[m.doc] = oracle.Add(urls[m.doc], bodies[m.doc]);
      } else {
        oracle.Remove(oracle_id[m.doc]);
      }
    }
    if (!merge_error.empty()) {
      result.failed += 1;
      result.Note("merge failed: " + merge_error);
    }
    mutations.insert(mutations.end(), batch.begin(), batch.end());
    auto& sink = tracing ? traced_open : open;
    sink.insert(sink.end(), std::make_move_iterator(reads.begin()),
                std::make_move_iterator(reads.end()));

    // Peak: closed loop over a fixed number of reads.
    AddBurst(readers, first_read + kReadsPerRound, kPeakPerRound, make, &peak);

    // Quiesced check: a never-issued query is a miss, so it reaches the
    // shards and must match the oracle over the live documents.
    {
      const auto& words = queries[special_base + 2 * rounds];
      const Exchange check = SearchOnce(readers[0].get(), WordRequest(words, kTopN, kFragments));
      result.attempted += 1;
      std::string why = CheckFlags(check);
      if (!why.empty()) {
        result.failed += 1;
        result.Note("quiesced check failed: " + why);
      } else {
        Oracle::Scratch scratch;
        why = oracle.Check(words, kTopN, check.response.results, nullptr,
                           &scratch);
        if (!why.empty()) result.Fail("quiesced check: " + why);
      }
    }

    // Let the frontend's warmer finish re-evaluating hot keys, so the
    // probe runs with nothing else in flight.
    for (dls::serve::ServeStats a = frontend->Stats();;) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      const dls::serve::ServeStats b = frontend->Stats();
      if (a.cache_warmed == b.cache_warmed &&
          a.epoch_changes == b.epoch_changes) {
        break;
      }
      a = b;
    }

    // Read-your-writes probe.
    {
      const auto& words = queries[special_base + 2 * rounds + 1];
      const std::string url = dls::StrFormat(
          "synth://probe/%llu/%zu", static_cast<unsigned long long>(args.seed),
          rounds);
      std::string body;
      for (const std::string& w : words) body += w + " ";
      result.attempted += 1;
      const Exchange first = SearchOnce(readers[0].get(), WordRequest(words, kTopN, kFragments));
      auto inserted = remote->Insert(url, body);
      if (inserted.ok()) oracle.Add(url, body);
      const Exchange second = SearchOnce(readers[0].get(), WordRequest(words, kTopN, kFragments));
      bool seen = false;
      for (const auto& doc : second.response.results) seen |= doc.url == url;
      if (!first.ok || !inserted.ok() || !second.ok || !seen) {
        result.failed += 1;
        if (rounds == 0) {
          result.Note(dls::StrFormat(
              "read-your-writes probe failed: acknowledged insert of %s "
              "missing from the next search (cache_hit=%d)",
              url.c_str(), second.response.cache_hit ? 1 : 0));
        }
      }
    }
    ++rounds;
  }
  if (tracer) tracer->set_enabled(false);
  const dls::serve::ServeStats after = frontend->Stats();

  // Reads during churn are checked for form: the wire carries no
  // per-answer stale flag, so freshness cannot be judged per answer.
  CheckAll({&open, &traced_open, &peak.exchanges},
           [&](const Exchange& e, Oracle::Scratch*) -> std::string {
             return Oracle::CheckOrder(e.response.results);
           },
           &result);

  AddSetupMetrics(setups, args.trace, &result);
  AddServeMetrics(open, peak, rss_mb, &result);
  result.Add("index_bytes_per_posting",
             static_cast<double>(seed_segment_bytes) /
                 static_cast<double>(seed_postings),
             "bytes");
  if (args.trace) {
    AddTraceMetrics(*tracer, traced_open, open, {}, kFragments, &result);
    tracer->Dump(args.trace_out);
    AddFrontendMetrics(before, after, remote, &result);
    std::vector<double> insert_us, delete_us;
    size_t inserted = 0;
    for (const Mutation& m : mutations) {
      if (!m.ok) continue;
      (m.insert ? insert_us : delete_us).push_back(m.micros);
      inserted += m.insert ? 1 : 0;
    }
    result.Add("ingest.docs_per_s",
               static_cast<double>(inserted) / writer_busy_s, "docs/s");
    result.Add("ingest.insert_us_p50", Quantile(insert_us, 0.5), "us");
    result.Add("ingest.insert_us_p99", Quantile(insert_us, 0.99), "us");
    result.Add("ingest.delete_us_p50", Quantile(delete_us, 0.5), "us");
    result.Add("ingest.delete_us_p99", Quantile(delete_us, 0.99), "us");
    uint64_t merges = 0, delta_docs = 0;
    for (size_t s = 0; s < kShards; ++s) {
      const dls::ingest::LiveIndexStats stats =
          stack->live[s * kReplicas]->Stats();
      merges += stats.merges;
      delta_docs += stats.delta_docs;
    }
    result.Add("ingest.merges", static_cast<double>(merges - merges_before),
               "count");
    result.Add("ingest.delta_docs", static_cast<double>(delta_docs), "count");
  }
  readers.clear();
  stack.reset();
  return result;
}

}  // namespace e2e
