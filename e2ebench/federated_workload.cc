// federated: structured queries over a generated three-level collection
// — full text (level 2), webspace objects (level 1) and COBRA event
// tables (level 3) — sent over TCP through the FrontendServer to a
// Frontend with the federated mediator attached. The generator keeps
// its own record of every entity's class, attributes and events; that
// record, not the program, decides which documents a filter admits.
#include <memory>

#include "bench.h"
#include "common/rng.h"
#include "common/strings.h"
#include "federate/backend.h"
#include "federate/executor.h"
#include "ir/cluster.h"
#include "load.h"
#include "oracle.h"
#include "serve/backend.h"
#include "serve/frontend.h"
#include "serve/frontend_server.h"
#include "stack.h"
#include "synth/corpus.h"
#include "webspace/objects.h"
#include "webspace/schema.h"

namespace e2e {
namespace {

constexpr size_t kEntities = 8'000;
constexpr size_t kDocsPerEntity = 2;
constexpr size_t kWordsPerDoc = 40;
constexpr size_t kVocabulary = 2'000;
constexpr double kZipfTheta = 1.1;
constexpr size_t kNodes = 4;
constexpr size_t kFragments = 4;
constexpr size_t kTermsPerQuery = 3;
constexpr size_t kTopN = 10;
constexpr size_t kTopics = 40;
constexpr double kMinRallyS = 5.0;
constexpr double kOpenRate = 200;
constexpr size_t kWarmQueries = 300;

constexpr const char kSchema[] = R"(
webspace Bench;
class Article {
  topic: varchar(20);
  score: varchar(10);
}
)";

/// The generator's record of one entity.
struct Entity {
  std::string id;
  size_t topic = 0;
  std::vector<std::pair<std::string, double>> events;  // (event, length s)
};

struct Collection {
  std::vector<Entity> entities;
  std::vector<std::string> urls;    // kDocsPerEntity per entity, in order
  std::vector<std::string> bodies;
  std::vector<dls::federate::CobraEvent> events;
};

Collection Generate(const dls::synth::SyntheticCorpus& corpus, uint64_t seed) {
  Collection c;
  dls::Rng rng(seed * 0xD1B54A32D192ED03ULL + 7);
  for (size_t e = 0; e < kEntities; ++e) {
    Entity entity;
    entity.id = dls::StrFormat("obj%05zu", e);
    entity.topic = rng.Next() % kTopics;
    // A quarter of the entities hold a rally of 0..10 s, an eighth an
    // ace of 0..3 s.
    if (rng.Next() % 4 == 0) {
      entity.events.push_back(
          {"rally", static_cast<double>(rng.Next() % 100) / 10.0});
    }
    if (rng.Next() % 8 == 0) {
      entity.events.push_back(
          {"ace", static_cast<double>(rng.Next() % 30) / 10.0});
    }
    for (const auto& [name, length] : entity.events) {
      c.events.push_back({entity.id, name, length});
    }
    for (size_t d = 0; d < kDocsPerEntity; ++d) {
      c.urls.push_back(dls::StrFormat("%s#f%zu", entity.id.c_str(), d));
      c.bodies.push_back(corpus.Body(e * kDocsPerEntity + d));
    }
    c.entities.push_back(std::move(entity));
  }
  return c;
}

struct FederatedStack {
  dls::webspace::Schema schema;
  std::unique_ptr<dls::webspace::WebspaceInstance> instance;
  std::unique_ptr<dls::ir::ClusterIndex> cluster;
  std::unique_ptr<dls::federate::TextBackend> text;
  std::unique_ptr<dls::federate::WebspaceBackend> web;
  std::unique_ptr<dls::federate::CobraBackend> cobra;
  std::unique_ptr<dls::federate::Mediator> mediator;
  std::unique_ptr<dls::serve::LocalBackend> backend;
  std::unique_ptr<dls::serve::Frontend> frontend;
  std::unique_ptr<dls::serve::FrontendServer> server;
};

dls::Status BuildStack(const Collection& c, Tracer* tracer, FederatedStack* s,
                       SetupTimes* times) {
  int64_t t0 = NowNs();
  DLS_ASSIGN_OR_RETURN(s->schema, dls::webspace::ParseSchema(kSchema));
  s->instance = std::make_unique<dls::webspace::WebspaceInstance>(&s->schema);
  dls::webspace::DocumentView view;
  view.document_url = "bench/collection";
  for (const Entity& e : c.entities) {
    dls::webspace::WebObject o;
    o.cls = "Article";
    o.id = e.id;
    o.attributes = {{"topic", dls::StrFormat("topic%02zu", e.topic), ""}};
    view.objects.push_back(std::move(o));
  }
  DLS_RETURN_IF_ERROR(s->instance->Merge(view));
  dls::ir::TextIndex::Options node_options;
  node_options.flush_batch = c.urls.size() + 1;
  s->cluster = std::make_unique<dls::ir::ClusterIndex>(kNodes, kFragments,
                                                       node_options);
  s->cluster->EnableParallelism(kNodes);
  for (size_t d = 0; d < c.urls.size(); ++d) {
    s->cluster->AddDocument(c.urls[d], c.bodies[d]);
  }
  s->cluster->Finalize();
  s->text = std::make_unique<dls::federate::TextBackend>(s->cluster.get());
  s->web = std::make_unique<dls::federate::WebspaceBackend>(s->instance.get());
  s->cobra = std::make_unique<dls::federate::CobraBackend>(c.events);
  s->mediator = std::make_unique<dls::federate::Mediator>(
      dls::federate::BackendSet{s->text.get(), s->web.get(), s->cobra.get()});
  times->index = Since(t0);
  t0 = NowNs();
  s->backend = std::make_unique<dls::serve::LocalBackend>(s->cluster.get());
  s->frontend = std::make_unique<dls::serve::Frontend>(s->backend.get());
  s->frontend->AttachMediator(s->mediator.get());
  if (tracer != nullptr) {
    s->server = std::make_unique<TracedFrontendServer>(tracer,
                                                       s->frontend.get(), 8);
  } else {
    s->server = std::make_unique<dls::serve::FrontendServer>(s->frontend.get());
  }
  DLS_RETURN_IF_ERROR(s->server->Start(0));
  times->connect = Since(t0);
  return dls::Status::Ok();
}

/// Request `id`'s query: its text words and filter form and topic.
struct FederatedQuery {
  const std::vector<std::string>* words = nullptr;
  int form = 0;  ///< 0: all three levels, 1: text+webspace, 2: text+cobra
  size_t topic = 0;
};

std::string Render(const FederatedQuery& q) {
  std::string text;
  for (const std::string& w : *q.words) text += (text.empty() ? "" : " ") + w;
  std::string out = "text(\"" + text + "\")";
  if (q.form != 2) {
    out += dls::StrFormat(" AND webspace(class=Article, topic=topic%02zu)",
                          q.topic);
  }
  if (q.form != 1) {
    out += dls::StrFormat(" AND cobra(event=rally, min_len=%.0fs)", kMinRallyS);
  }
  return out;
}

/// Whether the generator's record admits `e` under the query's filters.
bool Admits(const Entity& e, const FederatedQuery& q) {
  if (q.form != 2 && e.topic != q.topic) return false;
  if (q.form == 1) return true;
  for (const auto& [name, length] : e.events) {
    if (name == "rally" && length >= kMinRallyS) return true;
  }
  return false;
}

}  // namespace

RunResult RunFederatedWorkload(const Args& args) {
  RunResult result;
  dls::synth::CorpusSpec spec;
  spec.seed = args.seed;
  spec.words_per_doc = kWordsPerDoc;
  spec.vocabulary = kVocabulary;
  spec.zipf_theta = kZipfTheta;
  const dls::synth::SyntheticCorpus corpus(spec);
  const Collection collection = Generate(corpus, args.seed);
  Oracle oracle;
  for (size_t d = 0; d < collection.urls.size(); ++d) {
    oracle.Add(collection.urls[d], collection.bodies[d]);
  }

  const double open_s = args.seconds * (args.trace ? 0.4 : 0.6);
  const double closed_s = args.seconds * (args.trace ? 0.2 : 0.4);
  const size_t open_total = static_cast<size_t>(kOpenRate * open_s);
  const uint64_t open_first = kWarmQueries;
  const uint64_t closed_first = open_first + 2 * open_total;
  const uint64_t id_end = closed_first + 60'000;
  const std::vector<std::vector<std::string>> words =
      DistinctQueries(corpus, id_end, kTermsPerQuery);
  auto query_of = [&](uint64_t id) {
    dls::Rng rng(args.seed * 0xA0761D6478BD642FULL + id);
    FederatedQuery q;
    q.words = &words[id];
    q.form = static_cast<int>(id % 3);
    q.topic = rng.Next() % kTopics;
    return q;
  };
  const MakeRequest make = [&](uint64_t id) {
    dls::net::SearchRequest request = WordRequest({}, kTopN, kFragments);
    request.structured = Render(query_of(id));
    return request;
  };

  std::unique_ptr<Tracer> tracer;
  if (args.trace) tracer = std::make_unique<Tracer>();
  std::unique_ptr<FederatedStack> stack;
  std::vector<SetupTimes> setups;
  std::vector<std::unique_ptr<Client>> clients;
  std::vector<Exchange> warmup;
  double rss_mb = 0;
  dls::Status st = RepeatedSetUp(
      [&](FederatedStack* s, SetupTimes* times, int) {
        return BuildStack(collection, tracer.get(), s, times);
      },
      [&](FederatedStack* s) {
        for (size_t c = 0; c < ClientConnections(); ++c) {
          clients.push_back(std::make_unique<Client>(s->server->port()));
        }
        warmup = Burst(clients, 0, kWarmQueries, make);
      },
      &stack, &setups, &rss_mb);
  if (!st.ok()) {
    result.Fail("set-up: " + st.ToString());
    return result;
  }
  const dls::serve::ServeStats before = stack->frontend->Stats();
  std::vector<Exchange> open = OpenLoop(clients, kOpenRate, open_s,
                                        open_first, make);
  std::vector<Exchange> second;
  if (args.trace) {
    tracer->set_enabled(true);
    second = OpenLoop(clients, kOpenRate, open_s, open_first + open_total,
                      make);
    tracer->set_enabled(false);
  }
  const ClosedPhase closed =
      RunClosedPhase(clients, closed_s, closed_first, id_end, make);
  const dls::serve::ServeStats after = stack->frontend->Stats();

  CheckAll({&warmup, &open, &second, &closed.exchanges},
           [&](const Exchange& e, Oracle::Scratch* scratch) {
             const FederatedQuery q = query_of(e.id);
             std::vector<char> allowed(collection.urls.size(), 0);
             for (size_t i = 0; i < collection.entities.size(); ++i) {
               if (!Admits(collection.entities[i], q)) continue;
               for (size_t d = 0; d < kDocsPerEntity; ++d) {
                 allowed[i * kDocsPerEntity + d] = 1;
               }
             }
             return oracle.Check(*q.words, kTopN, e.response.results,
                                 &allowed, scratch);
           },
           &result);

  AddSetupMetrics(setups, args.trace, &result);
  AddServeMetrics(open, closed, rss_mb, &result);
  // The text level's segment format, flushed outside set-up.
  const std::string dir = args.workdir + "/segments";
  ResetDir(dir);
  dls::Status flushed = stack->cluster->FlushToDisk(dir + "/collection");
  if (!flushed.ok()) result.Fail("flush: " + flushed.ToString());
  result.Add("index_bytes_per_posting",
             static_cast<double>(DirBytes(dir)) /
                 static_cast<double>(oracle.postings()),
             "bytes");
  if (args.trace) {
    AddFrontendMetrics(before, after, nullptr, &result);
    const double queries =
        static_cast<double>(after.federated_queries - before.federated_queries);
    auto per_query = [&](uint64_t total) {
      return queries == 0 ? 0.0 : static_cast<double>(total) / queries;
    };
    result.Add("federate.text_us",
               per_query(after.federated_text_us - before.federated_text_us),
               "us");
    result.Add("federate.webspace_us",
               per_query(after.federated_webspace_us -
                         before.federated_webspace_us),
               "us");
    result.Add("federate.cobra_us",
               per_query(after.federated_cobra_us - before.federated_cobra_us),
               "us");
    result.Add("federate.candidates_per_query",
               per_query(after.federated_filter_docs -
                         before.federated_filter_docs),
               "docs");
    AddTraceMetrics(*tracer, second, open, {}, kFragments, &result);
    tracer->Dump(args.trace_out);
  }
  clients.clear();
  stack.reset();
  return result;
}

}  // namespace e2e
