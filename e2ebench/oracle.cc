#include "oracle.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <mutex>
#include <optional>
#include <thread>

#include "bench.h"
#include "common/strings.h"
#include "ir/index.h"
#include "ir/tokenizer.h"

namespace e2e {
namespace {

bool Same(double a, double b) {
  return std::fabs(a - b) <=
         Oracle::kTolerance * std::max(std::fabs(a), std::fabs(b));
}

}  // namespace

uint32_t Oracle::Add(std::string url, std::string_view body) {
  const uint32_t id = static_cast<uint32_t>(docs_.size());
  Doc doc;
  doc.url = std::move(url);
  std::map<uint32_t, int32_t> counts;
  for (const std::string& token : dls::ir::Tokenize(body)) {
    std::optional<std::string> stem = dls::ir::NormalizeWord(token);
    if (!stem) continue;
    auto [it, fresh] = stem_ids_.try_emplace(
        *stem, static_cast<uint32_t>(postings_by_stem_.size()));
    if (fresh) {
      postings_by_stem_.emplace_back();
      df_.push_back(0);
    }
    ++counts[it->second];
    ++doc.length;
  }
  for (const auto& [stem, tf] : counts) {
    doc.terms.push_back({stem, tf});
    postings_by_stem_[stem].push_back({id, tf});
    ++df_[stem];
  }
  postings_ += doc.terms.size();
  collection_length_ += doc.length;
  by_url_[doc.url] = id;
  docs_.push_back(std::move(doc));
  return id;
}

void Oracle::Remove(uint32_t id) {
  Doc& doc = docs_[id];
  if (!doc.alive) return;
  doc.alive = false;
  for (const auto& [stem, tf] : doc.terms) --df_[stem];
  postings_ -= doc.terms.size();
  collection_length_ -= doc.length;
  by_url_.erase(doc.url);
}

std::string Oracle::CheckOrder(const std::vector<ir::ClusterScoredDoc>& got) {
  for (size_t i = 0; i + 1 < got.size(); ++i) {
    const auto& a = got[i];
    const auto& b = got[i + 1];
    if (a.score < b.score || (a.score == b.score && !(a.url < b.url))) {
      return dls::StrFormat("rank %zu/%zu out of (score desc, url asc) order",
                            i, i + 1);
    }
  }
  return "";
}

std::string Oracle::Check(const std::vector<std::string>& words, size_t n,
                          const std::vector<ir::ClusterScoredDoc>& got,
                          const std::vector<char>* allowed,
                          Scratch* s) const {
  if (s->score.size() < docs_.size()) s->score.resize(docs_.size(), 0.0);
  std::vector<uint32_t> stems;
  for (const std::string& word : words) {
    for (const std::string& token : dls::ir::Tokenize(word)) {
      std::optional<std::string> stem = dls::ir::NormalizeWord(token);
      if (!stem) continue;
      auto it = stem_ids_.find(*stem);
      if (it == stem_ids_.end() || df_[it->second] == 0) continue;
      if (std::find(stems.begin(), stems.end(), it->second) == stems.end()) {
        stems.push_back(it->second);
      }
    }
  }
  const double cl = static_cast<double>(collection_length_);
  for (uint32_t stem : stems) {
    const double w =
        kLambda * cl / ((1.0 - kLambda) * static_cast<double>(df_[stem]));
    for (const Posting& p : postings_by_stem_[stem]) {
      const Doc& doc = docs_[p.doc];
      if (!doc.alive) continue;
      if (allowed != nullptr && (*allowed)[p.doc] == 0) continue;
      if (s->score[p.doc] == 0.0) s->touched.push_back(p.doc);
      s->score[p.doc] += std::log1p(w * static_cast<double>(p.tf) /
                                    static_cast<double>(doc.length));
    }
  }
  // Expected top n by (score desc, url asc).
  std::vector<std::pair<double, uint32_t>> ranked;
  ranked.reserve(s->touched.size());
  for (uint32_t d : s->touched) ranked.push_back({s->score[d], d});
  const size_t want = std::min(n, ranked.size());
  auto better = [&](const std::pair<double, uint32_t>& a,
                    const std::pair<double, uint32_t>& b) {
    if (a.first != b.first) return a.first > b.first;
    return docs_[a.second].url < docs_[b.second].url;
  };
  std::partial_sort(ranked.begin(), ranked.begin() + want, ranked.end(),
                    better);

  std::string why;
  if (got.size() != want) {
    why = dls::StrFormat("%zu results, expected %zu", got.size(), want);
  }
  for (size_t i = 0; why.empty() && i < want; ++i) {
    if (!Same(got[i].score, ranked[i].first)) {
      why = dls::StrFormat("rank %zu score %.17g, expected %.17g (%s)", i,
                           got[i].score, ranked[i].first,
                           docs_[ranked[i].second].url.c_str());
      break;
    }
    auto it = by_url_.find(got[i].url);
    const double own =
        it == by_url_.end() ? -1.0 : s->score[it->second];
    if (it == by_url_.end() ||
        (allowed != nullptr && (*allowed)[it->second] == 0) ||
        !Same(got[i].score, own)) {
      why = dls::StrFormat("rank %zu url %s scored %.17g, oracle %.17g", i,
                           got[i].url.c_str(), got[i].score, own);
    }
  }
  if (why.empty()) why = CheckOrder(got);
  for (uint32_t d : s->touched) s->score[d] = 0.0;
  s->touched.clear();
  return why;
}

bool SameRanking(const std::vector<ir::ClusterScoredDoc>& a,
                 const std::vector<ir::ClusterScoredDoc>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].url != b[i].url || a[i].score != b[i].score) return false;
  }
  return true;
}

void CheckAll(
    std::initializer_list<const std::vector<Exchange>*> phases,
    const std::function<std::string(const Exchange&, Oracle::Scratch*)>& check,
    RunResult* result) {
  std::vector<const Exchange*> all;
  for (const std::vector<Exchange>* phase : phases) {
    for (const Exchange& e : *phase) all.push_back(&e);
  }
  std::mutex mu;
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < ClientConnections(); ++t) {
    threads.emplace_back([&] {
      Oracle::Scratch scratch;
      for (size_t i = next.fetch_add(1); i < all.size(); i = next.fetch_add(1)) {
        const Exchange& e = *all[i];
        const std::string failure = CheckFlags(e);
        const std::string mismatch =
            failure.empty() ? check(e, &scratch) : std::string();
        std::lock_guard<std::mutex> lock(mu);
        result->attempted += 1;
        if (!failure.empty()) {
          result->failed += 1;
          result->Note("request " + std::to_string(e.id) + " failed: " +
                       failure);
        }
        if (!mismatch.empty()) {
          result->Fail("request " + std::to_string(e.id) + ": " + mismatch);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

}  // namespace e2e
