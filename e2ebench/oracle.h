// Independent answer checks. The oracle keeps its own term -> (doc, tf)
// maps, built from the regenerated documents with only the program's
// tokenizer and normaliser, and scores a query with the paper's
// formula written out here:
//
//   score(d) = Σ over query stems t in d of log1p(w_t · tf / doclen),
//   w_t      = λ · CL / ((1 − λ) · df_t),   λ = 0.15
//
// It never calls the program's ranking code, so a ranking fault in the
// kernel, codec, segment, merge, cache or wire shows as a mismatch.
#ifndef E2EBENCH_ORACLE_H_
#define E2EBENCH_ORACLE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "ir/cluster.h"
#include "load.h"

namespace e2e {

namespace ir = dls::ir;

class Oracle {
 public:
  static constexpr double kLambda = 0.15;
  /// Relative tolerance within which two scores count as equal.
  static constexpr double kTolerance = 1e-9;

  /// Per-thread scoring buffers.
  struct Scratch {
    std::vector<double> score;
    std::vector<uint32_t> touched;
  };

  /// Adds a live document; returns its oracle id.
  uint32_t Add(std::string url, std::string_view body);
  /// Removes a live document (its id stays allocated).
  void Remove(uint32_t doc);

  /// Postings of the live documents: distinct (doc, stem) pairs.
  uint64_t postings() const { return postings_; }

  /// Checks one answer against the exact top `n` of the live documents
  /// (restricted to `allowed`, indexed by oracle id, when non-null).
  /// Returns an empty string when the answer matches: same length,
  /// scores equal position by position, each returned url scored as
  /// returned, no url twice, and ordered by (score desc, url asc).
  std::string Check(const std::vector<std::string>& words, size_t n,
                    const std::vector<ir::ClusterScoredDoc>& got,
                    const std::vector<char>* allowed, Scratch* scratch) const;

  /// The ordering properties alone: scores descending, urls ascending
  /// among equal scores, no url twice. Empty string when they hold.
  static std::string CheckOrder(const std::vector<ir::ClusterScoredDoc>& got);

 private:
  struct Doc {
    std::string url;
    int64_t length = 0;
    std::vector<std::pair<uint32_t, int32_t>> terms;  // (stem id, tf)
    bool alive = true;
  };
  struct Posting {
    uint32_t doc;
    int32_t tf;
  };

  std::vector<Doc> docs_;
  std::unordered_map<std::string, uint32_t> by_url_;
  std::unordered_map<std::string, uint32_t> stem_ids_;
  std::vector<std::vector<Posting>> postings_by_stem_;
  std::vector<int32_t> df_;  // live documents holding the stem
  int64_t collection_length_ = 0;
  uint64_t postings_ = 0;
};

/// Checks every exchange of `phases` on ClientConnections() threads and
/// counts it as attempted. One that was not answered, or was shed or
/// degraded, counts as failed; every other one must pass `check`
/// (empty string), or the run is not correct.
void CheckAll(
    std::initializer_list<const std::vector<Exchange>*> phases,
    const std::function<std::string(const Exchange&, Oracle::Scratch*)>& check,
    RunResult* result);

/// Bit-identical rankings: same urls, same scores, same order.
bool SameRanking(const std::vector<ir::ClusterScoredDoc>& a,
                 const std::vector<ir::ClusterScoredDoc>& b);

}  // namespace e2e

#endif  // E2EBENCH_ORACLE_H_
