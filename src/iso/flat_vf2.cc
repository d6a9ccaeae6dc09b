#include "src/iso/flat_vf2.h"

#include <deque>

#include "src/obs/metrics.h"

namespace catapult {

namespace {

// One bookkeeping batch per search (not per node): the per-node cost of
// instrumentation inside Backtrack would dwarf the work it measures.
void RecordSearch(uint64_t nodes, bool budget_exhausted) {
  obs::Count(obs::Counter::kVf2Calls);
  obs::Count(obs::Counter::kVf2Nodes, nodes);
  obs::Observe(obs::Hist::kVf2NodesPerCall, nodes);
  if (budget_exhausted) obs::Count(obs::Counter::kVf2BudgetExhausted);
}

// Root choice: rarest label in the target, ties broken by highest pattern
// degree, read from the precomputed domain counts.
VertexId PickRoot(const FlatGraphView& pattern, const LabelDomains& domains) {
  VertexId best = 0;
  size_t rb = domains.CountOf(pattern.VertexLabel(0));
  for (VertexId v = 1; v < pattern.num_vertices; ++v) {
    size_t rv = domains.CountOf(pattern.VertexLabel(v));
    if (rv < rb || (rv == rb && pattern.Degree(v) > pattern.Degree(best))) {
      best = v;
      rb = rv;
    }
  }
  return best;
}

using EmbeddingVisitor = std::function<bool(const Embedding&)>;

struct FlatSearch {
  const FlatGraphView& pattern;
  const FlatGraphView& target;
  const LabelDomains& domains;
  const IsoOptions& options;
  const EmbeddingVisitor* visitor;  // null: existence only
  std::vector<VertexId> order;
  std::vector<int> parent;
  std::vector<int> position;
  Embedding mapping;
  std::vector<bool> target_used;
  uint64_t nodes = 0;
  size_t found = 0;

  FlatSearch(const FlatGraphView& p, const FlatGraphView& t,
             const LabelDomains& d, const IsoOptions& opt,
             const EmbeddingVisitor* v)
      : pattern(p), target(t), domains(d), options(opt), visitor(v) {
    order.reserve(pattern.NumVertices());
    parent.assign(pattern.NumVertices(), -1);
    position.assign(pattern.NumVertices(), -1);
    std::deque<VertexId> frontier = {PickRoot(pattern, domains)};
    std::vector<bool> discovered(pattern.NumVertices(), false);
    discovered[frontier.front()] = true;
    while (!frontier.empty()) {
      VertexId v = frontier.front();
      frontier.pop_front();
      position[v] = static_cast<int>(order.size());
      order.push_back(v);
      for (const FlatNeighbor* n = pattern.NeighborsBegin(v);
           n != pattern.NeighborsEnd(v); ++n) {
        if (!discovered[n->to]) {
          discovered[n->to] = true;
          parent[n->to] = static_cast<int>(v);
          frontier.push_back(n->to);
        }
      }
    }
    CATAPULT_CHECK_MSG(order.size() == pattern.NumVertices(),
                       "pattern must be connected");
    mapping.assign(pattern.NumVertices(), 0);
    target_used.assign(target.NumVertices(), false);
  }

  // Extends the embedding with pv -> tv (label compatibility already
  // established by the caller). Returns false only to stop the search.
  bool TryCandidate(size_t depth, VertexId pv, size_t pv_degree, VertexId tv) {
    if (target_used[tv]) return true;
    if (target.Degree(tv) < pv_degree) return true;
    for (const FlatNeighbor* n = pattern.NeighborsBegin(pv);
         n != pattern.NeighborsEnd(pv); ++n) {
      if (position[n->to] >= static_cast<int>(depth)) continue;  // unmatched
      const FlatNeighbor* e = target.FindEdge(tv, mapping[n->to]);
      if (e == nullptr) return true;
      if (options.match_edge_labels && e->edge_label != n->edge_label) {
        return true;
      }
    }
    if (options.induced) {
      for (size_t d = 0; d < depth; ++d) {
        VertexId other = order[d];
        if (!pattern.HasEdge(pv, other) &&
            target.HasEdge(tv, mapping[other])) {
          return true;
        }
      }
    }
    mapping[pv] = tv;
    target_used[tv] = true;
    bool keep_going = Backtrack(depth + 1);
    target_used[tv] = false;
    return keep_going;
  }

  bool Backtrack(size_t depth) {
    if (options.node_budget != 0 && nodes >= options.node_budget) {
      if (options.budget_exhausted != nullptr) {
        *options.budget_exhausted = true;
      }
      return false;
    }
    ++nodes;

    if (depth == order.size()) {
      ++found;
      // Existence stops at the first embedding; enumeration asks the
      // visitor whether to go on.
      return visitor != nullptr && (*visitor)(mapping);
    }

    VertexId pv = order[depth];
    Label pv_label = pattern.VertexLabel(pv);
    size_t pv_degree = pattern.Degree(pv);

    if (depth == 0) {
      // Set bits of the root label's domain, ascending: exactly the
      // candidates the naive 0..V scan accepts, in the same order.
      const uint64_t* words = domains.Words(pv_label);
      if (words == nullptr) return true;
      size_t num_words = domains.words_per_domain();
      for (size_t w = 0; w < num_words; ++w) {
        uint64_t bits = words[w];
        while (bits != 0) {
          VertexId tv = static_cast<VertexId>(
              (w << 6) + static_cast<size_t>(__builtin_ctzll(bits)));
          bits &= bits - 1;
          if (!TryCandidate(depth, pv, pv_degree, tv)) return false;
        }
      }
    } else {
      VertexId anchor_tv = mapping[static_cast<VertexId>(parent[pv])];
      for (const FlatNeighbor* n = target.NeighborsBegin(anchor_tv);
           n != target.NeighborsEnd(anchor_tv); ++n) {
        if (n->to_label != pv_label) continue;
        if (!TryCandidate(depth, pv, pv_degree, n->to)) return false;
      }
    }
    return true;
  }
};

// One search: the size precheck, the backtracking and its bookkeeping.
// Returns the number of embeddings visited.
size_t RunSearch(const FlatGraphView& pattern, const FlatGraphView& target,
                 const LabelDomains* target_domains, const IsoOptions& options,
                 const EmbeddingVisitor* visitor) {
  CATAPULT_CHECK(pattern.NumVertices() > 0);
  if (options.budget_exhausted != nullptr) {
    *options.budget_exhausted = false;
  }
  LabelDomains local;
  if (target_domains == nullptr) {
    local = LabelDomains::Build(target);
    target_domains = &local;
  }
  // Built before the precheck so a disconnected pattern CHECK-fails even
  // when it could never fit.
  FlatSearch search(pattern, target, *target_domains, options, visitor);
  if (pattern.NumVertices() > target.NumVertices() ||
      pattern.NumEdges() > target.NumEdges()) {
    return 0;  // silent: no search ran, so nothing is recorded
  }
  search.Backtrack(0);
  RecordSearch(search.nodes, options.node_budget != 0 &&
                                 search.nodes >= options.node_budget);
  return search.found;
}

}  // namespace

bool FlatContainsSubgraph(const FlatGraphView& pattern,
                          const FlatGraphView& target,
                          const LabelDomains* target_domains,
                          IsoOptions options) {
  return RunSearch(pattern, target, target_domains, options, nullptr) > 0;
}

size_t FlatEnumerateEmbeddings(const FlatGraphView& pattern,
                               const FlatGraphView& target,
                               const LabelDomains* target_domains,
                               const EmbeddingVisitor& visitor,
                               IsoOptions options) {
  return RunSearch(pattern, target, target_domains, options, &visitor);
}

FlatTargets FlatTargets::Build(const GraphDatabase& db,
                               const std::vector<GraphId>& ids) {
  FlatTargets targets;
  targets.flat = FlatGraphDatabase::Build(db, ids);
  targets.domains.reserve(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    targets.domains.push_back(LabelDomains::Build(targets.flat.view(i)));
  }
  return targets;
}

}  // namespace catapult
