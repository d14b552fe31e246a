#include "problems/graph.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <queue>

#include "util/assert.hpp"

namespace fecim::problems {

Graph::Graph(std::size_t num_vertices)
    : num_vertices_(num_vertices), index_(16, kEmptyBucket) {
  FECIM_EXPECTS(num_vertices > 0);
}

std::size_t Graph::find_bucket(std::uint32_t u,
                               std::uint32_t v) const noexcept {
  // Fibonacci hashing of the packed pair: the top log2(buckets) bits of
  // the product mix every bit of both endpoints.
  const std::uint64_t key = (static_cast<std::uint64_t>(u) << 32) | v;
  const std::size_t mask = index_.size() - 1;
  std::size_t bucket = static_cast<std::size_t>(
      (key * 0x9e3779b97f4a7c15ull) >> (64 - std::countr_zero(index_.size())));
  for (;;) {
    const std::uint32_t slot = index_[bucket];
    if (slot == kEmptyBucket) return bucket;
    if (edges_[slot].u == u && edges_[slot].v == v) return bucket;
    bucket = (bucket + 1) & mask;
  }
}

void Graph::grow_index() {
  index_.assign(2 * index_.size(), kEmptyBucket);
  for (std::size_t slot = 0; slot < edges_.size(); ++slot)
    index_[find_bucket(edges_[slot].u, edges_[slot].v)] =
        static_cast<std::uint32_t>(slot);
}

void Graph::add_edge(std::uint32_t u, std::uint32_t v, double weight) {
  FECIM_EXPECTS(u < num_vertices_ && v < num_vertices_);
  FECIM_EXPECTS(u != v);
  if (u > v) std::swap(u, v);
  // Grow before probing so the table stays at most half full after the
  // insertion below.
  if (2 * (edges_.size() + 1) > index_.size()) grow_index();
  // Merge parallel edges by weight accumulation.
  const std::size_t bucket = find_bucket(u, v);
  if (index_[bucket] == kEmptyBucket) {
    FECIM_EXPECTS(edges_.size() < kEmptyBucket);
    index_[bucket] = static_cast<std::uint32_t>(edges_.size());
    edges_.push_back({u, v, weight});
  } else {
    edges_[index_[bucket]].weight += weight;
  }
  adjacency_valid_ = false;
}

bool Graph::has_edge(std::uint32_t u, std::uint32_t v) const {
  if (u > v) std::swap(u, v);
  return index_[find_bucket(u, v)] != kEmptyBucket;
}

double Graph::edge_weight(std::uint32_t u, std::uint32_t v) const {
  if (u > v) std::swap(u, v);
  const std::uint32_t slot = index_[find_bucket(u, v)];
  return slot == kEmptyBucket ? 0.0 : edges_[slot].weight;
}

double Graph::total_weight() const noexcept {
  double sum = 0.0;
  for (const auto& e : edges_) sum += e.weight;
  return sum;
}

double Graph::total_abs_weight() const noexcept {
  double sum = 0.0;
  for (const auto& e : edges_) sum += std::fabs(e.weight);
  return sum;
}

std::size_t Graph::degree(std::uint32_t v) const {
  ensure_adjacency();
  FECIM_EXPECTS(v < num_vertices_);
  return adj_ptr_[v + 1] - adj_ptr_[v];
}

double Graph::average_degree() const noexcept {
  return 2.0 * static_cast<double>(edges_.size()) /
         static_cast<double>(num_vertices_);
}

std::span<const std::uint32_t> Graph::neighbors(std::uint32_t v) const {
  ensure_adjacency();
  FECIM_EXPECTS(v < num_vertices_);
  return {adj_idx_.data() + adj_ptr_[v], adj_ptr_[v + 1] - adj_ptr_[v]};
}

std::span<const double> Graph::neighbor_weights(std::uint32_t v) const {
  ensure_adjacency();
  FECIM_EXPECTS(v < num_vertices_);
  return {adj_weight_.data() + adj_ptr_[v], adj_ptr_[v + 1] - adj_ptr_[v]};
}

bool Graph::is_bipartite() const {
  ensure_adjacency();
  std::vector<int> color(num_vertices_, -1);
  std::queue<std::uint32_t> frontier;
  for (std::uint32_t start = 0; start < num_vertices_; ++start) {
    if (color[start] != -1) continue;
    color[start] = 0;
    frontier.push(start);
    while (!frontier.empty()) {
      const auto v = frontier.front();
      frontier.pop();
      for (const auto w : neighbors(v)) {
        if (color[w] == -1) {
          color[w] = 1 - color[v];
          frontier.push(w);
        } else if (color[w] == color[v]) {
          return false;
        }
      }
    }
  }
  return true;
}

void Graph::ensure_adjacency() const {
  if (adjacency_valid_) return;
  adj_ptr_.assign(num_vertices_ + 1, 0);
  for (const auto& e : edges_) {
    ++adj_ptr_[e.u + 1];
    ++adj_ptr_[e.v + 1];
  }
  for (std::size_t v = 0; v < num_vertices_; ++v) adj_ptr_[v + 1] += adj_ptr_[v];
  adj_idx_.resize(2 * edges_.size());
  adj_weight_.resize(2 * edges_.size());
  std::vector<std::size_t> cursor(adj_ptr_.begin(), adj_ptr_.end() - 1);
  for (const auto& e : edges_) {
    adj_idx_[cursor[e.u]] = e.v;
    adj_weight_[cursor[e.u]++] = e.weight;
    adj_idx_[cursor[e.v]] = e.u;
    adj_weight_[cursor[e.v]++] = e.weight;
  }
  adjacency_valid_ = true;
}

}  // namespace fecim::problems
