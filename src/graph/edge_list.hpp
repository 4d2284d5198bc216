#pragma once
// Edge-list container: the interchange format produced by all generators
// and consumed by the CSR builder and the text IO layer.

#include <cstdint>
#include <span>
#include <vector>

#include "src/graph/types.hpp"

namespace acic::graph {

/// The canonical edge order: ascending (src, dst, weight).  It is the
/// paper's artifact convention ("sorted ascending by origin") and the
/// order of a CSR's neighbor array read row by row.
inline bool edge_less(const Edge& a, const Edge& b) {
  if (a.src != b.src) return a.src < b.src;
  if (a.dst != b.dst) return a.dst < b.dst;
  return a.weight < b.weight;
}

/// Sorts `edges` into edge_less order: the one edge sort behind
/// EdgeList::sort_by_source and the out-of-core spill runs.  A two-pass
/// radix sort — fixed-size blocks histogram and scatter the edges into
/// buckets of consecutive sources sized to fit a core's L2, then each
/// bucket is counting-sorted by src and every row sorted by
/// (dst, weight) — on up to `threads` host threads.  The key range is
/// the largest src present, and every pass writes only slots its block
/// or bucket owns, so the result equals std::sort with edge_less value
/// for value at any thread count.  Input already in order costs one
/// parallel scan.
void sort_edges(std::span<Edge> edges, unsigned threads = 1);

class EdgeList {
 public:
  EdgeList() = default;
  EdgeList(VertexId num_vertices, std::vector<Edge> edges)
      : num_vertices_(num_vertices), edges_(std::move(edges)) {}

  VertexId num_vertices() const { return num_vertices_; }
  void set_num_vertices(VertexId n) { num_vertices_ = n; }

  std::size_t num_edges() const { return edges_.size(); }
  const std::vector<Edge>& edges() const { return edges_; }
  std::vector<Edge>& edges() { return edges_; }

  void add(VertexId src, VertexId dst, Weight w) {
    edges_.push_back(Edge{src, dst, w});
  }
  void reserve(std::size_t n) { edges_.reserve(n); }

  /// Sorts edges by (src, dst, weight) with sort_edges: the paper's
  /// artifact convention, and the input order that lets the CSR builder
  /// skip its counting sort.  The result is the same at any thread count.
  void sort_by_source() { sort_by_source(1); }
  void sort_by_source(unsigned threads);

  /// Removes self-loops (PaRMAT's -noEdgeToSelf).
  void remove_self_loops();

  /// Removes duplicate (src, dst) pairs keeping the lightest weight
  /// (PaRMAT's -noDuplicateEdges, adapted for weighted edges).  Requires
  /// the list to be sorted first; sorts if necessary.
  void remove_duplicates();

  /// True if every endpoint is < num_vertices().
  bool endpoints_in_range() const;

  /// Returns a copy with the reverse of every edge added (same weight),
  /// making the graph effectively undirected — used by the connected-
  /// components algorithms, which propagate labels both ways.
  EdgeList symmetrized() const;

 private:
  VertexId num_vertices_ = 0;
  std::vector<Edge> edges_;
};

}  // namespace acic::graph
