#include "src/graph/edge_list.hpp"

#include <algorithm>
#include <bit>
#include <memory>
#include <new>
#include <utility>

#include "src/util/parallel.hpp"

namespace acic::graph {

namespace {

/// Edges per block of the scan, histogram and scatter passes.  Fixed, so
/// where an edge is scattered does not depend on the thread count.
constexpr std::size_t kBlockEdges = std::size_t{1} << 16;
/// Target edges per source bucket: 1 MiB of 16-byte edges, so a bucket
/// and the slots it is sorted into fit one core's 2 MiB L2.
constexpr std::size_t kBucketEdges = std::size_t{1} << 16;
/// At most 2^10 buckets: the scatter pass writes one stream per bucket.
constexpr int kMaxBucketBits = 10;

/// (dst, weight) order within one source's row.
constexpr auto row_less = [](const Edge& a, const Edge& b) {
  if (a.dst != b.dst) return a.dst < b.dst;
  return a.weight < b.weight;
};

struct OperatorDelete {
  void operator()(Edge* p) const { ::operator delete(p); }
};

/// Storage for `n` edges, left uninitialized (Edge is an implicit-
/// lifetime type): the scatter pass first-touches it on the sorting
/// threads instead of a serial zero fill.
std::unique_ptr<Edge[], OperatorDelete> uninitialized_edges(std::size_t n) {
  return std::unique_ptr<Edge[], OperatorDelete>(
      static_cast<Edge*>(::operator new(n * sizeof(Edge))));
}

/// Counting-sorts bucket [lo, hi) of `in`, whose sources lie in
/// [base, base + span), by src into the same slots of `out`, then sorts
/// each row by (dst, weight).
void sort_bucket(const Edge* in, Edge* out, std::size_t lo, std::size_t hi,
                 VertexId base, std::size_t span) {
  if (span > 2 * (hi - lo)) {
    // Sparse sources: counts would cost more than comparisons.
    std::copy(in + lo, in + hi, out + lo);
    std::sort(out + lo, out + hi, edge_less);
    return;
  }
  std::vector<std::size_t> cursor(span, 0);
  for (std::size_t i = lo; i < hi; ++i) ++cursor[in[i].src - base];
  std::size_t start = lo;
  for (std::size_t& c : cursor) {
    const std::size_t count = c;
    c = start;
    start += count;
  }
  for (std::size_t i = lo; i < hi; ++i) {
    out[cursor[in[i].src - base]++] = in[i];
  }
  // cursor[j] now ends row j, which starts where row j - 1 ends.
  std::size_t row = lo;
  for (const std::size_t end : cursor) {
    if (end - row > 1) std::sort(out + row, out + end, row_less);
    row = end;
  }
}

}  // namespace

void sort_edges(std::span<Edge> edges, unsigned threads) {
  const std::size_t m = edges.size();
  const std::size_t num_blocks = (m + kBlockEdges - 1) / kBlockEdges;
  const auto block_range = [m](std::uint64_t b) {
    const std::size_t first = b * kBlockEdges;
    return std::pair{first, std::min(first + kBlockEdges, m)};
  };

  // Scan: the largest src, and whether the edges are already in order.
  std::vector<VertexId> block_max(num_blocks);
  std::vector<std::uint8_t> block_sorted(num_blocks);
  util::parallel_for(num_blocks, threads, [&](std::uint64_t b) {
    const auto [first, last] = block_range(b);
    VertexId max_src = edges[first].src;
    bool sorted = first == 0 || !edge_less(edges[first], edges[first - 1]);
    for (std::size_t i = first + 1; i < last; ++i) {
      max_src = std::max(max_src, edges[i].src);
      sorted &= !edge_less(edges[i], edges[i - 1]);
    }
    block_max[b] = max_src;
    block_sorted[b] = sorted;
  });
  if (std::ranges::all_of(block_sorted, [](std::uint8_t s) { return s; })) {
    return;
  }

  // Buckets are runs of 2^shift consecutive sources: about
  // m / kBucketEdges of them, but never more than there are sources.
  const VertexId max_src = std::ranges::max(block_max);
  int bucket_bits = 0;
  while (bucket_bits < kMaxBucketBits && (kBucketEdges << bucket_bits) < m) {
    ++bucket_bits;
  }
  const int shift =
      std::max(0, static_cast<int>(std::bit_width(max_src)) - bucket_bits);
  const std::size_t num_buckets = (std::size_t{max_src} >> shift) + 1;

  // Histogram per block, then a bucket-major prefix sum: block b's edges
  // of bucket k follow bucket k's edges from blocks before b.
  std::vector<std::size_t> cursor(num_blocks * num_buckets, 0);
  util::parallel_for(num_blocks, threads, [&](std::uint64_t b) {
    const auto [first, last] = block_range(b);
    std::size_t* count = &cursor[b * num_buckets];
    for (std::size_t i = first; i < last; ++i) ++count[edges[i].src >> shift];
  });
  std::vector<std::size_t> bucket_start(num_buckets + 1);
  std::size_t start = 0;
  for (std::size_t k = 0; k < num_buckets; ++k) {
    bucket_start[k] = start;
    for (std::size_t b = 0; b < num_blocks; ++b) {
      const std::size_t count = cursor[b * num_buckets + k];
      cursor[b * num_buckets + k] = start;
      start += count;
    }
  }
  bucket_start[num_buckets] = m;

  const auto scratch = uninitialized_edges(m);
  util::parallel_for(num_blocks, threads, [&](std::uint64_t b) {
    const auto [first, last] = block_range(b);
    std::size_t* next = &cursor[b * num_buckets];
    for (std::size_t i = first; i < last; ++i) {
      scratch[next[edges[i].src >> shift]++] = edges[i];
    }
  });

  util::parallel_for(num_buckets, threads, [&](std::uint64_t k) {
    const std::size_t lo = bucket_start[k];
    const std::size_t hi = bucket_start[k + 1];
    if (lo == hi) return;
    const auto base = static_cast<VertexId>(k << shift);
    const std::size_t span = std::min(std::size_t{1} << shift,
                                      std::size_t{max_src} - base + 1);
    sort_bucket(scratch.get(), edges.data(), lo, hi, base, span);
  });
}

void EdgeList::sort_by_source(unsigned threads) {
  sort_edges(edges_, threads);
}

void EdgeList::remove_self_loops() {
  edges_.erase(std::remove_if(edges_.begin(), edges_.end(),
                              [](const Edge& e) { return e.src == e.dst; }),
               edges_.end());
}

void EdgeList::remove_duplicates() {
  sort_by_source();
  // After sorting, duplicates of a (src, dst) pair are adjacent and the
  // lightest weight comes first, so unique() keeps the minimum.
  edges_.erase(std::unique(edges_.begin(), edges_.end(),
                           [](const Edge& a, const Edge& b) {
                             return a.src == b.src && a.dst == b.dst;
                           }),
               edges_.end());
}

EdgeList EdgeList::symmetrized() const {
  EdgeList out(num_vertices_, {});
  out.reserve(edges_.size() * 2);
  for (const Edge& e : edges_) {
    out.add(e.src, e.dst, e.weight);
    if (e.src != e.dst) out.add(e.dst, e.src, e.weight);
  }
  out.sort_by_source();
  return out;
}

bool EdgeList::endpoints_in_range() const {
  for (const Edge& e : edges_) {
    if (e.src >= num_vertices_ || e.dst >= num_vertices_) return false;
  }
  return true;
}

}  // namespace acic::graph
