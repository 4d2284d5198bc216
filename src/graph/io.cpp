#include "src/graph/io.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>

namespace acic::graph {

bool write_edge_list_csv(const EdgeList& list, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Edge& e : list.edges()) {
    std::fprintf(f, "%u,%u,%.17g\n", e.src, e.dst, e.weight);
  }
  std::fclose(f);
  return true;
}

EdgeList read_edge_list_csv(const std::string& path, VertexId num_vertices) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    throw std::runtime_error("cannot open edge list: " + path);
  }
  EdgeList list;
  char line[256];
  std::size_t line_no = 0;
  VertexId max_vertex = 0;
  const auto fail = [&](const char* what) {
    std::fclose(f);
    throw std::runtime_error(std::string(what) + " at " + path + ":" +
                             std::to_string(line_no));
  };
  while (std::fgets(line, sizeof line, f) != nullptr) {
    ++line_no;
    // A line that fills the buffer without its newline would otherwise
    // have its tail parsed as the next record.
    if (std::strchr(line, '\n') == nullptr && !std::feof(f)) {
      fail("edge line longer than 254 characters");
    }
    // Skip blank lines and comments.
    if (line[0] == '\n' || line[0] == '#' || line[0] == '\0') continue;
    unsigned long src = 0;
    unsigned long dst = 0;
    double weight = 1.0;
    // Accept both the artifact's CSV (src,dst,weight from
    // rmat_preprocess.py) and PaRMAT's whitespace-separated out.txt.
    int fields = std::sscanf(line, "%lu ,%lu ,%lf", &src, &dst, &weight);
    if (fields < 2) {
      fields = std::sscanf(line, "%lu %lu %lf", &src, &dst, &weight);
    }
    if (fields < 2) fail("malformed edge");
    // kInvalidVertex itself is excluded: num_vertices = id + 1 must fit.
    if (src >= kInvalidVertex || dst >= kInvalidVertex) {
      fail("vertex id does not fit in 32 bits");
    }
    // The solvers assume non-negative weights, and NaN has no place in
    // the (src, dst, weight) edge order.
    if (!std::isfinite(weight) || weight < 0.0) {
      fail("edge weight is negative or not finite");
    }
    list.add(static_cast<VertexId>(src), static_cast<VertexId>(dst),
             weight);
    max_vertex = std::max({max_vertex, static_cast<VertexId>(src),
                           static_cast<VertexId>(dst)});
  }
  std::fclose(f);
  list.set_num_vertices(num_vertices != 0 ? num_vertices : max_vertex + 1);
  if (!list.endpoints_in_range()) {
    throw std::runtime_error("edge endpoint exceeds num_vertices in " + path);
  }
  return list;
}

}  // namespace acic::graph
