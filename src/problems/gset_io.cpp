#include "problems/gset_io.hpp"

#include <fstream>
#include <limits>
#include <ostream>

#include "problems/instance_io.hpp"
#include "util/assert.hpp"

namespace fecim::problems {

Graph read_gset(std::string_view text, const std::string& context) {
  io::LineParser parser(text, context);
  if (!parser.next())
    throw contract_error(context + ": empty input (expected '<n> <m>')");
  parser.require_fields(2, 2);
  const std::size_t n = parser.index(0);
  const std::size_t m = parser.index(1);
  if (n == 0) parser.fail("graph must have at least one vertex");

  Graph graph(n);
  for (std::size_t k = 0; k < m; ++k) {
    if (!parser.next())
      parser.fail_truncated(std::to_string(m) + " edges, got " +
                            std::to_string(k));
    parser.require_fields(2, 3);
    const std::size_t u = parser.index(0);
    const std::size_t v = parser.index(1);
    const double w = parser.fields() == 3 ? parser.number(2) : 1.0;
    if (u < 1 || u > n || v < 1 || v > n)
      parser.fail("vertex index out of range [1, " + std::to_string(n) + "]");
    if (u == v) parser.fail("self-loop on vertex " + std::to_string(u));
    graph.add_edge(static_cast<std::uint32_t>(u - 1),
                   static_cast<std::uint32_t>(v - 1), w);
  }
  if (parser.next())
    parser.fail("trailing content after " + std::to_string(m) + " edges");
  return graph;
}

Graph read_gset_file(const std::string& path) {
  return read_gset(io::read_file(path, "gset").view(), path);
}

void write_gset(const Graph& graph, std::ostream& out) {
  // max_digits10 makes the textual weight round-trip bit-lossless; the
  // default stream precision (6) silently truncated e.g. 1/3.
  const auto previous =
      out.precision(std::numeric_limits<double>::max_digits10);
  out << graph.num_vertices() << ' ' << graph.num_edges() << '\n';
  for (const auto& e : graph.edges())
    out << (e.u + 1) << ' ' << (e.v + 1) << ' ' << e.weight << '\n';
  out.precision(previous);
}

void write_gset_file(const Graph& graph, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw contract_error("gset: cannot open " + path + " for write");
  write_gset(graph, out);
}

}  // namespace fecim::problems
