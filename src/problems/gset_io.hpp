// Reader/writer for the Stanford Gset Max-Cut file format [38]:
//   line 1:  <num_vertices> <num_edges>
//   line k:  <u> <v> <weight>      (1-indexed vertices; weight optional,
//                                   defaults to 1)
//
// '#' and '%' comment lines and blank lines are skipped anywhere.  Parsing
// runs on the shared ingestion core (problems/instance_io.hpp): read_gset
// parses text in memory, read_gset_file the text io::read_file returns
// (mapped, or buffered for pipes), and malformed headers, out-of-range or
// self-loop edges, and truncated edge lists all raise
// fecim::contract_error naming the offending line.  Parallel edges merge
// by weight summation (O(1) per edge via the graph's edge index).
//
// write_gset emits weights at max_digits10 precision so a write/read
// round-trip is bit-lossless.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "problems/graph.hpp"

namespace fecim::problems {

Graph read_gset(std::string_view text, const std::string& context = "gset");
Graph read_gset_file(const std::string& path);

void write_gset(const Graph& graph, std::ostream& out);
void write_gset_file(const Graph& graph, const std::string& path);

}  // namespace fecim::problems
