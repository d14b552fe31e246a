// Generic QUBO instances: externally specified H(x) = x^T Q x + c problems
// imported from files, the path that lets the annealer meet published
// QUBO/Ising benchmarks (QPLIB-style collections) head-on instead of only
// solving generated instances.
//
// File format (QPLIB-subset / COO triplets; '#'/'%' comments and blank
// lines skipped anywhere, parsed on the shared ingestion core of
// problems/instance_io.hpp -- read_qubo takes the text, read_qubo_file the
// text io::read_file returns):
//
//   [minimize | maximize]      optional sense directive   [minimize]
//   [constant <c>]             optional objective offset  [0]
//   <n> <nnz>                  header
//   <i> <j> <q>                nnz coefficient triplets, 1-indexed;
//                              i == j is a linear term, duplicates and
//                              mirrored (j, i) entries accumulate onto the
//                              upper triangle
//
// The objective is H(x) evaluated as written (upper-triangle convention);
// `maximize` flips the campaign sense, not the stored coefficients.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "ising/qubo.hpp"

namespace fecim::problems {

struct QuboInstance {
  ising::QuboModel model;
  bool maximize = false;
};

QuboInstance read_qubo(std::string_view text,
                       const std::string& context = "qubo");
QuboInstance read_qubo_file(const std::string& path);

/// Inverse of read_qubo at max_digits10 precision (round-trip lossless).
void write_qubo(const QuboInstance& instance, std::ostream& out);
void write_qubo_file(const QuboInstance& instance, const std::string& path);

/// Seeded random sparse QUBO: round(n * avg_degree / 2) distinct off-diagonal
/// couplings and a dense diagonal, coefficients uniform in [-1, 1].  Used by
/// fecim_solve when --problem qubo runs without a file, and by tests.
QuboInstance random_qubo(std::size_t variables, double avg_degree,
                         std::uint64_t seed);

/// Best-known reference objective: the best of `restarts` random-start
/// single-flip first-improvement descents on H (sense-aware: each pass
/// flips, in index order, every variable whose flip improves H at its
/// turn).  The same 1-opt multi-restart proxy reference_cut() provides for
/// Max-Cut.
double qubo_reference_value(const ising::QuboModel& model, bool maximize,
                            std::size_t restarts, std::uint64_t seed);

}  // namespace fecim::problems
