#include "problems/qubo.hpp"

#include <algorithm>
#include <fstream>
#include <limits>
#include <ostream>
#include <unordered_set>
#include <utility>

#include "problems/instance_io.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace fecim::problems {

QuboInstance read_qubo(std::string_view text, const std::string& context) {
  io::LineParser parser(text, context);

  // Optional directives ahead of the header, in any order.
  bool maximize = false;
  double constant = 0.0;
  for (;;) {
    if (!parser.next())
      throw contract_error(context + ": empty input (expected '<n> <nnz>')");
    if (parser.field(0) == "minimize" || parser.field(0) == "maximize") {
      parser.require_fields(1, 1);
      maximize = parser.field(0) == "maximize";
      continue;
    }
    if (parser.field(0) == "constant") {
      parser.require_fields(2, 2);
      constant = parser.number(1);
      continue;
    }
    break;
  }

  parser.require_fields(2, 2);
  const std::size_t n = parser.index(0);
  const std::size_t nnz = parser.index(1);
  if (n == 0) parser.fail("QUBO must have at least one variable");

  linalg::CsrMatrix::Builder builder(n, n);
  for (std::size_t k = 0; k < nnz; ++k) {
    if (!parser.next())
      parser.fail_truncated(std::to_string(nnz) + " triplets, got " +
                            std::to_string(k));
    parser.require_fields(3, 3);
    std::size_t i = parser.index(0);
    std::size_t j = parser.index(1);
    const double q = parser.number(2);
    if (i < 1 || i > n || j < 1 || j > n)
      parser.fail("variable index out of range [1, " + std::to_string(n) +
                  "]");
    // Canonicalize onto the upper triangle; duplicates and mirrored
    // entries accumulate (the Builder merges by summation).
    if (i > j) std::swap(i, j);
    builder.add(i - 1, j - 1, q);
  }
  if (parser.next())
    parser.fail("trailing content after " + std::to_string(nnz) +
                " triplets");

  return QuboInstance{ising::QuboModel(builder.build(), constant), maximize};
}

QuboInstance read_qubo_file(const std::string& path) {
  return read_qubo(io::read_file(path, "qubo").view(), path);
}

void write_qubo(const QuboInstance& instance, std::ostream& out) {
  const auto previous =
      out.precision(std::numeric_limits<double>::max_digits10);
  out << (instance.maximize ? "maximize" : "minimize") << '\n';
  if (instance.model.constant() != 0.0)
    out << "constant " << instance.model.constant() << '\n';
  const auto& q = instance.model.q();
  out << q.rows() << ' ' << q.nonzeros() << '\n';
  for (std::size_t r = 0; r < q.rows(); ++r) {
    const auto cols = q.row_cols(r);
    const auto values = q.row_values(r);
    for (std::size_t k = 0; k < cols.size(); ++k)
      out << (r + 1) << ' ' << (cols[k] + 1) << ' ' << values[k] << '\n';
  }
  out.precision(previous);
}

void write_qubo_file(const QuboInstance& instance, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw contract_error("qubo: cannot open " + path + " for write");
  write_qubo(instance, out);
}

QuboInstance random_qubo(std::size_t variables, double avg_degree,
                         std::uint64_t seed) {
  FECIM_EXPECTS(variables > 0);
  FECIM_EXPECTS(avg_degree >= 0.0);
  util::Rng rng(seed);
  linalg::CsrMatrix::Builder builder(variables, variables);
  for (std::size_t i = 0; i < variables; ++i)
    builder.add(i, i, rng.uniform(-1.0, 1.0));

  const auto target = static_cast<std::size_t>(
      std::min(avg_degree * static_cast<double>(variables) / 2.0,
               static_cast<double>(variables) *
                   static_cast<double>(variables - 1) / 2.0));
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(target * 2);
  while (seen.size() < target) {
    auto u = rng.uniform_index(variables);
    auto v = rng.uniform_index(variables);
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    if (!seen.insert((u << 32) | v).second) continue;
    builder.add(static_cast<std::size_t>(u), static_cast<std::size_t>(v),
                rng.uniform(-1.0, 1.0));
  }
  return QuboInstance{ising::QuboModel(builder.build()), false};
}

namespace {

/// IsingModel::delta_energy(spins, {i}) without incremental_vmv's flip-set
/// bitmap, term for term and in the same association: for a single flip
/// the bitmap only excludes the diagonal entry j == i from the row walk.
double single_flip_delta(const ising::IsingModel& model,
                         std::span<const ising::Spin> spins, std::uint32_t i) {
  const auto cols = model.couplings().row_cols(i);
  const auto vals = model.couplings().row_values(i);
  const double s_i = static_cast<double>(spins[i]);
  double inner = 0.0;
  for (std::size_t k = 0; k < cols.size(); ++k)
    if (cols[k] != i) inner += vals[k] * static_cast<double>(spins[cols[k]]);
  double acc = 0.0;
  acc += -s_i * inner;
  double field = 0.0;
  field += -2.0 * model.fields()[i] * s_i;
  return 4.0 * acc + field;
}

}  // namespace

double qubo_reference_value(const ising::QuboModel& model, bool maximize,
                            std::size_t restarts, std::uint64_t seed) {
  FECIM_EXPECTS(restarts > 0);
  // value(x) == to_ising().energy(spins_from_binary(x)) exactly, so the
  // descent runs on the Ising form's O(degree) single-flip delta.
  const auto ising_model = model.to_ising();
  const std::size_t n = ising_model.num_spins();
  util::Rng rng(seed);
  double best = maximize ? -std::numeric_limits<double>::infinity()
                         : std::numeric_limits<double>::infinity();
  for (std::size_t restart = 0; restart < restarts; ++restart) {
    auto spins = ising::random_spins(n, rng);
    double energy = ising_model.energy(spins);
    bool improved = true;
    for (std::size_t pass = 0; improved && pass < 200; ++pass) {
      improved = false;
      for (std::uint32_t i = 0; i < n; ++i) {
        const double delta = single_flip_delta(ising_model, spins, i);
        if (maximize ? delta > 1e-12 : delta < -1e-12) {
          spins[i] = static_cast<ising::Spin>(-spins[i]);
          energy += delta;
          improved = true;
        }
      }
    }
    best = maximize ? std::max(best, energy) : std::min(best, energy);
  }
  return best;
}

}  // namespace fecim::problems
