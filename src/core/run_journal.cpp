#include "core/run_journal.hpp"

#include <array>
#include <cerrno>
#include <cinttypes>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "util/assert.hpp"

namespace fecim::core {

namespace {

std::string format_double(double value) {
  // %a hexfloat: bit-exact round-trip through strtod, including nan/inf.
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%a", value);
  return buffer;
}

bool parse_double_token(const std::string& token, double& out) {
  if (token.empty()) return false;
  char* end = nullptr;
  errno = 0;
  out = std::strtod(token.c_str(), &end);
  return end == token.c_str() + token.size();
}

bool parse_u64_token(const std::string& token, std::uint64_t& out) {
  if (token.empty()) return false;
  char* end = nullptr;
  errno = 0;
  out = std::strtoull(token.c_str(), &end, 10);
  return end == token.c_str() + token.size() && errno == 0;
}

/// CostLedger fields in declaration order -- the journal's ledger column
/// order is pinned to this.
std::array<std::uint64_t*, 11> ledger_fields(crossbar::CostLedger& ledger) {
  return {&ledger.iterations,      &ledger.adc_conversions,
          &ledger.mux_slot_cycles, &ledger.row_drives,
          &ledger.column_drives,   &ledger.bg_dac_updates,
          &ledger.exp_evaluations, &ledger.spin_updates,
          &ledger.crossbar_passes, &ledger.tile_activations,
          &ledger.partial_sum_updates};
}

bool parse_ledger(const std::string& token, crossbar::CostLedger& ledger) {
  const auto fields = ledger_fields(ledger);
  std::size_t pos = 0;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    const std::size_t comma = token.find(',', pos);
    const bool last = i + 1 == fields.size();
    if (last != (comma == std::string::npos)) return false;
    const std::string part =
        token.substr(pos, last ? std::string::npos : comma - pos);
    if (!parse_u64_token(part, *fields[i])) return false;
    pos = comma + 1;
  }
  return true;
}

/// The v1 header line (no trailing newline).
std::string format_journal_header(std::uint64_t base_seed, std::size_t runs) {
  char buffer[96];
  std::snprintf(buffer, sizeof buffer,
                "# fecim-journal v1 base_seed %llu runs %zu",
                static_cast<unsigned long long>(base_seed), runs);
  return buffer;
}

/// Parse a v1 header line; false on any syntax problem.
bool parse_journal_header(const std::string& line, std::uint64_t& base_seed,
                          std::size_t& runs) {
  unsigned long long file_seed = 0;
  std::size_t file_runs = 0;
  if (std::sscanf(line.c_str(), "# fecim-journal v1 base_seed %llu runs %zu",
                  &file_seed, &file_runs) != 2)
    return false;
  base_seed = file_seed;
  runs = file_runs;
  return true;
}

}  // namespace

std::string encode_journal_entry(const JournalEntry& entry) {
  std::ostringstream out;
  out << "run " << entry.run << ' ' << run_status_name(entry.record.status)
      << ' ' << entry.record.attempt << ' ' << entry.record.seed;
  if (entry.record.status == RunStatus::kOk) {
    out << ' ' << format_double(entry.record.best_energy) << ' '
        << format_double(entry.record.solution.objective) << ' '
        << (entry.record.solution.feasible ? 1 : 0) << ' '
        << format_double(entry.record.solution.violations) << ' ';
    auto ledger = entry.ledger;
    const auto fields = ledger_fields(ledger);
    for (std::size_t i = 0; i < fields.size(); ++i)
      out << (i == 0 ? "" : ",") << *fields[i];
    out << ' ';
    for (const auto spin : entry.record.best_spins)
      out << (spin > 0 ? '+' : '-');
    // Completeness sentinel: a torn line cannot end in a lone "end" token,
    // so a partially written record is detectable.
    out << " end";
  } else {
    // Length-prefixed message: a truncated tail fails the length check
    // instead of silently yielding a shortened error string.
    std::string message = entry.record.error;
    for (auto& c : message)
      if (c == '\n' || c == '\r') c = ' ';
    out << ' ' << message.size() << ' ' << message;
  }
  return out.str();
}

bool decode_journal_entry(const std::string& line, JournalEntry& entry) {
  std::istringstream in(line);
  std::string tag;
  std::string status_name;
  if (!(in >> tag) || tag != "run") return false;
  if (!(in >> entry.run >> status_name >> entry.record.attempt >>
        entry.record.seed))
    return false;
  if (status_name == "ok") {
    entry.record.status = RunStatus::kOk;
  } else if (status_name == "failed") {
    entry.record.status = RunStatus::kFailed;
  } else if (status_name == "timed-out") {
    entry.record.status = RunStatus::kTimedOut;
  } else if (status_name == "cancelled") {
    entry.record.status = RunStatus::kCancelled;
  } else {
    return false;
  }

  if (entry.record.status == RunStatus::kOk) {
    std::string energy_token;
    std::string objective_token;
    std::string violations_token;
    std::string ledger_token;
    std::string spins_token;
    std::string sentinel;
    int feasible = 0;
    if (!(in >> energy_token >> objective_token >> feasible >>
          violations_token >> ledger_token >> spins_token >> sentinel))
      return false;
    if (sentinel != "end" || (in >> sentinel)) return false;
    if (feasible != 0 && feasible != 1) return false;
    if (!parse_double_token(energy_token, entry.record.best_energy) ||
        !parse_double_token(objective_token, entry.record.solution.objective) ||
        !parse_double_token(violations_token,
                            entry.record.solution.violations) ||
        !parse_ledger(ledger_token, entry.ledger))
      return false;
    entry.record.solution.feasible = feasible == 1;
    entry.record.error.clear();
    entry.record.best_spins.clear();
    entry.record.best_spins.reserve(spins_token.size());
    for (const char c : spins_token) {
      if (c != '+' && c != '-') return false;
      entry.record.best_spins.push_back(c == '+' ? ising::Spin{1}
                                                 : ising::Spin{-1});
    }
  } else {
    std::size_t length = 0;
    if (!(in >> length)) return false;
    // The message is the rest of the line after the single separator.
    // Compare the claimed length with what the line holds before copying
    // anything, so a corrupt length fails the decode instead of sizing an
    // allocation.  Not at eof, the length token ended at a character that
    // is still on the line, so message_start <= line.size().
    const std::size_t message_start =
        in.eof() ? line.size() : static_cast<std::size_t>(in.tellg()) + 1;
    if (length != line.size() - message_start) return false;
    entry.record.error = line.substr(message_start);
    entry.record.best_energy = 0.0;
    entry.record.solution = failed_run_solution();
    entry.record.best_spins.clear();
    entry.ledger = crossbar::CostLedger{};
  }
  return true;
}

namespace {

/// Read-only parse of a journal file: header validated against
/// (base_seed, runs), entries validated for range and uniqueness, a torn
/// final line dropped, interior corruption throws contract_error.  A
/// missing file yields an empty vector.  Cancelled entries (only possible
/// in a hand-edited file) are skipped -- a resume must re-execute them.
/// `valid_lines` receives the surviving raw lines, for compaction.
std::vector<JournalEntry> read_journal_file(
    const std::string& path, std::uint64_t base_seed, std::size_t runs,
    std::vector<std::string>& valid_lines) {
  std::vector<JournalEntry> entries;
  std::ifstream in(path);
  if (!in) return entries;
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(std::move(line));
  std::vector<char> seen(runs, 0);
  bool have_header = false;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const bool last = i + 1 == lines.size();
    const std::string& text = lines[i];
    if (text.empty()) continue;
    if (!have_header) {
      std::uint64_t file_seed = 0;
      std::size_t file_runs = 0;
      FECIM_EXPECTS(parse_journal_header(text, file_seed, file_runs) &&
                    "journal: missing or malformed header");
      FECIM_EXPECTS(file_seed == base_seed && file_runs == runs &&
                    "journal: header does not match this campaign");
      have_header = true;
      continue;
    }
    JournalEntry entry;
    if (!decode_journal_entry(text, entry)) {
      // A torn final line is the expected kill artifact; anything
      // earlier is corruption.
      FECIM_EXPECTS(last && "journal: corrupt interior line");
      continue;
    }
    FECIM_EXPECTS(entry.run < runs &&
                  "journal: run index out of range for this campaign");
    FECIM_EXPECTS(!seen[entry.run] && "journal: duplicate run entry");
    seen[entry.run] = 1;
    // Cancelled runs carry no work -- never install them from a file, so a
    // resume re-executes them (append never writes them either).
    if (entry.record.status == RunStatus::kCancelled) continue;
    valid_lines.push_back(text);
    entries.push_back(std::move(entry));
  }
  return entries;
}

}  // namespace

RunJournal::~RunJournal() {
  if (file_ != nullptr) std::fclose(file_);
}

std::vector<JournalEntry> RunJournal::open(const std::string& path,
                                           bool resume,
                                           std::uint64_t base_seed,
                                           std::size_t runs) {
  FECIM_EXPECTS(file_ == nullptr);
  FECIM_EXPECTS(!path.empty());

  std::vector<JournalEntry> entries;
  std::vector<std::string> valid_lines;
  if (resume)
    entries = read_journal_file(path, base_seed, runs, valid_lines);

  // Rewrite header + valid prefix (compaction drops any torn tail), then
  // keep the handle for appends.
  file_ = std::fopen(path.c_str(), "w");
  FECIM_EXPECTS(file_ != nullptr && "journal: cannot open path for writing");
  std::fprintf(file_, "%s\n", format_journal_header(base_seed, runs).c_str());
  for (const auto& text : valid_lines) std::fprintf(file_, "%s\n", text.c_str());
  std::fflush(file_);
  return entries;
}

void RunJournal::append(const JournalEntry& entry) {
  if (!enabled()) return;
  // Cancelled runs never executed: journaling them would make a resume
  // skip work that was never done.
  if (entry.record.status == RunStatus::kCancelled) return;
  const std::string line = encode_journal_entry(entry);
  const std::lock_guard<std::mutex> lock(mutex_);
  std::fprintf(file_, "%s\n", line.c_str());
  std::fflush(file_);
}

}  // namespace fecim::core
