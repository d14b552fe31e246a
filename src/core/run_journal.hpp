// Append-only checkpoint journal for campaign runs (docs/robustness.md)
// and the v1 record codec its lines are written in.
//
// One text line per terminal run, flushed as the run completes, so a killed
// process loses at most the line it was writing.  On resume the journal is
// parsed, validated against the campaign (base seed, run count), and the
// recorded outcomes are installed without re-executing -- because run seeds
// are derived up front and the reduction walks runs in index order, the
// resumed CampaignResult is bit-identical to an uninterrupted one.
//
// Format (version 1, '#'-prefixed header, space-separated fields):
//
//   # fecim-journal v1 base_seed <u64> runs <count>
//   run <index> ok <attempt> <seed> <energy> <objective> <feas> <violations>
//       <ledger: 11 comma-separated u64, CostLedger declaration order>
//       <spins: one '+'/'-' per spin> end
//   run <index> failed <attempt> <seed> <msglen> <error message>
//   run <index> timed-out <attempt> <seed> <msglen> <error message>
//   run <index> cancelled <attempt> <seed> <msglen> <error message>
//
// Doubles are written as printf "%a" hexfloats so the round-trip is
// bit-exact.  The trailing "end" sentinel on ok lines and the length prefix
// on message lines make a torn/partial record detectable.  Cancelled runs
// are never journaled (they carry no work, and a resume should re-execute
// them), but the codec still encodes and decodes every terminal status.  A
// torn final line (the kill case) is dropped on open -- the file is
// compacted to its valid prefix before new lines are appended; a malformed
// interior line means real corruption and throws contract_error.
#pragma once

#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "core/runner.hpp"

namespace fecim::core {

/// One parsed journal line: the run index plus everything the reduction
/// needs (the cost breakdown is recomputed from the ledger on resume --
/// cost::compute_cost is a pure function of it).
struct JournalEntry {
  std::size_t run = 0;
  RunRecord record;
  crossbar::CostLedger ledger{};
};

// ---------------------------------------------------------------------------
// Record codec
// ---------------------------------------------------------------------------

/// Encode one entry as a v1 line (no trailing newline).  All four terminal
/// statuses encode, although RunJournal::append skips kCancelled.
std::string encode_journal_entry(const JournalEntry& entry);

/// Decode one entry line.  Returns false on any framing/syntax problem --
/// the caller decides whether that means a torn tail (dropped) or interior
/// corruption (contract_error).
bool decode_journal_entry(const std::string& line, JournalEntry& entry);

/// Append-side handle.  Thread-safe: workers append from inside
/// parallel_for as their runs complete; each line is flushed immediately.
class RunJournal {
 public:
  RunJournal() = default;
  ~RunJournal();
  RunJournal(const RunJournal&) = delete;
  RunJournal& operator=(const RunJournal&) = delete;

  /// Open `path` for appending and return the previously journaled entries.
  ///
  /// Fresh journals (resume == false) are truncated and get a header, and
  /// the returned vector is empty.  With resume == true an existing file is
  /// parsed (header must match `base_seed` / `runs`; entries are validated
  /// for range and uniqueness), compacted to its valid prefix (dropping a
  /// torn trailing line from a killed writer), and extended in place; a
  /// missing file degrades to a fresh start.
  std::vector<JournalEntry> open(const std::string& path, bool resume,
                                 std::uint64_t base_seed, std::size_t runs);

  bool enabled() const noexcept { return file_ != nullptr; }

  void append(const JournalEntry& entry);

 private:
  std::FILE* file_ = nullptr;
  std::mutex mutex_;
};

}  // namespace fecim::core
