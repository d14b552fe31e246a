// File ingestion for externally specified COP instances.
//
// One tokenizer / comment-skipping / error-reporting core (io::LineParser)
// backs every text format the project reads -- Gset Max-Cut files
// (gset_io.hpp), the QPLIB-subset QUBO format (qubo.hpp), and the
// family-specific formats declared here -- so every malformed input fails
// with a fecim::contract_error naming "<context>:<line>" instead of a bare
// contract crash deep inside a factory.
//
// Every reader parses one std::string_view.  Its *_file form takes the
// text from io::read_file, which maps regular files (io::MappedFile) so
// multi-million-edge Gset/QPLIB instances tokenize zero-copy, and reads
// anything else -- pipes, /dev/stdin, platforms without mmap -- into a
// buffer of at most io::kMaxBufferedBytes (tests/test_instance_io.cpp pins
// that both branches parse and diagnose identically).  LineParser also
// reads a std::istream line by line, for fecim_solve's --serve job stream.
//
// Formats (all: blank lines skipped, '#' and '%' comment lines skipped,
// fields whitespace-separated):
//
//   DIMACS coloring (.col)    c <comment> / p edge <n> <m> / e <u> <v>
//                             (1-indexed; duplicate and mirrored edges
//                             dedupe; weights are irrelevant to coloring)
//   knapsack                  <num_items> <capacity>
//                             <value> <weight>          (one line per item)
//   partition                 whitespace-separated positive numbers,
//                             any line layout
//   TSP coordinate list       <num_cities>
//                             <x> <y>                   (one line per city;
//                             Euclidean distances)
//   TSPLIB (EUC_2D subset)    "<KEY> : <value>" specification headers,
//                             NODE_COORD_SECTION with "<id> <x> <y>" lines
//                             (published TSPLIB instances load unmodified)
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "problems/graph.hpp"
#include "problems/knapsack.hpp"
#include "problems/tsp.hpp"
#include "util/assert.hpp"

namespace fecim::problems {

namespace io {

/// Read-only memory mapping of a regular file (RAII; unmapped on
/// destruction).  open() returns false -- instead of throwing -- when the
/// path is absent, not a regular file, or the mapping fails, so read_file
/// can buffer the input instead; an empty regular file opens successfully
/// as an empty view without an actual mapping (mmap rejects length 0).
class MappedFile {
 public:
  MappedFile() = default;
  ~MappedFile();
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  MappedFile(MappedFile&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)),
        view_(std::exchange(other.view_, {})) {}

  bool open(const std::string& path);
  std::string_view view() const noexcept { return view_; }

 private:
  void* data_ = nullptr;
  std::size_t size_ = 0;
  std::string_view view_{};
};

/// Splits its source into significant lines (blank and comment lines
/// skipped), tracks physical line numbers, and parses typed fields.  Every
/// failure throws fecim::contract_error prefixed "<context>:<line>:" so
/// callers get actionable diagnostics for hand-edited benchmark files.
///
/// Fields are std::string_view slices: into the caller's memory range for
/// the zero-copy constructor, into an internal line buffer for the stream
/// constructor; either way they stay valid until the next next().
class LineParser {
 public:
  /// `comment_prefixes`: a line whose first non-space character is listed
  /// here is skipped (e.g. "#%" for Gset-style files, "c#%" for DIMACS).
  /// Stream source, read one line at a time: fecim_solve's --serve job
  /// stream, whose lines must run as they arrive.
  LineParser(std::istream& in, std::string context,
             std::string comment_prefixes = "#%");
  /// Zero-copy source: `text` (e.g. a read_file view) must outlive the
  /// parser.  Lines split on '\n' exactly like std::getline -- no trailing
  /// newline required, '\r' is ordinary (stripped as whitespace during
  /// tokenization, exactly as the stream path treats it).
  LineParser(std::string_view text, std::string context,
             std::string comment_prefixes = "#%");

  /// Advance to the next significant line; false at end of input.
  bool next();

  std::size_t line_number() const noexcept { return line_number_; }
  std::size_t fields() const noexcept { return fields_.size(); }
  std::string_view field(std::size_t i) const;

  /// Typed field accessors; full-token validation (no silent strtod/strtoull
  /// garbage-to-zero), failures name the field text and the line.  Plain
  /// decimal integers short enough to be exact (15 digits for number(), 18
  /// for index()) convert directly, with the value strtod/strtoull give.
  double number(std::size_t i) const;
  std::size_t index(std::size_t i) const;

  /// Fail unless the current line has between `lo` and `hi` fields.
  void require_fields(std::size_t lo, std::size_t hi) const;

  /// Throw a contract_error for the current line: "<context>:<line>: msg".
  [[noreturn]] void fail(const std::string& message) const;
  /// Throw for a truncated stream (no current line to blame).
  [[noreturn]] void fail_truncated(const std::string& expected) const;

 private:
  /// Next raw line from whichever source backs the parser; getline
  /// semantics ('\n' consumed, not delivered).
  bool next_raw_line(std::string_view& out);

  std::istream* in_ = nullptr;    ///< stream source (null for memory source)
  std::string_view buffer_{};     ///< memory source
  std::size_t buffer_pos_ = 0;
  std::string line_buf_;          ///< stream path's current-line storage
  std::string context_;
  std::string comment_prefixes_;
  std::size_t line_number_ = 0;
  std::vector<std::string_view> fields_;
};

/// The most read_file buffers from an input it cannot map: it holds such
/// input whole, so this bounds what one pipe or device can make it
/// allocate.
inline constexpr std::size_t kMaxBufferedBytes = std::size_t{256} << 20;

/// A file's text as read_file returns it: a mapping or a buffer.
class FileText {
 public:
  std::string_view view() const noexcept {
    return buffer_.empty() ? mapped_.view() : std::string_view(buffer_);
  }

 private:
  friend FileText read_file(const std::string& path, const char* what);
  MappedFile mapped_;
  std::string buffer_;
};

/// The text of `path`, which the *_file readers also pass as the parser
/// context, so diagnostics read "<path>:<line>: ...".  Regular files are
/// mapped; anything else is read into a buffer.  Throws contract_error
/// "<what>: cannot open <path>" when the open fails, "<what>: cannot read
/// <path>" on a read error, and "<path>: ..." naming the limit when an
/// unmappable input exceeds kMaxBufferedBytes.
FileText read_file(const std::string& path, const char* what);

}  // namespace io

/// DIMACS graph-coloring instance (.col).  Vertices 1-indexed in the file,
/// 0-indexed in the Graph; duplicate/mirrored "e" lines dedupe (unit weight).
Graph read_dimacs_coloring(std::string_view text,
                           const std::string& context = "dimacs");
Graph read_dimacs_coloring_file(const std::string& path);

/// Knapsack instance: header "<num_items> <capacity>" then one
/// "<value> <weight>" line per item.
KnapsackInstance read_knapsack(std::string_view text,
                               const std::string& context = "knapsack");
KnapsackInstance read_knapsack_file(const std::string& path);
void write_knapsack(const KnapsackInstance& instance, std::ostream& out);

/// Number-partitioning instance: all fields of all significant lines are
/// the (positive) numbers; at least two required.
std::vector<double> read_partition(std::string_view text,
                                   const std::string& context = "partition");
std::vector<double> read_partition_file(const std::string& path);

/// TSP instance from planar coordinates: "<num_cities>" then one "<x> <y>"
/// line per city; the distance matrix is Euclidean.
TspInstance read_tsp_coords(std::string_view text,
                            const std::string& context = "tsp");
TspInstance read_tsp_coords_file(const std::string& path);

/// TSPLIB instance, EUC_2D subset: "<KEY> : <value>" specification headers
/// (NAME/COMMENT and unknown keys are skipped; DIMENSION and
/// EDGE_WEIGHT_TYPE : EUC_2D are required, TYPE must be TSP when present),
/// then NODE_COORD_SECTION with one "<id> <x> <y>" line per city (ids
/// 1..DIMENSION, any order, each exactly once) and an optional EOF
/// terminator.  Distances follow the TSPLIB EUC_2D definition
/// nint(sqrt(dx^2 + dy^2)) -- rounded to the nearest integer, so published
/// optima compare exactly.
TspInstance read_tsplib(std::string_view text,
                        const std::string& context = "tsplib");
TspInstance read_tsplib_file(const std::string& path);

/// Load a TSP instance from either supported on-disk format, sniffing the
/// content: a file opening with a TSPLIB specification keyword parses as
/// TSPLIB, anything else as the plain coordinate list.
TspInstance read_tsp_file(const std::string& path);

}  // namespace fecim::problems
