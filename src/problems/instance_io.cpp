#include "problems/instance_io.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <limits>
#include <optional>
#include <ostream>
#include <unordered_map>

#include "util/assert.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define FECIM_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace fecim::problems {

namespace io {

// ---------------------------------------------------------------------------
// MappedFile
// ---------------------------------------------------------------------------

#ifdef FECIM_HAVE_MMAP

bool MappedFile::open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  struct stat st{};
  if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
    ::close(fd);
    return false;
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  if (size == 0) {
    // mmap rejects zero-length mappings; an empty file is simply an empty
    // view (the parser yields no lines, matching an exhausted stream).
    ::close(fd);
    view_ = std::string_view{};
    return true;
  }
  void* data = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping holds its own reference
  if (data == MAP_FAILED) return false;
  data_ = data;
  size_ = size;
  view_ = std::string_view(static_cast<const char*>(data_), size_);
  return true;
}

MappedFile::~MappedFile() {
  if (data_ != nullptr) ::munmap(data_, size_);
}

#else  // no mmap on this platform: read_file always buffers

bool MappedFile::open(const std::string&) { return false; }
MappedFile::~MappedFile() = default;

#endif

FileText read_file(const std::string& path, const char* what) {
  FileText text;
  if (text.mapped_.open(path)) return text;
  // Unbuffered, so the stream allocates no buffer of its own: reading a
  // short input costs little more than its bytes.
  std::ifstream in;
  in.rdbuf()->pubsetbuf(nullptr, 0);
  in.open(path, std::ios::binary);
  if (!in) throw contract_error(std::string(what) + ": cannot open " + path);
  char chunk[1 << 16];
  while (in.read(chunk, sizeof chunk) || in.gcount() > 0) {
    const auto got = static_cast<std::size_t>(in.gcount());
    if (got > kMaxBufferedBytes - text.buffer_.size())
      throw contract_error(path + ": input exceeds " +
                           std::to_string(kMaxBufferedBytes >> 20) +
                           " MiB, the limit for a file that cannot be "
                           "mapped");
    text.buffer_.append(chunk, got);
  }
  if (in.bad())
    throw contract_error(std::string(what) + ": cannot read " + path);
  return text;
}

// ---------------------------------------------------------------------------
// LineParser
// ---------------------------------------------------------------------------

LineParser::LineParser(std::istream& in, std::string context,
                       std::string comment_prefixes)
    : in_(&in),
      context_(std::move(context)),
      comment_prefixes_(std::move(comment_prefixes)) {}

LineParser::LineParser(std::string_view text, std::string context,
                       std::string comment_prefixes)
    : buffer_(text),
      context_(std::move(context)),
      comment_prefixes_(std::move(comment_prefixes)) {}

bool LineParser::next_raw_line(std::string_view& out) {
  if (in_ != nullptr) {
    if (!std::getline(*in_, line_buf_)) return false;
    out = line_buf_;
    return true;
  }
  // Memory source: split on '\n' with getline semantics -- the terminator
  // is consumed, a final line without one still counts, '\r' stays in the
  // line (both paths strip it as whitespace during tokenization).
  if (buffer_pos_ >= buffer_.size()) return false;
  const std::size_t nl = buffer_.find('\n', buffer_pos_);
  if (nl == std::string_view::npos) {
    out = buffer_.substr(buffer_pos_);
    buffer_pos_ = buffer_.size();
  } else {
    out = buffer_.substr(buffer_pos_, nl - buffer_pos_);
    buffer_pos_ = nl + 1;
  }
  return true;
}

namespace {

/// std::isspace in the "C" locale (space, \t \n \v \f \r), which is the
/// only locale the program runs in -- without the locale lookup per byte.
constexpr bool is_space(char c) noexcept {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

/// A token of 1..max_digits decimal digits after an optional '-' (when
/// `allow_minus`), or nullopt for anything else.  Below 10^15 (number) or
/// 10^18 (index) the value is exact as a double or std::size_t, so it
/// equals what strtod/strtoull return for the same token.
std::optional<std::uint64_t> plain_integer(std::string_view text,
                                           std::size_t max_digits,
                                           bool allow_minus) {
  if (allow_minus && !text.empty() && text.front() == '-')
    text.remove_prefix(1);
  if (text.empty() || text.size() > max_digits) return std::nullopt;
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return value;
}

}  // namespace

bool LineParser::next() {
  std::string_view line;
  while (next_raw_line(line)) {
    ++line_number_;
    std::size_t start = 0;
    while (start < line.size() && is_space(line[start])) ++start;
    if (start == line.size()) continue;  // blank
    if (comment_prefixes_.find(line[start]) != std::string::npos) continue;
    fields_.clear();
    std::size_t pos = start;
    while (pos < line.size()) {
      while (pos < line.size() && is_space(line[pos])) ++pos;
      if (pos == line.size()) break;
      const std::size_t begin = pos;
      while (pos < line.size() && !is_space(line[pos])) ++pos;
      fields_.push_back(line.substr(begin, pos - begin));
    }
    return true;
  }
  return false;
}

std::string_view LineParser::field(std::size_t i) const {
  FECIM_EXPECTS(i < fields_.size());
  return fields_[i];
}

double LineParser::number(std::size_t i) const {
  const std::string_view token = field(i);
  // Plain integers (Gset vertex ids and unit weights) convert directly.
  if (const auto digits = plain_integer(token, 15, true)) {
    const double magnitude = static_cast<double>(*digits);
    return token.front() == '-' ? -magnitude : magnitude;
  }
  // strtod needs a NUL-terminated token; the copy is SSO-small for any
  // realistic numeral and keeps the historical grammar (leading '+', hex
  // floats, inf/nan rejected below via isfinite) bit-exact on both sources.
  const std::string text(token);
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || end == text.c_str() ||
      errno == ERANGE || !std::isfinite(value))
    fail("'" + text + "' is not a finite number");
  return value;
}

std::size_t LineParser::index(std::size_t i) const {
  const std::string_view token = field(i);
  if (const auto digits = plain_integer(token, 18, false))
    return static_cast<std::size_t>(*digits);
  const std::string text(token);
  if (text.empty() || text[0] == '-' || text[0] == '+')
    fail("'" + text + "' is not a non-negative integer");
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (end != text.c_str() + text.size() || end == text.c_str() ||
      errno == ERANGE)
    fail("'" + text + "' is not a non-negative integer");
  return static_cast<std::size_t>(value);
}

void LineParser::require_fields(std::size_t lo, std::size_t hi) const {
  if (fields_.size() < lo || fields_.size() > hi) {
    if (lo == hi)
      fail("expected " + std::to_string(lo) + " fields, got " +
           std::to_string(fields_.size()));
    fail("expected " + std::to_string(lo) + ".." + std::to_string(hi) +
         " fields, got " + std::to_string(fields_.size()));
  }
}

void LineParser::fail(const std::string& message) const {
  throw contract_error(context_ + ":" + std::to_string(line_number_) + ": " +
                       message);
}

void LineParser::fail_truncated(const std::string& expected) const {
  throw contract_error(context_ + ": unexpected end of input (expected " +
                       expected + ")");
}

}  // namespace io

// ---------------------------------------------------------------------------
// DIMACS coloring (.col)
// ---------------------------------------------------------------------------

Graph read_dimacs_coloring(std::string_view text, const std::string& context) {
  // DIMACS comments are "c ..." lines; tolerate '#'/'%' too so the shared
  // fixture conventions work across every format.
  io::LineParser parser(text, context, "c#%");
  if (!parser.next())
    throw contract_error(context + ": empty input (expected 'p edge <n> <m>')");
  if (parser.field(0) != "p" || parser.fields() < 4 ||
      parser.field(1) != "edge")
    parser.fail("expected problem line 'p edge <n> <m>'");
  const std::size_t n = parser.index(2);
  const std::size_t m = parser.index(3);
  if (n == 0) parser.fail("graph must have at least one vertex");

  Graph graph(n);
  std::size_t edges_seen = 0;
  while (parser.next()) {
    if (parser.field(0) != "e")
      parser.fail("expected edge line 'e <u> <v>', got '" +
                  std::string(parser.field(0)) + "'");
    parser.require_fields(3, 3);
    const std::size_t u = parser.index(1);
    const std::size_t v = parser.index(2);
    if (u < 1 || u > n || v < 1 || v > n)
      parser.fail("vertex index out of range [1, " + std::to_string(n) + "]");
    if (u == v) parser.fail("self-loop on vertex " + std::to_string(u));
    ++edges_seen;
    // DIMACS files routinely list both directions; dedupe (O(1) via the
    // graph's edge index) instead of accumulating a meaningless weight.
    if (!graph.has_edge(static_cast<std::uint32_t>(u - 1),
                        static_cast<std::uint32_t>(v - 1)))
      graph.add_edge(static_cast<std::uint32_t>(u - 1),
                     static_cast<std::uint32_t>(v - 1), 1.0);
  }
  if (edges_seen < m)
    parser.fail_truncated(std::to_string(m) + " edges, got " +
                          std::to_string(edges_seen));
  return graph;
}

Graph read_dimacs_coloring_file(const std::string& path) {
  return read_dimacs_coloring(io::read_file(path, "dimacs").view(), path);
}

// ---------------------------------------------------------------------------
// Knapsack
// ---------------------------------------------------------------------------

KnapsackInstance read_knapsack(std::string_view text,
                               const std::string& context) {
  io::LineParser parser(text, context);
  if (!parser.next())
    throw contract_error(context +
                         ": empty input (expected '<num_items> <capacity>')");
  parser.require_fields(2, 2);
  const std::size_t items = parser.index(0);
  const double capacity = parser.number(1);
  if (items == 0) parser.fail("instance must have at least one item");
  if (capacity <= 0.0) parser.fail("capacity must be positive");

  // The item list grows with the lines actually read: `items` is an
  // unverified header count, and a short file declaring a huge one must end
  // in its truncation diagnostic, not in an allocation of the declared size.
  KnapsackInstance instance;
  instance.capacity = capacity;
  for (std::size_t i = 0; i < items; ++i) {
    if (!parser.next())
      parser.fail_truncated(std::to_string(items) + " item lines, got " +
                            std::to_string(i));
    parser.require_fields(2, 2);
    const double value = parser.number(0);
    const double weight = parser.number(1);
    if (value < 0.0) parser.fail("item value must be non-negative");
    if (weight <= 0.0) parser.fail("item weight must be positive");
    instance.items.push_back({value, weight});
  }
  if (parser.next())
    parser.fail("trailing content after " + std::to_string(items) +
                " item lines");
  return instance;
}

KnapsackInstance read_knapsack_file(const std::string& path) {
  return read_knapsack(io::read_file(path, "knapsack").view(), path);
}

void write_knapsack(const KnapsackInstance& instance, std::ostream& out) {
  const auto previous = out.precision(
      std::numeric_limits<double>::max_digits10);
  out << instance.items.size() << ' ' << instance.capacity << '\n';
  for (const auto& item : instance.items)
    out << item.value << ' ' << item.weight << '\n';
  out.precision(previous);
}

// ---------------------------------------------------------------------------
// Number partitioning
// ---------------------------------------------------------------------------

std::vector<double> read_partition(std::string_view text,
                                   const std::string& context) {
  io::LineParser parser(text, context);
  std::vector<double> numbers;
  while (parser.next()) {
    for (std::size_t i = 0; i < parser.fields(); ++i) {
      const double value = parser.number(i);
      if (value <= 0.0) parser.fail("numbers must be positive");
      numbers.push_back(value);
    }
  }
  if (numbers.size() < 2)
    throw contract_error(context + ": need at least 2 numbers, got " +
                         std::to_string(numbers.size()));
  return numbers;
}

std::vector<double> read_partition_file(const std::string& path) {
  return read_partition(io::read_file(path, "partition").view(), path);
}

// ---------------------------------------------------------------------------
// TSP coordinate list
// ---------------------------------------------------------------------------

TspInstance read_tsp_coords(std::string_view text,
                            const std::string& context) {
  io::LineParser parser(text, context);
  if (!parser.next())
    throw contract_error(context + ": empty input (expected '<num_cities>')");
  parser.require_fields(1, 1);
  const std::size_t cities = parser.index(0);
  if (cities < 3) parser.fail("need at least 3 cities");

  // Grows with the lines read, never from the header (see knapsack).
  std::vector<std::pair<double, double>> points;
  for (std::size_t i = 0; i < cities; ++i) {
    if (!parser.next())
      parser.fail_truncated(std::to_string(cities) + " coordinate lines, got " +
                            std::to_string(i));
    parser.require_fields(2, 2);
    points.emplace_back(parser.number(0), parser.number(1));
  }
  if (parser.next())
    parser.fail("trailing content after " + std::to_string(cities) +
                " coordinate lines");

  TspInstance instance;
  instance.distances.assign(cities, std::vector<double>(cities, 0.0));
  for (std::size_t u = 0; u < cities; ++u)
    for (std::size_t v = u + 1; v < cities; ++v) {
      const double dx = points[u].first - points[v].first;
      const double dy = points[u].second - points[v].second;
      const double d = std::sqrt(dx * dx + dy * dy);
      instance.distances[u][v] = d;
      instance.distances[v][u] = d;
    }
  return instance;
}

TspInstance read_tsp_coords_file(const std::string& path) {
  return read_tsp_coords(io::read_file(path, "tsp").view(), path);
}

// ---------------------------------------------------------------------------
// TSPLIB (EUC_2D subset)
// ---------------------------------------------------------------------------

namespace {

std::string trim_copy(const std::string& text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(text[begin])))
    ++begin;
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1])))
    --end;
  return text.substr(begin, end - begin);
}

/// Split a TSPLIB specification line into (key, value).  The format allows
/// "KEY : value", "KEY: value" and "KEY:value"; section markers like
/// NODE_COORD_SECTION and EOF carry no colon and no value.
void split_spec_line(const io::LineParser& parser, std::string& key,
                     std::string& value) {
  std::string line(parser.field(0));
  for (std::size_t i = 1; i < parser.fields(); ++i) {
    line += ' ';
    line += parser.field(i);
  }
  const auto colon = line.find(':');
  if (colon == std::string::npos) {
    key = std::string(parser.field(0));
    value = trim_copy(line.substr(key.size()));
  } else {
    key = trim_copy(line.substr(0, colon));
    value = trim_copy(line.substr(colon + 1));
  }
}

}  // namespace

TspInstance read_tsplib(std::string_view text, const std::string& context) {
  io::LineParser parser(text, context);

  std::size_t dimension = 0;
  bool have_dimension = false;
  bool have_weight_type = false;
  for (;;) {
    if (!parser.next())
      parser.fail_truncated("NODE_COORD_SECTION");
    std::string key;
    std::string value;
    split_spec_line(parser, key, value);
    if (key == "NODE_COORD_SECTION") break;
    if (key == "EOF")
      parser.fail("EOF before NODE_COORD_SECTION");
    if (key == "DIMENSION") {
      // Match io::LineParser::index(): reject a leading sign explicitly --
      // strtoull legally wraps "-4" to a huge value with no ERANGE, which
      // would turn a malformed header into an allocation failure instead
      // of a line-numbered diagnostic.
      errno = 0;
      char* end = nullptr;
      const unsigned long long parsed =
          (!value.empty() && value[0] != '-' && value[0] != '+')
              ? std::strtoull(value.c_str(), &end, 10)
              : 0;
      if (end == nullptr || end != value.c_str() + value.size() ||
          end == value.c_str() || errno == ERANGE)
        parser.fail("DIMENSION '" + value +
                    "' is not a non-negative integer");
      dimension = static_cast<std::size_t>(parsed);
      have_dimension = true;
    } else if (key == "EDGE_WEIGHT_TYPE") {
      if (value != "EUC_2D")
        parser.fail("unsupported EDGE_WEIGHT_TYPE '" + value +
                    "' (only EUC_2D is supported)");
      have_weight_type = true;
    } else if (key == "TYPE") {
      if (value != "TSP")
        parser.fail("unsupported TYPE '" + value + "' (only TSP)");
    }
    // NAME, COMMENT and any other specification keys are irrelevant to the
    // distance matrix; skip them so real TSPLIB files load unmodified.
  }
  if (!have_dimension)
    parser.fail("NODE_COORD_SECTION before DIMENSION");
  if (!have_weight_type)
    parser.fail("NODE_COORD_SECTION before EDGE_WEIGHT_TYPE (EUC_2D)");
  if (dimension < 3) parser.fail("need at least 3 cities");

  // Keyed by id as the lines arrive, never sized from DIMENSION (an
  // unverified header count; see knapsack): ids may come in any order, and
  // a duplicate must fail on its own line.
  std::unordered_map<std::size_t, std::pair<double, double>> by_id;
  for (std::size_t i = 0; i < dimension; ++i) {
    if (!parser.next())
      parser.fail_truncated(std::to_string(dimension) +
                            " node coordinate lines, got " +
                            std::to_string(i));
    parser.require_fields(3, 3);
    const std::size_t id = parser.index(0);
    if (id < 1 || id > dimension)
      parser.fail("node id " + std::to_string(id) + " outside 1.." +
                  std::to_string(dimension));
    const auto [slot, inserted] = by_id.try_emplace(id);
    if (!inserted) parser.fail("duplicate node id " + std::to_string(id));
    slot->second = {parser.number(1), parser.number(2)};
  }
  if (parser.next()) {
    std::string key;
    std::string value;
    split_spec_line(parser, key, value);
    if (key != "EOF" || parser.next())
      parser.fail("trailing content after NODE_COORD_SECTION");
  }

  // DIMENSION distinct ids in 1..DIMENSION: every id is present.
  std::vector<std::pair<double, double>> points(dimension);
  for (const auto& [id, point] : by_id) points[id - 1] = point;

  TspInstance instance;
  instance.distances.assign(dimension, std::vector<double>(dimension, 0.0));
  for (std::size_t u = 0; u < dimension; ++u)
    for (std::size_t v = u + 1; v < dimension; ++v) {
      const double dx = points[u].first - points[v].first;
      const double dy = points[u].second - points[v].second;
      // TSPLIB EUC_2D: nint(sqrt(dx^2 + dy^2)).  The rounding is part of
      // the format -- published optimal tour lengths assume it.
      const double d = std::floor(std::sqrt(dx * dx + dy * dy) + 0.5);
      instance.distances[u][v] = d;
      instance.distances[v][u] = d;
    }
  return instance;
}

TspInstance read_tsplib_file(const std::string& path) {
  return read_tsplib(io::read_file(path, "tsplib").view(), path);
}

namespace {

/// First significant token decides the format: TSPLIB specification
/// keywords parse as TSPLIB, anything else as the coordinate list.
bool sniff_tsplib_head(std::string_view head) {
  if (const auto colon = head.find(':'); colon != std::string_view::npos)
    head = head.substr(0, colon);
  return head == "NAME" || head == "TYPE" || head == "COMMENT" ||
         head == "DIMENSION" || head == "EDGE_WEIGHT_TYPE" ||
         head == "NODE_COORD_SECTION";
}

TspInstance read_tsp_any(std::string_view text, const std::string& context) {
  // Sniffing re-reads the same view -- no copy at all.
  bool tsplib = false;
  {
    io::LineParser sniff(text, context);
    if (sniff.next()) tsplib = sniff_tsplib_head(sniff.field(0));
  }
  return tsplib ? read_tsplib(text, context) : read_tsp_coords(text, context);
}

}  // namespace

TspInstance read_tsp_file(const std::string& path) {
  return read_tsp_any(io::read_file(path, "tsp").view(), path);
}

}  // namespace fecim::problems
