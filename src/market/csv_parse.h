#ifndef CIT_MARKET_CSV_PARSE_H_
#define CIT_MARKET_CSV_PARSE_H_

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

// The CSV data plane's one row/cell scanner and hardened cell parsing,
// shared by the load-everything LoadPanelCsv and the chunked
// StreamingCsvSource so both produce bit-identical doubles and identical
// verdicts from the same file (the streaming-equivalence gate depends on
// this). Everything scans views into a caller-owned buffer: no stream, no
// per-row or per-cell string.

namespace cit::market::csv_internal {

// Splits `text` on `delim` exactly like repeated
// std::getline(stream, piece, delim): empty text yields no piece, a
// trailing delimiter ends the text without a final empty piece, and a last
// piece without a delimiter still counts. Lines split on '\n', cells on ','.
class Splitter {
 public:
  Splitter(std::string_view text, char delim) : text_(text), delim_(delim) {}

  bool Next(std::string_view* piece) {
    if (pos_ >= text_.size()) return false;
    const size_t end = text_.find(delim_, pos_);
    if (end == std::string_view::npos) {
      *piece = text_.substr(pos_);
      pos_ = text_.size();
    } else {
      *piece = text_.substr(pos_, end - pos_);
      pos_ = end + 1;
    }
    return true;
  }

 private:
  std::string_view text_;
  char delim_;
  size_t pos_ = 0;
};

// CRLF files reach the splitter with the '\r' still attached (only '\n'
// delimits a line); without this the last asset name and every row's last
// cell carry a carriage return that used to silently corrupt names and
// parses.
inline std::string_view StripTrailingCr(std::string_view line) {
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  return line;
}

// Blank lines and '#' comment lines between data rows are skipped.
inline bool IsDataRow(std::string_view line) {
  return !line.empty() && line[0] != '#';
}

// Full-cell price parse: rejects empty cells, partial parses ("12abc"),
// non-finite values (strtod happily produces NaN/Inf from "nan"/"inf",
// which the old `v <= 0` guard let through), and non-positive prices.
//
// std::from_chars takes the common case. It is locale-free and correctly
// rounded like strtod, but narrower: no leading whitespace, no '+', no hex
// floats, and range errors instead of a rounded 0 or inf. Whenever it
// errors or stops short of the cell's end, strtod decides, so the doubles
// and the accept/reject verdicts are exactly those of strtod alone.
inline Status ParsePriceCell(std::string_view cell, double* out) {
  if (cell.empty()) {
    return Status::InvalidArgument("empty price cell in CSV");
  }
  const char* last = cell.data() + cell.size();
  double v = 0.0;
  auto [ptr, ec] = std::from_chars(cell.data(), last, v);
  if (ec != std::errc() || ptr != last) {
    const std::string text(cell);  // strtod needs a terminator
    char* end = nullptr;
    v = std::strtod(text.c_str(), &end);
    if (end != text.c_str() + text.size()) {
      return Status::InvalidArgument("non-numeric price cell: '" + text +
                                     "'");
    }
  }
  if (!std::isfinite(v)) {
    return Status::InvalidArgument("non-finite price in CSV: '" +
                                   std::string(cell) + "'");
  }
  if (v <= 0.0) {
    return Status::InvalidArgument("non-positive price in CSV: '" +
                                   std::string(cell) + "'");
  }
  *out = v;
  return Status::OK();
}

// Parses one data row (day key, then one price per asset) into
// out[0, num_assets). The day column is not parsed. A row with any other
// number of prices is rejected after its cells are checked, so the first
// bad cell is the one reported.
inline Status ParseRow(std::string_view row, size_t num_assets,
                       const std::string& path, double* out) {
  Splitter cells(row, ',');
  std::string_view cell;
  (void)cells.Next(&cell);  // the day column
  size_t count = 0;
  while (cells.Next(&cell)) {
    double v = 0.0;
    const Status parsed = ParsePriceCell(cell, &v);
    if (!parsed.ok()) return parsed;
    if (count < num_assets) out[count] = v;
    ++count;
  }
  if (count != num_assets) {
    return Status::InvalidArgument(
        "ragged CSV row in " + path + ": expected " +
        std::to_string(num_assets) + " prices, got " + std::to_string(count));
  }
  return Status::OK();
}

// Owns a file descriptor; closes it on destruction.
class ScopedFd {
 public:
  explicit ScopedFd(int fd) : fd_(fd) {}
  ScopedFd(const ScopedFd&) = delete;
  ScopedFd& operator=(const ScopedFd&) = delete;
  ~ScopedFd();

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }

 private:
  int fd_;
};

// Opens `path` read-only; invalid on failure.
ScopedFd OpenForRead(const std::string& path);

// Reads `len` bytes at `offset`, retrying short reads and EINTR. Returns
// the bytes read (fewer than `len` only at end of file) or -1 on error.
int64_t PreadFull(int fd, char* buf, size_t len, int64_t offset);

// What a validated file holds besides its prices.
struct CsvSummary {
  std::vector<std::string> asset_names;
  int64_t train_end = 0;
  int64_t num_days = 0;
};

// Called once per data row, in file order, with the row's prices and the
// file offsets of its first byte and of the byte after its line ending.
using CsvRowFn = std::function<void(const double* prices, int64_t row_offset,
                                    int64_t next_offset)>;

// Validates the open file `fd` front to back in fixed-size blocks: optional
// '#' comment lines (one may carry "#train_end=<N>") and blank lines, the
// "day,<asset>,..." header, then the data rows, with blank and '#' lines
// between them skipped. Returns the first error in file order; `path`
// names the file in messages. Memory is one block, or the longest line if
// that is longer, whatever the file's length.
Status ScanCsv(int fd, const std::string& path, CsvSummary* summary,
               const CsvRowFn& on_row);

}  // namespace cit::market::csv_internal

#endif  // CIT_MARKET_CSV_PARSE_H_
