#include "market/csv_parse.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace cit::market::csv_internal {

ScopedFd::~ScopedFd() {
  if (fd_ >= 0) ::close(fd_);
}

ScopedFd OpenForRead(const std::string& path) {
  return ScopedFd(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
}

int64_t PreadFull(int fd, char* buf, size_t len, int64_t offset) {
  size_t done = 0;
  while (done < len) {
    const ssize_t n = ::pread(fd, buf + done, len - done,
                              static_cast<off_t>(offset) +
                                  static_cast<off_t>(done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    if (n == 0) break;  // end of file
    done += static_cast<size_t>(n);
  }
  return static_cast<int64_t>(done);
}

namespace {

constexpr size_t kBlockBytes = size_t{64} << 10;

// Yields the lines of an open file front to back with Splitter semantics
// and the trailing '\r' stripped, reading kBlockBytes at a time.
class BlockLineReader {
 public:
  explicit BlockLineReader(int fd) : fd_(fd), buf_(kBlockBytes) {}

  // The view stays valid until the next call. False at end of file or on a
  // read error (see failed()).
  bool Next(std::string_view* line) {
    for (;;) {
      const char* data = buf_.data();
      const void* newline = std::memchr(data + begin_, '\n', end_ - begin_);
      if (newline != nullptr || (eof_ && begin_ < end_)) {
        const size_t stop =
            newline != nullptr
                ? static_cast<size_t>(static_cast<const char*>(newline) - data)
                : end_;
        line_offset_ = base_ + static_cast<int64_t>(begin_);
        *line =
            StripTrailingCr(std::string_view(data + begin_, stop - begin_));
        begin_ = newline != nullptr ? stop + 1 : end_;
        return true;
      }
      if (eof_ || failed_) return false;
      // Keep the partial line, moved to the front; grow only when it
      // already fills the whole buffer.
      std::memmove(buf_.data(), data + begin_, end_ - begin_);
      base_ += static_cast<int64_t>(begin_);
      end_ -= begin_;
      begin_ = 0;
      if (end_ == buf_.size()) buf_.resize(2 * buf_.size());
      const size_t want = buf_.size() - end_;
      const int64_t got = PreadFull(fd_, buf_.data() + end_, want,
                                    base_ + static_cast<int64_t>(end_));
      if (got < 0) {
        failed_ = true;
        return false;
      }
      eof_ = static_cast<size_t>(got) < want;
      end_ += static_cast<size_t>(got);
    }
  }

  bool failed() const { return failed_; }
  // File offsets of the last line returned: its first byte, and the byte
  // after its '\n' (or the end of the file for an unterminated last line).
  int64_t line_offset() const { return line_offset_; }
  int64_t next_offset() const { return base_ + static_cast<int64_t>(begin_); }

 private:
  int fd_;
  std::vector<char> buf_;
  int64_t base_ = 0;  // file offset of buf_[0]
  size_t begin_ = 0;  // unread bytes are [begin_, end_)
  size_t end_ = 0;
  bool eof_ = false;
  bool failed_ = false;
  int64_t line_offset_ = 0;
};

// Full-string integer parse; atoll's silent 0-on-garbage is exactly the
// bug this replaces.
bool ParseInt64(std::string_view text, int64_t* out) {
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

}  // namespace

Status ScanCsv(int fd, const std::string& path, CsvSummary* summary,
               const CsvRowFn& on_row) {
  BlockLineReader reader(fd);
  constexpr std::string_view kTrainEnd = "#train_end=";
  bool saw_train_end = false;
  std::string_view line;
  bool found = false;
  // Optional comment lines before the header.
  while (reader.Next(&line)) {
    if (line.empty()) continue;
    if (line[0] != '#') {
      found = true;  // `line` now holds the header
      break;
    }
    if (line.substr(0, kTrainEnd.size()) == kTrainEnd) {
      if (!ParseInt64(line.substr(kTrainEnd.size()), &summary->train_end)) {
        return Status::InvalidArgument("malformed #train_end header: '" +
                                       std::string(line) + "'");
      }
      saw_train_end = true;
    }
  }
  if (reader.failed()) return Status::IoError("read failed: " + path);
  if (!found) return Status::InvalidArgument("empty CSV: " + path);

  Splitter cells(line, ',');
  std::string_view cell;
  (void)cells.Next(&cell);  // the day column
  while (cells.Next(&cell)) {
    cell = StripTrailingCr(cell);
    if (cell.empty()) {
      return Status::InvalidArgument("empty asset name in CSV header: " +
                                     path);
    }
    summary->asset_names.emplace_back(cell);
  }
  if (summary->asset_names.empty()) {
    return Status::InvalidArgument("CSV has no asset columns: " + path);
  }

  std::vector<double> row(summary->asset_names.size());
  while (reader.Next(&line)) {
    if (!IsDataRow(line)) continue;
    const Status parsed = ParseRow(line, row.size(), path, row.data());
    if (!parsed.ok()) return parsed;
    on_row(row.data(), reader.line_offset(), reader.next_offset());
    ++summary->num_days;
  }
  if (reader.failed()) return Status::IoError("read failed: " + path);
  if (summary->num_days == 0) {
    return Status::InvalidArgument("CSV has no data rows");
  }
  // A split outside the panel makes every train/test-range consumer
  // misbehave later (empty test split, CHECK failures deep in training);
  // reject it here with the file context still in hand.
  if (saw_train_end &&
      (summary->train_end < 0 || summary->train_end > summary->num_days)) {
    return Status::InvalidArgument(
        "#train_end=" + std::to_string(summary->train_end) + " outside [0, " +
        std::to_string(summary->num_days) + "] in " + path);
  }
  return Status::OK();
}

}  // namespace cit::market::csv_internal
