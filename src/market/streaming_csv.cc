#include "market/streaming_csv.h"

#include <algorithm>
#include <memory>
#include <string_view>
#include <utility>

#include "common/check.h"
#include "obs/telemetry.h"

namespace cit::market {

using csv_internal::CsvSummary;
using csv_internal::IsDataRow;
using csv_internal::OpenForRead;
using csv_internal::ParseRow;
using csv_internal::PreadFull;
using csv_internal::ScanCsv;
using csv_internal::Splitter;
using csv_internal::StripTrailingCr;

StreamingCsvSource::StreamingCsvSource(std::string path,
                                       StreamingCsvOptions options)
    : path_(std::move(path)), options_(options), file_(OpenForRead(path_)) {}

StreamingCsvSource::~StreamingCsvSource() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (worker_.joinable()) worker_.join();
}

Result<std::unique_ptr<StreamingCsvSource>> StreamingCsvSource::Open(
    const std::string& path, StreamingCsvOptions options) {
  if (options.chunk_days < 1) {
    return Status::InvalidArgument("chunk_days must be >= 1");
  }
  if (options.max_resident_chunks < 1) {
    return Status::InvalidArgument("max_resident_chunks must be >= 1");
  }
  std::unique_ptr<StreamingCsvSource> source(
      new StreamingCsvSource(path, options));
  const Status indexed = source->IndexFile();
  if (!indexed.ok()) return indexed;
  if (options.prefetch) {
    source->worker_ = std::thread([raw = source.get()] { raw->WorkerLoop(); });
  }
  return source;
}

Status StreamingCsvSource::IndexFile() {
  if (!file_.valid()) {
    return Status::IoError("cannot open for reading: " + path_);
  }
  // Validate every data row now — FetchChunk has no error channel, so a
  // malformed cell must be rejected here, with the file context in hand,
  // not mid-backtest. Memory stays O(1): the scan holds one block and one
  // row; only the byte offset of each chunk's first row is kept.
  CsvSummary summary;
  int64_t data_end = 0;
  const Status scanned = ScanCsv(
      file_.get(), path_, &summary,
      [&](const double* /*prices*/, int64_t row_offset, int64_t next_offset) {
        if (summary.num_days % options_.chunk_days == 0) {
          chunk_offsets_.push_back(row_offset);
        }
        data_end = next_offset;
      });
  if (!scanned.ok()) return scanned;
  chunk_offsets_.push_back(data_end);

  meta_.num_days = summary.num_days;
  meta_.num_assets = static_cast<int64_t>(summary.asset_names.size());
  meta_.train_end = summary.train_end;
  meta_.name = path_;
  meta_.asset_names = std::move(summary.asset_names);
  return Status::OK();
}

std::shared_ptr<const PanelChunk> StreamingCsvSource::LoadChunk(
    int64_t index) const {
  CIT_OBS_SPAN("source.load_us");
  CIT_CHECK(index >= 0 &&
            index + 1 < static_cast<int64_t>(chunk_offsets_.size()));
  const int64_t start_day = index * options_.chunk_days;
  const int64_t days =
      std::min(options_.chunk_days, meta_.num_days - start_day);
  const int64_t m = meta_.num_assets;

  auto chunk = std::make_shared<PanelChunk>();
  chunk->start_day = start_day;
  chunk->num_days = days;
  chunk->num_assets = m;
  chunk->owned.resize(static_cast<size_t>(days * m));

  const int64_t begin = chunk_offsets_[index];
  const size_t len = static_cast<size_t>(chunk_offsets_[index + 1] - begin);
  const auto bytes = std::make_unique_for_overwrite<char[]>(len);
  CIT_CHECK_MSG(PreadFull(file_.get(), bytes.get(), len, begin) ==
                    static_cast<int64_t>(len),
                "CSV changed after Open (short read)");
  Splitter lines(std::string_view(bytes.get(), len), '\n');
  std::string_view line;
  int64_t row = 0;
  while (lines.Next(&line)) {
    line = StripTrailingCr(line);
    if (!IsDataRow(line)) continue;
    CIT_CHECK_LT(row, days);
    // Rows were validated at Open; a failure here means the file changed
    // underneath us.
    CIT_CHECK_MSG(
        ParseRow(line, static_cast<size_t>(m), path_, &chunk->owned[row * m])
            .ok(),
        "CSV changed after Open (malformed row)");
    ++row;
  }
  CIT_CHECK_EQ(row, days);
  chunk->data = chunk->owned.data();
  return chunk;
}

void StreamingCsvSource::TouchLocked(int64_t index) {
  auto pos = lru_pos_.find(index);
  if (pos != lru_pos_.end()) lru_.erase(pos->second);
  lru_.push_front(index);
  lru_pos_[index] = lru_.begin();
}

std::shared_ptr<const PanelChunk> StreamingCsvSource::Insert(
    int64_t index, std::shared_ptr<const PanelChunk> chunk) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = resident_.find(index);
  if (it != resident_.end()) {
    // Raced with the prefetch worker; keep the incumbent (identical data).
    TouchLocked(index);
    return it->second;
  }
  resident_bytes_ += chunk->OwnedBytes();
  peak_resident_bytes_ = std::max(peak_resident_bytes_, resident_bytes_);
  ++chunk_loads_;
  CIT_OBS_COUNT("source.chunk_loads", 1);
  resident_[index] = chunk;
  TouchLocked(index);
  while (static_cast<int64_t>(resident_.size()) >
         options_.max_resident_chunks) {
    const int64_t victim = lru_.back();
    lru_.pop_back();
    lru_pos_.erase(victim);
    auto vit = resident_.find(victim);
    resident_bytes_ -= vit->second->OwnedBytes();
    resident_.erase(vit);
  }
  return chunk;
}

std::shared_ptr<const PanelChunk> StreamingCsvSource::FetchChunk(
    int64_t index) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = resident_.find(index);
    if (it != resident_.end()) {
      ++chunk_hits_;
      CIT_OBS_COUNT("source.chunk_hits", 1);
      TouchLocked(index);
      return it->second;
    }
  }
  // Parse outside the lock so concurrent consumers and the prefetch
  // worker never serialize on file I/O. A duplicate concurrent load of
  // the same chunk is benign: both parse identical bytes and Insert
  // keeps the first.
  return Insert(index, LoadChunk(index));
}

void StreamingCsvSource::Prefetch(int64_t first_day, int64_t last_day) {
  if (!options_.prefetch) return;
  first_day = std::max<int64_t>(0, first_day);
  last_day = std::min(last_day, meta_.num_days - 1);
  if (first_day > last_day) return;
  const int64_t first_chunk = first_day / options_.chunk_days;
  const int64_t last_chunk = last_day / options_.chunk_days;
  bool notify = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (int64_t c = first_chunk; c <= last_chunk; ++c) {
      if (resident_.count(c) != 0) continue;
      if (std::find(prefetch_queue_.begin(), prefetch_queue_.end(), c) !=
          prefetch_queue_.end()) {
        continue;
      }
      prefetch_queue_.push_back(c);
      notify = true;
    }
  }
  if (notify) cv_.notify_one();
}

void StreamingCsvSource::WorkerLoop() {
  for (;;) {
    int64_t index = -1;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !prefetch_queue_.empty(); });
      if (stop_) return;
      index = prefetch_queue_.front();
      prefetch_queue_.pop_front();
      if (resident_.count(index) != 0) continue;
    }
    Insert(index, LoadChunk(index));
  }
}

int64_t StreamingCsvSource::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return resident_bytes_;
}

int64_t StreamingCsvSource::peak_resident_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peak_resident_bytes_;
}

int64_t StreamingCsvSource::budget_bytes() const {
  return options_.max_resident_chunks * options_.chunk_days *
         meta_.num_assets * static_cast<int64_t>(sizeof(double));
}

int64_t StreamingCsvSource::chunk_loads() const {
  std::lock_guard<std::mutex> lock(mu_);
  return chunk_loads_;
}

int64_t StreamingCsvSource::chunk_hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return chunk_hits_;
}

}  // namespace cit::market
