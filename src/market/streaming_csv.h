#ifndef CIT_MARKET_STREAMING_CSV_H_
#define CIT_MARKET_STREAMING_CSV_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "market/csv_parse.h"
#include "market/source.h"

namespace cit::market {

struct StreamingCsvOptions {
  // Days per chunk; the resident-memory granule.
  int64_t chunk_days = 256;
  // LRU budget: at most this many chunks stay resident in the source. A
  // PanelView additionally pins up to its small MRU ring per view, so the
  // hard bound on live chunk memory is
  //   (max_resident_chunks + ring_size * num_views) * chunk_bytes.
  int64_t max_resident_chunks = 4;
  // Run a background worker that loads read-ahead hints off the consumer
  // thread. Purely a latency optimization; data is identical either way.
  bool prefetch = true;
};

// Chunked CSV ingest: the file is indexed and fully validated once at
// Open (O(1) memory), then chunks of `chunk_days` rows are read with one
// pread each and parsed in place by the same row scanner as LoadPanelCsv
// — so a backtest through a StreamingCsvSource is bitwise identical to one
// through LoadPanelCsv + InMemorySource, while resident chunk memory
// stays under the configured budget regardless of panel length.
class StreamingCsvSource : public PanelSource {
 public:
  static Result<std::unique_ptr<StreamingCsvSource>> Open(
      const std::string& path, StreamingCsvOptions options = {});
  ~StreamingCsvSource() override;

  const PanelMeta& meta() const override { return meta_; }
  int64_t chunk_days() const override { return options_.chunk_days; }
  std::shared_ptr<const PanelChunk> FetchChunk(int64_t index) override;
  void Prefetch(int64_t first_day, int64_t last_day) override;

  // Telemetry for tests and the ingest bench. Loads, hits and load time
  // also reach the obs registry (source.chunk_loads, source.chunk_hits,
  // source.load_us) while telemetry is enabled.
  int64_t resident_bytes() const;
  int64_t peak_resident_bytes() const;
  int64_t budget_bytes() const;
  int64_t chunk_loads() const;
  int64_t chunk_hits() const;

 private:
  StreamingCsvSource(std::string path, StreamingCsvOptions options);

  // One validating pass over file_ in fixed-size blocks: fills meta_,
  // counts days, records the byte offset of each chunk's first data row
  // and the end of the last one.
  Status IndexFile();
  // Reads chunk `index`'s byte range with one pread and parses it in
  // place. Thread-safe (pread moves no shared file cursor); touches no
  // shared state.
  std::shared_ptr<const PanelChunk> LoadChunk(int64_t index) const;
  // Inserts under the lock, touching LRU and evicting past the budget.
  std::shared_ptr<const PanelChunk> Insert(
      int64_t index, std::shared_ptr<const PanelChunk> chunk);
  void TouchLocked(int64_t index);
  void WorkerLoop();

  std::string path_;
  StreamingCsvOptions options_;
  PanelMeta meta_;
  csv_internal::ScopedFd file_;  // opened by the constructor, read by pread
  // Byte offset of each chunk's first data row, then one end sentinel:
  // chunk c is the byte range [chunk_offsets_[c], chunk_offsets_[c + 1]).
  std::vector<int64_t> chunk_offsets_;

  mutable std::mutex mu_;
  std::unordered_map<int64_t, std::shared_ptr<const PanelChunk>> resident_;
  std::list<int64_t> lru_;  // front = most recently used
  std::unordered_map<int64_t, std::list<int64_t>::iterator> lru_pos_;
  int64_t resident_bytes_ = 0;
  int64_t peak_resident_bytes_ = 0;
  int64_t chunk_loads_ = 0;
  int64_t chunk_hits_ = 0;

  std::condition_variable cv_;
  std::deque<int64_t> prefetch_queue_;
  bool stop_ = false;
  std::thread worker_;
};

}  // namespace cit::market

#endif  // CIT_MARKET_STREAMING_CSV_H_
