// Data-plane gates (DESIGN.md §11): every source implementation must be
// bitwise interchangeable with the in-memory panel path, for any chunk
// size, any access order, any prefetch setting, and any thread count.
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "env/backtest.h"
#include "market/csv.h"
#include "market/panel.h"
#include "market/sim_source.h"
#include "market/simulator.h"
#include "market/source.h"
#include "market/streaming_csv.h"
#include "obs/telemetry.h"
#include "olps/strategies.h"

namespace cit::market {
namespace {

MarketConfig SmallConfig(uint64_t seed = 21) {
  MarketConfig cfg;
  cfg.name = "source-test";
  cfg.num_assets = 5;
  cfg.train_days = 180;
  cfg.test_days = 70;
  cfg.seed = seed;
  return cfg;
}

std::string WriteTempCsv(const PricePanel& panel, const char* tag) {
  std::string path = ::testing::TempDir() + "cit_source_" + tag + ".csv";
  const Status s = SavePanelCsv(panel, path);
  EXPECT_TRUE(s.ok()) << s.message();
  return path;
}

// ---- PanelView over InMemorySource: the bitwise anchor ---------------------

TEST(Source, ViewReadsEqualPanelReadsExactly) {
  const PricePanel panel = SimulateMarket(SmallConfig());
  InMemorySource source(&panel);
  PanelView view(&source);
  EXPECT_EQ(view.num_days(), panel.num_days());
  EXPECT_EQ(view.num_assets(), panel.num_assets());
  EXPECT_EQ(view.train_end(), panel.train_end());
  EXPECT_EQ(view.name(), panel.name());
  for (int64_t t = 0; t < panel.num_days(); ++t) {
    for (int64_t i = 0; i < panel.num_assets(); ++i) {
      EXPECT_EQ(view.Close(t, i), panel.Close(t, i));
      if (t > 0) {
        EXPECT_EQ(view.PriceRelative(t, i), panel.PriceRelative(t, i));
      }
    }
  }
}

TEST(Source, SourceIdsAreDistinctAndNonZero) {
  const PricePanel panel = SimulateMarket(SmallConfig());
  InMemorySource a(&panel);
  InMemorySource b(&panel);
  EXPECT_NE(a.source_id(), 0u);
  EXPECT_NE(b.source_id(), 0u);
  EXPECT_NE(a.source_id(), b.source_id());
  // The implicit panel adapter allocates a fresh id per conversion.
  PanelView va(panel);
  PanelView vb(panel);
  EXPECT_NE(va.source_id(), vb.source_id());
}

TEST(Source, MaterializeRoundTripsThePanel) {
  const PricePanel panel = SimulateMarket(SmallConfig());
  InMemorySource source(&panel);
  const PricePanel copy = PanelView(&source).Materialize();
  ASSERT_EQ(copy.num_days(), panel.num_days());
  ASSERT_EQ(copy.num_assets(), panel.num_assets());
  EXPECT_EQ(copy.train_end(), panel.train_end());
  for (int64_t t = 0; t < panel.num_days(); ++t) {
    for (int64_t i = 0; i < panel.num_assets(); ++i) {
      EXPECT_EQ(copy.Close(t, i), panel.Close(t, i));
    }
  }
}

// The refactor's core gate: a backtest through InMemorySource is bitwise
// identical to the pre-data-plane panel path, at 1 and 4 threads.
TEST(Source, BacktestThroughViewBitwiseEqualsPanelPathAnyThreads) {
  const PricePanel panel = SimulateMarket(SmallConfig());
  for (int threads : {1, 4}) {
    ThreadPool::Global().SetNumThreads(threads);
    olps::Olmar direct_agent;
    const auto direct = env::RunTestBacktest(direct_agent, panel, 16);
    InMemorySource source(&panel);
    olps::Olmar view_agent;
    const auto viewed =
        env::RunTestBacktest(view_agent, PanelView(&source), 16);
    ASSERT_EQ(direct.wealth.size(), viewed.wealth.size());
    for (size_t i = 0; i < direct.wealth.size(); ++i) {
      EXPECT_EQ(direct.wealth[i], viewed.wealth[i]) << "step " << i;
    }
    EXPECT_EQ(direct.turnover, viewed.turnover);
  }
  ThreadPool::Global().SetNumThreads(1);
}

// ---- StreamingCsvSource ----------------------------------------------------

TEST(Source, StreamingCsvBitwiseEqualsInMemoryAcrossChunkSizes) {
  const PricePanel panel = SimulateMarket(SmallConfig(31));
  const std::string path = WriteTempCsv(panel, "chunks");
  // Chunk sizes: degenerate (1 day), prime (misaligned with everything),
  // and whole-panel; prefetch on and off. All must read back the exact
  // bytes LoadPanelCsv produces.
  auto loaded = LoadPanelCsv(path);
  ASSERT_TRUE(loaded.ok());
  const PricePanel reference = std::move(loaded).value();
  for (int64_t chunk_days : {int64_t{1}, int64_t{17}, panel.num_days()}) {
    for (bool prefetch : {false, true}) {
      StreamingCsvOptions options;
      options.chunk_days = chunk_days;
      options.max_resident_chunks = 3;
      options.prefetch = prefetch;
      auto opened = StreamingCsvSource::Open(path, options);
      ASSERT_TRUE(opened.ok()) << opened.status().message();
      auto source = std::move(opened).value();
      PanelView view(source.get());
      ASSERT_EQ(view.num_days(), reference.num_days());
      ASSERT_EQ(view.train_end(), reference.train_end());
      for (int64_t t = 0; t < reference.num_days(); ++t) {
        for (int64_t i = 0; i < reference.num_assets(); ++i) {
          ASSERT_EQ(view.Close(t, i), reference.Close(t, i))
              << "chunk_days=" << chunk_days << " prefetch=" << prefetch
              << " day=" << t << " asset=" << i;
        }
      }
    }
  }
}

TEST(Source, StreamingCsvBacktestBitwiseEqualsPanelUnderChunkBudget) {
  const PricePanel sim = SimulateMarket(SmallConfig(32));
  const std::string path = WriteTempCsv(sim, "backtest");
  // The gate is streaming ingest vs in-memory ingest of the same file
  // (SavePanelCsv rounds to 10 digits, so the simulated panel itself is
  // not the reference — the file is).
  auto loaded = LoadPanelCsv(path);
  ASSERT_TRUE(loaded.ok());
  const PricePanel panel = std::move(loaded).value();
  olps::Olmar direct_agent;
  const auto direct = env::RunTestBacktest(direct_agent, panel, 16);
  StreamingCsvOptions options;
  options.chunk_days = 32;
  options.max_resident_chunks = 2;  // far less than the panel
  auto opened = StreamingCsvSource::Open(path, options);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  auto source = std::move(opened).value();
  olps::Olmar streamed_agent;
  const auto streamed =
      env::RunTestBacktest(streamed_agent, PanelView(source.get()), 16);
  ASSERT_EQ(direct.wealth.size(), streamed.wealth.size());
  for (size_t i = 0; i < direct.wealth.size(); ++i) {
    EXPECT_EQ(direct.wealth[i], streamed.wealth[i]) << "step " << i;
  }
}

TEST(Source, StreamingCsvHonorsResidentBudget) {
  const PricePanel panel = SimulateMarket(SmallConfig(33));
  const std::string path = WriteTempCsv(panel, "budget");
  StreamingCsvOptions options;
  options.chunk_days = 16;
  options.max_resident_chunks = 2;
  options.prefetch = false;
  auto opened = StreamingCsvSource::Open(path, options);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  auto source = std::move(opened).value();
  // Sweep every chunk twice; the LRU must keep residency at the budget.
  for (int pass = 0; pass < 2; ++pass) {
    for (int64_t c = 0; c < source->num_chunks(); ++c) {
      (void)source->FetchChunk(c);
    }
  }
  EXPECT_LE(source->resident_bytes(), source->budget_bytes());
  // Transient overshoot is bounded by one in-flight chunk.
  const int64_t chunk_bytes =
      options.chunk_days * panel.num_assets() *
      static_cast<int64_t>(sizeof(double));
  EXPECT_LE(source->peak_resident_bytes(),
            source->budget_bytes() + chunk_bytes);
  EXPECT_GT(source->chunk_loads(), source->num_chunks());  // re-loads hit
}

TEST(Source, StreamingCsvOpenRejectsBadFiles) {
  const std::string path = ::testing::TempDir() + "cit_source_bad.csv";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("date,A,B\n2020-01-01,1.0,2.0\n2020-01-02,1.0,-3.0\n", f);
  std::fclose(f);
  auto opened = StreamingCsvSource::Open(path);
  EXPECT_FALSE(opened.ok());  // negative price must fail at Open
  auto missing = StreamingCsvSource::Open(path + ".nope");
  EXPECT_FALSE(missing.ok());
}

// Row-scanner pins: the line and cell splitting rules every loader shares
// (getline semantics — a trailing comma drops one empty field, CRLF loses
// one '\r', an unterminated last line still counts, blank and '#' rows are
// skipped wherever they fall, chunk boundaries included). LoadPanelCsv and
// StreamingCsvSource must reach the same verdict and the same bytes.
struct ScannerCase {
  const char* name;
  std::string body;
  bool ok;
  std::vector<std::string> asset_names;
  std::vector<std::vector<double>> closes;
  int64_t train_end = 0;
};

std::vector<ScannerCase> ScannerCases() {
  return {
      {"trailing_comma", "day,A,B,\n0,1,2,\n1,3,4,\n", true, {"A", "B"},
       {{1, 2}, {3, 4}}},
      {"two_trailing_commas", "day,A,B\n0,1,2,,\n", false, {}, {}},
      {"no_final_newline", "day,A,B\n0,1,2\n1,3,4", true, {"A", "B"},
       {{1, 2}, {3, 4}}},
      {"no_final_newline_crlf", "day,A\r\n0,1\r\n1,3\r", true, {"A"},
       {{1}, {3}}},
      {"header_double_cr", "day,A\r\r\n0,1\n", true, {"A"}, {{1}}},
      {"cell_double_cr", "day,A\n0,1\r\r\n", false, {}, {}},
      {"blank_day_column", ",A\n,5\n", true, {"A"}, {{5}}},
      {"strtod_only_cells", "day,A,B\n0, 1.5,+2\n1,0x1p3,2.5\n", true,
       {"A", "B"}, {{1.5, 2}, {8, 2.5}}},
      {"late_train_end_is_a_comment",
       "#train_end=1\nday,A\n0,1\n#train_end=99\n1,2\n", true, {"A"},
       {{1}, {2}}, 1},
      {"crlf_comments_straddling_chunks",
       "#train_end=4\n\n# leading\r\nday,A,B\r\n"
       "0,1,2\n\n1,1.5,2.5\r\n# between\n2,2,3\n"
       "# before day 3\n\r\n3,3,4\n4,4,5\n#\n5,5,6\n\n#x\n"
       "6,6,7\n# trailing\n\n#unterminated",
       true, {"A", "B"},
       {{1, 2}, {1.5, 2.5}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}}, 4},
      {"whitespace_row", "day,A\n0,1\n \n", false, {}, {}},
      {"empty_asset_name", "day,A,,B\n0,1,2,3\n", false, {}, {}},
      {"comments_only", "#c\n\n#train_end=0\n", false, {}, {}},
      {"no_asset_columns", "day\n0\n", false, {}, {}},
      {"no_data_rows", "day,A\n#c\n\n", false, {}, {}},
  };
}

TEST(Source, RowScannerPinsAgreeAcrossLoaders) {
  for (const ScannerCase& c : ScannerCases()) {
    SCOPED_TRACE(c.name);
    const std::string path =
        ::testing::TempDir() + "cit_scanner_" + c.name + ".csv";
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(c.body.data(), 1, c.body.size(), f);
    std::fclose(f);

    auto loaded = LoadPanelCsv(path);
    ASSERT_EQ(loaded.ok(), c.ok) << loaded.status().ToString();
    const int64_t days = static_cast<int64_t>(c.closes.size());
    for (int64_t chunk_days : {int64_t{1}, int64_t{3}, std::max<int64_t>(
                                                           days, 1)}) {
      for (bool prefetch : {false, true}) {
        StreamingCsvOptions options;
        options.chunk_days = chunk_days;
        options.max_resident_chunks = 2;
        options.prefetch = prefetch;
        auto opened = StreamingCsvSource::Open(path, options);
        ASSERT_EQ(opened.ok(), c.ok) << opened.status().ToString();
        if (!c.ok) continue;
        auto source = std::move(opened).value();
        const PricePanel& panel = loaded.value();
        ASSERT_EQ(panel.asset_names(), c.asset_names);
        ASSERT_EQ(source->meta().asset_names, c.asset_names);
        ASSERT_EQ(panel.num_days(), days);
        ASSERT_EQ(source->meta().num_days, days);
        EXPECT_EQ(panel.train_end(), c.train_end);
        EXPECT_EQ(source->meta().train_end, c.train_end);
        PanelView view(source.get());
        // Backwards, so every chunk is re-read after eviction too.
        for (int64_t t = days - 1; t >= 0; --t) {
          for (size_t i = 0; i < c.asset_names.size(); ++i) {
            const int64_t a = static_cast<int64_t>(i);
            EXPECT_EQ(panel.Close(t, a), c.closes[t][i]);
            EXPECT_EQ(view.Close(t, a), c.closes[t][i])
                << "chunk_days=" << chunk_days << " prefetch=" << prefetch
                << " day=" << t << " asset=" << i;
          }
        }
      }
    }
    std::remove(path.c_str());
  }
}

// Loads, hits and load time reach the obs registry while telemetry is on,
// and nothing is recorded while it is off.
TEST(Source, StreamingCsvPublishesCountersToRegistry) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  const PricePanel panel = SimulateMarket(SmallConfig(36));
  const std::string path = WriteTempCsv(panel, "registry");
  StreamingCsvOptions options;
  options.chunk_days = 16;
  options.max_resident_chunks = 2;
  options.prefetch = false;
  auto opened = StreamingCsvSource::Open(path, options);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  auto source = std::move(opened).value();
  obs::Registry& registry = obs::Registry::Global();
  const bool was_enabled = obs::Enabled();
  obs::SetEnabled(true);
  registry.ResetAll();
  for (int pass = 0; pass < 2; ++pass) {
    for (int64_t c = 0; c < source->num_chunks(); ++c) {
      (void)source->FetchChunk(c);
      (void)source->FetchChunk(c);  // resident: a hit
    }
  }
  const uint64_t loads = static_cast<uint64_t>(source->chunk_loads());
  const uint64_t hits = static_cast<uint64_t>(source->chunk_hits());
  EXPECT_EQ(loads, 2 * static_cast<uint64_t>(source->num_chunks()));
  EXPECT_EQ(hits, loads);
  EXPECT_EQ(registry.GetCounter("source.chunk_loads").Total(), loads);
  EXPECT_EQ(registry.GetCounter("source.chunk_hits").Total(), hits);
  EXPECT_EQ(registry.GetHistogram("source.load_us").Get().count, loads);
  obs::SetEnabled(false);
  (void)source->FetchChunk(0);
  (void)source->FetchChunk(0);
  EXPECT_EQ(registry.GetCounter("source.chunk_loads").Total(), loads);
  EXPECT_EQ(registry.GetCounter("source.chunk_hits").Total(), hits);
  EXPECT_EQ(registry.GetHistogram("source.load_us").Get().count, loads);
  obs::SetEnabled(was_enabled);
}

// Shared source, one private view per thread: equal reads, no races
// (exercised under TSan by check.sh).
TEST(SourceThreaded, ConcurrentViewsOverSharedStreamingSourceAgree) {
  const PricePanel panel = SimulateMarket(SmallConfig(34));
  const std::string path = WriteTempCsv(panel, "threads");
  StreamingCsvOptions options;
  options.chunk_days = 8;
  options.max_resident_chunks = 2;
  auto opened = StreamingCsvSource::Open(path, options);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  auto source = std::move(opened).value();
  constexpr int kThreads = 4;
  std::vector<double> sums(kThreads, 0.0);
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      PanelView view(source.get());  // private ring per thread
      double sum = 0.0;
      // Different traversal order per thread.
      for (int64_t t = 0; t < view.num_days(); ++t) {
        const int64_t day =
            (w % 2 == 0) ? t : view.num_days() - 1 - t;
        for (int64_t i = 0; i < view.num_assets(); ++i) {
          sum += view.Close(day, i);
        }
      }
      sums[static_cast<size_t>(w)] = sum;
    });
  }
  for (auto& t : workers) t.join();
  for (int w = 1; w < kThreads; ++w) EXPECT_EQ(sums[0], sums[w]);
}

// ---- SimulatorSource -------------------------------------------------------

TEST(Source, SimulatorSourceBitwiseEqualsSimulateMarket) {
  const MarketConfig cfg = SmallConfig(35);
  const PricePanel reference = SimulateMarket(cfg);
  for (int64_t chunk_days : {int64_t{1}, int64_t{13}, int64_t{512}}) {
    SimulatorSource source(cfg, chunk_days);
    PanelView view(&source);
    ASSERT_EQ(view.num_days(), reference.num_days());
    for (int64_t t = 0; t < reference.num_days(); ++t) {
      for (int64_t i = 0; i < reference.num_assets(); ++i) {
        ASSERT_EQ(view.Close(t, i), reference.Close(t, i))
            << "chunk_days=" << chunk_days << " day=" << t;
      }
    }
  }
}

TEST(Source, SimulatorSourceIndependentOfAccessOrder) {
  const MarketConfig cfg = SmallConfig(36);
  const PricePanel reference = SimulateMarket(cfg);
  SimulatorSource source(cfg, /*chunk_days=*/16);
  // Fetch chunks back to front — the checkpoint chain must produce the
  // same days as forward generation.
  for (int64_t c = source.num_chunks() - 1; c >= 0; --c) {
    const auto chunk = source.FetchChunk(c);
    for (int64_t t = chunk->start_day;
         t < chunk->start_day + chunk->num_days; ++t) {
      for (int64_t i = 0; i < reference.num_assets(); ++i) {
        ASSERT_EQ(chunk->At(t, i), reference.Close(t, i))
            << "chunk=" << c << " day=" << t;
      }
    }
  }
}

TEST(SourceThreaded, SimulatorSourceConcurrentFetchesAgree) {
  const MarketConfig cfg = SmallConfig(37);
  const PricePanel reference = SimulateMarket(cfg);
  SimulatorSource source(cfg, /*chunk_days=*/8);
  constexpr int kThreads = 4;
  std::vector<int> failures(kThreads, 0);
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      for (int64_t step = 0; step < source.num_chunks(); ++step) {
        // Stride the chunk order differently per thread.
        const int64_t c =
            (step * (w + 1) + w) % source.num_chunks();
        const auto chunk = source.FetchChunk(c);
        for (int64_t t = chunk->start_day;
             t < chunk->start_day + chunk->num_days; ++t) {
          for (int64_t i = 0; i < reference.num_assets(); ++i) {
            if (chunk->At(t, i) != reference.Close(t, i)) {
              ++failures[static_cast<size_t>(w)];
            }
          }
        }
      }
    });
  }
  for (auto& t : workers) t.join();
  for (int w = 0; w < kThreads; ++w) EXPECT_EQ(failures[w], 0);
}

}  // namespace
}  // namespace cit::market
