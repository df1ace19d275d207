// sweep: the baseline robustness sweep. env::RunSweep over the untouched
// market plus the five scenario presets x all 10 OLPS agents x 3 agent
// seeds. The base source is a StreamingCsvSource over a CSV generated at
// set-up, with a resident budget (4 chunks of 128 days) smaller than the
// 1024-day test split, so concurrent cells at different days reload
// chunks.
//
// Sweeps repeat until the time budget is spent (at least twice); every
// one must produce the full grid with finite metrics and the same
// cit.sweep.v1 report bytes.
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "env/sweep.h"
#include "market/csv.h"
#include "market/simulator.h"
#include "market/source.h"
#include "market/streaming_csv.h"
#include "olps/strategies.h"
#include "workloads.h"

namespace citbench {
namespace {

using namespace cit;

constexpr int64_t kAssets = 16;
constexpr int64_t kTrainDays = 256;
constexpr int64_t kTestDays = 1024;
constexpr int64_t kWindow = 32;
constexpr int64_t kChunkDays = 128;
constexpr int64_t kResidentChunks = 4;
constexpr int kSeedsPerSweep = 3;

const char* const kScenarios[] = {"",
                                  "flash_crash",
                                  "correlation_breakdown",
                                  "liquidity_hole",
                                  "halt",
                                  "regime_flip"};
const char* const kAgents[] = {"OLMAR",  "CRP",     "EG",        "ONS",
                               "UP",     "PAMR",    "RMR",       "Anticor",
                               "BestStock", "Market"};
constexpr int kNumAgents = 10;

std::unique_ptr<env::TradingAgent> MakeOlps(int a, uint64_t seed) {
  using namespace cit::olps;
  switch (a) {
    case 0: return std::make_unique<Olmar>();
    case 1: return std::make_unique<Crp>();
    case 2: return std::make_unique<Eg>();
    case 3: return std::make_unique<Ons>();
    case 4: return std::make_unique<Up>(500, seed);
    case 5: return std::make_unique<Pamr>();
    case 6: return std::make_unique<Rmr>();
    case 7: return std::make_unique<Anticor>();
    case 8: return std::make_unique<BestStock>();
    default: return std::make_unique<BuyAndHold>();
  }
}

// What one cell's timing wrapper saw.
struct CellRecord {
  int agent = 0;
  int thread = 0;
  int64_t start_ns = 0;     // factory call
  int64_t backtest_ns = 0;  // Reset at the start of the backtest
  int64_t end_ns = 0;       // agent destroyed after the backtest
  int64_t decide_ns = 0;    // summed DecideWeights time (traced only)
};

class CellLog {
 public:
  void Add(const CellRecord& c) {
    std::lock_guard<std::mutex> lock(mu_);
    cells_.push_back(c);
  }
  std::vector<CellRecord> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(cells_);
  }

 private:
  std::mutex mu_;
  std::vector<CellRecord> cells_;
};

// Installed through the agent factories: a cell starts when RunSweep asks
// the factory for its agent and ends when it destroys it. Traced runs also
// time every DecideWeights.
class CellAgent : public env::TradingAgent {
 public:
  CellAgent(std::unique_ptr<env::TradingAgent> inner, int agent, bool traced,
            CellLog* log)
      : inner_(std::move(inner)), traced_(traced), log_(log) {
    rec_.agent = agent;
    rec_.thread = ThreadIndex();
    rec_.start_ns = NowNs();
  }
  ~CellAgent() override {
    rec_.end_ns = NowNs();
    log_->Add(rec_);
  }
  CellAgent(const CellAgent&) = delete;
  CellAgent& operator=(const CellAgent&) = delete;

  std::string name() const override { return inner_->name(); }
  void Reset() override {
    rec_.backtest_ns = NowNs();
    inner_->Reset();
  }
  using env::TradingAgent::DecideWeights;
  std::vector<double> DecideWeights(const market::PanelView& panel,
                                    int64_t day) override {
    if (!traced_) return inner_->DecideWeights(panel, day);
    const int64_t t0 = NowNs();
    std::vector<double> w = inner_->DecideWeights(panel, day);
    rec_.decide_ns += NowNs() - t0;
    return w;
  }

 private:
  std::unique_ptr<env::TradingAgent> inner_;
  bool traced_;
  CellLog* log_;
  CellRecord rec_;
};

// Times and counts chunk fetches between the scenario sources and the
// streaming base (traced runs only).
class TimedSource : public market::PanelSource {
 public:
  explicit TimedSource(market::PanelSource* base) : base_(base) {}
  const market::PanelMeta& meta() const override { return base_->meta(); }
  int64_t chunk_days() const override { return base_->chunk_days(); }
  std::shared_ptr<const market::PanelChunk> FetchChunk(
      int64_t index) override {
    const int64_t t0 = NowNs();
    auto chunk = base_->FetchChunk(index);
    fetch_ns_.fetch_add(NowNs() - t0, std::memory_order_relaxed);
    calls_.fetch_add(1, std::memory_order_relaxed);
    return chunk;
  }
  void Prefetch(int64_t first_day, int64_t last_day) override {
    base_->Prefetch(first_day, last_day);
  }
  double CostMultiplier(int64_t day) const override {
    return base_->CostMultiplier(day);
  }
  int64_t calls() const { return calls_.load(); }
  double fetch_s() const {
    return static_cast<double>(fetch_ns_.load()) * 1e-9;
  }

 private:
  market::PanelSource* base_;
  std::atomic<int64_t> calls_{0};
  std::atomic<int64_t> fetch_ns_{0};
};

struct SweepPhase {
  std::vector<double> rates;  // cells/s per sweep
  std::vector<CellRecord> cells;
  double wall_s = 0.0;
  int64_t sweeps = 0;
};

SweepPhase RunSweeps(market::PanelSource* base, uint64_t seed,
                     double budget_s, bool traced, SpanLog* spans,
                     std::string* digest0, Report* r) {
  std::vector<std::string> stacks(std::begin(kScenarios), std::end(kScenarios));
  CellLog log;
  std::vector<env::SweepAgentSpec> agents;
  for (int a = 0; a < kNumAgents; ++a) {
    agents.push_back({kAgents[a], [a, traced, &log](uint64_t s) {
                        return std::unique_ptr<env::TradingAgent>(
                            new CellAgent(MakeOlps(a, s), a, traced, &log));
                      }});
  }
  env::SweepConfig cfg;
  cfg.window = kWindow;
  cfg.seeds.clear();
  for (int i = 0; i < kSeedsPerSweep; ++i) cfg.seeds.push_back(seed * 10 + i);
  const int64_t grid =
      static_cast<int64_t>(stacks.size()) * kNumAgents * kSeedsPerSweep;

  SweepPhase out;
  const double start = NowS();
  do {
    const int64_t t0 = NowNs();
    auto report = env::RunSweep(base, stacks, agents, cfg);
    const int64_t t1 = NowNs();
    out.wall_s += static_cast<double>(t1 - t0) * 1e-9;
    ++out.sweeps;
    r->attempted += grid;
    std::vector<CellRecord> cells = log.Take();
    if (!report.ok()) {
      r->Fail("sweep failed: " + report.status().message(), grid);
      continue;
    }
    const env::SweepReport& rep = report.value();
    const int64_t n = static_cast<int64_t>(rep.cells.size());
    out.rates.push_back(static_cast<double>(n) /
                        (static_cast<double>(t1 - t0) * 1e-9));
    if (n != grid) {
      r->Fail("sweep cell count " + std::to_string(n) + " != grid " +
                  std::to_string(grid),
              grid);
      continue;
    }
    for (const env::SweepCell& c : rep.cells) {
      const double vals[] = {c.metrics.accumulative_return,
                             c.metrics.sharpe_ratio, c.metrics.max_drawdown,
                             c.final_wealth, c.turnover};
      for (double v : vals) {
        if (!std::isfinite(v)) {
          r->Fail("non-finite metric in cell " + c.scenario + "/" + c.agent);
          break;
        }
      }
    }
    Digest d;
    d.Add(rep.ToJson());
    if (digest0->empty()) {
      *digest0 = d.Hex();
    } else if (d.Hex() != *digest0) {
      r->Fail("sweep report differs between repetitions", grid);
    }
    if (spans != nullptr) {
      const uint64_t sweep_id = spans->NewId();
      spans->Add("env.sweep", sweep_id, 0, t0, t1);
      for (const CellRecord& c : cells) {
        const uint64_t id = spans->NewId();
        spans->Add("env.sweep.cell", id, sweep_id, c.start_ns, c.end_ns);
        spans->Add("env.backtest", spans->NewId(), id, c.backtest_ns,
                   c.end_ns);
      }
    }
    out.cells.insert(out.cells.end(), cells.begin(), cells.end());
  } while (NowS() - start < budget_s || out.sweeps < 2);
  return out;
}

std::vector<double> CellMicros(const std::vector<CellRecord>& cells) {
  std::vector<double> us;
  us.reserve(cells.size());
  for (const CellRecord& c : cells) {
    us.push_back(static_cast<double>(c.end_ns - c.start_ns) * 1e-3);
  }
  return us;
}

}  // namespace

Report RunSweepWorkload(const Options& opts, SpanLog* spans) {
  Report r;
  // The path is the panel's name in the report, so it must not vary
  // between runs of one seed.
  const std::string csv =
      opts.out_dir + "/sweep-seed" + std::to_string(opts.seed) + ".csv";
  std::unique_ptr<market::StreamingCsvSource> source;
  bool setup_ok = true;
  const double setup_s = MedianSetupSeconds(15, [&] {
    source.reset();
    market::MarketConfig m;
    m.name = "sweep";
    m.num_assets = kAssets;
    m.train_days = kTrainDays;
    m.test_days = kTestDays;
    m.seed = opts.seed;
    const market::PricePanel panel = market::SimulateMarket(m);
    if (!market::SavePanelCsv(panel, csv).ok()) {
      setup_ok = false;
      return;
    }
    market::StreamingCsvOptions so;
    so.chunk_days = kChunkDays;
    so.max_resident_chunks = kResidentChunks;
    auto opened = market::StreamingCsvSource::Open(csv, so);
    if (!opened.ok()) {
      setup_ok = false;
      return;
    }
    source = std::move(opened).value();
  });
  if (!setup_ok) {
    std::remove(csv.c_str());
    r.attempted = 1;
    r.Fail("sweep set-up failed (" + csv + ")");
    return r;
  }

  std::string digest0;
  const double untraced_s = opts.trace ? opts.seconds / 2 : opts.seconds;
  SweepPhase plain = RunSweeps(source.get(), opts.seed, untraced_s,
                               /*traced=*/false, nullptr, &digest0, &r);
  const double rate = Median(plain.rates);
  r.Fact("digest.sweep_report", digest0);
  r.Fact("sweep.grid_cells",
         std::to_string(6 * kNumAgents * kSeedsPerSweep));

  if (!opts.trace) {
    const std::vector<double> us = CellMicros(plain.cells);
    r.Add("setup_s", setup_s, "s");
    r.Add("peak_rss_mb", PeakRssMb(), "MB");
    r.Add("throughput_per_s", rate, "1/s");
    r.Add("p50_us", Median(us), "us");
    r.Fact("samples.sweeps", std::to_string(plain.sweeps));
    r.Fact("samples.cells", std::to_string(us.size()));
    std::remove(csv.c_str());
    return r;
  }

  TimedSource timed(source.get());
  const int64_t loads0 = source->chunk_loads();
  const int64_t hits0 = source->chunk_hits();
  SweepPhase traced = RunSweeps(&timed, opts.seed, opts.seconds / 2,
                                /*traced=*/true, spans, &digest0, &r);
  const double sweeps = static_cast<double>(traced.sweeps);
  const std::vector<double> us = CellMicros(traced.cells);
  r.Add("env.sweep.cell_ms_p50", Median(us) * 1e-3, "ms");
  r.Add("env.sweep.cell_ms_p99", Quantile(us, 0.99) * 1e-3, "ms");
  r.Add("env.sweep.cell_ms_max", Quantile(us, 1.0) * 1e-3, "ms");

  std::vector<double> decide_s(kNumAgents, 0.0);
  std::vector<double> cells_of(kNumAgents, 0.0);
  std::map<int, double> busy;  // thread index -> summed cell seconds
  double cell_total = 0.0, backtest_total = 0.0, decide_total = 0.0;
  for (const CellRecord& c : traced.cells) {
    const double cell = static_cast<double>(c.end_ns - c.start_ns) * 1e-9;
    const double dec = static_cast<double>(c.decide_ns) * 1e-9;
    decide_s[c.agent] += dec;
    cells_of[c.agent] += 1.0;
    busy[c.thread] += cell;
    cell_total += cell;
    backtest_total += static_cast<double>(c.end_ns - c.backtest_ns) * 1e-9;
    decide_total += dec;
  }
  for (int a = 0; a < kNumAgents; ++a) {
    r.Add(std::string("olps.") + kAgents[a] + ".decide_s",
          cells_of[a] > 0 ? decide_s[a] / cells_of[a] : 0.0, "s");
  }
  r.Add("env.backtest.overhead_frac", (cell_total - decide_total) / cell_total,
        "ratio");
  const int threads = ThreadPool::Global().num_threads();
  double busy_max = 0.0;
  for (const auto& [t, s] : busy) busy_max = std::max(busy_max, s);
  r.Add("common.threadpool.busy_frac", cell_total / (threads * traced.wall_s),
        "ratio");
  r.Add("common.threadpool.imbalance", busy_max / (cell_total / threads),
        "ratio");
  r.Add("market.source.fetch_calls",
        static_cast<double>(timed.calls()) / sweeps, "count");
  r.Add("market.source.fetch_s", timed.fetch_s() / sweeps, "s");
  const double loads = static_cast<double>(source->chunk_loads() - loads0);
  const double hits = static_cast<double>(source->chunk_hits() - hits0);
  r.Add("market.streaming.chunk_loads", loads / sweeps, "count");
  r.Add("market.streaming.chunk_hits", hits / sweeps, "count");
  r.Add("market.streaming.hit_ratio",
        loads + hits > 0 ? hits / (loads + hits) : 0.0, "ratio");
  r.Add("market.streaming.peak_resident_bytes",
        static_cast<double>(source->peak_resident_bytes()), "B");
  const double traced_rate = Median(traced.rates);
  r.Add("bench.trace_overhead_frac", (rate - traced_rate) / rate, "ratio");

  ApplyReconciliation(
      {{"backtest_vs_cell", backtest_total, cell_total, 0.9, 1.0},
       {"decide_vs_backtest", decide_total, backtest_total, 0.0, 1.0},
       {"cells_vs_pool_capacity", cell_total, threads * traced.wall_s, 0.0,
        1.0}},
      &r);
  r.Fact("spans.recorded", std::to_string(spans->size()));
  r.Fact("spans.dropped", std::to_string(spans->dropped()));
  std::remove(csv.c_str());
  return r;
}

}  // namespace citbench
