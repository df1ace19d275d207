// paper_run: the paper's experiment. Trains a CrossInsightTrader (TCN +
// spatial attention backbone, 5 horizon policies, 4 rollouts per update)
// on a simulated 16-asset market, then backtests the trained model on a
// 1000-day test split, timing every DecideWeights call.
//
// The end-to-end throughput is the backtest's (decisions per second).
// Training's updates per second is reported, but as a per-layer metric:
// on a shared virtual host it fell 40-55% for minutes at a time whenever
// the host took vCPUs away (training fans ~770 small jobs per update over
// the pool and each waits for every thread), against 5-15% for deciding,
// so ten runs of the same code spread past any bound a regression gate
// could use.
//
// Training and backtest repetitions alternate until the time budget is
// spent. Every repetition trains a fresh trader from the same seed and must
// reproduce the first one's learning curve bitwise; every backtest must
// reproduce the first one's results bitwise, with every decision on the
// simplex.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/thread_pool.h"
#include "core/config.h"
#include "core/trader.h"
#include "env/backtest.h"
#include "market/simulator.h"
#include "market/source.h"
#include "workloads.h"

namespace citbench {
namespace {

using namespace cit;

constexpr int64_t kAssets = 16;
constexpr int64_t kTrainDays = 1000;
constexpr int64_t kTestDays = 1000;
// Updates per training repetition: about 0.6 s on a 4-core AVX-512 host,
// against about 0.85 s for the backtest that follows it, so most of a run
// goes to backtests.
constexpr int64_t kUpdatesPerRep = 3;

market::MarketConfig MarketFor(uint64_t seed) {
  market::MarketConfig m;
  m.name = "paper-run";
  m.num_assets = kAssets;
  m.train_days = kTrainDays;
  m.test_days = kTestDays;
  m.seed = seed;
  return m;
}

core::CrossInsightConfig TraderFor(uint64_t seed) {
  core::CrossInsightConfig c;  // paper backbone and defaults
  c.rollouts_per_update = 4;
  c.train_steps = kUpdatesPerRep;
  c.seed = seed;
  return c;
}

bool OnSimplex(const std::vector<double>& w) {
  double sum = 0.0;
  for (double x : w) {
    if (!std::isfinite(x) || x < 0.0) return false;
    sum += x;
  }
  return std::fabs(sum - 1.0) <= 1e-6;
}

// Times every DecideWeights of the wrapped agent and checks its output.
class TimedAgent : public env::TradingAgent {
 public:
  TimedAgent(env::TradingAgent* inner, SpanLog* spans, uint64_t parent)
      : inner_(inner), spans_(spans), parent_(parent) {}

  std::string name() const override { return inner_->name(); }
  void Reset() override { inner_->Reset(); }
  using env::TradingAgent::DecideWeights;
  std::vector<double> DecideWeights(const market::PanelView& panel,
                                    int64_t day) override {
    const int64_t t0 = NowNs();
    std::vector<double> w = inner_->DecideWeights(panel, day);
    const int64_t t1 = NowNs();
    decide_ns_.push_back(t1 - t0);
    if (spans_ != nullptr) {
      spans_->Add("core.decide", spans_->NewId(), parent_, t0, t1);
    }
    if (!OnSimplex(w)) ++off_simplex_;
    return w;
  }

  const std::vector<int64_t>& decide_ns() const { return decide_ns_; }
  int64_t off_simplex() const { return off_simplex_; }

 private:
  env::TradingAgent* inner_;
  SpanLog* spans_;
  uint64_t parent_;
  std::vector<int64_t> decide_ns_;
  int64_t off_simplex_ = 0;
};

// Library instruments read around each repetition, so the traced run can
// attribute kernel, pool and plan work to training or to deciding: counter
// totals, then span totals in seconds.
enum Reading {
  kGemmCalls, kGemmFlops, kGemmBytes, kConvCalls, kConvFlops, kConvBytes,
  kJobs, kInlineJobs, kPlanHits, kPlanMisses, kArenaHits, kArenaMisses,
  kUpdateS, kRolloutS, kActorS, kCriticS, kAdvantagesS, kWorkerS,
  kNumReadings
};
const char* const kReadingNames[kNumReadings] = {
    "kernels.gemm_calls", "kernels.gemm_flops",     "kernels.gemm_bytes",
    "kernels.conv_calls", "kernels.conv_flops",     "kernels.conv_bytes",
    "threadpool.jobs",    "threadpool.inline_jobs", "plan.hits",
    "plan.misses",        "arena.hits",             "arena.misses",
    "train.update",       "train.rollout",          "train.actor_update",
    "train.critic_update", "train.advantages",      "threadpool.chunk_worker"};

std::vector<double> ReadRegistry() {
  std::vector<double> v(kNumReadings);
  for (int i = 0; i < kNumReadings; ++i) {
    v[i] = i < kUpdateS ? static_cast<double>(RegistryCount(kReadingNames[i]))
                        : HistSeconds(kReadingNames[i]);
  }
  return v;
}

void AddSince(const std::vector<double>& before, std::vector<double>* acc) {
  const std::vector<double> now = ReadRegistry();
  acc->resize(kNumReadings, 0.0);
  for (int i = 0; i < kNumReadings; ++i) (*acc)[i] += now[i] - before[i];
}

// Samples of one measured block of (train, backtest) repetition pairs.
struct Block {
  std::vector<double> train_rates;     // updates/s per training repetition
  std::vector<double> backtest_rates;  // decisions/s per backtest
  std::vector<double> decide_us;    // every timed DecideWeights call
  double train_s = 0.0;
  double backtest_s = 0.0;
  double decide_s = 0.0;
  int64_t updates = 0;
  int64_t backtests = 0;
  std::vector<double> train_reg, decide_reg;  // registry deltas (traced)
};

// Outputs of the first repetition; every later one must match bitwise.
struct Reference {
  std::vector<double> curve;
  std::string backtest;
};

std::string BacktestDigest(const env::BacktestResult& b) {
  Digest d;
  d.Add(b.wealth);
  d.Add(b.daily_returns);
  d.Add(b.metrics.accumulative_return);
  d.Add(b.metrics.sharpe_ratio);
  d.Add(b.metrics.calmar_ratio);
  d.Add(b.metrics.max_drawdown);
  d.Add(b.turnover);
  return d.Hex();
}

// Trains a fresh trader from the seed, then backtests it on a fresh source
// (the feature cache is keyed by source id, so every backtest decides from
// a cold cache, as a user's single backtest of a new model does).
void TrainAndBacktest(const market::PricePanel& panel, uint64_t seed,
                      bool traced, SpanLog* spans, Reference* ref, Block* b,
                      Report* r) {
  std::vector<double> reg = traced ? ReadRegistry() : std::vector<double>();
  const int64_t t0 = NowNs();
  core::CrossInsightTrader trader(kAssets, TraderFor(seed));
  const std::vector<double> curve =
      trader.Train(panel, /*curve_points=*/kUpdatesPerRep);
  const int64_t t1 = NowNs();
  if (traced) {
    AddSince(reg, &b->train_reg);
    spans->Add("core.train", spans->NewId(), 0, t0, t1);
  }
  b->train_s += static_cast<double>(t1 - t0) * 1e-9;
  b->train_rates.push_back(static_cast<double>(kUpdatesPerRep) /
                           (static_cast<double>(t1 - t0) * 1e-9));
  b->updates += kUpdatesPerRep;
  ++r->attempted;
  bool finite = !curve.empty();
  for (double v : curve) finite = finite && std::isfinite(v);
  if (!finite) r->Fail("training curve not finite");
  if (ref->curve.empty()) {
    ref->curve = curve;
  } else if (!BitwiseEqual(curve, ref->curve)) {
    r->Fail("training curve differs between repetitions of one seed");
  }

  if (traced) reg = ReadRegistry();
  market::InMemorySource source(&panel);
  const uint64_t id = traced ? spans->NewId() : 0;
  TimedAgent agent(&trader, traced ? spans : nullptr, id);
  const int64_t t2 = NowNs();
  const env::BacktestResult res = env::RunTestBacktest(
      agent, market::PanelView(&source), trader.config().window,
      trader.config().transaction_cost);
  const int64_t t3 = NowNs();
  if (traced) {
    AddSince(reg, &b->decide_reg);
    spans->Add("env.backtest", id, 0, t2, t3);
  }
  b->backtest_s += static_cast<double>(t3 - t2) * 1e-9;
  b->backtest_rates.push_back(static_cast<double>(agent.decide_ns().size()) /
                              (static_cast<double>(t3 - t2) * 1e-9));
  for (int64_t ns : agent.decide_ns()) {
    b->decide_us.push_back(static_cast<double>(ns) * 1e-3);
    b->decide_s += static_cast<double>(ns) * 1e-9;
  }
  ++b->backtests;
  const int64_t decides = static_cast<int64_t>(agent.decide_ns().size());
  r->attempted += decides + 1;
  if (decides < kTestDays - 1) r->Fail("backtest made too few decisions");
  if (agent.off_simplex() > 0) {
    r->Fail("decisions off the simplex", agent.off_simplex());
  }
  const std::string digest = BacktestDigest(res);
  if (ref->backtest.empty()) {
    ref->backtest = digest;
  } else if (digest != ref->backtest) {
    r->Fail("backtest differs between repetitions");
  }
}

// Alternates training and backtest repetitions until `budget_s` is spent,
// so both metrics sample the same stretch of host time.
Block RunBlock(const market::PricePanel& panel, uint64_t seed,
               double budget_s, bool traced, SpanLog* spans, Reference* ref,
               Report* r) {
  Block b;
  const double start = NowS();
  do {
    TrainAndBacktest(panel, seed, traced, spans, ref, &b, r);
  } while (NowS() - start < budget_s);
  return b;
}

}  // namespace

Report RunPaperRun(const Options& opts, SpanLog* spans) {
  Report r;
  market::PricePanel panel;
  const double setup_s = MedianSetupSeconds(15, [&] {
    panel = market::SimulateMarket(MarketFor(opts.seed));
    core::CrossInsightTrader probe(kAssets, TraderFor(opts.seed));
  });
  r.Fact("paper_run.assets", std::to_string(kAssets));
  r.Fact("paper_run.test_days",
         std::to_string(panel.num_days() - panel.train_end()));
  r.Fact("paper_run.updates_per_rep", std::to_string(kUpdatesPerRep));

  // One unmeasured pair first: it also fixes the reference outputs.
  Reference ref;
  {
    Block warm;
    TrainAndBacktest(panel, opts.seed, false, nullptr, &ref, &warm, &r);
  }
  const double untraced_s = opts.trace ? opts.seconds / 2 : opts.seconds;
  const Block plain =
      RunBlock(panel, opts.seed, untraced_s, false, nullptr, &ref, &r);
  {
    Digest d;
    d.Add(ref.curve);
    r.Fact("digest.train_curve", d.Hex());
    r.Fact("digest.backtest", ref.backtest);
  }
  r.Fact("samples.train_reps", std::to_string(plain.train_rates.size()));
  r.Fact("samples.decides", std::to_string(plain.decide_us.size()));
  const double train_rate = Median(plain.train_rates);
  const double backtest_rate = Median(plain.backtest_rates);
  r.Fact("train.updates_per_s", FormatDouble(train_rate));

  if (!opts.trace) {
    r.Add("setup_s", setup_s, "s");
    r.Add("peak_rss_mb", PeakRssMb(), "MB");
    r.Add("throughput_per_s", backtest_rate, "1/s");
    r.Add("p50_us", Median(plain.decide_us), "us");
    return r;
  }

  // Traced half: library instruments on, benchmark spans recorded.
  obs::Registry::Global().ResetAll();
  obs::SetEnabled(true);
  const Block t =
      RunBlock(panel, opts.seed, opts.seconds / 2, true, spans, &ref, &r);
  obs::SetEnabled(false);
  const std::vector<double>& tr = t.train_reg;
  const std::vector<double>& dr = t.decide_reg;
  const double upd = static_cast<double>(t.updates);
  const double dec = static_cast<double>(t.decide_us.size());
  const double phases_s =
      tr[kRolloutS] + tr[kActorS] + tr[kCriticS] + tr[kAdvantagesS];
  // Training throughput comes from the untraced half, like every
  // end-to-end figure; the phase split below from the traced half.
  r.Add("core.train.updates_per_s", train_rate, "1/s");
  r.Add("core.train.rollout_s", tr[kRolloutS] / upd, "s");
  r.Add("core.train.actor_update_s", tr[kActorS] / upd, "s");
  r.Add("core.train.critic_update_s", tr[kCriticS] / upd, "s");
  r.Add("core.train.advantages_s", tr[kAdvantagesS] / upd, "s");
  r.Add("core.train.other_s", (tr[kUpdateS] - phases_s) / upd, "s");
  const auto slot = RegistryHist("rollout.slot");
  r.Add("rl.rollout.slot_p50_ms",
        static_cast<double>(std::min(slot.ApproxQuantile(0.5), slot.max)) *
            1e-3,
        "ms");
  r.Add("rl.rollout.slot_max_ms", static_cast<double>(slot.max) * 1e-3, "ms");
  const char* const kKernelUnit[] = {"count", "flop", "B",
                                     "count", "flop", "B"};
  for (const auto& [per, readings, n] :
       {std::tuple{"_per_update", &tr, upd},
        std::tuple{"_per_decide", &dr, dec}}) {
    for (int i = kGemmCalls; i <= kConvBytes; ++i) {
      // "kernels.gemm_calls" -> "math.kernels.gemm_calls_per_update"
      r.Add(std::string("math.") + kReadingNames[i] + per, (*readings)[i] / n,
            kKernelUnit[i]);
    }
    r.Add(std::string("common.threadpool.jobs") + per, (*readings)[kJobs] / n,
          "count");
    r.Add(std::string("common.threadpool.inline_jobs") + per,
          (*readings)[kInlineJobs] / n, "count");
  }
  const int threads = ThreadPool::Global().num_threads();
  r.Add("common.threadpool.worker_busy_frac",
        (tr[kWorkerS] + dr[kWorkerS]) /
            (std::max(threads - 1, 1) * (t.train_s + t.backtest_s)),
        "ratio");
  r.Add("math.plan.hits_per_decide", dr[kPlanHits] / dec, "count");
  r.Add("math.plan.misses_per_backtest",
        dr[kPlanMisses] / static_cast<double>(t.backtests), "count");
  const double arena = dr[kArenaHits] + dr[kArenaMisses];
  r.Add("math.arena.hit_ratio", arena > 0 ? dr[kArenaHits] / arena : 0.0,
        "ratio");
  r.Add("env.backtest.overhead_s",
        (t.backtest_s - t.decide_s) / static_cast<double>(t.backtests), "s");
  r.Add("core.decide_p99_us", Quantile(plain.decide_us, 0.99), "us");
  r.Add("bench.trace_overhead_frac",
        (backtest_rate - Median(t.backtest_rates)) / backtest_rate, "ratio");

  // Graph teardown at the end of each update falls in no phase span (it
  // is what core.train.other_s measures), hence the 0.8 floor.
  ApplyReconciliation(
      {{"train_phases_vs_update", phases_s, tr[kUpdateS], 0.8, 1.001},
       {"decide_vs_backtest_wall", t.decide_s, t.backtest_s, 0.8, 1.0}},
      &r);
  r.Fact("spans.recorded", std::to_string(spans->size()));
  r.Fact("spans.dropped", std::to_string(spans->dropped()));
  return r;
}

}  // namespace citbench
