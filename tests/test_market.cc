#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "market/csv.h"
#include "market/csv_parse.h"
#include "market/panel.h"
#include "market/simulator.h"
#include "math/rng.h"
#include "signal/filters.h"

namespace cit::market {
namespace {

TEST(PricePanel, BasicAccessors) {
  PricePanel p(5, 2);
  p.SetClose(3, 1, 42.0);
  EXPECT_EQ(p.num_days(), 5);
  EXPECT_EQ(p.num_assets(), 2);
  EXPECT_EQ(p.Close(3, 1), 42.0);
}

TEST(PricePanel, PriceRelative) {
  PricePanel p(3, 1);
  p.SetClose(0, 0, 100.0);
  p.SetClose(1, 0, 110.0);
  p.SetClose(2, 0, 99.0);
  EXPECT_NEAR(p.PriceRelative(1, 0), 1.1, 1e-12);
  EXPECT_NEAR(p.PriceRelative(2, 0), 0.9, 1e-12);
}

// Regression: a zeroed quote (halted day), a NaN cell, or a delisting
// used to feed a division by zero / non-finite relative into the env.
// The halted convention parks capital: the relative is exactly 1.0 on
// both transitions (into and out of the bad day), never Inf or NaN.
TEST(PricePanel, PriceRelativeHaltedDaysAreExactlyOne) {
  PricePanel p(5, 1);
  p.SetClose(0, 0, 100.0);
  p.SetClose(1, 0, 0.0);  // halted / zeroed quote
  p.SetClose(2, 0, 120.0);
  p.SetClose(3, 0, std::nan(""));  // missing cell
  p.SetClose(4, 0, 90.0);
  EXPECT_EQ(p.PriceRelative(1, 0), 1.0);
  EXPECT_EQ(p.PriceRelative(2, 0), 1.0);
  EXPECT_EQ(p.PriceRelative(3, 0), 1.0);
  EXPECT_EQ(p.PriceRelative(4, 0), 1.0);
  // A frozen (stale) quote is exactly 1.0 too: IEEE guarantees p/p == 1.
  PricePanel q(2, 1);
  q.SetClose(0, 0, 37.123456789);
  q.SetClose(1, 0, 37.123456789);
  EXPECT_EQ(q.PriceRelative(1, 0), 1.0);
  // Negative prices are treated as missing, not divided through.
  PricePanel r(2, 1);
  r.SetClose(0, 0, -5.0);
  r.SetClose(1, 0, 10.0);
  EXPECT_EQ(r.PriceRelative(1, 0), 1.0);
}

TEST(PricePanel, IndexLevelsEqualWeightBuyAndHold) {
  PricePanel p(3, 2);
  p.SetClose(0, 0, 100.0);
  p.SetClose(0, 1, 50.0);
  p.SetClose(1, 0, 110.0);  // +10%
  p.SetClose(1, 1, 55.0);   // +10%
  p.SetClose(2, 0, 110.0);
  p.SetClose(2, 1, 44.0);   // -20% vs day 0 basis 50 -> 0.88
  const auto idx = p.IndexLevels(0);
  EXPECT_NEAR(idx[0], 1.0, 1e-12);
  EXPECT_NEAR(idx[1], 1.1, 1e-12);
  EXPECT_NEAR(idx[2], (1.1 + 0.88) / 2.0, 1e-12);
}

TEST(PricePanel, SliceDaysPreservesPricesAndSplit) {
  PricePanel p(10, 2);
  for (int64_t t = 0; t < 10; ++t) {
    p.SetClose(t, 0, 100.0 + t);
    p.SetClose(t, 1, 200.0 + t);
  }
  p.set_train_end(7);
  PricePanel s = p.SliceDays(2, 9);
  EXPECT_EQ(s.num_days(), 7);
  EXPECT_EQ(s.Close(0, 0), 102.0);
  EXPECT_EQ(s.train_end(), 5);
}

TEST(Simulator, DeterministicGivenSeed) {
  MarketConfig cfg;
  cfg.num_assets = 4;
  cfg.train_days = 100;
  cfg.test_days = 20;
  cfg.seed = 42;
  PricePanel a = SimulateMarket(cfg);
  PricePanel b = SimulateMarket(cfg);
  for (int64_t t = 0; t < a.num_days(); ++t) {
    for (int64_t i = 0; i < a.num_assets(); ++i) {
      EXPECT_EQ(a.Close(t, i), b.Close(t, i));
    }
  }
}

TEST(Simulator, PositivePricesAndSaneVolatility) {
  MarketConfig cfg;
  cfg.num_assets = 6;
  cfg.train_days = 400;
  cfg.test_days = 100;
  PricePanel p = SimulateMarket(cfg);
  double sq = 0.0;
  int64_t n = 0;
  for (int64_t t = 1; t < p.num_days(); ++t) {
    for (int64_t i = 0; i < p.num_assets(); ++i) {
      EXPECT_GT(p.Close(t, i), 0.0);
      const double r = std::log(p.PriceRelative(t, i));
      sq += r * r;
      ++n;
    }
  }
  const double daily_vol = std::sqrt(sq / n);
  // Annualized vol should be in a realistic 10%-60% band.
  const double annual = daily_vol * std::sqrt(252.0);
  EXPECT_GT(annual, 0.10);
  EXPECT_LT(annual, 0.60);
}

TEST(Simulator, AssetsAreCorrelatedThroughMarketFactor) {
  MarketConfig cfg;
  cfg.num_assets = 6;
  cfg.train_days = 600;
  cfg.test_days = 0;
  PricePanel p = SimulateMarket(cfg);
  // Average pairwise return correlation should be clearly positive.
  std::vector<std::vector<double>> rets(cfg.num_assets);
  for (int64_t i = 0; i < cfg.num_assets; ++i) {
    for (int64_t t = 1; t < p.num_days(); ++t) {
      rets[i].push_back(std::log(p.PriceRelative(t, i)));
    }
  }
  double corr_sum = 0.0;
  int pairs = 0;
  for (int64_t i = 0; i < cfg.num_assets; ++i) {
    for (int64_t j = i + 1; j < cfg.num_assets; ++j) {
      corr_sum += signal::PearsonCorrelation(rets[i], rets[j]);
      ++pairs;
    }
  }
  EXPECT_GT(corr_sum / pairs, 0.15);
}

TEST(Simulator, ForcedBearTailDepressesReturns) {
  MarketConfig cfg;
  cfg.num_assets = 8;
  cfg.train_days = 300;
  cfg.test_days = 200;
  cfg.forced_bear_tail = 100;
  cfg.bear_drift = -3e-3;
  cfg.seed = 9;
  PricePanel p = SimulateMarket(cfg);
  const auto idx = p.IndexLevels(0);
  const double tail_ret =
      idx.back() / idx[p.num_days() - cfg.forced_bear_tail] - 1.0;
  EXPECT_LT(tail_ret, 0.0);
}

TEST(Simulator, PresetsMatchSplitLayout) {
  for (const MarketConfig& cfg :
       {UsMarketConfig(), HkMarketConfig(), ChinaMarketConfig()}) {
    PricePanel p = SimulateMarket(cfg);
    EXPECT_EQ(p.num_days(), cfg.num_days());
    EXPECT_EQ(p.train_end(), cfg.train_days);
    EXPECT_GT(p.num_assets(), 0);
    EXPECT_EQ(p.name(), cfg.name);
  }
}

TEST(Csv, RoundTripPreservesPanel) {
  MarketConfig cfg;
  cfg.num_assets = 3;
  cfg.train_days = 30;
  cfg.test_days = 10;
  PricePanel p = SimulateMarket(cfg);
  const std::string path = ::testing::TempDir() + "/panel_roundtrip.csv";
  ASSERT_TRUE(SavePanelCsv(p, path).ok());
  auto loaded = LoadPanelCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const PricePanel& q = loaded.value();
  ASSERT_EQ(q.num_days(), p.num_days());
  ASSERT_EQ(q.num_assets(), p.num_assets());
  EXPECT_EQ(q.train_end(), p.train_end());
  for (int64_t t = 0; t < p.num_days(); ++t) {
    for (int64_t i = 0; i < p.num_assets(); ++i) {
      EXPECT_NEAR(q.Close(t, i), p.Close(t, i),
                  1e-6 * p.Close(t, i));
    }
  }
  std::remove(path.c_str());
}

TEST(Csv, LoadRejectsMissingFile) {
  auto r = LoadPanelCsv("/nonexistent/panel.csv");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST(Csv, LoadRejectsNonPositivePrice) {
  const std::string path = ::testing::TempDir() + "/bad_panel.csv";
  FILE* f = fopen(path.c_str(), "w");
  fputs("day,A0\n0,100\n1,-5\n", f);
  fclose(f);
  auto r = LoadPanelCsv(path);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(Csv, LoadRejectsRaggedRows) {
  const std::string path = ::testing::TempDir() + "/ragged_panel.csv";
  FILE* f = fopen(path.c_str(), "w");
  fputs("day,A0,A1\n0,100,200\n1,100\n", f);
  fclose(f);
  auto r = LoadPanelCsv(path);
  EXPECT_FALSE(r.ok());
  std::remove(path.c_str());
}

// ---- malformed-CSV matrix (regressions for the LoadPanelCsv parsing
// fixes: CRLF \r stripping, full-cell numeric parses, NaN rejection,
// #train_end validation) ----

namespace {
std::string WriteCsv(const std::string& name, const std::string& body) {
  const std::string path = ::testing::TempDir() + "/" + name;
  FILE* f = fopen(path.c_str(), "w");
  fputs(body.c_str(), f);
  fclose(f);
  return path;
}
}  // namespace

TEST(Csv, CrlfFileParsesCleanly) {
  // Pre-fix, getline left '\r' on every line: the last asset was named
  // "B\r" and the last cell of each row parsed only up to the '\r' via a
  // partial strtod — or, with strict parsing, failed outright.
  const std::string path = WriteCsv(
      "crlf_panel.csv",
      "#train_end=2\r\nday,A,B\r\n0,100,200\r\n1,110,190\r\n2,105,195\r\n");
  auto r = LoadPanelCsv(path);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const PricePanel& p = r.value();
  EXPECT_EQ(p.num_days(), 3);
  EXPECT_EQ(p.train_end(), 2);
  ASSERT_EQ(p.asset_names().size(), 2u);
  EXPECT_EQ(p.asset_names()[1], "B");  // no trailing '\r'
  EXPECT_EQ(p.Close(2, 1), 195.0);
  std::remove(path.c_str());
}

TEST(Csv, LoadRejectsJunkCell) {
  // "12abc" used to silently parse as 12 (only `end == begin` was checked).
  const std::string path =
      WriteCsv("junk_cell.csv", "day,A\n0,100\n1,12abc\n");
  auto r = LoadPanelCsv(path);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(Csv, LoadRejectsEmptyCell) {
  const std::string path =
      WriteCsv("empty_cell.csv", "day,A,B\n0,100,200\n1,,190\n");
  auto r = LoadPanelCsv(path);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(Csv, LoadRejectsNanPrice) {
  // strtod accepts "nan", and NaN <= 0.0 is false — pre-fix a NaN price
  // sailed straight into the panel and poisoned every downstream metric.
  const std::string path = WriteCsv("nan_cell.csv", "day,A\n0,100\n1,nan\n");
  auto r = LoadPanelCsv(path);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(Csv, LoadRejectsMissingColumn) {
  // Row with one price short of the header (a "missing column" row).
  const std::string path =
      WriteCsv("missing_col.csv", "day,A,B,C\n0,1,2,3\n1,1,2\n");
  auto r = LoadPanelCsv(path);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(Csv, LoadRejectsTrainEndOutOfRange) {
  for (const char* header : {"#train_end=999\n", "#train_end=-3\n"}) {
    const std::string path = WriteCsv(
        "bad_train_end.csv", std::string(header) + "day,A\n0,100\n1,110\n");
    auto r = LoadPanelCsv(path);
    EXPECT_FALSE(r.ok()) << header;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    std::remove(path.c_str());
  }
}

TEST(Csv, LoadRejectsMalformedTrainEnd) {
  // atoll("abc") was a silent 0; now the header must parse completely.
  const std::string path = WriteCsv(
      "junk_train_end.csv", "#train_end=abc\nday,A\n0,100\n1,110\n");
  auto r = LoadPanelCsv(path);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

// ---- Cell parser: from_chars fast path vs the strtod-only parser ----------

namespace {

// The cell parser as it was before the from_chars fast path: strtod alone
// decides. ParsePriceCell must match it verdict for verdict, bit for bit.
bool ReferenceParsePriceCell(const std::string& cell, double* out) {
  if (cell.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(cell.c_str(), &end);
  if (end != cell.c_str() + cell.size()) return false;
  if (!std::isfinite(v) || v <= 0.0) return false;
  *out = v;
  return true;
}

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// Returns whether the cell was accepted.
bool ExpectSameAsReference(const std::string& cell) {
  double want = 0.0, got = 0.0;
  const bool want_ok = ReferenceParsePriceCell(cell, &want);
  const bool got_ok = csv_internal::ParsePriceCell(cell, &got).ok();
  EXPECT_EQ(got_ok, want_ok) << "cell '" << cell << "'";
  if (want_ok && got_ok) {
    EXPECT_EQ(Bits(got), Bits(want)) << "cell '" << cell << "'";
  }
  return got_ok;
}

}  // namespace

TEST(CsvCell, EdgeCorpusMatchesStrtodReference) {
  const std::vector<std::string> corpus = {
      "+1.5", " 1.5", "1.5 ", "\t2", "0x1p3", "0X1.8P1", "1e400", "-1e400",
      "1e-400", "4.9e-324", "2.2250738585072014e-308", "1.7976931348623157e308",
      "1.7976931348623159e308", "inf", "-inf", "INF", "infinity", "nan",
      "NaN", "nan(123)", "-0", "0", "0.0", "00012.50", "1,5", "", ".5", "5.",
      ".", "-", "+", "e5", "1e", "1e+", "1e+5", "1E-5", "1.5e3x", "12abc",
      "-3.5", "1.5\r", "1..5", "0.1", "123456.789012345",
      "12345678901234567", "0.12345678901234567", "1.2345678901234567e-5",
      "98765432109876543", "9007199254740993", "0.30000000000000004",
      "1.00000000000000011102230246251565404236316680908203125",
      "1.000000000000000111022302462515654042363166809082031251",
      std::string(400, '9'), "0." + std::string(350, '0') + "1",
  };
  int accepted = 0;
  for (const std::string& cell : corpus) accepted += ExpectSameAsReference(cell);
  EXPECT_GT(accepted, 20);
}

TEST(CsvCell, MutatedCellsMatchStrtodReference) {
  // Deterministic mutations of price-like seeds: inserted, replaced,
  // deleted and duplicated characters from the alphabet of numbers, signs,
  // exponents, hex, inf/nan spellings, whitespace and separators.
  const std::vector<std::string> seeds = {
      "123.456", "1e5", "0.1", "100", "-3", "1.5", "99999999999999999",
      "4.9e-324", "0x1p3", "inf", "nan", "2.5E-3", "0.000001234", "7",
      "314159.26535897932", "1e308"};
  const std::string alphabet = "0123456789012345678.eE+-xXpPnaifNAIF \t,\r_";
  math::Rng rng(20260415);
  int accepted = 0;
  for (int iter = 0; iter < 100000; ++iter) {
    std::string cell = seeds[static_cast<size_t>(
        rng.UniformInt(static_cast<int64_t>(seeds.size())))];
    const int64_t edits = 1 + rng.UniformInt(4);
    for (int64_t e = 0; e < edits; ++e) {
      const int64_t op = rng.UniformInt(5);
      const size_t pos = static_cast<size_t>(
          rng.UniformInt(static_cast<int64_t>(cell.size()) + 1));
      const char ch = alphabet[static_cast<size_t>(
          rng.UniformInt(static_cast<int64_t>(alphabet.size())))];
      if (op == 0) {
        cell.insert(pos, 1, ch);
      } else if (op == 1 && pos < cell.size()) {
        cell[pos] = ch;
      } else if (op == 2 && pos < cell.size()) {
        cell.erase(pos, 1);
      } else if (op == 3) {
        // Long mantissas: the correctly rounded hard cases.
        std::string digits;
        const int64_t n = 10 + rng.UniformInt(20);
        for (int64_t d = 0; d < n; ++d) {
          digits.push_back(static_cast<char>('0' + rng.UniformInt(10)));
        }
        cell.insert(pos, digits);
      } else if (op == 4 && !cell.empty()) {
        cell += cell.substr(pos < cell.size() ? pos : 0, 3);
      }
    }
    accepted += ExpectSameAsReference(cell);
    if (::testing::Test::HasFailure()) break;  // one report is enough
  }
  // The corpus must exercise both verdicts heavily.
  EXPECT_GT(accepted, 10000);
  EXPECT_LT(accepted, 90000);
}

// ---- Save format ------------------------------------------------------------

TEST(Csv, SaveBytesEqualPercentTenG) {
  PricePanel p(3, 4);
  p.asset_names() = {"A", "BB", "C_c", "D"};
  p.set_train_end(2);
  const double prices[3][4] = {
      {1e-7, 1e15, 0.1, 123456.789012345},
      {1.0, 2.5e-300, 9999999999.5, 1.7976931348623157e308},
      {100.0, 0.30000000000000004, 123.456789012345678, 5e-324}};
  for (int64_t t = 0; t < 3; ++t) {
    for (int64_t i = 0; i < 4; ++i) p.SetClose(t, i, prices[t][i]);
  }
  std::string want = "#train_end=2\nday,A,BB,C_c,D\n";
  for (int t = 0; t < 3; ++t) {
    want += std::to_string(t);
    for (int i = 0; i < 4; ++i) {
      char cell[64];
      std::snprintf(cell, sizeof(cell), ",%.10g", prices[t][i]);
      want += cell;
    }
    want += "\n";
  }
  const std::string path = ::testing::TempDir() + "/panel_format.csv";
  ASSERT_TRUE(SavePanelCsv(p, path).ok());
  std::string got;
  FILE* f = fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buf[4096];
  size_t n = 0;
  while ((n = fread(buf, 1, sizeof(buf), f)) > 0) got.append(buf, n);
  fclose(f);
  EXPECT_EQ(got, want);
  std::remove(path.c_str());
}

TEST(StatusResult, BasicBehaviour) {
  Status ok = Status::OK();
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.ToString(), "OK");
  Status err = Status::InvalidArgument("bad");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.ToString(), "InvalidArgument: bad");
  Result<int> value(7);
  EXPECT_TRUE(value.ok());
  EXPECT_EQ(value.value(), 7);
  Result<int> failed(Status::NotFound("x"));
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace cit::market
