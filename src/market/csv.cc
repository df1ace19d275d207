#include "market/csv.h"

#include <charconv>
#include <cstdio>
#include <memory>
#include <vector>

#include "market/csv_parse.h"

namespace cit::market {

using csv_internal::CsvSummary;
using csv_internal::OpenForRead;
using csv_internal::ScanCsv;
using csv_internal::ScopedFd;

Status SavePanelCsv(const PricePanel& panel, const std::string& path) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> out(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (!out) return Status::IoError("cannot open for writing: " + path);
  // One line at a time through stdio's buffer, never the whole file.
  std::string line;
  bool ok = true;
  auto write_line = [&] {
    line += '\n';
    ok = ok && std::fwrite(line.data(), 1, line.size(), out.get()) ==
                   line.size();
    line.clear();
  };
  line = "#train_end=" + std::to_string(panel.train_end());
  write_line();
  line = "day";
  for (const auto& name : panel.asset_names()) {
    line += ',';
    line += name;
  }
  write_line();
  // Prices print as "%.10g", which to_chars with an explicit precision is
  // specified to match; that is at most 17 characters ("-1.234567891e-308").
  char number[32];
  for (int64_t t = 0; ok && t < panel.num_days(); ++t) {
    line += std::to_string(t);
    for (int64_t i = 0; i < panel.num_assets(); ++i) {
      const auto printed =
          std::to_chars(number, number + sizeof(number), panel.Close(t, i),
                        std::chars_format::general, 10);
      line += ',';
      line.append(number, printed.ptr);
    }
    write_line();
  }
  if (!ok || std::fclose(out.release()) != 0) {
    return Status::IoError("write failed: " + path);
  }
  return Status::OK();
}

Result<PricePanel> LoadPanelCsv(const std::string& path) {
  const ScopedFd file = OpenForRead(path);
  if (!file.valid()) {
    return Status::IoError("cannot open for reading: " + path);
  }
  CsvSummary summary;
  std::vector<double> closes;  // row-major, one row of prices per day
  const Status scanned = ScanCsv(
      file.get(), path, &summary,
      [&](const double* prices, int64_t /*row_offset*/,
          int64_t /*next_offset*/) {
        closes.insert(closes.end(), prices,
                      prices + summary.asset_names.size());
      });
  if (!scanned.ok()) return scanned;

  const int64_t m = static_cast<int64_t>(summary.asset_names.size());
  PricePanel panel(summary.num_days, m);
  panel.asset_names() = std::move(summary.asset_names);
  panel.set_train_end(summary.train_end);
  for (int64_t t = 0; t < summary.num_days; ++t) {
    for (int64_t i = 0; i < m; ++i) {
      panel.SetClose(t, i, closes[static_cast<size_t>(t * m + i)]);
    }
  }
  return panel;
}

}  // namespace cit::market
