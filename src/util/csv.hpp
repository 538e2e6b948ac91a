// CSV writer for bench output intended for plotting.
#pragma once

#include <fstream>
#include <string>
#include <vector>

namespace latol::util {

/// Canonical CSV cell formatting for a double: printf's %.17g, the
/// default ostream format at max round-trip precision (max_digits10).
/// Every CSV the project emits — bench files, `latol run` results — goes
/// through this one function, so the same number always renders as the
/// same bytes.
[[nodiscard]] std::string csv_number(double value);

/// Streams rows of doubles/strings to a CSV file. The writer is append-only
/// and flushes on destruction; failures to open throw.
class CsvWriter {
 public:
  /// Open `path` for writing and emit the header row.
  CsvWriter(const std::string& path, const std::vector<std::string>& header);

  /// Append a numeric row (formatted with max round-trip precision).
  void add_row(const std::vector<double>& values);

  /// Append a row of preformatted cells.
  void add_row(const std::vector<std::string>& cells);

 private:
  std::ofstream out_;
  std::size_t columns_;
};

}  // namespace latol::util
