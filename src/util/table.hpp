// Minimal ASCII table formatter used by the reproduction benches to print
// rows in the shape the paper's tables/figures report.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace latol::util {

/// Column-aligned ASCII table. Cells are strings; numeric helpers format
/// doubles with a fixed precision. The table owns its data and renders to
/// any ostream. Intended for human-readable bench output (CSV output for
/// plotting lives in csv.hpp).
class Table {
 public:
  /// Create a table with the given column headers.
  explicit Table(std::vector<std::string> headers);

  /// Append one row; the number of cells must equal the number of headers.
  void add_row(std::vector<std::string> cells);

  /// Format a double with `precision` digits after the decimal point.
  static std::string num(double v, int precision = 4);

  /// Number of data rows currently stored.
  [[nodiscard]] std::size_t rows() const { return rows_.size(); }

  /// Render with a header rule and column padding.
  void print(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Render the table with aligned columns.
std::ostream& operator<<(std::ostream& os, const Table& t);

/// Print a section banner used between blocks of a bench's output.
void print_banner(std::ostream& os, const std::string& title);

}  // namespace latol::util
