#include "util/csv.hpp"

#include <charconv>

#include "util/error.hpp"

namespace latol::util {

std::string csv_number(double value) {
  char buf[32];  // %.17g needs at most 24
  const auto result = std::to_chars(buf, buf + sizeof buf, value,
                                    std::chars_format::general, 17);
  return std::string(buf, result.ptr);
}

CsvWriter::CsvWriter(const std::string& path,
                     const std::vector<std::string>& header)
    : out_(path), columns_(header.size()) {
  LATOL_REQUIRE(out_.good(), "cannot open CSV file `" << path << "`");
  LATOL_REQUIRE(!header.empty(), "CSV header must not be empty");
  add_row(header);
}

void CsvWriter::add_row(const std::vector<double>& values) {
  std::vector<std::string> cells;
  cells.reserve(values.size());
  for (double v : values) cells.push_back(csv_number(v));
  add_row(cells);
}

void CsvWriter::add_row(const std::vector<std::string>& cells) {
  LATOL_REQUIRE(cells.size() == columns_,
                "CSV row has " << cells.size() << " cells, expected "
                               << columns_);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i != 0) out_ << ',';
    out_ << cells[i];
  }
  out_ << '\n';
}

}  // namespace latol::util
