#include "util/table.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "util/error.hpp"

namespace latol::util {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  LATOL_REQUIRE(!headers_.empty(), "a table needs at least one column");
}

void Table::add_row(std::vector<std::string> cells) {
  LATOL_REQUIRE(cells.size() == headers_.size(),
                "row has " << cells.size() << " cells, expected "
                           << headers_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::num(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      width[c] = std::max(width[c], row[c].size());

  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << (c == 0 ? "| " : " | ") << std::setw(static_cast<int>(width[c]))
         << cells[c];
    }
    os << " |\n";
  };

  emit(headers_);
  os << '|';
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    os << std::string(width[c] + 2, '-') << '|';
  }
  os << '\n';
  for (const auto& row : rows_) emit(row);
}

std::ostream& operator<<(std::ostream& os, const Table& t) {
  t.print(os);
  return os;
}

void print_banner(std::ostream& os, const std::string& title) {
  os << '\n' << std::string(72, '=') << '\n'
     << "  " << title << '\n'
     << std::string(72, '=') << '\n';
}

}  // namespace latol::util
