#include "util/table.hpp"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "util/assert.hpp"

namespace creditflow::util {

ConsoleTable::ConsoleTable(std::string title) : title_(std::move(title)) {}

void ConsoleTable::set_header(std::vector<std::string> header) {
  CF_EXPECTS(!header.empty());
  CF_EXPECTS_MSG(rows_.empty(), "set_header before adding rows");
  header_ = std::move(header);
}

void ConsoleTable::add_row(std::vector<Cell> row) {
  CF_EXPECTS_MSG(row.size() == header_.size(),
                 "row size must match header size");
  rows_.push_back(std::move(row));
}

std::string ConsoleTable::format_cell(const Cell& c) const {
  if (const auto* s = std::get_if<std::string>(&c)) return *s;
  if (const auto* i = std::get_if<std::int64_t>(&c)) return std::to_string(*i);
  std::ostringstream oss;
  oss << std::fixed << std::setprecision(4) << std::get<double>(c);
  return oss.str();
}

void ConsoleTable::print(std::ostream& os) const {
  CF_EXPECTS_MSG(!header_.empty(), "table has no header");
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c)
    widths[c] = header_[c].size();
  std::vector<std::vector<std::string>> rendered;
  rendered.reserve(rows_.size());
  for (const auto& row : rows_) {
    std::vector<std::string> cells;
    cells.reserve(row.size());
    for (std::size_t c = 0; c < row.size(); ++c) {
      cells.push_back(format_cell(row[c]));
      widths[c] = std::max(widths[c], cells.back().size());
    }
    rendered.push_back(std::move(cells));
  }

  if (!title_.empty()) os << "== " << title_ << " ==\n";
  auto print_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << (c == 0 ? "" : "  ") << std::setw(static_cast<int>(widths[c]))
         << cells[c];
    }
    os << '\n';
  };
  print_row(header_);
  std::size_t total = 0;
  for (std::size_t w : widths) total += w + 2;
  os << std::string(total > 2 ? total - 2 : total, '-') << '\n';
  for (const auto& row : rendered) print_row(row);
}

void ConsoleTable::print() const { print(std::cout); }

std::string csv_escape(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"') out += "\"\"";
    else out += ch;
  }
  out += '"';
  return out;
}

std::string ConsoleTable::to_csv() const {
  std::ostringstream oss;
  for (std::size_t c = 0; c < header_.size(); ++c) {
    oss << (c == 0 ? "" : ",") << csv_escape(header_[c]);
  }
  oss << '\n';
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      oss << (c == 0 ? "" : ",") << csv_escape(format_cell(row[c]));
    }
    oss << '\n';
  }
  return oss.str();
}

std::optional<std::string> write_csv_if_configured(const ConsoleTable& table,
                                                   const std::string& name) {
  const char* dir = std::getenv("CREDITFLOW_CSV_DIR");
  if (dir == nullptr || *dir == '\0') return std::nullopt;
  std::filesystem::create_directories(dir);
  const auto path = std::filesystem::path(dir) / (name + ".csv");
  std::ofstream ofs(path);
  if (!ofs) return std::nullopt;
  ofs << table.to_csv();
  return path.string();
}

}  // namespace creditflow::util
