// CreditFlow: console tables and CSV emission for the benchmark harnesses.
//
// Every figure bench prints an aligned table of the series the paper plots;
// when the environment variable CREDITFLOW_CSV_DIR is set, the same data is
// also written as CSV files for external plotting.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <variant>
#include <vector>

namespace creditflow::util {

/// A cell is either text or a number (doubles print with 4 decimals).
using Cell = std::variant<std::string, double, std::int64_t>;

/// Column-aligned console table with an optional title.
class ConsoleTable {
 public:
  explicit ConsoleTable(std::string title = {});

  /// Set header labels; defines the column count.
  void set_header(std::vector<std::string> header);
  /// Append one row; its size must match the header.
  void add_row(std::vector<Cell> row);

  [[nodiscard]] std::size_t rows() const { return rows_.size(); }
  [[nodiscard]] std::size_t cols() const { return header_.size(); }

  /// Render to a stream with box-drawing-free ASCII alignment.
  void print(std::ostream& os) const;
  /// Render to stdout.
  void print() const;
  /// Serialize as CSV (header + rows, RFC-ish quoting of commas/quotes).
  [[nodiscard]] std::string to_csv() const;

 private:
  [[nodiscard]] std::string format_cell(const Cell& c) const;

  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<Cell>> rows_;
};

/// One CSV field: `s` as is, or in double quotes with inner quotes doubled
/// when it holds a comma, a quote or a newline.
[[nodiscard]] std::string csv_escape(const std::string& s);

/// Write a table as `<name>.csv` under $CREDITFLOW_CSV_DIR, if set.
/// Returns the path written, or nullopt when the env var is absent.
std::optional<std::string> write_csv_if_configured(const ConsoleTable& table,
                                                   const std::string& name);

}  // namespace creditflow::util
