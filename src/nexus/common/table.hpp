// Aligned text tables and CSV output for the benchmark harnesses.
//
// Every nexus-bench experiment prints the rows/series the paper reports; this
// helper keeps the formatting consistent and optionally mirrors rows to CSV.
#pragma once

#include <string>
#include <vector>

namespace nexus {

class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  /// Add one row; must have the same arity as the header.
  void add_row(std::vector<std::string> row);

  /// Convenience: format doubles with the given precision.
  static std::string num(double v, int precision = 2);
  static std::string integer(long long v);

  /// Render with column alignment and a header rule.
  [[nodiscard]] std::string str() const;

  /// Render as CSV (header + rows); a cell holding a comma, a quote or a
  /// newline is quoted, its quotes doubled.
  [[nodiscard]] std::string csv() const;

  /// Print to stdout.
  void print() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace nexus
