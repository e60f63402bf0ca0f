#include "nexus/common/table.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "nexus/common/assert.hpp"

namespace nexus {

TextTable::TextTable(std::vector<std::string> header) : header_(std::move(header)) {}

void TextTable::add_row(std::vector<std::string> row) {
  NEXUS_ASSERT_MSG(row.size() == header_.size(), "row arity mismatch");
  rows_.push_back(std::move(row));
}

std::string TextTable::num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

std::string TextTable::integer(long long v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%lld", v);
  return buf;
}

std::string TextTable::str() const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());

  std::ostringstream os;
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << (c == 0 ? "" : "  ");
      // Left-align first column (labels), right-align the rest (numbers).
      if (c == 0) {
        os << row[c] << std::string(widths[c] - row[c].size(), ' ');
      } else {
        os << std::string(widths[c] - row[c].size(), ' ') << row[c];
      }
    }
    os << '\n';
  };
  emit(header_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < widths.size(); ++c) total += widths[c] + (c ? 2 : 0);
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) emit(row);
  return os.str();
}

std::string TextTable::csv() const {
  std::string out;
  auto emit = [&out](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c > 0) out.push_back(',');
      if (row[c].find_first_of(",\"\n") == std::string::npos) {
        out.append(row[c]);
        continue;
      }
      // RFC 4180: quote the cell and double its quotes.
      out.push_back('"');
      for (const char ch : row[c]) {
        if (ch == '"') out.push_back('"');
        out.push_back(ch);
      }
      out.push_back('"');
    }
    out.push_back('\n');
  };
  emit(header_);
  for (const auto& row : rows_) emit(row);
  return out;
}

void TextTable::print() const { std::fputs(str().c_str(), stdout); }

}  // namespace nexus
