#include "util/table.h"

#include <algorithm>
#include <cstdio>

namespace dsp {

std::string Table::render() const {
  // Column widths over header + all rows.
  std::vector<std::size_t> widths;
  auto widen = [&widths](const std::vector<std::string>& cells) {
    if (widths.size() < cells.size()) widths.resize(cells.size(), 0);
    for (std::size_t i = 0; i < cells.size(); ++i)
      widths[i] = std::max(widths[i], cells[i].size());
  };
  widen(header_);
  for (const auto& row : rows_) widen(row);

  std::string out;
  if (!title_.empty()) {
    out += "== ";
    out += title_;
    out += " ==\n";
  }
  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < widths.size(); ++i) {
      const std::string& cell = i < cells.size() ? cells[i] : std::string{};
      out += cell;
      if (i + 1 < widths.size()) out.append(widths[i] - cell.size() + 2, ' ');
    }
    out += '\n';
  };
  if (!header_.empty()) {
    emit(header_);
    std::size_t total = 0;
    for (auto w : widths) total += w + 2;
    out.append(total > 2 ? total - 2 : total, '-');
    out += '\n';
  }
  for (const auto& row : rows_) emit(row);
  return out;
}

std::string fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

std::string fmt_count(long long v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%lld", v);
  return buf;
}

}  // namespace dsp
