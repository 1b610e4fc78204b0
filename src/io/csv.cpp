/// \file csv.cpp
/// RFC 4180 CSV rendering and file emission.

#include "io/csv.hpp"

#include <filesystem>
#include <fstream>
#include <stdexcept>

namespace greenfpga::io {

void CsvWriter::add_row(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

void CsvWriter::add_row(std::initializer_list<std::string> cells) {
  rows_.emplace_back(cells);
}

std::string CsvWriter::escape(const std::string& cell) {
  const bool needs_quotes = cell.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quotes) {
    return cell;
  }
  std::string out = "\"";
  for (const char c : cell) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

std::string CsvWriter::render() const {
  std::string out;
  for (const auto& row : rows_) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i != 0) out.push_back(',');
      out += escape(row[i]);
    }
    out.push_back('\n');
  }
  return out;
}

void CsvWriter::write_file(const std::string& path) const {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::filesystem::create_directories(p.parent_path());
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw std::runtime_error("CsvWriter: cannot open " + path);
  }
  out << render();
  out.close();
  if (!out) {
    throw std::runtime_error("CsvWriter: cannot write " + path);
  }
}

}  // namespace greenfpga::io
