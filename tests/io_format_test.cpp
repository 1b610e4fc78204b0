/// Tests for CSV writing and text-table rendering.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "io/csv.hpp"
#include "io/table.hpp"

namespace greenfpga::io {
namespace {

TEST(Csv, PlainCellsPassThrough) {
  CsvWriter csv;
  csv.add_row({"a", "b", "c"});
  csv.add_row({"1", "2", "3"});
  EXPECT_EQ(csv.render(), "a,b,c\n1,2,3\n");
}

TEST(Csv, QuotesOnlyWhenNeeded) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("with,comma"), "\"with,comma\"");
  EXPECT_EQ(CsvWriter::escape("with\"quote"), "\"with\"\"quote\"");
  EXPECT_EQ(CsvWriter::escape("with\nnewline"), "\"with\nnewline\"");
}

TEST(Csv, RaggedRowsAllowed) {
  CsvWriter csv;
  csv.add_row({"a"});
  csv.add_row({"b", "c"});
  EXPECT_EQ(csv.render(), "a\nb,c\n");
}

TEST(Csv, WriteFileCreatesParentDirectories) {
  const std::string path = ::testing::TempDir() + "/greenfpga_csv/sub/out.csv";
  CsvWriter csv;
  csv.add_row({"x", "y"});
  csv.write_file(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "x,y");
}

TEST(Csv, WriteFileFailureNamesThePath) {
  // /dev/full opens fine and fails the write; a small file only reaches
  // it at the final flush, so the check must come after close.
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "/dev/full absent";
  }
  CsvWriter csv;
  csv.add_row({"x", "y"});
  try {
    csv.write_file("/dev/full");
    FAIL() << "expected a write error";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("/dev/full"), std::string::npos)
        << error.what();
  }
}

TEST(TextTable, AlignsColumns) {
  TextTable table;
  table.set_headers({"name", "value"});
  table.add_row({"a", "1"});
  table.add_row({"longer", "23"});
  const std::string out = table.render();
  // Default alignment: first column left, rest right.
  EXPECT_NE(out.find("| a      |     1 |"), std::string::npos) << out;
  EXPECT_NE(out.find("| longer |    23 |"), std::string::npos) << out;
}

TEST(TextTable, CustomAlignment) {
  TextTable table;
  table.set_headers({"n", "s"});
  table.set_alignments({Align::right, Align::left});
  table.add_row({"1", "ab"});
  table.add_row({"10", "c"});
  const std::string out = table.render();
  EXPECT_NE(out.find("|  1 | ab |"), std::string::npos) << out;
  EXPECT_NE(out.find("| 10 | c  |"), std::string::npos) << out;
}

TEST(TextTable, RuleSeparatesSections) {
  TextTable table;
  table.set_headers({"a"});
  table.add_row({"1"});
  table.add_rule();
  table.add_row({"2"});
  const std::string out = table.render();
  // header rule + top + bottom + explicit = 4 dashes lines
  std::size_t rules = 0;
  std::istringstream stream(out);
  std::string line;
  while (std::getline(stream, line)) {
    if (!line.empty() && line[0] == '+') ++rules;
  }
  EXPECT_EQ(rules, 4u);
}

TEST(TextTable, RowArityMismatchThrows) {
  TextTable table;
  table.set_headers({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
}

TEST(TextTable, AlignmentArityMismatchThrows) {
  TextTable table;
  table.set_headers({"a", "b"});
  EXPECT_THROW(table.set_alignments({Align::left}), std::invalid_argument);
}

TEST(TextTable, HeadersAfterRowsThrows) {
  TextTable table;
  table.set_headers({"a"});
  table.add_row({"1"});
  EXPECT_THROW(table.set_headers({"b"}), std::logic_error);
}

TEST(TextTable, EmptyTableRendersNothing) {
  const TextTable table;
  EXPECT_EQ(table.render(), "");
}

}  // namespace
}  // namespace greenfpga::io
