/**
 * @file
 * Unit tests for the ASCII table and CSV output helpers.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/csv.hh"
#include "common/table.hh"

namespace
{

using lsim::CsvWriter;
using lsim::Table;

TEST(Table, AlignsColumns)
{
    Table t({"name", "value"});
    t.addRow({"a", "1"});
    t.addRow({"longer-name", "2.5"});
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("longer-name"), std::string::npos);
    // Header rule present.
    EXPECT_NE(out.find("----"), std::string::npos);
    EXPECT_EQ(t.numRows(), 2u);
}

TEST(TableDeath, ArityMismatchPanics)
{
    Table t({"a", "b"});
    EXPECT_DEATH(t.addRow({"only-one"}), "arity");
}

TEST(Format, FixedAndSci)
{
    EXPECT_EQ(lsim::fixed(1.23456, 2), "1.23");
    EXPECT_EQ(lsim::fixed(-0.5, 1), "-0.5");
    EXPECT_EQ(lsim::sci(12345.0, 2), "1.23e+04");
}

TEST(Csv, WritesAndEscapes)
{
    const std::string path = ::testing::TempDir() + "/lsim_test.csv";
    {
        std::ofstream file(path);
        CsvWriter w(file);
        w.writeRow({"plain", "with,comma", "with\"quote"});
        ASSERT_TRUE(w.good());
    }
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    EXPECT_EQ(line, "plain,\"with,comma\",\"with\"\"quote\"");
    std::remove(path.c_str());
}

} // namespace
