#include "common/csv.hh"

namespace lsim
{

void
CsvWriter::writeRow(const std::vector<std::string> &cells)
{
    for (std::size_t i = 0; i < cells.size(); ++i) {
        out_ << escape(cells[i]);
        if (i + 1 < cells.size())
            out_ << ',';
    }
    out_ << '\n';
}

std::string
CsvWriter::escape(const std::string &cell)
{
    if (cell.find_first_of(",\"\n") == std::string::npos)
        return cell;
    std::string quoted = "\"";
    for (char ch : cell) {
        if (ch == '"')
            quoted += '"';
        quoted += ch;
    }
    quoted += '"';
    return quoted;
}

} // namespace lsim
