/**
 * @file
 * Minimal CSV writer so bench harnesses can optionally dump raw series
 * for external plotting alongside the ASCII tables.
 */

#ifndef LSIM_COMMON_CSV_HH
#define LSIM_COMMON_CSV_HH

#include <ostream>
#include <string>
#include <vector>

namespace lsim
{

/**
 * Writes rows of cells to a stream. Cells containing commas or
 * quotes are quoted per RFC 4180.
 */
class CsvWriter
{
  public:
    /** Write to an already-open stream (not owned). */
    explicit CsvWriter(std::ostream &os)
        : out_(os)
    {
    }

    /** Write one row. */
    void writeRow(const std::vector<std::string> &cells);

    /** @return true if the underlying stream is healthy. */
    bool good() const { return out_.good(); }

  private:
    static std::string escape(const std::string &cell);

    std::ostream &out_;
};

} // namespace lsim

#endif // LSIM_COMMON_CSV_HH
