/**
 * @file
 * ASCII table formatting for the benchmark harnesses.
 *
 * bench/reproduce regenerates every table and figure of the paper;
 * the TextTable class renders aligned rows so the output reads like
 * the published table ("paper" columns next to "measured" columns).
 */

#ifndef AREGION_SUPPORT_TABLE_HH
#define AREGION_SUPPORT_TABLE_HH

#include <string>
#include <vector>

namespace aregion {

/** Column-aligned text table with an optional header rule. */
class TextTable
{
  public:
    explicit TextTable(std::vector<std::string> header);

    /** Append a data row; must match the header arity. */
    void addRow(std::vector<std::string> row);

    /** Convenience: format a double with fixed precision. */
    static std::string fmt(double value, int precision = 1);

    /** Convenience: format a percentage (value is a ratio). */
    static std::string pct(double ratio, int precision = 1);

    /** Render the full table, right-aligning numeric-looking cells. */
    std::string render() const;

    /** JSON object {"header": [...], "rows": [[...], ...]} (used by
     *  the bench binaries' --json export). */
    std::string toJson(int indent = 2) const;

    const std::vector<std::string> &header() const { return head; }
    const std::vector<std::vector<std::string>> &data() const
    {
        return rows;
    }

  private:
    std::vector<std::string> head;
    std::vector<std::vector<std::string>> rows;
};

} // namespace aregion

#endif // AREGION_SUPPORT_TABLE_HH
