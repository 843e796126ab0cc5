#include "util/table.hh"

#include <algorithm>
#include <fstream>

#include "util/error.hh"
#include "util/knobs.hh"
#include "util/logging.hh"
#include "util/strings.hh"

namespace fvc::util {

namespace {

/** Sentinel cell content marking a separator row. */
const std::string kSeparator = "\x01--";

} // namespace

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers)), right_(headers_.size(), false)
{
    fvc_assert(!headers_.empty(), "Table requires at least one column");
}

void
Table::addRow(std::vector<std::string> cells)
{
    fvc_assert(cells.size() == headers_.size(),
               "row arity ", cells.size(), " != header arity ",
               headers_.size());
    rows_.push_back(std::move(cells));
}

void
Table::addSeparator()
{
    rows_.push_back({kSeparator});
}

void
Table::alignRight(size_t column)
{
    fvc_assert(column < right_.size(), "column out of range");
    right_[column] = true;
}

std::string
Table::render() const
{
    std::vector<size_t> widths(headers_.size(), 0);
    for (size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto &row : rows_) {
        if (row.size() == 1 && row[0] == kSeparator)
            continue;
        for (size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());
    }

    auto renderRule = [&] {
        std::string line = "+";
        for (size_t w : widths)
            line += std::string(w + 2, '-') + "+";
        return line + "\n";
    };
    auto renderRow = [&](const std::vector<std::string> &cells) {
        std::string line = "|";
        for (size_t c = 0; c < cells.size(); ++c) {
            std::string cell = right_[c] ? padLeft(cells[c], widths[c])
                                         : padRight(cells[c], widths[c]);
            line += " " + cell + " |";
        }
        return line + "\n";
    };

    std::string out = renderRule();
    out += renderRow(headers_);
    out += renderRule();
    for (const auto &row : rows_) {
        if (row.size() == 1 && row[0] == kSeparator)
            out += renderRule();
        else
            out += renderRow(row);
    }
    out += renderRule();
    return out;
}

namespace {

std::string
csvEscape(const std::string &cell)
{
    if (cell.find_first_of(",\"\n") == std::string::npos)
        return cell;
    std::string out = "\"";
    for (char c : cell) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

} // namespace

std::string
Table::renderCsv() const
{
    auto renderRow = [](const std::vector<std::string> &cells) {
        std::string line;
        for (size_t c = 0; c < cells.size(); ++c) {
            if (c)
                line += ',';
            line += csvEscape(cells[c]);
        }
        return line + "\n";
    };
    std::string out = renderRow(headers_);
    for (const auto &row : rows_) {
        if (row.size() == 1 && row[0] == kSeparator)
            continue;
        out += renderRow(row);
    }
    return out;
}

bool
Table::exportCsv(const std::string &name) const
{
    const std::string dir = knobText("FVC_CSV_DIR");
    if (dir.empty())
        return false;
    std::string path = dir + "/" + name + ".csv";
    // Losing requested output silently is worse than dying: name
    // the env var and the likely cause, and in strict mode make it
    // a nonzero exit.
    std::ofstream out(path);
    if (!out) {
        if (strictMode()) {
            fvc_fatal("FVC_CSV_DIR=", dir, ": cannot open ", path,
                      " for writing (missing or unwritable "
                      "directory?)");
        }
        fvc_warn("FVC_CSV_DIR=", dir, ": cannot open ", path,
                 " for writing (missing or unwritable "
                 "directory?); CSV output dropped");
        return false;
    }
    out << renderCsv();
    out.flush();
    if (!out) {
        if (strictMode()) {
            fvc_fatal("FVC_CSV_DIR=", dir, ": short write to ",
                      path);
        }
        fvc_warn("FVC_CSV_DIR=", dir, ": short write to ", path,
                 "; CSV output incomplete");
        return false;
    }
    return true;
}

} // namespace fvc::util
