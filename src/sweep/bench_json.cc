#include "sweep/bench_json.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "simkit/check.h"
#include "simkit/json.h"

namespace chameleon::sweep {

BenchJson::BenchJson(std::string benchmarkName)
    : name_(std::move(benchmarkName))
{
}

BenchJson &
BenchJson::row()
{
    rows_.emplace_back();
    return *this;
}

BenchJson &
BenchJson::field(const std::string &key, bool value)
{
    CHM_CHECK(!rows_.empty(), "field() before row()");
    rows_.back().push_back(Field{key, value ? "true" : "false"});
    return *this;
}

BenchJson &
BenchJson::field(const std::string &key, double value)
{
    CHM_CHECK(!rows_.empty(), "field() before row()");
    std::ostringstream os;
    os.precision(std::numeric_limits<double>::max_digits10);
    if (std::isfinite(value))
        os << value;
    else
        os << "null"; // JSON has no NaN/Inf
    rows_.back().push_back(Field{key, os.str()});
    return *this;
}

BenchJson &
BenchJson::field(const std::string &key, std::int64_t value)
{
    CHM_CHECK(!rows_.empty(), "field() before row()");
    rows_.back().push_back(Field{key, std::to_string(value)});
    return *this;
}

BenchJson &
BenchJson::field(const std::string &key, std::uint64_t value)
{
    CHM_CHECK(!rows_.empty(), "field() before row()");
    rows_.back().push_back(Field{key, std::to_string(value)});
    return *this;
}

BenchJson &
BenchJson::field(const std::string &key, const std::string &value)
{
    CHM_CHECK(!rows_.empty(), "field() before row()");
    rows_.back().push_back(Field{key, sim::jsonQuote(value)});
    return *this;
}

BenchJson &
BenchJson::field(const std::string &key, const sim::JsonValue &value)
{
    CHM_CHECK(!rows_.empty(), "field() before row()");
    std::string literal = value.dump();
    literal.pop_back(); // dump()'s trailing newline
    rows_.back().push_back(Field{key, std::move(literal)});
    return *this;
}

std::string
BenchJson::toString() const
{
    std::ostringstream out;
    out << "{\n  \"benchmark\": " << sim::jsonQuote(name_)
        << ",\n  \"rows\": [\n";
    for (std::size_t r = 0; r < rows_.size(); ++r) {
        out << "    {";
        for (std::size_t f = 0; f < rows_[r].size(); ++f) {
            out << sim::jsonQuote(rows_[r][f].key) << ": "
                << rows_[r][f].literal;
            if (f + 1 < rows_[r].size())
                out << ", ";
        }
        out << (r + 1 < rows_.size() ? "},\n" : "}\n");
    }
    out << "  ]\n}\n";
    return out.str();
}

void
BenchJson::write(const std::string &path) const
{
    std::ofstream out(path);
    CHM_CHECK(out.good(), "cannot open " << path);
    out << toString();
    out.flush();
    CHM_CHECK(out.good(), "write failed for " << path);
    std::printf("\nmachine-readable results written to %s\n",
                path.c_str());
}

} // namespace chameleon::sweep
