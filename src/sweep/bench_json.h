/**
 * @file
 * Machine-readable benchmark output (BENCH_<name>.json).
 *
 * Accumulates flat rows of fields and prints
 * {"benchmark": ..., "rows": [...]} so the perf trajectory of a bench
 * or sweep can be tracked across commits.
 */

#ifndef CHAMELEON_SWEEP_BENCH_JSON_H
#define CHAMELEON_SWEEP_BENCH_JSON_H

#include <cstdint>
#include <string>
#include <vector>

#include "simkit/json.h"

namespace chameleon::sweep {

/** Row-oriented benchmark result document. */
class BenchJson
{
  public:
    explicit BenchJson(std::string benchmarkName);

    /** Start a new row; subsequent field() calls fill it. */
    BenchJson &row();

    BenchJson &field(const std::string &key, bool value);
    BenchJson &field(const std::string &key, double value);
    BenchJson &field(const std::string &key, std::int64_t value);
    /** Full uint64 range (seeds print unsigned, not wrapped). */
    BenchJson &field(const std::string &key, std::uint64_t value);
    BenchJson &field(const std::string &key, const std::string &value);
    /** Any JSON value, printed as its literal. */
    BenchJson &field(const std::string &key, const sim::JsonValue &value);
    /** Literals stay strings (not bools) despite the bool overload. */
    BenchJson &field(const std::string &key, const char *value)
    {
        return field(key, std::string(value));
    }

    std::size_t rowCount() const { return rows_.size(); }

    /**
     * The complete document text. Deterministic: same rows in the same
     * order print byte-identically (the sweep determinism tests assert
     * exactly this).
     */
    std::string toString() const;

    /** Write the document; fails hard if the path cannot be opened. */
    void write(const std::string &path) const;

  private:
    struct Field
    {
        std::string key;
        std::string literal; // already JSON-encoded
    };

    std::string name_;
    std::vector<std::vector<Field>> rows_;
};

} // namespace chameleon::sweep

#endif // CHAMELEON_SWEEP_BENCH_JSON_H
