#include "sweep/baseline_diff.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

namespace chameleon::sweep {

namespace {

/** Cell-identity columns: equal indices must describe the same cell.
 * Every dotted column is an axis, so it is identity too. */
bool
isIdentityKey(const std::string &key)
{
    static const char *const kIdentity[] = {"system", "rps", "replicas",
                                            "trace_seed"};
    return key.find('.') != std::string::npos ||
           std::any_of(std::begin(kIdentity), std::end(kIdentity),
                       [&](const char *k) { return key == k; });
}

/** Scalar literal for messages (strings unquoted, numbers as dumped). */
std::string
literal(const sim::JsonValue &v)
{
    return v.isString() ? v.asString() : v.dump();
}

bool
numbersDrifted(const sim::JsonValue &base, const sim::JsonValue &cur,
               double relTolerance)
{
    const double b = base.asNumber();
    const double c = cur.asNumber();
    if (b == c)
        return false;
    if (b == 0.0)
        return true; // an exact-zero baseline drifts on any change
    return std::abs(c - b) > relTolerance * std::abs(b);
}

const sim::JsonValue *
rowsOf(const sim::JsonValue &doc, const char *which,
       BaselineDiff &diff)
{
    if (!doc.isObject()) {
        diff.structural.push_back(std::string(which) +
                                  " document is not a JSON object");
        return nullptr;
    }
    const sim::JsonValue *rows = doc.find("rows");
    if (rows == nullptr || !rows->isArray()) {
        diff.structural.push_back(std::string(which) +
                                  " document has no \"rows\" array");
        return nullptr;
    }
    return rows;
}

} // namespace

BaselineDiff
diffAgainstBaseline(const sim::JsonValue &current,
                    const sim::JsonValue &baseline, double relTolerance)
{
    BaselineDiff diff;
    const sim::JsonValue *curRows = rowsOf(current, "current", diff);
    const sim::JsonValue *baseRows = rowsOf(baseline, "baseline", diff);
    if (curRows == nullptr || baseRows == nullptr)
        return diff;

    if (curRows->items().size() != baseRows->items().size()) {
        diff.structural.push_back(
            "row count: baseline has " +
            std::to_string(baseRows->items().size()) + ", current has " +
            std::to_string(curRows->items().size()) +
            " (different sweep grid — regenerate the baseline)");
        return diff;
    }

    for (std::size_t i = 0; i < curRows->items().size(); ++i) {
        const sim::JsonValue &cur = curRows->items()[i];
        const sim::JsonValue &base = baseRows->items()[i];
        if (!cur.isObject() || !base.isObject()) {
            diff.structural.push_back("row " + std::to_string(i) +
                                      " is not a JSON object");
            continue;
        }
        for (const auto &[key, baseValue] : base.members()) {
            const sim::JsonValue *curValue = cur.find(key);
            if (curValue == nullptr) {
                diff.structural.push_back(
                    "row " + std::to_string(i) + ": column \"" + key +
                    "\" only in the baseline (column set changed — "
                    "regenerate the baseline)");
                continue;
            }
            BaselineDiff::Mismatch m{i, key, literal(baseValue),
                                     literal(*curValue)};
            if (key == "event_hash") {
                if (baseValue.asString() != curValue->asString())
                    diff.hashMismatches.push_back(std::move(m));
            } else if (isIdentityKey(key)) {
                if (baseValue.dump() != curValue->dump()) {
                    diff.structural.push_back(
                        "row " + std::to_string(i) + ": identity \"" +
                        key + "\" moved (" + m.baseline + " -> " +
                        m.current + ") — rows are not aligned");
                }
            } else if (baseValue.isNumber() && curValue->isNumber()) {
                if (numbersDrifted(baseValue, *curValue, relTolerance))
                    diff.drifts.push_back(std::move(m));
            } else if (baseValue.dump() != curValue->dump()) {
                diff.drifts.push_back(std::move(m));
            }
        }
        for (const auto &[key, value] : cur.members()) {
            (void)value;
            if (base.find(key) == nullptr) {
                diff.structural.push_back(
                    "row " + std::to_string(i) + ": column \"" + key +
                    "\" only in the current document (column set "
                    "changed — regenerate the baseline)");
            }
        }
    }
    return diff;
}

} // namespace chameleon::sweep
