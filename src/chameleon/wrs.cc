#include "chameleon/wrs.h"

#include <algorithm>

#include "simkit/check.h"

namespace chameleon::core {

namespace {
/** Normalisation floors: typical medium request (§3.1). */
constexpr double kMinMaxInput = 256.0;
constexpr double kMinMaxOutput = 256.0;
/** Input and output weights A and B (paper: 0.4 and 0.6). */
constexpr double kInputWeight = 0.4;
constexpr double kOutputWeight = 0.6;
} // namespace

WrsCalculator::WrsCalculator(const model::AdapterPool *pool, WrsForm form)
    : pool_(pool), form_(form), maxInput_(kMinMaxInput),
      maxOutput_(kMinMaxOutput)
{
}

double
WrsCalculator::compute(std::int64_t inputTokens,
                       std::int64_t predictedOutput,
                       std::int64_t adapterBytes)
{
    maxInput_ = std::max(maxInput_, static_cast<double>(inputTokens));
    maxOutput_ = std::max(maxOutput_, static_cast<double>(predictedOutput));
    const double in_n = static_cast<double>(inputTokens) / maxInput_;
    const double out_n = static_cast<double>(predictedOutput) / maxOutput_;

    double ad_n = 1.0;
    if (pool_ && pool_->maxBytes() > 0) {
        // Base-only requests get the smallest adapter's share so the
        // multiplicative form stays well defined.
        const double bytes = adapterBytes > 0
                                 ? static_cast<double>(adapterBytes)
                                 : static_cast<double>(pool_->maxBytes()) /
                                       16.0;
        ad_n = bytes / static_cast<double>(pool_->maxBytes());
    }

    switch (form_) {
      case WrsForm::Degree2:
        return (kInputWeight * in_n + kOutputWeight * out_n) * ad_n;
      case WrsForm::Degree1:
        // Equal-altitude linear blend; adapter gets the residual weight.
        return kInputWeight * in_n + kOutputWeight * out_n + 0.5 * ad_n;
      case WrsForm::OutputOnly:
        return out_n;
    }
    CHM_PANIC("unknown WRS form");
}

const sim::NameTable<WrsForm> &
wrsFormTable()
{
    static const sim::NameTable<WrsForm> table{
        {WrsForm::Degree2, "degree2"},
        {WrsForm::Degree1, "degree1"},
        {WrsForm::OutputOnly, "output-only"}};
    return table;
}

} // namespace chameleon::core
