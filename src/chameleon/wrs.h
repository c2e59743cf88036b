/**
 * @file
 * Weighted Request Size (§4.3.1).
 *
 * WRS estimates a request's total execution cost from its known input
 * size, predicted output size, and adapter size:
 *
 *   WRS = (A * In/MaxIn + B * Out/MaxOut) * AdapterSize/MaxAdapterSize
 *
 * with A=0.4 and B=0.6 from the paper's sensitivity studies. The paper
 * reports this degree-2 polynomial outperforms a linear (degree-1)
 * combination by up to 10%; both are implemented for the ablation, along
 * with the OutputOnly variant used in the §5.4.1 predictor study.
 */

#ifndef CHAMELEON_CHAMELEON_WRS_H
#define CHAMELEON_CHAMELEON_WRS_H

#include <cstdint>
#include <string>

#include "model/adapter.h"
#include "simkit/name_table.h"

namespace chameleon::core {

/** WRS formula variants. */
enum class WrsForm {
    Degree2,    ///< The paper's formula (length term times adapter term).
    Degree1,    ///< Linear combination of all three factors (ablation).
    OutputOnly, ///< Predicted output only (the uServe-style knob, §5.4.1).
};

/** The forms' names ("degree2" | "degree1" | "output-only"): the
 * parser (false on an unknown name) reads it. */
const sim::NameTable<WrsForm> &wrsFormTable();
inline bool
wrsFormByName(const std::string &name, WrsForm *out)
{
    return wrsFormTable().byName(name, out);
}

/** Computes WRS values with running normalisation maxima. */
class WrsCalculator
{
  public:
    /**
     * @param pool adapter catalogue (nullable for base-only workloads)
     * @param form formula variant
     */
    explicit WrsCalculator(const model::AdapterPool *pool,
                           WrsForm form = WrsForm::Degree2);

    /**
     * WRS of a request. Maintains running maxima of observed input and
     * output sizes for normalisation (floored so early requests do not
     * destabilise the scale).
     */
    double compute(std::int64_t inputTokens, std::int64_t predictedOutput,
                   std::int64_t adapterBytes);

    WrsForm form() const { return form_; }

  private:
    const model::AdapterPool *pool_;
    WrsForm form_;
    double maxInput_;
    double maxOutput_;
};

} // namespace chameleon::core

#endif // CHAMELEON_CHAMELEON_WRS_H
