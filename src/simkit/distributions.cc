#include "simkit/distributions.h"

#include <algorithm>
#include <cmath>

#include "simkit/check.h"

namespace chameleon::sim {

double
sampleExponential(Rng &rng, double rate)
{
    CHM_CHECK(rate > 0, "exponential rate must be positive, got " << rate);
    double u;
    do {
        u = rng.nextDouble();
    } while (u <= 0.0);
    return -std::log(u) / rate;
}

double
sampleNormal(Rng &rng)
{
    // Box–Muller; we deliberately discard the second variate to keep the
    // sampler stateless (reproducibility across call sites matters more
    // than a factor of two in speed here).
    double u1;
    do {
        u1 = rng.nextDouble();
    } while (u1 <= 0.0);
    const double u2 = rng.nextDouble();
    return std::sqrt(-2.0 * std::log(u1)) *
           std::cos(2.0 * 3.14159265358979323846 * u2);
}

double
sampleLognormal(Rng &rng, double mu, double sigma)
{
    CHM_CHECK(sigma >= 0, "lognormal sigma must be non-negative");
    return std::exp(mu + sigma * sampleNormal(rng));
}

PowerLawSampler::PowerLawSampler(std::size_t n, double alpha)
{
    CHM_CHECK(n > 0, "power-law sampler needs at least one element");
    pmf_.resize(n);
    cdf_.resize(n);
    double total = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
        pmf_[k] = 1.0 / std::pow(static_cast<double>(k + 1), alpha);
        total += pmf_[k];
    }
    double acc = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
        pmf_[k] /= total;
        acc += pmf_[k];
        cdf_[k] = acc;
    }
    cdf_.back() = 1.0;
}

std::size_t
PowerLawSampler::sample(Rng &rng) const
{
    const double u = rng.nextDouble();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<std::size_t>(it - cdf_.begin());
}

double
PowerLawSampler::probability(std::size_t k) const
{
    CHM_CHECK(k < pmf_.size(), "index out of range");
    return pmf_[k];
}

DiscreteSampler::DiscreteSampler(std::vector<double> weights)
{
    CHM_CHECK(!weights.empty(), "discrete sampler needs weights");
    double total = 0.0;
    for (double w : weights) {
        CHM_CHECK(w >= 0, "weights must be non-negative");
        total += w;
    }
    CHM_CHECK(total > 0, "weights must not all be zero");
    cdf_.resize(weights.size());
    double acc = 0.0;
    for (std::size_t k = 0; k < weights.size(); ++k) {
        acc += weights[k] / total;
        cdf_[k] = acc;
    }
    cdf_.back() = 1.0;
}

std::size_t
DiscreteSampler::sample(Rng &rng) const
{
    const double u = rng.nextDouble();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<std::size_t>(it - cdf_.begin());
}

} // namespace chameleon::sim
