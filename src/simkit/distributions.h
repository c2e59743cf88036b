/**
 * @file
 * Portable random distributions used by the workload generator.
 *
 * Implemented on top of Rng rather than <random> distributions so that
 * trace generation is reproducible across standard libraries.
 */

#ifndef CHAMELEON_SIMKIT_DISTRIBUTIONS_H
#define CHAMELEON_SIMKIT_DISTRIBUTIONS_H

#include <cstdint>
#include <vector>

#include "simkit/rng.h"

namespace chameleon::sim {

/** Exponential variate with the given rate (events per unit). */
double sampleExponential(Rng &rng, double rate);

/** Lognormal variate with the given log-space mean and sigma. */
double sampleLognormal(Rng &rng, double mu, double sigma);

/** Standard normal variate (Box–Muller, one value per call). */
double sampleNormal(Rng &rng);

/**
 * Discrete power-law (Zipf-like) sampler over {0, .., n-1}.
 *
 * P(k) proportional to 1 / (k + 1)^alpha. Precomputes the CDF so draws are
 * O(log n). alpha = 0 degenerates to the uniform distribution.
 */
class PowerLawSampler
{
  public:
    PowerLawSampler(std::size_t n, double alpha);

    /** Draw an index in [0, n). */
    std::size_t sample(Rng &rng) const;

    /** Probability mass of index k. */
    double probability(std::size_t k) const;

    std::size_t size() const { return pmf_.size(); }

  private:
    std::vector<double> pmf_;
    std::vector<double> cdf_;
};

/**
 * Sampler over arbitrary discrete weights (normalised internally).
 */
class DiscreteSampler
{
  public:
    explicit DiscreteSampler(std::vector<double> weights);

    std::size_t sample(Rng &rng) const;

    std::size_t size() const { return cdf_.size(); }

  private:
    std::vector<double> cdf_;
};

} // namespace chameleon::sim

#endif // CHAMELEON_SIMKIT_DISTRIBUTIONS_H
