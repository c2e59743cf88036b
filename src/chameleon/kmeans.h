/**
 * @file
 * One-dimensional K-means for queue sizing (§4.3.4).
 *
 * Chameleon clusters the recent WRS distribution for K = 1..Kmax,
 * computes the within-cluster sum of squares (WCSS), and derives queue
 * cutoffs as midpoints between consecutive centroids.
 *
 * K selection deviates from the paper's literal "minimal WCSS" rule,
 * which always selects Kmax: an elbow criterion picks K instead. The
 * deviation is explained in the MLQ section of src/chameleon/README.md.
 *
 * Every entry point sorts its window once (sim::sortDoubles) and runs
 * all K on that copy; the results are bit-equal to an independent sort
 * and first-minimum scan per K.
 */

#ifndef CHAMELEON_CHAMELEON_KMEANS_H
#define CHAMELEON_CHAMELEON_KMEANS_H

#include <vector>

namespace chameleon::core {

/** Result of one K-means run. */
struct KMeansResult
{
    std::vector<double> centroids; ///< Sorted ascending.
    double wcss = 0.0;
};

/** Lloyd iterations per K unless the assignment settles sooner. */
inline constexpr int kKMeansMaxIters = 64;

/**
 * Lloyd's algorithm in one dimension with quantile initialisation
 * (deterministic).
 */
KMeansResult kmeans1d(const std::vector<double> &data, int k,
                      int maxIters = kKMeansMaxIters);

/**
 * Choose K in [1, kMax] by the elbow rule and return its clustering:
 * the smallest K for which K+1 clusters cut the WCSS by less than
 * `elbowThreshold` times the K=1 WCSS (kMax if no such K).
 */
KMeansResult chooseClusters(const std::vector<double> &data, int kMax,
                            double elbowThreshold);

/** Queue cutoffs: midpoints of consecutive centroids (size K-1). */
std::vector<double> centroidCutoffs(const std::vector<double> &centroids);

} // namespace chameleon::core

#endif // CHAMELEON_CHAMELEON_KMEANS_H
