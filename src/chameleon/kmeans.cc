#include "chameleon/kmeans.h"

#include <algorithm>
#include <cmath>

#include "simkit/check.h"
#include "simkit/stats.h"

namespace chameleon::core {

namespace {

/** Per-point and per-cluster buffers, reused by every K over one window. */
struct LloydBuffers
{
    std::vector<int> assign;
    std::vector<double> sum;
    std::vector<std::size_t> count;
};

/**
 * The centroid nearest x, ties to the lowest index, where `above` is
 * the first centroid greater than x (the number of centroids <= x).
 *
 * Over sorted centroids the distances |x - c| cannot rise toward
 * `above` - 1 from the left nor fall away from `above` on the right, so
 * the minimum is at `above` or `above` - 1. When `above` is strictly
 * closer it is the first minimum; otherwise the first minimum is the
 * lowest index whose distance ties `above` - 1's, which only a run of
 * equal distances just below it can hold. This is the result of a
 * first-minimum scan over all K, bit for bit, duplicate centroids and
 * rounding ties included.
 */
int
nearestCentroid(double x, const std::vector<double> &centroids,
                std::size_t above)
{
    if (above < centroids.size() &&
        (above == 0 || std::abs(x - centroids[above]) <
                           std::abs(x - centroids[above - 1]))) {
        return static_cast<int>(above);
    }
    std::size_t best = above - 1;
    const double d = std::abs(x - centroids[best]);
    while (best > 0 && std::abs(x - centroids[best - 1]) == d)
        --best;
    return static_cast<int>(best);
}

/** Lloyd's algorithm on an ascending window with quantile initialisation. */
KMeansResult
lloyd(const std::vector<double> &sorted, int k, int maxIters,
      LloydBuffers &buf)
{
    CHM_CHECK(!sorted.empty(), "k-means needs data");
    CHM_CHECK(k >= 1, "k must be at least 1");
    const std::size_t n = sorted.size();
    const auto kk = static_cast<std::size_t>(k);

    // Quantile initialisation: deterministic and well-spread, and
    // ascending because the window is.
    std::vector<double> centroids;
    centroids.reserve(kk);
    for (int i = 0; i < k; ++i) {
        const std::size_t idx = std::min(
            n - 1, static_cast<std::size_t>((2.0 * i + 1) /
                                            (2.0 * k) * static_cast<double>(n)));
        centroids.push_back(sorted[idx]);
    }

    buf.assign.assign(n, 0);
    for (int iter = 0; iter < maxIters; ++iter) {
        // Assignment and the update sums in one pass. The points walk
        // the sorted centroids (nearestCentroid); each run of equal
        // assignments extends its cluster's sum in index order, so
        // every sum adds the same values in the same order as a
        // per-point scatter.
        buf.sum.assign(kk, 0.0);
        buf.count.assign(kk, 0);
        bool changed = false;
        std::size_t above = 0;
        std::size_t runStart = 0;
        int run = -1;
        double acc = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            const double x = sorted[i];
            while (above < kk && centroids[above] <= x)
                ++above;
            const int best = nearestCentroid(x, centroids, above);
            if (buf.assign[i] != best) {
                buf.assign[i] = best;
                changed = true;
            }
            if (best != run) {
                if (run >= 0) {
                    buf.sum[static_cast<std::size_t>(run)] = acc;
                    buf.count[static_cast<std::size_t>(run)] += i - runStart;
                }
                run = best;
                runStart = i;
                acc = buf.sum[static_cast<std::size_t>(run)];
            }
            acc += x;
        }
        buf.sum[static_cast<std::size_t>(run)] = acc;
        buf.count[static_cast<std::size_t>(run)] += n - runStart;

        if (!changed && iter > 0)
            break;
        for (std::size_t c = 0; c < kk; ++c) {
            if (buf.count[c] > 0)
                centroids[c] = buf.sum[c] / static_cast<double>(buf.count[c]);
        }
        std::sort(centroids.begin(), centroids.end());
    }

    KMeansResult result;
    result.centroids = centroids;
    for (std::size_t i = 0; i < n; ++i) {
        const double d =
            sorted[i] - centroids[static_cast<std::size_t>(buf.assign[i])];
        result.wcss += d * d;
    }
    return result;
}

} // namespace

KMeansResult
kmeans1d(const std::vector<double> &data, int k, int maxIters)
{
    std::vector<double> sorted = data;
    sim::sortDoubles(sorted);
    LloydBuffers buf;
    return lloyd(sorted, k, maxIters, buf);
}

KMeansResult
chooseClusters(const std::vector<double> &data, int kMax,
               double elbowThreshold)
{
    CHM_CHECK(kMax >= 1, "kMax must be at least 1");
    std::vector<double> sorted = data;
    sim::sortDoubles(sorted);
    LloydBuffers buf;

    // Elbow: stop at the first K whose improvement over K-1 is small.
    // Improvements are measured relative to the total dispersion (the
    // K=1 WCSS) so that near-zero residuals at well-separated K do not
    // look like large relative gains. Each K's clustering depends only
    // on the window, so K stops being raised as soon as the rule
    // settles.
    KMeansResult prev = lloyd(sorted, 1, kKMeansMaxIters, buf);
    const double total = prev.wcss;
    if (total <= 0.0)
        return prev; // all samples identical
    for (int k = 2; k <= kMax; ++k) {
        KMeansResult cur = lloyd(sorted, k, kKMeansMaxIters, buf);
        const double improvement = (prev.wcss - cur.wcss) / total;
        if (improvement < elbowThreshold)
            return prev;
        prev = std::move(cur);
    }
    return prev;
}

std::vector<double>
centroidCutoffs(const std::vector<double> &centroids)
{
    std::vector<double> cutoffs;
    for (std::size_t i = 0; i + 1 < centroids.size(); ++i)
        cutoffs.push_back(0.5 * (centroids[i] + centroids[i + 1]));
    return cutoffs;
}

} // namespace chameleon::core
