/**
 * @file
 * Adapter-cache eviction policies (§4.2.2, §5.3.3).
 *
 * All policies rank idle cached adapters and evict the least valuable.
 * The Chameleon policy scores each adapter as
 *     Score = F * Frequency + R * Recency + S * Size
 * with profiled weights F=0.45, R=0.10, S=0.45; the adapter with the
 * lowest score is evicted first, so small, cold, infrequently-used
 * adapters go before large popular ones (misses on large adapters are
 * costlier to repair). FairShare uses equal weights; LRU uses recency
 * only; GDSF is the web-caching baseline of Cherkasova [5] discussed in
 * §5.3.3.
 */

#ifndef CHAMELEON_CHAMELEON_EVICTION_H
#define CHAMELEON_CHAMELEON_EVICTION_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "model/adapter.h"
#include "simkit/time.h"

namespace chameleon::core {

/** Snapshot of one evictable (idle) cached adapter. */
struct EvictionCandidate
{
    model::AdapterId id = model::kNoAdapter;
    int rank = 0;
    std::int64_t bytes = 0;
    /** Last access time. */
    sim::SimTime lastUsed = 0;
    /** Decayed use frequency (uses per recent window). */
    double frequency = 0.0;
    /** Reload cost on a future miss, milliseconds. */
    double loadCostMs = 0.0;
    /** Referenced by a queued (not yet running) request. */
    bool queuedPinned = false;
};

/** Ranking policy over eviction candidates. */
class EvictionPolicy
{
  public:
    virtual ~EvictionPolicy() = default;

    virtual const char *name() const = 0;

    /**
     * Index of the victim within `candidates` (must be non-empty).
     * Stateful policies (GDSF) may update internal aging state.
     */
    virtual std::size_t pickVictim(
        const std::vector<EvictionCandidate> &candidates,
        sim::SimTime now) = 0;
};

/** Weighted compound score (the paper's policy). */
class ChameleonEviction : public EvictionPolicy
{
  public:
    /** Weights from the paper's offline profiling (§4.2.2). */
    explicit ChameleonEviction(double f = 0.45, double r = 0.10,
                               double s = 0.45);

    const char *name() const override { return "chameleon"; }
    std::size_t pickVictim(const std::vector<EvictionCandidate> &candidates,
                           sim::SimTime now) override;

    /** Score of one candidate given batch-wide normalisers. */
    double score(const EvictionCandidate &c, double maxFreq,
                 sim::SimTime minLast, sim::SimTime maxLast,
                 std::int64_t maxBytes) const;

  private:
    double f_;
    double r_;
    double s_;
};

/** Equal-weight variant (Ch-FairShare in Fig. 17). */
class FairShareEviction : public ChameleonEviction
{
  public:
    FairShareEviction() : ChameleonEviction(1.0 / 3, 1.0 / 3, 1.0 / 3) {}
    const char *name() const override { return "fairshare"; }
};

/** Least-recently-used (Ch-LRU in Fig. 17). */
class LruEviction : public EvictionPolicy
{
  public:
    const char *name() const override { return "lru"; }
    std::size_t pickVictim(const std::vector<EvictionCandidate> &candidates,
                           sim::SimTime now) override;
};

/** Greedy-Dual-Size-Frequency web-cache policy (§5.3.3). */
class GdsfEviction : public EvictionPolicy
{
  public:
    const char *name() const override { return "gdsf"; }
    std::size_t pickVictim(const std::vector<EvictionCandidate> &candidates,
                           sim::SimTime now) override;

  private:
    /** Aging term: rises to the evicted key's H value. */
    double aging_ = 0.0;
};

/**
 * Factory by name: the names evictionPolicyByName parses ("chameleon",
 * "fairshare", "lru", "gdsf"). Any other name is a fatal error.
 */
std::unique_ptr<EvictionPolicy> makeEvictionPolicy(const std::string &name);

} // namespace chameleon::core

#endif // CHAMELEON_CHAMELEON_EVICTION_H
