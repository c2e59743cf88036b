/**
 * @file
 * The Chameleon Scheduler: non-preemptive adapter-aware multi-level
 * queues (§4.3).
 *
 * Requests are classified by Weighted Request Size into K queues whose
 * count and cutoffs come from K-means clustering of the recent WRS
 * distribution (refreshed every Trefresh). Each queue holds a standing
 * token quota assigned with the M/M/1 model of §4.3.5; admitted
 * requests borrow quota tokens (input + predicted output + adapter
 * share) and return them on completion. Batch formation follows
 * Algorithm 1: every queue admits within its available quota
 * (small-request queues first — the express lane), then spare tokens
 * from drained queues are redistributed. Opportunistic bypass (§4.3.3)
 * lets a younger same-queue request with a resident/fitting adapter
 * pass a request blocked on adapter memory, guarded by wait/execution
 * estimates and repaired by squashing when the guess proves wrong.
 */

#ifndef CHAMELEON_CHAMELEON_MLQ_SCHEDULER_H
#define CHAMELEON_CHAMELEON_MLQ_SCHEDULER_H

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_set>
#include <vector>

#include "chameleon/kmeans.h"
#include "chameleon/wrs.h"
#include "serving/scheduler.h"

namespace chameleon::core {

/** Max queue count (paper: 4, §4.3.4). */
inline constexpr int kMlqMaxQueues = 4;
/** Elbow rule's threshold on the relative WCSS gain of one more queue
 * (see the K-selection note in src/chameleon/README.md). */
inline constexpr double kMlqElbowThreshold = 0.10;

/** Scheduler configuration (paper defaults). */
struct MlqConfig
{
    /** WRS formula (§4.3.1). */
    WrsForm wrsForm = WrsForm::Degree2;
    /** Reconfiguration period (paper: 5 minutes). */
    sim::SimTime refreshPeriod = 300 * sim::kSec;
    /** Per-queue SLO used in quota assignment, seconds. */
    double sloSeconds = 5.0;
    /** Engine token pool (input+output+adapter tokens of all requests). */
    std::int64_t totalTokens = 0;
    /** KV bytes per token: converts adapter bytes into token units. */
    std::int64_t kvBytesPerToken = 1;
    /** Enable opportunistic bypass (§4.3.3). */
    bool bypassEnabled = true;
    /** Static variant for Fig. 22: fixed 4 equal queues, equal quotas. */
    bool dynamic = true;
    /** Samples required before the first reconfiguration. */
    std::size_t warmupSamples = 200;
};

/** Multi-level-queue scheduler with quotas, clustering, and bypass. */
class MlqScheduler : public serving::Scheduler
{
  public:
    MlqScheduler(MlqConfig config, const model::AdapterPool *pool);

    const char *name() const override { return "chameleon-mlq"; }

    void enqueue(serving::LiveRequest *r) override;
    void requeueFront(serving::LiveRequest *r) override;
    bool hasWaiting() const override;
    std::size_t waitingCount() const override;
    std::vector<serving::LiveRequest *> selectAdmissions(
        serving::AdmissionContext &ctx) override;
    void onRequestFinished(serving::LiveRequest *r) override;
    void onIterationEnd(sim::SimTime now) override;
    std::vector<serving::LiveRequest *> waitingSnapshot() const override;

    /** Current queue count. */
    int queueCount() const { return static_cast<int>(lanes_.size()); }
    /** Current cutoffs (size queueCount-1). */
    const std::vector<double> &cutoffs() const { return cutoffs_; }
    /** Current per-queue quotas in tokens. */
    std::vector<std::int64_t> quotas() const;
    /** Reconfigurations performed so far. */
    int reconfigurations() const { return reconfigs_; }

  private:
    struct Lane
    {
        std::deque<serving::LiveRequest *> queue;
        std::int64_t quota = 0;
        std::int64_t held = 0;
        // Refresh-window accounting for quota assignment.
        std::int64_t arrivalsInWindow = 0;
        double serviceSecondsSum = 0.0;
        std::int64_t servicesInWindow = 0;
        double maxTokensSeen = 1.0;
    };

    struct PendingBypass
    {
        serving::LiveRequest *blocked;  // R1
        serving::LiveRequest *bypasser; // R2
    };

    /** Token cost of a request (§4.3: input + output + adapter share). */
    std::int64_t tokenCost(const serving::LiveRequest *r) const;
    /** Lane index for a WRS value under current cutoffs. */
    std::size_t classify(double wrs) const;
    /** Admit from one lane within a token allowance (Alg. 1 put_batch). */
    std::int64_t putBatch(Lane &lane, std::size_t laneIdx,
                          std::int64_t allowance,
                          serving::AdmissionContext &ctx,
                          std::vector<serving::LiveRequest *> &admitted);
    /** Try to bypass the blocked lane head with a younger request. */
    bool tryBypass(Lane &lane, serving::LiveRequest *blocked,
                   std::int64_t allowance, serving::AdmissionContext &ctx,
                   std::vector<serving::LiveRequest *> &admitted,
                   std::int64_t &consumed);
    /** Check pending bypasses for squash conditions (§4.3.3). */
    void checkSquashes(serving::AdmissionContext &ctx);
    /** Recompute K, cutoffs, and quotas from the recent WRS window. */
    void reconfigure(sim::SimTime now);
    /** Rebuild lane membership after cutoffs changed. */
    void redistributeWaiting(std::vector<serving::LiveRequest *> waiting);
    void addWrsSample(double wrs, std::int64_t tokens);

    /** Recent request observation for clustering and quota sizing. */
    struct WrsSample
    {
        double wrs = 0.0;
        std::int64_t tokens = 0;
    };

    /** Recent completion observation for service-time estimation. */
    struct ServiceSample
    {
        double wrs = 0.0;
        double seconds = 0.0;
    };

    MlqConfig config_;
    WrsCalculator wrs_;
    std::vector<Lane> lanes_;
    /** Requests across every lane's queue. */
    std::size_t waiting_ = 0;
    std::vector<double> cutoffs_;
    std::vector<WrsSample> samples_; // ring buffer of recent arrivals
    std::size_t sampleNext_ = 0;
    std::vector<ServiceSample> services_; // ring buffer of completions
    std::size_t serviceNext_ = 0;
    std::unordered_set<serving::LiveRequest *> admitted_;
    std::vector<PendingBypass> pendingBypasses_;
    sim::SimTime lastRefresh_ = 0;
    bool bootstrapped_ = false;
    int reconfigs_ = 0;
};

} // namespace chameleon::core

#endif // CHAMELEON_CHAMELEON_MLQ_SCHEDULER_H
