/**
 * @file
 * Weighted fair queueing over per-tenant wait queues.
 *
 * Start-time fair queueing (SFQ) variant: each request gets a virtual
 * start tag S = max(V, F_t) and advances its tenant's finish tag to
 * F_t = S + L / w_t, where L is the scheduler-visible service length
 * (prompt tokens + predicted output tokens) and w_t the tenant weight.
 * Admission always picks the waiting head with the smallest start tag;
 * the system virtual time V tracks the largest start tag admitted so
 * far, so an idle tenant re-enters at the current virtual time instead
 * of burning banked credit — the property that isolates victims from a
 * noisy neighbour.
 *
 * With a single tenant (any weight) the start tags are monotone in
 * arrival order, so admission degenerates to exactly FifoScheduler —
 * including head-of-line blocking on the first failed reservation.
 */

#ifndef CHAMELEON_TENANCY_WFQ_SCHEDULER_H
#define CHAMELEON_TENANCY_WFQ_SCHEDULER_H

#include <cstddef>
#include <deque>
#include <map>
#include <utility>

#include "serving/scheduler.h"
#include "tenancy/tenant_table.h"

namespace chameleon::tenancy {

/** Weighted fair queueing admission across tenants. */
class WfqScheduler : public serving::Scheduler
{
  public:
    /** `weights[t]` is tenant t's weight; 1.0 outside the list. */
    explicit WfqScheduler(std::vector<double> weights = {});

    const char *name() const override { return "wfq"; }

    void enqueue(serving::LiveRequest *r) override;
    void requeueFront(serving::LiveRequest *r) override;
    bool hasWaiting() const override { return waiting_ > 0; }
    std::size_t waitingCount() const override { return waiting_; }

    std::vector<serving::LiveRequest *> selectAdmissions(
        serving::AdmissionContext &ctx) override;

    void onRequestFinished(serving::LiveRequest *r) override;

    std::vector<serving::LiveRequest *> waitingSnapshot() const override;

  private:
    struct Entry
    {
        serving::LiveRequest *req = nullptr;
        double startTag = 0.0;
    };

    struct Queue
    {
        std::deque<Entry> entries;
        /** Finish tag of the last request tagged for this tenant. */
        double lastFinishTag = 0.0;
    };

    static double serviceLength(const serving::LiveRequest *r);

    std::vector<double> weights_;
    /** Ordered map: deterministic tenant iteration (lowest id wins ties). */
    std::map<TenantId, Queue> queues_;
    /** Tags survive admission so a squashed request requeues unchanged. */
    std::map<serving::LiveRequest *, double> startTags_;
    double virtualTime_ = 0.0;
    std::size_t waiting_ = 0;
};

} // namespace chameleon::tenancy

#endif // CHAMELEON_TENANCY_WFQ_SCHEDULER_H
