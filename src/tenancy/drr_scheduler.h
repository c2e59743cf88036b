/**
 * @file
 * Deficit round robin over per-tenant wait queues.
 *
 * Classic DRR (Shreedhar & Varghese): active tenants sit in a
 * round-robin ring; each visit banks quantum * weight prefill tokens of
 * deficit, and the tenant admits waiting heads while its deficit covers
 * the head's prompt tokens. A tenant whose queue drains leaves the ring
 * and forfeits its deficit, so idle tenants cannot bank credit — the
 * same noisy-neighbour isolation property WFQ provides, at O(1) per
 * admission instead of a queue scan.
 *
 * Deficit counters are only ever decremented when they cover the cost
 * being charged, so they are non-negative by construction (see the
 * property test in tests/tenancy_sched_test.cc).
 */

#ifndef CHAMELEON_TENANCY_DRR_SCHEDULER_H
#define CHAMELEON_TENANCY_DRR_SCHEDULER_H

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <utility>
#include <vector>

#include "serving/scheduler.h"
#include "tenancy/tenant_table.h"

namespace chameleon::tenancy {

/** Deficit-round-robin admission across tenants. */
class DrrScheduler : public serving::Scheduler
{
  public:
    /**
     * `weights[t]` scales tenant t's quantum (1.0 outside the list);
     * `quantumTokens` is the per-visit credit in prefill tokens.
     */
    explicit DrrScheduler(std::vector<double> weights = {},
                          std::int64_t quantumTokens = 512);

    const char *name() const override { return "drr"; }

    void enqueue(serving::LiveRequest *r) override;
    void requeueFront(serving::LiveRequest *r) override;
    bool hasWaiting() const override { return waiting_ > 0; }
    std::size_t waitingCount() const override { return waiting_; }

    std::vector<serving::LiveRequest *> selectAdmissions(
        serving::AdmissionContext &ctx) override;

    std::vector<serving::LiveRequest *> waitingSnapshot() const override;

    /** Per-tenant deficit counters, for the non-negativity invariant. */
    std::vector<std::pair<TenantId, std::int64_t>> deficits() const;

  private:
    struct Queue
    {
        std::deque<serving::LiveRequest *> entries;
        std::int64_t deficit = 0;
        bool active = false;
    };

    void activate(TenantId tenant, Queue &q);

    std::vector<double> weights_;
    std::int64_t quantumTokens_;
    std::map<TenantId, Queue> queues_;
    /** Round-robin ring of tenants with waiting requests. */
    std::deque<TenantId> ring_;
    std::size_t waiting_ = 0;
};

} // namespace chameleon::tenancy

#endif // CHAMELEON_TENANCY_DRR_SCHEDULER_H
