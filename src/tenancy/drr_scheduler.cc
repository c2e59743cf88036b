#include "tenancy/drr_scheduler.h"

#include <cmath>

#include "simkit/check.h"

namespace chameleon::tenancy {

using serving::AdmissionContext;
using serving::LiveRequest;
using serving::ReserveResult;

DrrScheduler::DrrScheduler(std::vector<double> weights,
                           std::int64_t quantumTokens)
    : weights_(std::move(weights)), quantumTokens_(quantumTokens)
{
    CHM_CHECK(quantumTokens_ > 0, "DRR quantum must be positive");
}

void
DrrScheduler::activate(TenantId tenant, Queue &q)
{
    if (q.active)
        return;
    q.active = true;
    ring_.push_back(tenant);
}

void
DrrScheduler::enqueue(LiveRequest *r)
{
    Queue &q = queues_[r->req.tenant];
    q.entries.push_back(r);
    activate(r->req.tenant, q);
    ++waiting_;
}

void
DrrScheduler::requeueFront(LiveRequest *r)
{
    Queue &q = queues_[r->req.tenant];
    q.entries.push_front(r);
    activate(r->req.tenant, q);
    ++waiting_;
}

std::vector<LiveRequest *>
DrrScheduler::selectAdmissions(AdmissionContext &ctx)
{
    std::vector<LiveRequest *> admitted;
    // One DRR round per engine iteration: every active tenant is visited
    // at most once, banks quantum * weight, and admits what its deficit
    // covers. A failed reservation ends the whole selection (resources
    // are exhausted for this iteration) without charging the head.
    std::size_t visits = ring_.size();
    bool blocked = false;
    while (!blocked && visits-- > 0 && !ring_.empty() &&
           ctx.admissionSlots > 0 && ctx.prefillTokenBudget > 0) {
        const TenantId tenant = ring_.front();
        ring_.pop_front();
        Queue &q = queues_[tenant];
        const auto quantum = static_cast<std::int64_t>(
            std::llround(quantumTokens_ * entryOrOne(weights_, tenant)));
        q.deficit += quantum > 0 ? quantum : 1;
        while (!q.entries.empty() && ctx.admissionSlots > 0 &&
               ctx.prefillTokenBudget > 0) {
            LiveRequest *head = q.entries.front();
            const std::int64_t cost = head->req.inputTokens;
            if (q.deficit < cost)
                break; // not enough credit this round
            if (ctx.tryReserve(head) != ReserveResult::Ok) {
                blocked = true;
                break;
            }
            q.deficit -= cost;
            q.entries.pop_front();
            --waiting_;
            admitted.push_back(head);
            ctx.prefillTokenBudget -= head->req.inputTokens;
            --ctx.admissionSlots;
        }
        if (q.entries.empty()) {
            // Drained tenants forfeit leftover credit and leave the ring.
            q.deficit = 0;
            q.active = false;
        } else {
            ring_.push_back(tenant);
        }
    }
    return admitted;
}

std::vector<LiveRequest *>
DrrScheduler::waitingSnapshot() const
{
    std::vector<LiveRequest *> out;
    out.reserve(waiting_);
    for (const auto &[tenant, q] : queues_) {
        (void)tenant;
        for (LiveRequest *r : q.entries)
            out.push_back(r);
    }
    return out;
}

std::vector<std::pair<TenantId, std::int64_t>>
DrrScheduler::deficits() const
{
    std::vector<std::pair<TenantId, std::int64_t>> out;
    out.reserve(queues_.size());
    for (const auto &[tenant, q] : queues_)
        out.emplace_back(tenant, q.deficit);
    return out;
}

} // namespace chameleon::tenancy
