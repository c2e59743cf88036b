#include "tenancy/wfq_scheduler.h"

#include <algorithm>

#include "simkit/check.h"

namespace chameleon::tenancy {

using serving::AdmissionContext;
using serving::LiveRequest;
using serving::ReserveResult;

WfqScheduler::WfqScheduler(std::vector<double> weights)
    : weights_(std::move(weights))
{
}

double
WfqScheduler::serviceLength(const LiveRequest *r)
{
    // Scheduler-visible work: prompt tokens plus the *predicted* output
    // length — ground truth stays hidden, as everywhere else (§4.1).
    return static_cast<double>(r->req.inputTokens + r->predictedOutput);
}

void
WfqScheduler::enqueue(LiveRequest *r)
{
    Queue &q = queues_[r->req.tenant];
    const double start = std::max(virtualTime_, q.lastFinishTag);
    q.lastFinishTag =
        start + serviceLength(r) / entryOrOne(weights_, r->req.tenant);
    startTags_[r] = start;
    q.entries.push_back(Entry{r, start});
    ++waiting_;
}

void
WfqScheduler::requeueFront(LiveRequest *r)
{
    // A squashed request keeps its original start tag: it already paid
    // for its slot in virtual time, so it re-enters at the queue front
    // ahead of anything tagged later.
    const auto it = startTags_.find(r);
    CHM_CHECK(it != startTags_.end(), "requeueFront for unknown request");
    queues_[r->req.tenant].entries.push_front(Entry{r, it->second});
    ++waiting_;
}

std::vector<LiveRequest *>
WfqScheduler::selectAdmissions(AdmissionContext &ctx)
{
    std::vector<LiveRequest *> admitted;
    while (waiting_ > 0 && ctx.admissionSlots > 0 &&
           ctx.prefillTokenBudget > 0) {
        // Pick the non-empty tenant queue whose head carries the
        // smallest start tag; map order breaks ties by lowest tenant id.
        Queue *best = nullptr;
        for (auto &[tenant, q] : queues_) {
            (void)tenant;
            if (q.entries.empty())
                continue;
            if (best == nullptr ||
                q.entries.front().startTag < best->entries.front().startTag)
                best = &q;
        }
        if (best == nullptr)
            break;
        LiveRequest *head = best->entries.front().req;
        const ReserveResult res = ctx.tryReserve(head);
        if (res != ReserveResult::Ok)
            break; // head-of-line blocking, as in FIFO
        virtualTime_ = std::max(virtualTime_, best->entries.front().startTag);
        best->entries.pop_front();
        --waiting_;
        admitted.push_back(head);
        ctx.prefillTokenBudget -= head->req.inputTokens;
        --ctx.admissionSlots;
    }
    return admitted;
}

void
WfqScheduler::onRequestFinished(LiveRequest *r)
{
    startTags_.erase(r);
}

std::vector<LiveRequest *>
WfqScheduler::waitingSnapshot() const
{
    std::vector<LiveRequest *> out;
    out.reserve(waiting_);
    for (const auto &[tenant, q] : queues_) {
        (void)tenant;
        for (const Entry &e : q.entries)
            out.push_back(e.req);
    }
    return out;
}

} // namespace chameleon::tenancy
