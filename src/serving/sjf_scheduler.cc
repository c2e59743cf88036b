#include "serving/sjf_scheduler.h"

#include <algorithm>

namespace chameleon::serving {

std::vector<LiveRequest *>
SjfScheduler::selectAdmissions(AdmissionContext &ctx)
{
    std::vector<LiveRequest *> admitted;
    while (!queue_.empty() && ctx.admissionSlots > 0 &&
           ctx.prefillTokenBudget > 0) {
        // Pick the waiting request with the shortest predicted output.
        auto best = queue_.begin();
        for (auto it = std::next(queue_.begin()); it != queue_.end(); ++it) {
            if ((*it)->predictedOutput < (*best)->predictedOutput)
                best = it;
        }
        LiveRequest *r = *best;
        if (ctx.tryReserve(r) != ReserveResult::Ok)
            break; // still one logical queue: shortest job blocks
        queue_.erase(best);
        admitted.push_back(r);
        ctx.prefillTokenBudget -= r->req.inputTokens;
        --ctx.admissionSlots;
    }
    return admitted;
}

std::vector<LiveRequest *>
SjfScheduler::waitingSnapshot() const
{
    return {queue_.begin(), queue_.end()};
}

} // namespace chameleon::serving
