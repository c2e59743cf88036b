/**
 * @file
 * Speculative shortest-job-first scheduler (the uServe policy [46]).
 *
 * Orders waiting requests by predicted output length and admits the
 * shortest first, without aging: a long request can starve while
 * shorter ones keep arriving. The paper runs SJF without preemption,
 * as do we (§3.3, §6).
 */

#ifndef CHAMELEON_SERVING_SJF_SCHEDULER_H
#define CHAMELEON_SERVING_SJF_SCHEDULER_H

#include <list>

#include "serving/scheduler.h"

namespace chameleon::serving {

/** Predicted-shortest-first admission. */
class SjfScheduler : public Scheduler
{
  public:
    const char *name() const override { return "sjf"; }

    void enqueue(LiveRequest *r) override { queue_.push_back(r); }
    void requeueFront(LiveRequest *r) override { queue_.push_front(r); }
    bool hasWaiting() const override { return !queue_.empty(); }
    std::size_t waitingCount() const override { return queue_.size(); }

    std::vector<LiveRequest *> selectAdmissions(
        AdmissionContext &ctx) override;

    std::vector<LiveRequest *> waitingSnapshot() const override;

  private:
    std::list<LiveRequest *> queue_;
};

} // namespace chameleon::serving

#endif // CHAMELEON_SERVING_SJF_SCHEDULER_H
