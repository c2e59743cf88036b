#include "chameleon/mlq_scheduler.h"

#include <algorithm>

#include "chameleon/quota.h"
#include "simkit/check.h"

namespace chameleon::core {

using serving::AdmissionContext;
using serving::LiveRequest;
using serving::ReserveResult;

namespace {
/** Capacity of the WRS and service-time sample windows. */
constexpr std::size_t kSampleWindow = 4096;
} // namespace

MlqScheduler::MlqScheduler(MlqConfig config, const model::AdapterPool *pool)
    : config_(std::move(config)),
      wrs_(pool, config_.wrsForm)
{
    CHM_CHECK(config_.totalTokens > 0, "MLQ needs a token pool size");
    // Bootstrap: a single queue owning the whole pool until enough WRS
    // samples exist to cluster.
    lanes_.resize(1);
    lanes_[0].quota = config_.totalTokens;
}

std::int64_t
MlqScheduler::tokenCost(const LiveRequest *r) const
{
    const std::int64_t adapter_tokens =
        r->adapterBytes / std::max<std::int64_t>(config_.kvBytesPerToken, 1);
    return r->req.inputTokens + r->predictedOutput + adapter_tokens;
}

std::size_t
MlqScheduler::classify(double wrs) const
{
    std::size_t lane = 0;
    while (lane < cutoffs_.size() && wrs >= cutoffs_[lane])
        ++lane;
    return lane;
}

void
MlqScheduler::addWrsSample(double wrs, std::int64_t tokens)
{
    if (samples_.size() < kSampleWindow) {
        samples_.push_back(WrsSample{wrs, tokens});
    } else {
        samples_[sampleNext_] = WrsSample{wrs, tokens};
        sampleNext_ = (sampleNext_ + 1) % kSampleWindow;
    }
}

void
MlqScheduler::enqueue(LiveRequest *r)
{
    r->wrs = wrs_.compute(r->req.inputTokens, r->predictedOutput,
                          r->adapterBytes);
    addWrsSample(r->wrs, tokenCost(r));
    const std::size_t lane = classify(r->wrs);
    r->queueIndex = static_cast<int>(lane);
    lanes_[lane].queue.push_back(r);
    ++waiting_;
    ++lanes_[lane].arrivalsInWindow;
    lanes_[lane].maxTokensSeen = std::max(
        lanes_[lane].maxTokensSeen, static_cast<double>(tokenCost(r)));
}

void
MlqScheduler::requeueFront(LiveRequest *r)
{
    // Re-entry after squash/preemption: quota tokens were returned by the
    // engine path only on finish, so return them here if held.
    if (admitted_.erase(r) > 0) {
        auto &lane = lanes_[static_cast<std::size_t>(
            std::min<int>(r->queueIndex,
                          static_cast<int>(lanes_.size()) - 1))];
        lane.held -= r->quotaTokens;
        r->quotaTokens = 0;
    }
    const std::size_t lane = classify(r->wrs);
    r->queueIndex = static_cast<int>(lane);
    lanes_[lane].queue.push_front(r);
    ++waiting_;
}

bool
MlqScheduler::hasWaiting() const
{
    return waiting_ > 0;
}

std::size_t
MlqScheduler::waitingCount() const
{
    return waiting_;
}

std::vector<LiveRequest *>
MlqScheduler::waitingSnapshot() const
{
    std::vector<LiveRequest *> out;
    for (const auto &lane : lanes_)
        out.insert(out.end(), lane.queue.begin(), lane.queue.end());
    return out;
}

bool
MlqScheduler::tryBypass(Lane &lane, LiveRequest *blocked,
                        std::int64_t allowance, AdmissionContext &ctx,
                        std::vector<LiveRequest *> &admitted,
                        std::int64_t &consumed)
{
    // Find a younger request in the same queue whose admission is
    // possible right now (adapter resident or small enough).
    for (auto it = lane.queue.begin(); it != lane.queue.end(); ++it) {
        LiveRequest *r2 = *it;
        if (r2 == blocked)
            continue;
        const std::int64_t needed = tokenCost(r2);
        if (needed > allowance || ctx.admissionSlots <= 0 ||
            ctx.prefillTokenBudget <= 0) {
            continue;
        }
        // Guard: bypass only when the blocked request's memory will take
        // longer to appear than the bypasser's execution (§4.3.3).
        const sim::SimTime mem_free =
            ctx.estimateMemoryFree(blocked->adapterBytes);
        const sim::SimTime r2_exec = ctx.estimateExecTime(r2);
        if (mem_free != sim::kTimeNever && mem_free - ctx.now <= r2_exec)
            continue;
        if (ctx.tryReserve(r2) != ReserveResult::Ok)
            continue;
        lane.queue.erase(it);
        --waiting_;
        admitted.push_back(r2);
        admitted_.insert(r2);
        r2->quotaTokens = needed;
        lane.held += needed;
        consumed += needed;
        ctx.prefillTokenBudget -= r2->req.inputTokens;
        --ctx.admissionSlots;
        ctx.noteBypass();
        pendingBypasses_.push_back(PendingBypass{blocked, r2});
        return true;
    }
    return false;
}

std::int64_t
MlqScheduler::putBatch(Lane &lane, std::size_t laneIdx,
                       std::int64_t allowance, AdmissionContext &ctx,
                       std::vector<LiveRequest *> &admitted)
{
    (void)laneIdx;
    std::int64_t consumed = 0;
    while (!lane.queue.empty()) {
        LiveRequest *head = lane.queue.front();
        const std::int64_t needed = tokenCost(head);
        if (needed > allowance - consumed)
            break; // quota exhausted for this lane (Alg. 1)
        if (ctx.admissionSlots <= 0 || ctx.prefillTokenBudget <= 0)
            break; // iteration-level admission caps
        const ReserveResult res = ctx.tryReserve(head);
        if (res == ReserveResult::Ok) {
            lane.queue.pop_front();
            --waiting_;
            admitted.push_back(head);
            admitted_.insert(head);
            head->quotaTokens = needed;
            lane.held += needed;
            consumed += needed;
            ctx.prefillTokenBudget -= head->req.inputTokens;
            --ctx.admissionSlots;
            continue;
        }
        if (res == ReserveResult::NoAdapterMemory && config_.bypassEnabled) {
            tryBypass(lane, head, allowance - consumed, ctx, admitted,
                      consumed);
        }
        break; // head still blocked; preserve order within the lane
    }
    return consumed;
}

std::vector<LiveRequest *>
MlqScheduler::selectAdmissions(AdmissionContext &ctx)
{
    checkSquashes(ctx);

    std::vector<LiveRequest *> admitted;
    std::int64_t leftover = 0;

    // Phase 1: every queue admits within its own available quota,
    // small-request lanes first. Drained queues donate their spare.
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
        Lane &lane = lanes_[i];
        const std::int64_t avail = std::max<std::int64_t>(
            0, lane.quota - lane.held);
        const std::int64_t consumed =
            putBatch(lane, i, avail, ctx, admitted);
        if (lane.queue.empty())
            leftover += avail - consumed;
    }

    // Phase 2: redistribute spare tokens, small lanes first.
    for (std::size_t i = 0; i < lanes_.size() && leftover > 0; ++i) {
        Lane &lane = lanes_[i];
        // putBatch records the holdings on the lane; the borrowed spare
        // tokens flow back to their home lanes when the requests finish.
        leftover -= putBatch(lane, i, leftover, ctx, admitted);
    }

    return admitted;
}

void
MlqScheduler::checkSquashes(AdmissionContext &ctx)
{
    auto it = pendingBypasses_.begin();
    while (it != pendingBypasses_.end()) {
        LiveRequest *r1 = it->blocked;
        LiveRequest *r2 = it->bypasser;
        const bool r1_moved = r1->phase != serving::RequestPhase::Waiting;
        const bool r2_done = r2->phase == serving::RequestPhase::Finished ||
                             r2->phase == serving::RequestPhase::Waiting;
        if (r1_moved || r2_done) {
            it = pendingBypasses_.erase(it);
            continue;
        }
        // Paper rule: if enough free memory (counting R2's holdings)
        // exists to run R1 before R2 finished, the prediction was wrong;
        // squash R2 for later re-execution.
        const std::int64_t r1_needs = r1->adapterBytes;
        if (ctx.freeBytes() + ctx.heldBytes(r2) >= r1_needs &&
            ctx.freeBytes() < r1_needs) {
            ctx.squashForBypass(r2);
            it = pendingBypasses_.erase(it);
            continue;
        }
        ++it;
    }
}

void
MlqScheduler::onRequestFinished(LiveRequest *r)
{
    if (admitted_.erase(r) == 0)
        return;
    const auto lane_idx = static_cast<std::size_t>(std::clamp<int>(
        r->queueIndex, 0, static_cast<int>(lanes_.size()) - 1));
    Lane &lane = lanes_[lane_idx];
    lane.held -= r->quotaTokens;
    r->quotaTokens = 0;
    // Service-duration statistics for quota assignment: processing time
    // excludes queueing (admission to completion).
    if (r->admitTime != sim::kTimeNever) {
        const ServiceSample sample{
            r->wrs, sim::toSeconds(r->finishTime - r->admitTime)};
        if (services_.size() < kSampleWindow) {
            services_.push_back(sample);
        } else {
            services_[serviceNext_] = sample;
            serviceNext_ = (serviceNext_ + 1) % kSampleWindow;
        }
        lane.serviceSecondsSum += sample.seconds;
        ++lane.servicesInWindow;
    }
}

void
MlqScheduler::redistributeWaiting(std::vector<LiveRequest *> waiting)
{
    std::sort(waiting.begin(), waiting.end(),
              [](const LiveRequest *a, const LiveRequest *b) {
                  return a->arrival < b->arrival;
              });
    for (auto &lane : lanes_)
        lane.queue.clear();
    for (LiveRequest *r : waiting) {
        const std::size_t lane = classify(r->wrs);
        r->queueIndex = static_cast<int>(lane);
        lanes_[lane].queue.push_back(r);
    }
    // Rebuild holdings of in-flight requests under the new lane map.
    for (auto &lane : lanes_)
        lane.held = 0;
    for (LiveRequest *r : admitted_) {
        const std::size_t lane = classify(r->wrs);
        r->queueIndex = static_cast<int>(lane);
        lanes_[lane].held += r->quotaTokens;
    }
}

void
MlqScheduler::reconfigure(sim::SimTime now)
{
    std::vector<double> wrs_values;
    wrs_values.reserve(samples_.size());
    for (const auto &s : samples_)
        wrs_values.push_back(s.wrs);

    const KMeansResult clusters =
        chooseClusters(wrs_values, kMlqMaxQueues, kMlqElbowThreshold);

    // Window duration for arrival rates: time since the last refresh.
    const double window_s =
        std::max(1.0, sim::toSeconds(now - lastRefresh_));

    std::vector<double> new_cutoffs;
    if (config_.dynamic) {
        new_cutoffs = centroidCutoffs(clusters.centroids);
    } else {
        // Static variant (Fig. 22): kMlqMaxQueues equal WRS ranges over
        // the observed span, fixed after the first configuration.
        const auto [mn, mx] =
            std::minmax_element(wrs_values.begin(), wrs_values.end());
        for (int i = 1; i < kMlqMaxQueues; ++i) {
            new_cutoffs.push_back(*mn + (*mx - *mn) * i /
                                  static_cast<double>(kMlqMaxQueues));
        }
    }
    cutoffs_ = new_cutoffs;
    const std::size_t n_lanes = new_cutoffs.size() + 1;

    // Per-lane load statistics from the recent observation windows,
    // classified under the *new* cutoffs.
    std::vector<QueueLoadStats> stats(n_lanes);
    std::vector<std::int64_t> lane_arrivals(n_lanes, 0);
    std::vector<double> lane_max_tokens(n_lanes, 1.0);
    for (const auto &s : samples_) {
        const std::size_t lane = classify(s.wrs);
        ++lane_arrivals[lane];
        lane_max_tokens[lane] = std::max(
            lane_max_tokens[lane], static_cast<double>(s.tokens));
    }
    std::vector<double> lane_service_sum(n_lanes, 0.0);
    std::vector<std::int64_t> lane_service_cnt(n_lanes, 0);
    double global_service_sum = 0.0;
    std::int64_t global_service_cnt = 0;
    for (const auto &s : services_) {
        const std::size_t lane = classify(s.wrs);
        lane_service_sum[lane] += s.seconds;
        ++lane_service_cnt[lane];
        global_service_sum += s.seconds;
        ++global_service_cnt;
    }
    const double global_mean_service =
        global_service_cnt > 0
            ? global_service_sum / static_cast<double>(global_service_cnt)
            : 0.1;
    for (std::size_t i = 0; i < n_lanes; ++i) {
        stats[i].maxTokens = lane_max_tokens[i];
        stats[i].meanServiceSeconds =
            lane_service_cnt[i] > 0
                ? lane_service_sum[i] /
                      static_cast<double>(lane_service_cnt[i])
                : global_mean_service;
        stats[i].arrivalRate =
            static_cast<double>(lane_arrivals[i]) / window_s;
    }

    std::vector<std::int64_t> quotas;
    if (config_.dynamic) {
        quotas = assignQuotas(stats, config_.sloSeconds,
                              config_.totalTokens);
    } else {
        quotas.assign(n_lanes, config_.totalTokens /
                                   static_cast<std::int64_t>(n_lanes));
    }
    // Every lane must be able to admit its largest request, or it could
    // deadlock behind an unattainable quota.
    for (std::size_t i = 0; i < n_lanes; ++i) {
        quotas[i] = std::max(
            quotas[i], static_cast<std::int64_t>(lane_max_tokens[i]) + 1);
    }

    std::vector<LiveRequest *> waiting = waitingSnapshot();
    lanes_.assign(n_lanes, Lane{});
    for (std::size_t i = 0; i < lanes_.size(); ++i)
        lanes_[i].quota = quotas[i];
    redistributeWaiting(std::move(waiting));
    lastRefresh_ = now;
    ++reconfigs_;
}

void
MlqScheduler::onIterationEnd(sim::SimTime now)
{
    if (!bootstrapped_) {
        if (samples_.size() >= config_.warmupSamples) {
            reconfigure(now);
            bootstrapped_ = true;
        }
        return;
    }
    if (config_.dynamic && now - lastRefresh_ >= config_.refreshPeriod)
        reconfigure(now);
}

std::vector<std::int64_t>
MlqScheduler::quotas() const
{
    std::vector<std::int64_t> out;
    out.reserve(lanes_.size());
    for (const auto &lane : lanes_)
        out.push_back(lane.quota);
    return out;
}

} // namespace chameleon::core
