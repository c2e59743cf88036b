#include "serving/cluster.h"

#include <algorithm>
#include <limits>

#include "fabric/cache_fabric.h"
#include "simkit/check.h"

namespace chameleon::serving {

DataParallelCluster::DataParallelCluster(
    sim::Simulator &simulator, EngineFactory engineFactory, int replicas,
    std::unique_ptr<routing::Router> router)
    : sim_(simulator), factory_(std::move(engineFactory)),
      router_(std::move(router))
{
    CHM_CHECK(replicas >= 1, "cluster needs at least one engine");
    CHM_CHECK(router_ != nullptr, "cluster needs a router");
    // Initial replicas start warm (the cluster exists before the trace
    // begins); the cold-start model applies to scale-up builds only.
    for (int i = 0; i < replicas; ++i)
        buildReplica();
    provisioned_ = engines_.size();
    for (std::size_t i = 0; i < provisioned_; ++i)
        routable_.push_back(i);
    router_->onReplicaCountChanged(provisioned_);
}

DataParallelCluster::DataParallelCluster(
    sim::Simulator &simulator, EngineFactory engineFactory, int replicas,
    routing::RouterPolicy policy, const routing::RouterConfig &config)
    : DataParallelCluster(simulator, std::move(engineFactory), replicas,
                          routing::makeRouter(policy, config))
{
}

void
DataParallelCluster::enableAutoscaler(
    const routing::AutoscalerConfig &config, double referenceServiceRps)
{
    CHM_CHECK(!traceSubmitted_,
              "enableAutoscaler must precede submitTrace");
    // Clamp into the bounds first, before the autoscaler and the
    // cold-start model are installed: replicas provisioned to satisfy
    // the configured floor are initial capacity — the cluster exists
    // before the trace begins — and must start warm exactly like the
    // constructor's builds; only simulation-time scale-ups boot.
    applyTarget(std::clamp(provisioned_, config.minReplicas,
                           config.maxReplicas));
    autoscaler_ = std::make_unique<routing::Autoscaler>(config);
    autoscaler_->setTraceRecorder(trace_);
    coldStart_ = ColdStartModel(config.bootMs);
    referenceRate_ =
        referenceServiceRps > 0.0 ? referenceServiceRps : rates_.front();
    if (config.measuredRateAlpha > 0.0)
        enableMeasuredRates(config.measuredRateAlpha);
}

void
DataParallelCluster::setScaleUpCandidates(
    std::vector<EngineConfig> candidates, ConfigEngineFactory factory)
{
    CHM_CHECK(!candidates.empty(),
              "scale-up catalogue must not be empty");
    CHM_CHECK(factory != nullptr,
              "scale-up catalogue needs a config factory");
    candidates_ = std::move(candidates);
    configFactory_ = std::move(factory);
    candidateRates_.clear();
    fastestCandidate_ = 0;
    for (std::size_t c = 0; c < candidates_.size(); ++c) {
        candidateRates_.push_back(nominalServiceRate(candidates_[c]));
        if (candidateRates_[c] > candidateRates_[fastestCandidate_])
            fastestCandidate_ = c;
    }
}

void
DataParallelCluster::setReferenceEngine(const EngineConfig &config)
{
    referenceEngine_ = std::make_unique<EngineConfig>(config);
}

const EngineConfig &
DataParallelCluster::referenceEngineConfig() const
{
    return referenceEngine_ != nullptr ? *referenceEngine_
                                       : engines_.front()->config();
}

void
DataParallelCluster::enableMeasuredRates(double alpha)
{
    CHM_CHECK(!traceSubmitted_,
              "enableMeasuredRates must precede submitTrace");
    CHM_CHECK(alpha >= 0.0 && alpha <= 1.0,
              "measured-rate alpha must be within [0, 1]");
    if (alpha <= 0.0)
        return; // nominal weights, bit-identical streams
    measuredAlpha_ = alpha;
    weightsDirty_ = true; // weights switch to the measured stream
    measured_.clear();
    for (std::size_t i = 0; i < engines_.size(); ++i) {
        measured_.emplace_back(alpha, rates_[i]);
        installMeasuredRate(i);
    }
}

std::int64_t
DataParallelCluster::outstanding(std::size_t i) const
{
    return engines_[routable_[i]]->outstanding();
}

bool
DataParallelCluster::adapterResident(std::size_t i,
                                     model::AdapterId id) const
{
    if (id == model::kNoAdapter)
        return true;
    const ServingEngine &engine = *engines_[routable_[i]];
    return engine.adapterManager().isResident(id);
}

void
DataParallelCluster::residentReplicas(model::AdapterId id,
                                      std::vector<std::size_t> *out) const
{
    if (fabric_ == nullptr) {
        routing::ClusterView::residentReplicas(id, out);
        return;
    }
    out->clear();
    if (id == model::kNoAdapter) {
        // No-adapter requests hit everywhere (adapterResident parity).
        for (std::size_t i = 0; i < routable_.size(); ++i)
            out->push_back(i);
        return;
    }
    // Directory answers in engine indices; translate to view indices.
    // Both sides are ascending, so one binary search per holder.
    fabric_->directory().residentReplicas(id, &fabricHolders_);
    for (std::size_t engineIndex : fabricHolders_) {
        const auto it = std::lower_bound(routable_.begin(),
                                         routable_.end(), engineIndex);
        if (it != routable_.end() && *it == engineIndex)
            out->push_back(
                static_cast<std::size_t>(it - routable_.begin()));
    }
}

double
DataParallelCluster::serviceWeight(std::size_t i) const
{
    // Normalised over every engine ever built (not just the active
    // prefix) so a replica's weight does not change when a slower
    // drained replica leaves the active set. maxRate_ is maintained
    // by buildReplica: serviceWeight sits on the per-request dispatch
    // path, called once per replica per routing decision. The measured
    // rate is staleness-floored so a stalled replica's weight decays
    // instead of keeping its last EWMA (and the dispatches) forever.
    const std::size_t engineIndex = routable_[i];
    const double rate = measuredAlpha_ > 0.0
                            ? measured_[engineIndex].rate(sim_.now())
                            : rates_[engineIndex];
    return rate / maxRate_;
}

const std::vector<double> &
DataParallelCluster::serviceWeights() const
{
    // With measured rates the entries decay with simulation time (the
    // staleness floor), so a cache built at an earlier timestamp is no
    // longer exactly serviceWeight(i); the extra time key costs the
    // unmeasured path nothing (weightsDirty_ short-circuits).
    const bool stale = measuredAlpha_ > 0.0 && weightsTime_ != sim_.now();
    if (weightsDirty_ || stale) {
        weights_.resize(routable_.size());
        for (std::size_t i = 0; i < routable_.size(); ++i)
            weights_[i] = serviceWeight(i);
        weightsDirty_ = false;
        weightsTime_ = sim_.now();
    }
    return weights_;
}

std::vector<double>
DataParallelCluster::effectiveServiceRates() const
{
    if (measuredAlpha_ <= 0.0)
        return rates_;
    std::vector<double> out;
    out.reserve(measured_.size());
    for (const auto &rate : measured_)
        out.push_back(rate.rate());
    return out;
}

void
DataParallelCluster::attachFabric(fabric::CacheFabric *fabric)
{
    CHM_CHECK(!traceSubmitted_,
              "attachFabric must precede submitTrace");
    CHM_CHECK(fabric_ == nullptr, "cluster already has a cache fabric");
    fabric_ = fabric;
    for (std::size_t i = 0; i < engines_.size(); ++i)
        fabric_->attachReplica(i, engines_[i]->adapterManager());
    if (trace_ != nullptr)
        fabric_->setTraceRecorder(trace_);
}

void
DataParallelCluster::setTraceRecorder(obs::TraceRecorder *recorder)
{
    trace_ = recorder;
    if (autoscaler_ != nullptr)
        autoscaler_->setTraceRecorder(recorder);
    if (fabric_ != nullptr)
        fabric_->setTraceRecorder(recorder);
    if (recorder == nullptr) {
        router_->setTraceRecorder(nullptr, nullptr);
        for (auto &engine : engines_)
            engine->setTraceRecorder(nullptr, 0);
        return;
    }
    recorder->processName(obs::kClusterPid, "cluster");
    recorder->threadName(obs::kClusterPid, obs::Lane::Control,
                         "control");
    router_->setTraceRecorder(recorder, &sim_);
    for (std::size_t i = 0; i < engines_.size(); ++i)
        wireEngineTrace(i);
}

/** Name replica `index`'s trace process and attach its engine. */
void
DataParallelCluster::wireEngineTrace(std::size_t index)
{
    const int pid = obs::pidForReplica(index);
    trace_->processName(pid, "replica" + std::to_string(index) + " [" +
                                 engines_[index]->config().gpu.name +
                                 "]");
    trace_->threadName(pid, obs::Lane::Engine, "engine");
    trace_->threadName(pid, obs::Lane::Requests, "requests");
    trace_->threadName(pid, obs::Lane::Cache, "adapter-cache");
    engines_[index]->setTraceRecorder(trace_, pid);
}

void
DataParallelCluster::installMeasuredRate(std::size_t index)
{
    engines_[index]->setCompletionListener(
        [this, index](sim::SimTime now) {
            measured_[index].onCompletion(now);
            weightsDirty_ = true; // the EWMA moved; recompute lazily
        });
}

void
DataParallelCluster::appendEngine(std::unique_ptr<ServingEngine> engine,
                                  double nominalRate)
{
    engines_.push_back(std::move(engine));
    rates_.push_back(nominalRate);
    maxRate_ = std::max(maxRate_, nominalRate);
    weightsDirty_ = true; // maxRate_ may have moved every weight
    states_.push_back(ReplicaState::Active);
    bootDeadline_.push_back(0);
    if (measuredAlpha_ > 0.0) {
        measured_.emplace_back(measuredAlpha_, nominalRate);
        installMeasuredRate(engines_.size() - 1);
    }
    if (trace_ != nullptr)
        wireEngineTrace(engines_.size() - 1);
    if (fabric_ != nullptr) {
        fabric_->attachReplica(engines_.size() - 1,
                               engines_.back()->adapterManager());
    }
}

void
DataParallelCluster::buildReplica()
{
    auto engine = factory_(engines_.size());
    const double rate = nominalServiceRate(engine->config());
    appendEngine(std::move(engine), rate);
}

/**
 * Build one scale-up replica. The engine comes from the index factory
 * (Default policy) or from the catalogue candidate the ScaleUpPolicy
 * picks; with the cold-start model enabled it enters Booting and only
 * becomes dispatchable at its boot deadline.
 */
void
DataParallelCluster::buildScaleUpReplica()
{
    const routing::ScaleUpPolicy policy =
        autoscaler_ != nullptr ? autoscaler_->config().scaleUpPolicy
                               : routing::ScaleUpPolicy::Default;
    if (policy == routing::ScaleUpPolicy::Default ||
        candidates_.empty()) {
        buildReplica();
    } else {
        // Forecast shortfall still uncovered, in reference-replica
        // units (<= 0 for watermark-driven scale-ups).
        double shortfall = 0.0;
        if (autoscaler_ != nullptr) {
            shortfall = autoscaler_->lastForecastDemand() -
                        capacitySignals().activeCapacityFactor;
        }
        std::size_t pick = fastestCandidate_;
        if (policy == routing::ScaleUpPolicy::Cheapest) {
            // Cheapest-that-meets-forecast; when no single candidate
            // covers the shortfall, keep the fastest and let the next
            // build cover the rest.
            const double needed = shortfall * referenceRate_;
            double bestRate = std::numeric_limits<double>::infinity();
            for (std::size_t c = 0; c < candidates_.size(); ++c) {
                if (candidateRates_[c] + 1e-12 >= needed &&
                    candidateRates_[c] < bestRate) {
                    bestRate = candidateRates_[c];
                    pick = c;
                }
            }
        }
        appendEngine(configFactory_(candidates_[pick]),
                     candidateRates_[pick]);
    }

    const std::size_t index = engines_.size() - 1;
    if (trace_ != nullptr) {
        trace_->instant(obs::kClusterPid, obs::Lane::Control, "scale_up",
                        sim_.now(),
                        {{"replica", index},
                         {"gpu", engines_[index]->config().gpu.name}});
    }
    if (coldStart_.enabled()) {
        const sim::SimTime boot =
            coldStart_.bootTime(engines_[index]->config());
        states_[index] = ReplicaState::Booting;
        bootDeadline_[index] = sim_.now() + boot;
        ++bootStats_.boots;
        bootStats_.totalBootTime += boot;
        if (trace_ != nullptr) {
            // The boot duration is known at schedule time, so the span
            // is a complete event up front. A drain can cancel the boot
            // mid-span; the cancellation shows as the "drain" instant.
            trace_->complete(obs::pidForReplica(index),
                             obs::Lane::Engine, "boot", sim_.now(),
                             boot);
        }
        sim_.scheduleAfter(boot,
                           [this, index] { onBootComplete(index); });
    }
    // Peer-warm the new replica while (or despite) it boots: the
    // migrations land through the calendar queue, so the cache is warm
    // by the time the boot deadline admits the replica to the ring.
    if (fabric_ != nullptr)
        fabric_->onScaleUp(index, sim_.now());
}

void
DataParallelCluster::onBootComplete(std::size_t index)
{
    // The slot may have been drained mid-boot (and possibly not yet
    // reactivated); only a still-Booting replica joins the active set.
    if (states_[index] != ReplicaState::Booting)
        return;
    states_[index] = ReplicaState::Active;
    syncRoutable();
}

void
DataParallelCluster::syncRoutable()
{
    std::vector<std::size_t> routable;
    std::size_t booting = 0;
    routable.reserve(provisioned_);
    for (std::size_t i = 0; i < provisioned_; ++i) {
        if (states_[i] == ReplicaState::Active)
            routable.push_back(i);
        else
            ++booting;
    }
    booting_ = booting;
    if (routable != routable_) {
        routable_ = std::move(routable);
        weightsDirty_ = true;
        router_->onReplicaCountChanged(routable_.size());
        // Ring remap: re-home globally hot adapters that lost their
        // last active holder to the drain/boot that changed the set.
        if (fabric_ != nullptr && !routable_.empty())
            fabric_->onRemap(routable_, sim_.now());
    }
}

double
DataParallelCluster::capacityFactor(std::size_t index) const
{
    return rates_[index] / referenceRate_;
}

bool
DataParallelCluster::measuredSignals() const
{
    return measuredAlpha_ > 0.0 && autoscaler_ != nullptr;
}

routing::CapacitySignals
DataParallelCluster::capacitySignals() const
{
    // Capacity in reference-replica units. Without measured rates
    // (measured_rate_alpha = 0, the default) the factors are the
    // static nominal ratios — homogeneous fleets divide a rate by
    // itself, every factor is exactly 1.0 and the sum exactly the
    // provisioned count, which keeps the autoscaler's decisions
    // bit-identical to the historical scalar arithmetic.
    //
    // With measured rates each nominal factor is scaled by the
    // replica's *health*: its measured-to-nominal ratio relative to
    // the best armed ratio in the fleet. Measured EWMA rates are
    // achieved throughput and only comparable across replicas — the
    // analytic nominal rate is a different estimator (no batching), so
    // dividing an absolute measured rate by the nominal reference
    // would inflate capacity whenever real batching beats the model
    // and stall every scale-up. Relative to the fleet's best, a
    // throttled or stalled replica reads as a fraction of its nominal
    // factor while a fleet that is merely fast everywhere stays at its
    // nominal total. Replicas without a measurement yet (unarmed EWMA)
    // keep their nominal prior; the bias of the normalisation is
    // conservative — an under-utilised replica reads as partially
    // degraded, which can only scale up earlier, never later.
    routing::CapacitySignals signals;
    const bool measured = measuredSignals();
    double bestRatio = 0.0;
    if (measured) {
        for (std::size_t i = 0; i < provisioned_; ++i) {
            if (measured_[i].armed()) {
                bestRatio = std::max(
                    bestRatio,
                    measured_[i].rate(sim_.now()) / rates_[i]);
            }
        }
    }
    // measured_ is only populated while the measured stream is live —
    // nominal mode must not touch it (it is empty with alpha = 0).
    const auto health = [&](std::size_t index, double rate) {
        if (!measured_[index].armed() || bestRatio <= 0.0)
            return 1.0;
        return std::min(1.0, rate / rates_[index] / bestRatio);
    };
    for (std::size_t i = 0; i < provisioned_; ++i) {
        signals.activeCapacityFactor +=
            capacityFactor(i) *
            (measured ? health(i, measured_[i].rate(sim_.now())) : 1.0);
    }
    if (provisioned_ < engines_.size()) {
        // Next step reactivates a drained replica of known capacity:
        // its effective rate, not its nominal one — a replica that
        // never achieved its advertised throughput will not start now.
        // The EWMA is read un-floored: a drained replica is idle by
        // design, so elapsed-time decay would say "degraded" about a
        // replica that is merely parked.
        const std::size_t next = provisioned_;
        signals.nextReplicaFactor =
            capacityFactor(next) *
            (measured ? health(next, measured_[next].rate()) : 1.0);
        // A replica drained mid-boot resumes its original deadline, so
        // the reactivation only pays the boot time still outstanding.
        if (bootDeadline_[next] > sim_.now()) {
            signals.nextReplicaBootSeconds =
                sim::toSeconds(bootDeadline_[next] - sim_.now());
        }
    } else if (autoscaler_ != nullptr && !candidates_.empty() &&
               autoscaler_->config().scaleUpPolicy !=
                   routing::ScaleUpPolicy::Default) {
        // Both catalogue policies cover a shortfall at worst at the
        // fastest candidate's pace (Cheapest falls back to it). A
        // candidate not yet built has no measurement; nominal is the
        // only estimate there is.
        signals.nextReplicaFactor =
            candidateRates_[fastestCandidate_] / referenceRate_;
        signals.nextReplicaBootSeconds = sim::toSeconds(
            coldStart_.bootTime(candidates_[fastestCandidate_]));
    } else {
        // Default policy past the fleet list builds the base engine.
        signals.nextReplicaFactor = 1.0;
        signals.nextReplicaBootSeconds = sim::toSeconds(
            coldStart_.bootTime(referenceEngineConfig()));
    }
    return signals;
}

void
DataParallelCluster::dispatch(const workload::Request &request)
{
    if (autoscaler_ != nullptr)
        autoscaler_->onArrival(sim_.now());
    if (booting_ > 0)
        ++bootStats_.requestsDelayedByBoot;
    const std::size_t pick = router_->route(request, *this);
    CHM_CHECK(pick < routable_.size(),
              "router returned an inactive replica");
    if (trace_ != nullptr) {
        trace_->instant(obs::kClusterPid, obs::Lane::Control,
                        "dispatch", sim_.now(),
                        {{"request", request.id},
                         {"adapter", request.adapter},
                         {"replica", routable_[pick]}});
    }
    engines_[routable_[pick]]->submit(request);
}

void
DataParallelCluster::applyTarget(std::size_t target)
{
    if (target == provisioned_)
        return;
    std::vector<std::size_t> drained;
    if (target > provisioned_) {
        while (provisioned_ < target) {
            if (provisioned_ < engines_.size()) {
                // Reactivate drained replicas first (their adapter
                // caches — and loaded weights — are still warm). A
                // replica drained mid-boot resumes its original boot
                // deadline instead of restarting the load.
                const std::size_t index = provisioned_;
                states_[index] = sim_.now() >= bootDeadline_[index]
                                     ? ReplicaState::Active
                                     : ReplicaState::Booting;
                if (trace_ != nullptr) {
                    trace_->instant(obs::kClusterPid,
                                    obs::Lane::Control, "reactivate",
                                    sim_.now(), {{"replica", index}});
                }
            } else {
                buildScaleUpReplica();
            }
            ++provisioned_;
        }
    } else {
        // Drain from the top of the provisioned prefix; a Booting
        // replica is cancelled (its pending boot event finds it
        // Drained and does nothing), a working replica keeps burning
        // its queue without receiving new dispatches.
        while (provisioned_ > target) {
            --provisioned_;
            states_[provisioned_] = ReplicaState::Drained;
            drained.push_back(provisioned_);
            if (trace_ != nullptr) {
                trace_->instant(obs::kClusterPid, obs::Lane::Control,
                                "drain", sim_.now(),
                                {{"replica", provisioned_}});
            }
        }
    }
    syncRoutable();
    // After the routable set settles: each drained replica pushes its
    // hot idle cache entries to the survivors (ascending index, so the
    // migration order is deterministic).
    if (fabric_ != nullptr && !drained.empty()) {
        std::sort(drained.begin(), drained.end());
        for (std::size_t index : drained)
            fabric_->onDrain(index, routable_, sim_.now());
    }
}

void
DataParallelCluster::resize(std::size_t target)
{
    CHM_CHECK(target >= 1, "cluster cannot resize below one replica");
    applyTarget(target);
}

void
DataParallelCluster::autoscaleTick(sim::SimTime until)
{
    // Count all engines, not just the active prefix: a drained replica
    // keeps burning its queue, and hiding that backlog from the
    // watermark test would cascade scale-downs while the cluster is
    // still working off a burst.
    std::int64_t total = 0;
    for (const auto &engine : engines_)
        total += engine->outstanding();
    applyTarget(autoscaler_->evaluate(provisioned_, total, sim_.now(),
                                      capacitySignals()));
    const sim::SimTime period =
        sim::fromSeconds(autoscaler_->config().evalPeriodSeconds);
    if (sim_.now() + period <= until) {
        sim_.scheduleAfter(period, [this, until] {
            autoscaleTick(until);
        });
    }
}

void
DataParallelCluster::submitTrace(const workload::Trace &trace)
{
    // A second trace would start a second autoscale tick chain and
    // double the evaluation cadence; autoscaled clusters take one.
    CHM_CHECK(autoscaler_ == nullptr || !traceSubmitted_,
              "an autoscaled cluster takes a single trace");
    traceSubmitted_ = true;
    // One fixed replica: routing is the identity, so skip the dispatch
    // indirection and submit directly. Besides saving an event per
    // request, this keeps a one-replica cluster event-for-event
    // identical to driving the engine standalone.
    if (engines_.size() == 1 && autoscaler_ == nullptr) {
        engines_.front()->submitTrace(trace);
        return;
    }
    // Dispatch decisions must be made at arrival time (outstanding
    // counts and cache residency change as the simulation runs), so
    // route from a kernel arrival stream. The engine schedules
    // onArrival at the dispatch timestamp, which fires right after.
    sim_.scheduleStream(
        trace.size(),
        [&trace](std::size_t i) { return trace[i].arrival; },
        [this, &trace](std::size_t i) { dispatch(trace[i]); });
    if (autoscaler_ != nullptr && !trace.empty()) {
        const sim::SimTime period = sim::fromSeconds(
            autoscaler_->config().evalPeriodSeconds);
        const sim::SimTime until = trace.duration();
        sim_.scheduleAt(trace.requests().front().arrival + period,
                        [this, until] { autoscaleTick(until); });
    }
}

std::vector<RequestRecord>
DataParallelCluster::mergedRecords() const
{
    std::size_t total = 0;
    for (const auto &e : engines_)
        total += e->stats().records.size();
    std::vector<RequestRecord> all;
    all.reserve(total);
    for (const auto &e : engines_) {
        const auto &rec = e->stats().records;
        all.insert(all.end(), rec.begin(), rec.end());
    }
    return all;
}

EngineStats
DataParallelCluster::mergedStats() const
{
    EngineStats out;
    for (const auto &e : engines_) {
        const EngineStats &s = e->stats();
        for (double v : s.ttft.sorted())
            out.ttft.add(v);
        for (double v : s.tbt.sorted())
            out.tbt.add(v);
        for (double v : s.e2e.sorted())
            out.e2e.add(v);
        for (double v : s.queueDelay.sorted())
            out.queueDelay.add(v);
        for (double v : s.loadStall.sorted())
            out.loadStall.add(v);
        out.submitted += s.submitted;
        out.finished += s.finished;
        out.preemptions += s.preemptions;
        out.squashes += s.squashes;
        out.bypasses += s.bypasses;
        out.iterations += s.iterations;
        out.adapterHits += s.adapterHits;
        out.adapterMisses += s.adapterMisses;
        out.busyTime += s.busyTime;
        out.prefillTokens += s.prefillTokens;
        out.decodeTokens += s.decodeTokens;
        out.batchSizeAccum += s.batchSizeAccum;
    }
    out.records = mergedRecords();
    return out;
}

std::vector<std::int64_t>
DataParallelCluster::perReplicaFinished() const
{
    std::vector<std::int64_t> out;
    out.reserve(engines_.size());
    for (const auto &e : engines_)
        out.push_back(e->stats().finished);
    return out;
}

std::int64_t
DataParallelCluster::totalPcieBytes()
{
    std::int64_t total = 0;
    for (auto &e : engines_)
        total += e->pcieLink().totalBytes();
    return total;
}

std::int64_t
DataParallelCluster::totalPcieTransfers()
{
    std::int64_t total = 0;
    for (auto &e : engines_)
        total += e->pcieLink().totalTransfers();
    return total;
}

void
DataParallelCluster::finalize()
{
    for (auto &e : engines_)
        e->finalize();
}

} // namespace chameleon::serving
