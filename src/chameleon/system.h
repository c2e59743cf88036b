/**
 * @file
 * Top-level facade: build and run complete serving systems.
 *
 * A system is described declaratively by a core::SystemSpec (policy
 * axes: scheduler x adapter management x eviction x prediction x
 * deployment — see system_spec.h) and resolved by name through the
 * SystemRegistry (system_registry.h). The Runner wires the spec into a
 * DataParallelCluster of fully configured engines (replicas = 1 is a
 * one-replica cluster), runs a trace through it, and returns one
 * unified RunReport. This is the entry point used by the examples and
 * by every benchmark binary.
 */

#ifndef CHAMELEON_CHAMELEON_SYSTEM_H
#define CHAMELEON_CHAMELEON_SYSTEM_H

#include <functional>
#include <memory>
#include <string>

#include "chameleon/cache_manager.h"
#include "chameleon/mlq_scheduler.h"
#include "chameleon/system_registry.h"
#include "chameleon/system_spec.h"
#include "obs/metrics_registry.h"
#include "obs/trace_recorder.h"
#include "predict/output_predictor.h"
#include "routing/autoscaler.h"
#include "routing/router.h"
#include "serving/cluster.h"
#include "serving/engine.h"
#include "simkit/simulator.h"
#include "workload/trace.h"

namespace chameleon::core {

/**
 * Per-tenant outcome slice of one run, computed from the finished
 * request records (post-simulation — the accounting can never perturb
 * event streams). SLO attainment is the fraction of finished requests
 * whose TTFT met the resolved per-tenant SLO; -1 for an empty trace,
 * which has no SLO.
 */
struct TenantReport
{
    workload::TenantId tenant = 0;
    std::int64_t finished = 0;
    double p50TtftSeconds = 0.0;
    double p99TtftSeconds = 0.0;
    double p50E2eSeconds = 0.0;
    double p99E2eSeconds = 0.0;
    /** Observed E2E / isolated E2E over this tenant's requests. */
    double meanSlowdown = 0.0;
    double p99Slowdown = 0.0;
    /** Resolved TTFT SLO for this tenant, seconds (0 = no SLO). */
    double sloSeconds = 0.0;
    /** Fraction of requests with TTFT <= sloSeconds; -1 = no SLO. */
    double sloAttainment = -1.0;
};

/**
 * Aggregate outcome of one run — single-engine and cluster runs share
 * this one report. Per-link fields (utilisation, rate series) and the
 * in-engine time series are only populated for single-replica runs;
 * cluster-wide percentiles are over all replicas' records.
 */
struct RunReport
{
    /**
     * The run's stats, taken from its engines
     * (DataParallelCluster::takeStats): the only copy of the
     * per-request records once run() returns, and the latency trackers
     * built from them after the tenant reports were. The records are
     * grouped by replica in engine order, each group in finish order,
     * and each carries its replica index.
     */
    serving::RunStats stats;

    /**
     * Per-tenant slices ordered by tenant id (one entry per tenant with
     * at least one finished request; anonymous runs get a single
     * tenant-0 entry).
     */
    std::vector<TenantReport> tenants;
    /**
     * Jain's fairness index over per-tenant weighted service — finished
     * requests per unit scheduler weight, the served-IOs-per-weight
     * convention of fairness-scheduler suites: 1.0 when every tenant
     * receives service proportional to its weight, approaching 1/n when
     * one tenant captures it all. 1.0 for empty runs. A raw-slowdown
     * index would invert the ranking: FIFO equalises queueing *delay*
     * across tenants (equal misery), while a fair scheduler deliberately
     * concentrates delay on the over-demanding tenant; service per
     * weight is the quantity WFQ/DRR actually equalise. Under a storm
     * the contrast shows while the backlog is live (bounded drain
     * window); a fully drained run converges to the trace's demand mix
     * for every scheduler.
     */
    double fairnessIndex = 1.0;
    /** Global TTFT SLO used for attainment, seconds: the paper's 5x
     * the trace's mean isolated latency (0 for an empty trace). */
    double sloSeconds = 0.0;
    /** The multiplier the SLO was derived with,
     * serving::kSloMultiplier (0 for an empty trace). */
    double sloMultiplier = 0.0;
    /** Overall SLO attainment across all requests; -1 = no SLO. */
    double sloAttainment = -1.0;

    /** Host->GPU adapter traffic summed over replicas. */
    std::int64_t pcieBytes = 0;
    std::int64_t pcieTransfers = 0;
    /** Per-link rates — single-replica runs only (0/empty otherwise). */
    double pcieUtilisation = 0.0;
    double pcieMeanBytesPerSec = 0.0;
    double pcieMaxBytesPerSec = 0.0;
    std::vector<sim::TimePoint> pcieRateSeries;

    /** Cache statistics (0 for baseline adapter management). */
    std::int64_t cacheEvictions = 0;
    double cacheHitRate = 0.0;

    /** Max MLQ queue count across replicas (0 for FIFO/SJF). */
    int mlqQueues = 0;

    /** Requests finished per replica (drained replicas included). */
    std::vector<std::int64_t> perReplicaFinished;
    /**
     * Nominal service-rate estimate per replica (requests/s, from
     * serving::nominalServiceRate on each replica's resolved engine
     * config), indexed like perReplicaFinished. Homogeneous fleets
     * report one value repeated; the ratios are what capacity-aware
     * routing weighted the placement by.
     */
    std::vector<double> perReplicaServiceRate;
    /**
     * Service rates the routing weights actually used at the end of
     * the run: the measured EWMA (serving::MeasuredRate) when
     * cluster.autoscaler.measuredRateAlpha > 0, a copy of
     * perReplicaServiceRate otherwise.
     */
    std::vector<double> perReplicaEffectiveRate;
    /** Replicas ever built and active count at the end of the run. */
    std::size_t peakReplicas = 0;
    std::size_t finalActiveReplicas = 0;
    /** Autoscaling events applied. */
    std::int64_t scaleUps = 0;
    std::int64_t scaleDowns = 0;
    // --- cold-start accounting (zero while autoscaler.bootMs = 0) ---
    /** Scale-up builds that paid a boot (weight-load + constant). */
    std::int64_t bootEvents = 0;
    /** Summed boot latency across those builds, seconds. */
    double totalBootSeconds = 0.0;
    /** Requests dispatched while >= 1 replica was still booting. */
    std::int64_t requestsDelayedByBoot = 0;

    // --- cache fabric (all zero / false when no fabric was built) ---
    /** A cache fabric (directory + migration) was wired into the run. */
    bool fabricEnabled = false;
    /** Peer migrations started (declined admits excluded). */
    std::int64_t fabricMigrations = 0;
    /** Adapter bytes moved over peer links. */
    std::int64_t fabricPeerBytes = 0;
    std::int64_t fabricPeerTransfers = 0;

    /**
     * Hierarchical metrics snapshot (obs::MetricsRegistry populated by
     * core::fillRunMetrics): per-replica request/engine/cache counters
     * and latency histograms under "replica<i>.*", cluster-wide
     * aggregates under "cluster.*". Always populated by Runner::run;
     * dump() is the --metrics-out document.
     */
    sim::JsonValue metrics;

    /**
     * FNV-1a 64 hash of the run's canonical event stream
     * (canonicalEventStream): the whole per-replica finished-record
     * sequence plus the scaling counters, in the golden-trace suite's
     * exact format. Streamed by eventStreamHash, so the text is never
     * built. Two runs with equal hashes dispatched the same
     * requests to the same replicas with the same timings — the
     * sweep's per-cell determinism fingerprint and the currency of
     * `chameleon_sweep --baseline`.
     */
    std::uint64_t eventHash = 0;
};

/**
 * A fully wired serving system built from a SystemSpec: spec.cluster
 * replicas, each with the spec's scheduler/adapter-manager/predictor
 * wiring, behind a routing::Router with optional autoscaling. The spec
 * is validated on construction; contradictions fail fast with every
 * actionable message.
 */
class Runner
{
  public:
    /**
     * @param spec system description (validated here)
     * @param pool adapter catalogue (nullable for base-only workloads)
     */
    Runner(SystemSpec spec, const model::AdapterPool *pool);
    ~Runner();

    sim::Simulator &simulator() { return sim_; }
    serving::DataParallelCluster &cluster() { return *cluster_; }
    /** First-replica view (the engine of a single-replica run). */
    serving::ServingEngine &engine()
    {
        return *cluster_->engines().front();
    }
    const SystemSpec &spec() const { return spec_; }

    /**
     * Attach a span recorder to the whole system (engines, router,
     * autoscaler, caches — see DataParallelCluster::setTraceRecorder).
     * Call before run(); the caller owns the recorder and exports it
     * (TraceRecorder::toJson) after the run. Detached (the default)
     * the run's event streams are bit-identical to an untraced run.
     */
    void setTraceRecorder(obs::TraceRecorder *recorder)
    {
        cluster_->setTraceRecorder(recorder);
    }

    /**
     * Run a trace to completion (with a drain window after the last
     * arrival) and collect results. The report takes the engines'
     * per-request data: afterwards every engine's stats() keeps its
     * counters, but its records and samples are empty. Read them from
     * RunReport::stats.
     */
    RunReport run(const workload::Trace &trace,
                  sim::SimTime drainWindow = 3600 * sim::kSec);

  private:
    SystemSpec spec_;
    const model::AdapterPool *pool_;
    sim::Simulator sim_;
    std::unique_ptr<predict::OutputPredictor> predictor_;
    /** Declared before cluster_: engines detach from the directory
     * only at destruction-order convenience — the cluster (and its
     * engines) must go first, so fabric_ outlives it. */
    std::unique_ptr<fabric::CacheFabric> fabric_;
    std::unique_ptr<serving::DataParallelCluster> cluster_;
};

/**
 * Populate `registry` with the end-of-run metrics of a finalised
 * cluster + report: per-replica counters and latency histograms under
 * "replica<i>.*" (requests, engine, cache, pcie, latency groups) and
 * cluster-wide aggregates under "cluster.*". Reads authoritative
 * end-of-run stats only — it never samples during the simulation, so
 * metrics can never perturb event streams. The counters come from the
 * engines, the latency histograms from the report's records. Runner::run
 * calls this to fill RunReport::metrics; tools and tests may call it on
 * their own registry for richer exports.
 */
void fillRunMetrics(obs::MetricsRegistry &registry,
                    const serving::DataParallelCluster &cluster,
                    const RunReport &report);

/** FNV-1a 64-bit hash (offset basis 0xcbf29ce484222325). */
std::uint64_t fnv1a64(const std::string &text);

/**
 * Canonical event-stream CSV of a finished run: a summary line of the
 * scaling counters, then one line per finished request in per-replica
 * finish order (replica index first) carrying every routing- and
 * scheduling-visible field; doubles are serialised by bit pattern.
 * Everything is read from the report, which owns the records after
 * Runner::run; `cluster` is not read.
 * Anything routing, scheduling, or autoscaling can influence is in
 * here — a single moved dispatch or extra scale event changes the
 * text. This is the exact format the golden-trace pins hash (the suite
 * calls this function). It shares one line formatter with
 * eventStreamHash, so fnv1a64(canonicalEventStream(c, r)) ==
 * eventStreamHash(c, r) == RunReport::eventHash.
 */
std::string canonicalEventStream(
    const serving::DataParallelCluster &cluster,
    const RunReport &report);

/**
 * fnv1a64 of canonicalEventStream, hashed line by line as the stream
 * is formatted, without building the text (about 80 bytes per record).
 * Runner::run fills RunReport::eventHash with it.
 */
std::uint64_t eventStreamHash(const serving::DataParallelCluster &cluster,
                              const RunReport &report);

/** One-shot convenience wrapper. */
RunReport runSpec(const SystemSpec &spec, const model::AdapterPool *pool,
                  const workload::Trace &trace);

/**
 * One-shot run of a registry system name ("chameleon",
 * "slora+gdsf+cache", ...). `configure` is applied to the resolved
 * spec before running (set hardware, predictor, cluster there).
 */
RunReport runSystem(const std::string &name,
                    const std::function<void(SystemSpec &)> &configure,
                    const model::AdapterPool *pool,
                    const workload::Trace &trace);

} // namespace chameleon::core

#endif // CHAMELEON_CHAMELEON_SYSTEM_H
