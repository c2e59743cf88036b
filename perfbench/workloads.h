/**
 * @file
 * The benchmark's named workloads and their set-up.
 *
 * Every workload is the `chameleon` preset (MLQ scheduler + adapter
 * cache) on Llama-7B / A40-48G, fed an open-loop Poisson trace in
 * simulated time from the Splitwise-like generator. The workloads
 * differ in fleet shape, adapter count, load and control plane, so each
 * one loads a different layer of the stack (see README.md).
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "chameleon/system.h"
#include "chameleon/system_spec.h"
#include "model/adapter.h"
#include "workload/trace.h"
#include "workload/trace_gen.h"

namespace perfbench {

namespace chm = chameleon;

/** One named workload: fleet, traffic and control-plane parameters. */
struct WorkloadSpec
{
    std::string name;
    int replicas = 1;
    chm::routing::RouterPolicy router =
        chm::routing::RouterPolicy::JoinShortestQueue;
    int adapters = 100;
    /** Mean Poisson arrival rate outside the step, requests/s. */
    double rps = 10.0;
    double traceSeconds = 300.0;
    /** Rate multiplier over the middle 40% of the trace (1 = none). */
    double stepMultiplier = 1.0;
    /** Autoscaling bound; 0 keeps the replica count fixed. */
    std::size_t maxReplicas = 0;
    double bootMs = 0.0;
    /** Autoscaler capacity estimate of one replica, requests/s. */
    double replicaServiceRps = 0.0;
    chm::fabric::MigrationPolicy migration = chm::fabric::MigrationPolicy::Off;
};

/** The benchmark's workloads, in report order. */
const std::vector<WorkloadSpec> &workloads();

/** Workload by name; null when unknown. */
const WorkloadSpec *findWorkload(const std::string &name);

/** The serving system the workload runs. */
chm::core::SystemSpec systemSpec(const WorkloadSpec &workload);

/** Trace generator configuration for `seed`. */
chm::workload::TraceGenConfig traceConfig(const WorkloadSpec &workload,
                                          std::uint64_t seed);

/** Monotonic wall clock, seconds. */
double wallSeconds();

/** Quantile `q` in [0, 1] of `values`, interpolating linearly (0 when
 * empty). */
double quantile(std::vector<double> values, double q);

/** Inputs and system of one untraced run, with set-up timings. */
struct Setup
{
    std::unique_ptr<chm::model::AdapterPool> pool;
    chm::workload::Trace trace;
    std::unique_ptr<chm::core::Runner> runner;
    double poolSeconds = 0.0;
    double generateSeconds = 0.0;
    double buildSeconds = 0.0;

    double seconds() const
    {
        return poolSeconds + generateSeconds + buildSeconds;
    }
};

/** Build the adapter pool, generate the trace and construct the Runner,
 * timing each step. */
Setup setUp(const WorkloadSpec &workload, std::uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
