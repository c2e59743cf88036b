/**
 * @file
 * chameleon_sim — the command-line driver for the simulator.
 *
 * Builds a serving system from flags, generates (or loads) a trace,
 * runs it, and prints a full report: latency percentiles, throughput,
 * cache/PCIe statistics, and GPU utilisation. Optionally exports
 * per-request records and the trace itself as CSV for offline
 * analysis.
 *
 * --system accepts any registered name (see --list-systems) or a
 * composed variant like "chameleon+gdsf+prefetch" — base system plus
 * one modifier per policy axis. Every other system knob is a spec
 * path set with --set path=value (repeatable; the paths are the keys
 * --dump-config prints, listed in src/chameleon/README.md).
 *
 * Examples:
 *   chameleon_sim --list-systems
 *   chameleon_sim --system chameleon --rps 9 --duration 300
 *   chameleon_sim --system slora+sjf --set engine.model=llama-13b \
 *       --set engine.gpu=a100 --adapters 200 --records-csv out.csv
 *   chameleon_sim --system chameleon --fleet a100x2+a40x2 \
 *       --set cluster.router=p2c --set cluster.autoscale=true --rps 30 \
 *       --trace-out trace.json --metrics-out metrics.json
 *   chameleon_sim --system chameleon+wfq --set tenancy.tenants=4 \
 *       --tenant-storm 8 --rps 12
 *
 * In --system mode the spec starts from the registry preset on the
 * paper testbed (Llama-7B on an A40); --seed drives the trace
 * generator, the output-length predictor, and the router's sampling
 * stream, so a cluster run is reproducible from its command line
 * alone. --replicas N and --fleet PRESET are shorthands for
 * --set cluster.replicas=N and --set cluster.fleet=PRESET, applied
 * before the --set overrides.
 *
 * Any run is also reproducible from a file: --dump-config prints the
 * fully resolved SystemSpec as JSON and exits, and --config file.json
 * ("-" = stdin) loads a spec from such a file instead of --system.
 * `chameleon_sim --dump-config | chameleon_sim --config -` re-runs the
 * identical system; --set applies on top of the file. In --config
 * mode the predictor and router seeds are the file's (that is what
 * makes the round-trip bit-identical); --seed, --rps, --duration,
 * --adapters, and --workload shape only the generated trace.
 *
 * Exit status: 0 when every submitted request finished; 2 for a bad
 * flag, spec value or input file, named in the message; 3
 * (kExitUnfinished) when the run ended with requests it never finished
 * (a stalled engine), after printing the report and writing every
 * output, with the unfinished count on stderr.
 */

#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "chameleon/spec_json.h"
#include "chameleon/spec_schema.h"
#include "chameleon/system.h"
#include "fabric/cache_fabric.h"
#include "tool_io.h"
#include "model/llm.h"
#include "routing/router.h"
#include "serving/slo.h"
#include "simkit/flags.h"
#include "simkit/log.h"
#include "workload/trace_gen.h"

using namespace chameleon;

namespace {

/** Exit status of a run that left submitted requests unfinished. */
constexpr int kExitUnfinished = 3;

void
listSystems()
{
    const auto &registry = core::SystemRegistry::global();
    std::printf("registered systems:\n");
    for (const auto &name : registry.names()) {
        std::printf("  %-24s %s\n", name.c_str(),
                    registry.description(name).c_str());
    }
    std::printf("\ncompose variants as base+modifier, e.g. "
                "\"chameleon+gdsf+prefetch\"; modifiers:\n ");
    for (const auto &mod : core::SystemRegistry::modifierHelp())
        std::printf(" %s", mod.c_str());
    std::printf("\n");
}

/** Was --name (or --name=value) given explicitly on the command line? */
bool
flagGiven(int argc, char **argv, const std::string &name)
{
    const std::string plain = "--" + name;
    const std::string assign = plain + "=";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == plain || arg.rfind(assign, 0) == 0)
            return true;
    }
    return false;
}

/**
 * Load a --trace CSV into `trace`: false, with `*error` set, when the
 * file cannot be read or parsed, holds no request, or names an adapter
 * outside the pool.
 */
bool
loadTrace(const std::string &path, std::int64_t adapters,
          workload::Trace *trace, std::string *error)
{
    std::ifstream in(path);
    if (!in.good()) {
        *error = "cannot open for reading";
        return false;
    }
    auto loaded = workload::Trace::loadCsv(in, error);
    if (!loaded)
        return false;
    if (loaded->empty()) {
        *error = "no requests";
        return false;
    }
    for (const auto &r : loaded->requests()) {
        if (r.adapter >= adapters) {
            *error = "request " + std::to_string(r.id) + " names adapter " +
                     std::to_string(r.adapter) +
                     ", outside the --adapters pool";
            return false;
        }
    }
    *trace = std::move(*loaded);
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    sim::FlagSet flags("chameleon_sim");
    auto *system = flags.addString("system", "chameleon",
                                   "serving system (see --list-systems)");
    auto *config_file = flags.addString(
        "config", "",
        "load the system spec from a JSON file (\"-\" = stdin) instead "
        "of --system");
    auto *dump_config = flags.addBool(
        "dump-config", false,
        "print the resolved system spec as JSON and exit");
    auto *list_systems = flags.addBool(
        "list-systems", false,
        "print the system registry (names + composition grammar)");
    auto *adapters = flags.addInt("adapters", 100,
                                  "number of LoRA adapters (0 = base only)");
    auto *rps = flags.addDouble("rps", 8.0, "offered load, requests/s");
    auto *duration = flags.addDouble("duration", 300.0,
                                     "trace duration, seconds");
    auto *seed = flags.addInt("seed", 42, "workload seed");
    auto *workload_name = flags.addString(
        "workload", "splitwise", "trace preset: splitwise|wildchat|lmsys");
    auto *tenant_storm = flags.addDouble(
        "tenant-storm", 1.0,
        "noisy neighbour: tenant 0 bursts to this multiple of its share "
        "for the middle half of the trace (requires > 1 tenant)");
    auto *replicas = flags.addInt(
        "replicas", 1,
        "data-parallel engine replicas (= --set cluster.replicas=N)");
    auto *fleet = flags.addString(
        "fleet", "",
        "heterogeneous replica fleet, e.g. a40x4 or a100x2+a40x2 "
        "(= --set cluster.fleet=PRESET; defines the replica count)");
    auto *sets = flags.addStringList(
        "set",
        "override one spec key, path=value (e.g. cluster.router=p2c, "
        "cluster.autoscale=true, engine.gpu=a100-48); paths are the keys "
        "--dump-config prints; applied in order after --replicas/--fleet "
        "and on top of --config");
    auto *trace_in = flags.addString("trace", "",
                                     "load trace from CSV instead");
    auto *save_trace = flags.addString("save-trace", "",
                                       "write the generated trace as CSV");
    auto *records_csv = flags.addString("records-csv", "",
                                        "write per-request records as CSV");
    auto *trace_out = flags.addString(
        "trace-out", "",
        "write a Chrome trace-event JSON of the run (open in Perfetto "
        "or chrome://tracing)");
    auto *metrics_out = flags.addString(
        "metrics-out", "",
        "write the hierarchical metrics snapshot as JSON");
    auto *log_level = flags.addString(
        "log-level", "warn",
        "stderr log threshold: error|warn|info|debug|trace");
    if (!flags.parse(argc, argv))
        return 2;
    // The workload flags set keys of the workload schema and are held
    // to its bounds (chameleon/spec_schema.h); each message names the
    // flag.
    workload::TraceGenConfig wl;
    if (!workload::tracePresetByName(*workload_name, &wl)) {
        std::fprintf(stderr,
                     "chameleon_sim: unknown --workload \"%s\"; known: %s\n",
                     workload_name->c_str(), workload::tracePresetNames());
        return 2;
    }
    wl.rps = *rps;
    wl.durationSeconds = *duration;
    wl.numAdapters = static_cast<int>(*adapters);
    wl.stormMultiplier = *tenant_storm;
    wl.seed = static_cast<std::uint64_t>(*seed);
    const std::pair<const char *, const char *> workload_flags[] = {
        {"--rps", "workload.rps "},
        {"--duration", "workload.duration_s "},
        {"--adapters", "workload.adapters "},
        {"--tenant-storm", "workload.tenant_storm "},
    };
    std::vector<std::string> problems;
    core::checkBounds(wl, &problems);
    for (const auto &problem : problems) {
        for (const auto &[flag, path] : workload_flags) {
            if (problem.rfind(path, 0) == 0) {
                std::fprintf(stderr, "chameleon_sim: %s: %s\n", flag,
                             problem.c_str());
                return 2;
            }
        }
    }

    sim::LogLevel level;
    if (!sim::logLevelByName(*log_level, &level)) {
        std::fprintf(stderr, "unknown --log-level '%s'; known: %s\n",
                     log_level->c_str(), sim::logLevelNames());
        return 2;
    }
    sim::setLogLevel(level);

    if (*list_systems) {
        listSystems();
        // Listing alone is a complete command; only continue into a
        // simulation when one was explicitly requested via --system.
        if (!flagGiven(argc, argv, "system"))
            return 0;
        std::printf("\n");
    }

    core::SystemSpec base;
    core::SpecOverrides overrides;
    if (!config_file->empty()) {
        // The file is the single source of truth for the system; a
        // system or deployment flag beside it would be silently
        // ignored, which would misread as a run of the flagged one.
        for (const char *conflicting : {"system", "replicas", "fleet"}) {
            if (flagGiven(argc, argv, conflicting)) {
                std::fprintf(stderr,
                             "chameleon_sim: --%s conflicts with --config; "
                             "edit the config file or override it with "
                             "--set path=value (workload flags "
                             "--rps/--duration/--seed/--adapters/"
                             "--workload still apply)\n",
                             conflicting);
                return 2;
            }
        }
        std::string config_error;
        auto parsed = core::specFromJson(
            tools::readAll(*config_file, "chameleon_sim"), &config_error);
        if (!parsed.has_value()) {
            std::fprintf(stderr, "%s\n", config_error.c_str());
            return 2;
        }
        base = *parsed;
    } else {
        std::string lookup_error;
        auto found = core::SystemRegistry::global().find(*system,
                                                         &lookup_error);
        if (!found.has_value()) {
            std::fprintf(stderr, "%s\n", lookup_error.c_str());
            return 2;
        }
        base = *found;
        base.engine.model = model::llama7B();
        base.engine.gpu = model::a40();
        base.predictor.seed = static_cast<std::uint64_t>(*seed);
        base.cluster.routerConfig.seed = static_cast<std::uint64_t>(*seed);
        base.cluster.autoscaler.replicaServiceRps = 8.0;

        if (!fleet->empty()) {
            // A fleet defines the replica count; a --replicas beside it
            // would silently lose to one of the two.
            if (flagGiven(argc, argv, "replicas")) {
                std::fprintf(stderr,
                             "--replicas conflicts with --fleet; the "
                             "fleet preset already defines the replica "
                             "count\n");
                return 2;
            }
            overrides.emplace_back("cluster.fleet",
                                   sim::JsonValue::makeString(*fleet));
        } else if (flagGiven(argc, argv, "replicas")) {
            overrides.emplace_back("cluster.replicas",
                                   sim::JsonValue::makeInt(*replicas));
        }
    }
    for (const auto &arg : *sets) {
        const auto eq = arg.find('=');
        if (eq == std::string::npos || eq == 0) {
            std::fprintf(stderr,
                         "--set %s: expected path=value, e.g. "
                         "cluster.router=p2c\n",
                         arg.c_str());
            return 2;
        }
        overrides.emplace_back(arg.substr(0, eq),
                               core::overrideValue(arg.substr(eq + 1)));
    }
    std::string override_error;
    const auto resolved =
        core::applySpecOverrides(base, overrides, &override_error);
    if (!resolved.has_value() ||
        !core::checkOverridesTakeEffect(*resolved, overrides,
                                        &override_error)) {
        std::fprintf(stderr, "%s\n", override_error.c_str());
        return 2;
    }
    const core::SystemSpec &spec = *resolved;
    const bool clusterRun =
        spec.cluster.replicas > 1 || spec.cluster.autoscale;

    if (*tenant_storm > 1.0 && spec.tenancy.tenants <= 1) {
        std::fprintf(stderr,
                     "chameleon_sim: --tenant-storm needs more than one "
                     "tenant (--set tenancy.tenants=N, or the config "
                     "file's tenancy.tenants); a storm is one tenant "
                     "bursting against the others\n");
        return 2;
    }

    if (*dump_config) {
        // The resolved spec alone reproduces this system: pipe it back
        // through --config - for a bit-identical seeded run.
        std::fputs(core::specToJson(spec).c_str(), stdout);
        return 0;
    }

    // Open every output file now: an unwritable path fails at once,
    // not after the whole simulation has run.
    std::ofstream records_file;
    std::ofstream trace_file;
    std::ofstream metrics_file;
    std::ofstream saved_trace_file;
    const std::tuple<const char *, const std::string *, std::ofstream *>
        outputs[] = {{"records-csv", records_csv, &records_file},
                     {"trace-out", trace_out, &trace_file},
                     {"metrics-out", metrics_out, &metrics_file},
                     {"save-trace", save_trace, &saved_trace_file}};
    for (const auto &[flag, path, file] : outputs) {
        if (path->empty())
            continue;
        file->open(*path);
        if (!file->good()) {
            std::fprintf(stderr, "chameleon_sim: --%s: cannot open %s "
                                 "for writing\n",
                         flag, path->c_str());
            return 2;
        }
    }

    std::unique_ptr<model::AdapterPool> pool;
    if (*adapters > 0) {
        pool = std::make_unique<model::AdapterPool>(
            spec.engine.model, static_cast<int>(*adapters));
    }

    workload::Trace trace;
    if (!trace_in->empty()) {
        std::string error;
        if (!loadTrace(*trace_in, *adapters, &trace, &error)) {
            std::fprintf(stderr, "chameleon_sim: --trace %s: %s\n",
                         trace_in->c_str(), error.c_str());
            return 2;
        }
    } else {
        wl.numTenants = spec.tenancy.tenants;
        workload::TraceGenerator gen(wl, pool.get());
        trace = gen.generate();
    }
    if (!save_trace->empty())
        trace.saveCsv(saved_trace_file);

    model::CostModel cost(spec.engine.model, spec.engine.gpu,
                          spec.engine.tpDegree, spec.engine.cost);
    const double slo =
        sim::toSeconds(serving::computeSlo(trace, cost, pool.get()));

    std::printf("system      : %s (scheduler %s, adapters %s"
                "%s%s)\n",
                spec.name.c_str(),
                core::schedulerPolicyName(spec.scheduler.policy),
                core::adapterPolicyName(spec.adapters.policy),
                spec.adapters.policy ==
                        core::AdapterPolicy::ChameleonCache
                    ? ", eviction "
                    : "",
                spec.adapters.policy ==
                        core::AdapterPolicy::ChameleonCache
                    ? core::evictionPolicyName(spec.adapters.eviction)
                    : "");
    std::printf("deployment  : %s on %s x%d, %lld adapters\n",
                spec.engine.model.name.c_str(),
                spec.engine.gpu.name.c_str(), spec.engine.tpDegree,
                static_cast<long long>(*adapters));
    if (clusterRun) {
        std::printf("cluster     : %d replicas, %s routing%s%s%s%s\n",
                    spec.cluster.replicas,
                    routing::routerPolicyName(spec.cluster.router),
                    spec.cluster.routerConfig.sloAdmission
                        ? " + slo admission"
                        : "",
                    spec.cluster.autoscale ? ", autoscaling" : "",
                    spec.cluster.autoscale &&
                            spec.cluster.autoscaler.measuredRateAlpha > 0.0
                        ? " on measured demand"
                        : "",
                    spec.cluster.autoscaler.bootAwareHorizon
                        ? ", boot-aware horizon"
                        : "");
        if (!spec.cluster.replicaEngines.empty()) {
            std::printf("fleet       :");
            for (const auto &engine : spec.cluster.replicaEngines)
                std::printf(" %s", engine.gpu.name.c_str());
            std::printf("\n");
        }
        if (spec.fabricEnabled()) {
            std::printf("fabric      : migration %s over %s, top-%zu "
                        "hot adapters\n",
                        fabric::migrationPolicyName(spec.fabric.migration),
                        fabric::topologyName(spec.fabric.topology),
                        spec.fabric.topK);
        }
    }
    std::printf("trace       : %zu requests, %.2f RPS, %.0f s\n",
                trace.size(), trace.meanRps(),
                sim::toSeconds(trace.duration()));
    if (spec.tenancy.tenants > 1) {
        std::printf("tenants     : %d equal-share", spec.tenancy.tenants);
        if (*tenant_storm > 1.0)
            std::printf(", tenant 0 storming at %gx mid-trace",
                        *tenant_storm);
        std::printf("\n");
    }
    std::printf("TTFT SLO    : %.2f s (%gx mean isolated latency)\n\n", slo,
                serving::kSloMultiplier);

    core::Runner runner(spec, pool.get());
    obs::TraceRecorder recorder;
    if (!trace_out->empty())
        runner.setTraceRecorder(&recorder);
    const core::RunReport report = runner.run(trace);
    const auto &s = report.stats;

    std::printf("finished    : %lld / %lld (%lld preempts, %lld squashes, "
                "%lld bypasses, %.1f%% cache hits)\n",
                static_cast<long long>(s.finished),
                static_cast<long long>(s.submitted),
                static_cast<long long>(s.preemptions),
                static_cast<long long>(s.squashes),
                static_cast<long long>(s.bypasses),
                100.0 * s.cacheHitRate());
    std::printf("TTFT        : p50 %.3f s, p90 %.3f s, p99 %.3f s%s\n",
                s.ttft.p50(), s.ttft.p90(), s.ttft.p99(),
                s.ttft.p99() <= slo ? "  (meets SLO)" : "  (VIOLATES SLO)");
    std::printf("TBT         : p50 %.1f ms, p99 %.1f ms\n", s.tbt.p50(),
                s.tbt.p99());
    std::printf("E2E         : p50 %.2f s, p99 %.2f s\n", s.e2e.p50(),
                s.e2e.p99());
    std::printf("queue delay : p50 %.3f s, p99 %.3f s\n", s.queueDelay.p50(),
                s.queueDelay.p99());
    std::printf("load stall  : mean %.2f ms, p99 %.2f ms\n",
                s.loadStall.mean(), s.loadStall.p99());
    std::printf("adapters    : hit rate %.1f%%, %lld evictions\n",
                100.0 * report.cacheHitRate,
                static_cast<long long>(report.cacheEvictions));
    if (report.sloAttainment >= 0.0) {
        std::printf("SLO         : %.1f%% of requests met the %.2f s "
                    "TTFT SLO\n",
                    100.0 * report.sloAttainment, report.sloSeconds);
    }
    if (report.tenants.size() > 1) {
        std::printf("fairness    : Jain index %.4f over per-tenant "
                    "weighted service\n",
                    report.fairnessIndex);
        for (const auto &t : report.tenants) {
            std::printf("tenant %-5d: %lld finished, TTFT p50 %.3f s "
                        "p99 %.3f s, E2E p99 %.2f s, slowdown mean %.2f "
                        "p99 %.2f",
                        t.tenant, static_cast<long long>(t.finished),
                        t.p50TtftSeconds, t.p99TtftSeconds,
                        t.p99E2eSeconds, t.meanSlowdown, t.p99Slowdown);
            if (t.sloAttainment >= 0.0)
                std::printf(", SLO %.1f%%", 100.0 * t.sloAttainment);
            std::printf("\n");
        }
    }
    const double elapsed =
        std::max(1e-9, sim::toSeconds(trace.duration()));
    if (clusterRun) {
        // Per-link rate/utilisation is not meaningful summed over
        // replicas; report totals only.
        std::printf("PCIe        : %.2f GB, %lld transfers across replicas\n",
                    static_cast<double>(report.pcieBytes) / 1e9,
                    static_cast<long long>(report.pcieTransfers));
    } else {
        // The mean is over the whole trace; the busy-window mean
        // (WindowedSum::meanRate) skips the seconds without traffic.
        std::printf("PCIe        : %.2f GB total, %.1f MB/s mean, "
                    "%.1f MB/s busy-window mean, utilisation %.1f%%\n",
                    static_cast<double>(report.pcieBytes) / 1e9,
                    static_cast<double>(report.pcieBytes) / elapsed / 1e6,
                    report.pcieMeanBytesPerSec / 1e6,
                    100.0 * report.pcieUtilisation);
    }
    std::printf("engine      : %lld iterations, busy %.1f s, mean batch "
                "%.1f, %.0f prefill tok/s, %.0f decode tok/s\n",
                static_cast<long long>(s.iterations),
                sim::toSeconds(s.busyTime),
                s.iterations ? static_cast<double>(s.batchSizeAccum) /
                                   static_cast<double>(s.iterations)
                             : 0.0,
                static_cast<double>(s.prefillTokens) / elapsed,
                static_cast<double>(s.decodeTokens) / elapsed);
    if (report.mlqQueues > 0)
        std::printf("scheduler   : %d MLQ queues\n", report.mlqQueues);
    if (clusterRun) {
        std::printf("replicas    : %zu built, %zu active at end, "
                    "%lld scale-ups, %lld scale-downs\n",
                    report.peakReplicas, report.finalActiveReplicas,
                    static_cast<long long>(report.scaleUps),
                    static_cast<long long>(report.scaleDowns));
        std::printf("per-replica :");
        for (const auto finished : report.perReplicaFinished)
            std::printf(" %lld", static_cast<long long>(finished));
        std::printf(" finished\n");
        std::printf("svc rate    :");
        for (const double rate : report.perReplicaServiceRate)
            std::printf(" %.2f", rate);
        std::printf(" req/s isolated (routing weights)\n");
        if (report.perReplicaEffectiveRate !=
            report.perReplicaServiceRate) {
            std::printf("measured    :");
            for (const double rate : report.perReplicaEffectiveRate)
                std::printf(" %.2f", rate);
            std::printf(" req/s EWMA (weights in effect)\n");
        }
        if (report.bootEvents > 0) {
            std::printf("cold start  : %lld boots, %.2f s total boot "
                        "time, %lld requests dispatched while booting\n",
                        static_cast<long long>(report.bootEvents),
                        report.totalBootSeconds,
                        static_cast<long long>(
                            report.requestsDelayedByBoot));
        }
        if (report.fabricEnabled) {
            std::printf("fabric      : %lld migrations, %.2f GB over "
                        "%lld peer transfers\n",
                        static_cast<long long>(report.fabricMigrations),
                        static_cast<double>(report.fabricPeerBytes) / 1e9,
                        static_cast<long long>(
                            report.fabricPeerTransfers));
        }
    }

    if (!records_csv->empty()) {
        serving::writeRecordsCsv(records_file, s.records);
        std::printf("\nper-request records written to %s\n",
                    records_csv->c_str());
    }
    if (!trace_out->empty()) {
        trace_file << recorder.toJson() << '\n';
        std::printf("\ntrace (%zu events) written to %s — open in "
                    "Perfetto or chrome://tracing\n",
                    recorder.size(), trace_out->c_str());
    }
    if (!metrics_out->empty()) {
        metrics_file << report.metrics.dump() << '\n';
        std::printf("metrics snapshot written to %s\n",
                    metrics_out->c_str());
    }
    if (s.finished < s.submitted) {
        std::fprintf(stderr,
                     "chameleon_sim: %lld of %lld submitted requests "
                     "never finished\n",
                     static_cast<long long>(s.submitted - s.finished),
                     static_cast<long long>(s.submitted));
        return kExitUnfinished;
    }
    return 0;
}
