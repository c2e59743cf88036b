/**
 * @file
 * The repository benchmark: simulated requests per wall second through
 * the real serving stack (core::Runner), one named workload per
 * process.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--spans-out PATH]
 *
 * Untraced (--trace 0): repeats set-up + Runner::run for about S wall
 * seconds (at least three times; the first repeat only warms up). A
 * reference kernel (calibrate.h) runs between repeats, and each
 * repeat's wall times are scaled by the reference time over the
 * kernel's mean time before and after it, so a shared host's drift in
 * speed cancels. It reports sim_req_per_s from the fastest scaled run
 * (other tenants only ever slow a repeat down), the median scaled
 * set-up time and the process's peak RSS (see README.md).
 * Traced (--trace 1): alternates an untraced Runner run with a run of
 * the decorated stack (traced_stack.h) and reports the per-layer split
 * of the fastest traced repeat. Every run is checked: all submitted
 * requests finish, every repeat of the workload+seed gives the same
 * event hash, and the traced stack's hash equals the Runner's. Each run
 * prints an `attempt` line before it starts and a `result` line after
 * it ends; the last stdout line is one JSON object {correct, attempted,
 * failed, metrics}; the exit code is nonzero when a check failed.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "calibrate.h"
#include "traced_stack.h"
#include "workloads.h"

using namespace perfbench;

namespace {

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
    std::string spansOut;
};

[[noreturn]] void
usage(const char *message)
{
    std::fprintf(stderr, "perfbench: %s\n", message);
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--spans-out PATH]\nworkloads:");
    for (const auto &w : workloads())
        std::fprintf(stderr, " %s", w.name.c_str());
    std::fprintf(stderr, "\n");
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value, &end, 10);
            if (*end != '\0')
                usage("--seed takes an unsigned integer");
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value, &end);
            if (*end != '\0' || !(args.seconds > 0.0))
                usage("--seconds takes a positive number");
        } else if (flag == "--trace") {
            if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0)
                usage("--trace takes 0 or 1");
            args.trace = value[0] - '0';
        } else if (flag == "--spans-out") {
            args.spansOut = value;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (args.workload.empty())
        usage("--workload is required");
    return args;
}

/** Requests attempted, succeeded and failed in one phase. */
struct Phase
{
    const char *name;
    std::int64_t attempted = 0;
    std::int64_t succeeded = 0;
    std::int64_t failed = 0;

    /** Announce a run before it starts, so a run that aborts the
     * process can still be counted as failed by the caller. */
    void begin(std::int64_t requests) const
    {
        std::printf("attempt %s %" PRId64 "\n", name, requests);
        std::fflush(stdout);
    }
    void finish(std::int64_t requests, bool ok)
    {
        attempted += requests;
        (ok ? succeeded : failed) += requests;
        std::printf("result %s %" PRId64 " %s\n", name, requests,
                    ok ? "ok" : "failed");
    }
};

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const WorkloadSpec *workload = findWorkload(args.workload);
    if (workload == nullptr)
        usage(("unknown workload " + args.workload).c_str());
    std::printf("workload %s seed %" PRIu64 " seconds %g trace %d\n",
                workload->name.c_str(), args.seed, args.seconds, args.trace);

    bool correct = true;
    auto check = [&correct](bool ok, const std::string &what) {
        if (!ok) {
            std::printf("check FAILED: %s\n", what.c_str());
            correct = false;
        }
        return ok;
    };

    Phase setup{"setup"};
    Phase untraced{"untraced"};
    Phase traced{"traced"};
    std::vector<double> setupSeconds, poolSeconds, generateSeconds,
        buildSeconds, runSeconds;
    // Timed repeats' wall times at the reference host speed.
    std::vector<double> scaledSetupSeconds, scaledRunSeconds;
    std::int64_t finished = 0;
    std::uint64_t referenceHash = 0;
    TracedRun fastestTraced;
    bool haveTraced = false;

    const double start = wallSeconds();
    double kernelBefore = referenceKernelSeconds();
    double repeatSeconds = 0.0;
    int iteration = 0;
    do {
        const double repeatStart = wallSeconds();
        double setupWall = 0.0;
        double wall = 0.0;
        // The set-up and the report are gone before the next kernel runs,
        // so the kernel's memory never adds to the simulator's peak RSS.
        {
            Setup s = setUp(*workload, args.seed);
            const auto requests = static_cast<std::int64_t>(s.trace.size());
            setup.finish(requests,
                         check(requests > 0, "the generated trace is empty"));
            setupWall = s.seconds();
            setupSeconds.push_back(setupWall);
            poolSeconds.push_back(s.poolSeconds);
            generateSeconds.push_back(s.generateSeconds);
            buildSeconds.push_back(s.buildSeconds);

            untraced.begin(requests);
            const double t0 = wallSeconds();
            const auto report = s.runner->run(s.trace);
            wall = wallSeconds() - t0;
            runSeconds.push_back(wall);
            finished = report.stats.finished;
            if (iteration == 0) {
                referenceHash = report.eventHash;
                std::printf("output event_hash 0x%016" PRIx64 "\n",
                            report.eventHash);
                std::printf("output ttft_p50_s %.6f\n",
                            report.stats.ttft.p50());
                std::printf("output ttft_p99_s %.6f\n",
                            report.stats.ttft.p99());
                std::printf("output cache_hit_rate %.6f\n",
                            report.cacheHitRate);
                std::printf("output finished %" PRId64 " of %" PRId64 "\n",
                            finished, requests);
            }
            bool ok = check(finished == requests,
                            "untraced run finished " +
                                std::to_string(finished) + " of " +
                                std::to_string(requests) + " requests");
            ok = check(report.eventHash == referenceHash,
                       "repeat " + std::to_string(iteration) +
                           " changed the event hash") &&
                 ok;
            untraced.finish(requests, ok);

            if (args.trace == 1) {
                s.runner.reset();
                traced.begin(requests);
                TracedRun run = runTraced(
                    systemSpec(*workload), *s.pool, s.trace,
                    iteration == 0 ? args.spansOut : std::string());
                ok = check(run.finished == requests,
                           "traced run finished " +
                               std::to_string(run.finished) + " of " +
                               std::to_string(requests) + " requests");
                ok = check(run.eventHash == referenceHash,
                           "traced stack hash differs from the Runner's: it "
                           "did not build the same program") &&
                     ok;
                traced.finish(requests, ok);
                if (!haveTraced ||
                    run.runSeconds < fastestTraced.runSeconds) {
                    fastestTraced = std::move(run);
                    haveTraced = true;
                }
            }
        }

        const double kernelAfter = referenceKernelSeconds();
        const double scale =
            kReferenceKernelSeconds / (0.5 * (kernelBefore + kernelAfter));
        kernelBefore = kernelAfter;
        std::printf("run %d setup_s %.6f run_s %.6f kernel_s %.6f "
                    "sim_req_per_s %.1f\n",
                    iteration, setupWall, wall, kReferenceKernelSeconds / scale,
                    static_cast<double>(finished) / (wall * scale));
        if (iteration > 0) {
            scaledSetupSeconds.push_back(setupWall * scale);
            scaledRunSeconds.push_back(wall * scale);
        }
        repeatSeconds = wallSeconds() - repeatStart;
        ++iteration;
        // Stop before a repeat would run past the time given.
    } while (iteration < 3 ||
             wallSeconds() - start + repeatSeconds <= args.seconds);

    for (const Phase *phase : {&setup, &untraced, &traced}) {
        std::printf("phase %s attempted %" PRId64 " succeeded %" PRId64
                    " failed %" PRId64 "\n",
                    phase->name, phase->attempted, phase->succeeded,
                    phase->failed);
    }
    std::printf("runs %d\n", iteration);

    std::vector<Metric> metrics;
    if (args.trace == 0) {
        rusage usage{};
        getrusage(RUSAGE_SELF, &usage);
        metrics.push_back({"sim_req_per_s",
                           static_cast<double>(finished) /
                               *std::min_element(scaledRunSeconds.begin(),
                                                 scaledRunSeconds.end()),
                           "req/s"});
        metrics.push_back(
            {"setup_s", quantile(scaledSetupSeconds, 0.5), "s"});
        metrics.push_back({"peak_rss_mb",
                           static_cast<double>(usage.ru_maxrss) / 1024.0,
                           "MiB"});
    } else {
        metrics.push_back({"model.pool_s", quantile(poolSeconds, 0.5), "s"});
        metrics.push_back({"workload.generate_s",
                           quantile(generateSeconds, 0.5), "s"});
        metrics.push_back(
            {"chameleon.build_s", quantile(buildSeconds, 0.5), "s"});
        for (const Metric &m : fastestTraced.metrics)
            metrics.push_back(m);
        metrics.push_back({"trace.overhead_s",
                           fastestTraced.runSeconds -
                               *std::min_element(runSeconds.begin(),
                                                 runSeconds.end()),
                           "s"});
        for (int i = 0; i < static_cast<int>(Layer::Count); ++i) {
            if (fastestTraced.calls[i] == 0) {
                std::printf("layer %s: no calls on this workload\n",
                            layerName(static_cast<Layer>(i)));
            }
        }
    }
    for (const auto &m : metrics)
        std::printf("metric %s %.9g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());

    std::printf("{\"correct\": %s, \"attempted\": %" PRId64
                ", \"failed\": %" PRId64 ", \"metrics\": {",
                correct ? "true" : "false",
                untraced.attempted + traced.attempted,
                untraced.failed + traced.failed);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    }
    std::printf("}}\n");
    return correct ? 0 : 1;
}
