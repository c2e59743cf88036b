/**
 * @file
 * Paper-fidelity scorecard and gate for Figs. 2-25 of the paper's
 * evaluation (§5).
 *
 * One table of rows {figure, metric, paper value (or none), relative
 * tolerance, extractor}. A row reads one scenario: a list of
 * sweep::SweepSpecs that sweep::SweepRunner runs. Three exceptions:
 * fig02, fig03 and fig05 read the cost model alone, fig07 reads the
 * cost model over a scenario's trace without simulating it, and fig04's
 * all-rank-32 adapter pools have no sweep form, so its scenario runs
 * core::runSpec over its own pools. Rows of one figure, and figures
 * that run identical cells (fig11-13, fig17-18), share one scenario.
 *
 * Every scenario runs once at each of the ten seeds in kSeeds; the
 * (seed, scenario) pairs run on hardware_concurrency() threads, and
 * every value lands in its own slot, so the output does not depend on
 * the thread count. The scorecard prints each row's seed median,
 * quartiles and paper value, and whether the median is within the
 * row's tolerance of the paper; BENCH_fidelity.json holds the same
 * plus each row's per-seed values.
 *
 * Usage: fidelity [--baseline bench/baselines/fidelity.json]
 *
 * Exit 1 when any cell finishes fewer requests than were submitted to
 * it, and, against a baseline (a committed BENCH_fidelity.json), when
 *  - a row with a paper value ends further from the paper than the
 *    baseline median's distance plus the baseline's interquartile
 *    spread;
 *  - a row without a paper value moves from the baseline median by
 *    more than that spread;
 *  - a row is added or dropped.
 * Exit 2 on a bad argument or an unreadable baseline.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "chameleon/system.h"
#include "chameleon/system_registry.h"
#include "model/cost_model.h"
#include "serving/slo.h"
#include "simkit/check.h"
#include "simkit/json.h"
#include "simkit/stats.h"
#include "simkit/timeseries.h"
#include "sweep/bench_json.h"
#include "sweep/sweep_runner.h"
#include "workload/trace_gen.h"

using namespace chameleon;

namespace {

/** The replicate seeds: the figures' historical 42, then 1..9. */
constexpr std::uint64_t kSeeds[] = {42, 1, 2, 3, 4, 5, 6, 7, 8, 9};

using CellFilter = std::function<bool(const sweep::SweepCell &)>;

/** The cost model of a cell's engine. */
model::CostModel
costOf(const sweep::SweepCell &cell)
{
    const auto &engine = cell.spec.engine;
    return model::CostModel(engine.model, engine.gpu, engine.tpDegree,
                            engine.cost);
}

/** One sweep of a scenario at one seed: its cells' reports, and the
 * runner that owns their traces and adapter pool (none for fig04). */
struct Run
{
    std::unique_ptr<sweep::SweepRunner> runner;
    std::vector<sweep::CellResult> results;

    /** The report of `system`'s first cell that `where` accepts. */
    const core::RunReport &
    report(const std::string &system,
           const CellFilter &where = [](const sweep::SweepCell &) {
               return true;
           }) const
    {
        for (const auto &result : results) {
            if (result.cell.system == system && where(result.cell))
                return result.report;
        }
        CHM_PANIC("fidelity: no " << system << " cell matches");
    }

    /** The report of `system`'s cell at `rps`. */
    const core::RunReport &report(const std::string &system,
                                  double rps) const
    {
        return report(system, [rps](const sweep::SweepCell &cell) {
            return cell.trace.rps == rps;
        });
    }

    /** The paper's TTFT SLO (5x mean isolated E2E), in seconds, over
     * the trace of the cells at `rps`. */
    double slo(double rps) const
    {
        for (const auto &cell : runner->cells()) {
            if (cell.trace.rps == rps)
                return sim::toSeconds(
                    serving::computeSlo(runner->trace(cell.traceIndex),
                                        costOf(cell), runner->pool()));
        }
        CHM_PANIC("fidelity: no cell at " << rps << " RPS");
    }
};

/** A scenario's runs at one seed, in the order of its sweeps. */
using Outcome = std::vector<Run>;
using Scenario = std::function<Outcome(std::uint64_t seed)>;

/** A scenario that runs `specs` at the seed; with `simulate` false it
 * only expands them and generates their traces. */
Scenario
sweeps(std::vector<sweep::SweepSpec> specs, bool simulate = true)
{
    return [specs = std::move(specs), simulate](std::uint64_t seed) {
        Outcome outcome;
        for (auto spec : specs) {
            spec.seed = seed;
            Run run{std::make_unique<sweep::SweepRunner>(std::move(spec)),
                    {}};
            if (simulate)
                run.results = run.runner->run();
            outcome.push_back(std::move(run));
        }
        return outcome;
    };
}

/** The paper testbed (Llama-7B on an A40) running `systems` on the
 * splitwise workload with `adapters` adapters, at each load for
 * `seconds` of arrivals. */
sweep::SweepSpec
grid(std::vector<std::string> systems, const std::vector<double> &loads,
     double seconds, int adapters = 100)
{
    sweep::SweepSpec spec;
    spec.systems = std::move(systems);
    spec.workload.durationSeconds = seconds;
    spec.workload.numAdapters = adapters;
    sweep::SweepAxis rps{"workload.rps", {}};
    for (double load : loads)
        rps.values.push_back(sim::JsonValue::makeNumber(load));
    spec.axes.push_back(std::move(rps));
    return spec;
}

/** `spec` on an A100 of `memGiB` serving `model` over `tp` GPUs. */
sweep::SweepSpec
onA100(sweep::SweepSpec spec, const std::string &model, int memGiB,
       int tp = 1)
{
    spec.axes.push_back(sweep::SweepAxis::parse(
        "engine.gpu", {"a100-" + std::to_string(memGiB)}));
    spec.axes.push_back(sweep::SweepAxis::parse("engine.model", {model}));
    spec.axes.push_back(
        sweep::SweepAxis::parse("engine.tp_degree", {std::to_string(tp)}));
    return spec;
}

/** Fig. 4's scenario: S-LoRA at 5-8 RPS over pools of 1, 50 and 500
 * rank-32 adapters with uniform popularity. */
Outcome
rank32Pools(std::uint64_t seed)
{
    auto spec = core::SystemRegistry::global().lookup("slora");
    spec.engine = sweep::paperTestbedEngine();
    Run run;
    for (int n : {1, 50, 500}) {
        const model::AdapterPool pool(spec.engine.model,
                                      std::vector<int>(n, 32));
        sweep::SweepCell cell;
        cell.system = "slora";
        cell.spec = spec;
        cell.trace = workload::splitwiseLike();
        cell.trace.numAdapters = n;
        cell.trace.rankPopularity = workload::Popularity::Uniform;
        cell.trace.adapterPopularity = workload::Popularity::Uniform;
        cell.trace.durationSeconds = 240.0;
        cell.trace.seed = seed;
        for (double rps : {5.0, 6.0, 7.0, 8.0}) {
            cell.trace.rps = rps;
            const auto trace =
                workload::TraceGenerator(cell.trace, &pool).generate();
            run.results.push_back({cell, core::runSpec(spec, &pool, trace)});
        }
    }
    Outcome outcome;
    outcome.push_back(std::move(run));
    return outcome;
}

double
p99Ttft(const core::RunReport &report)
{
    return report.stats.ttft.p99();
}

/** How much lower `value` is than `base`, in percent. */
double
cutPct(double base, double value)
{
    return 100.0 * (1.0 - value / base);
}

/** `system`'s (rps, P99 TTFT) over a run's loads, ascending. */
std::vector<std::pair<double, double>>
p99Curve(const Run &run, const std::string &system)
{
    std::vector<std::pair<double, double>> curve;
    for (const auto &result : run.results) {
        if (result.cell.system == system)
            curve.emplace_back(result.cell.trace.rps,
                               p99Ttft(result.report));
    }
    return curve;
}

/** `system`'s throughput knee: the largest load whose P99 TTFT meets
 * the SLO of the trace at `sloRps`. */
double
knee(const Run &run, const std::string &system, double sloRps)
{
    return serving::throughputKnee(p99Curve(run, system), run.slo(sloRps));
}

/** The largest value of a series. */
double
peakOf(const sim::TimeSeries &series)
{
    double peak = 0.0;
    for (const auto &pt : series.points())
        peak = std::max(peak, pt.value);
    return peak;
}

/** The share of a tracker's samples that are zero, in percent. */
double
zeroSharePct(const sim::PercentileTracker &samples)
{
    const auto &sorted = samples.sorted();
    const auto zeros = std::count_if(sorted.begin(), sorted.end(),
                                     [](double x) { return x <= 1e-9; });
    return 100.0 * static_cast<double>(zeros) /
           static_cast<double>(sorted.size());
}

/** P99 TTFT of a run's requests of one adapter rank, in seconds. */
double
p99TtftOfRank(const core::RunReport &report, int rank)
{
    sim::PercentileTracker ttft;
    for (const auto &rec : report.stats.records) {
        if (rec.rank == rank)
            ttft.add(sim::toSeconds(rec.ttft));
    }
    return ttft.p99();
}

/** The highest P99 TTFT, in seconds, over the tumbling windows of
 * `window` that start within [from, to] seconds; a record counts in the
 * window its first token (arrival + ttft) falls in. */
double
peakWindowP99(const core::RunReport &report, sim::SimTime window,
              double from = 0.0, double to = 1e18)
{
    std::map<std::int64_t, sim::PercentileTracker> windows;
    for (const auto &r : report.stats.records)
        windows[(r.arrival + r.ttft) / window].add(sim::toSeconds(r.ttft));
    double peak = 0.0;
    for (const auto &[index, ttft] : windows) {
        const double start = sim::toSeconds(index * window);
        if (start >= from && start <= to)
            peak = std::max(peak, ttft.p99());
    }
    return peak;
}

/** Fig. 16's classes: terciles of request size (input + output +
 * 4 x rank, the quantity WRS weighs), small to large. */
struct SizeClasses
{
    double meanQueueDelay[3];
    /** Mean queue delay over mean E2E, in percent. */
    double queueSharePct[3];
};

SizeClasses
sizeClasses(const core::RunReport &report)
{
    const auto &records = report.stats.records;
    std::vector<double> sizes;
    for (const auto &rec : records)
        sizes.push_back(static_cast<double>(rec.inputTokens +
                                            rec.outputTokens + 4 * rec.rank));
    auto sorted = sizes;
    std::sort(sorted.begin(), sorted.end());
    const double c1 = sorted[sorted.size() / 3];
    const double c2 = sorted[2 * sorted.size() / 3];
    sim::OnlineStats delay[3];
    sim::OnlineStats e2e[3];
    for (std::size_t i = 0; i < records.size(); ++i) {
        const int cls = sizes[i] < c1 ? 0 : sizes[i] < c2 ? 1 : 2;
        delay[cls].add(sim::toSeconds(records[i].queueDelay));
        e2e[cls].add(sim::toSeconds(records[i].e2e));
    }
    SizeClasses out{};
    for (int c = 0; c < 3; ++c) {
        out.meanQueueDelay[c] = delay[c].mean();
        out.queueSharePct[c] =
            100.0 * delay[c].mean() / std::max(e2e[c].mean(), 1e-9);
    }
    return out;
}

/** P99/P50 of a trace's isolated (run-alone) latencies from the cost
 * model: TTFT or E2E, base model only or with each request's adapter
 * (loading included). */
double
isolatedTailAmplification(const Run &run, bool e2e, bool lora)
{
    const auto cost = costOf(run.runner->cells().front());
    const auto *pool = run.runner->pool();
    sim::PercentileTracker latency;
    for (const auto &r : run.runner->trace(0).requests()) {
        const int rank = lora ? pool->spec(r.adapter).rank : 0;
        const std::int64_t bytes = lora ? pool->spec(r.adapter).bytes : 0;
        latency.add(sim::toSeconds(
            e2e ? cost.isolatedE2e(r.inputTokens, r.outputTokens, rank,
                                   bytes, lora)
                : cost.isolatedTtft(r.inputTokens, rank, bytes, lora)));
    }
    return latency.p99() / latency.p50();
}

using Extract = std::function<double(const Outcome &)>;

struct Row
{
    std::string figure;
    std::string metric;
    std::optional<double> paper;
    /** Distance from the paper, relative to it, that counts as a
     * match (0 for rows without a paper value). */
    double tolerance;
    /** Index into Table::scenarios. */
    std::size_t scenario;
    Extract value;
};

struct Table
{
    /** Scenario 0 runs nothing: the cost-model rows read it. */
    std::vector<Scenario> scenarios{[](std::uint64_t) { return Outcome{}; }};
    std::vector<Row> rows;

    std::size_t add(Scenario scenario)
    {
        scenarios.push_back(std::move(scenario));
        return scenarios.size() - 1;
    }

    void row(std::string figure, std::string metric,
             std::optional<double> paper, double tolerance,
             std::size_t scenario, Extract value)
    {
        rows.push_back({std::move(figure), std::move(metric), paper,
                        paper ? tolerance : 0.0, scenario,
                        std::move(value)});
    }
};

constexpr std::size_t kCostModelOnly = 0;
constexpr std::optional<double> kNoPaper = std::nullopt;

/** The paper's low / medium / high loads on the A40 (§5.2). */
constexpr double kLowRps = 6.0;
constexpr double kMediumRps = 8.0;
constexpr double kHighRps = 9.5;

Table
fidelityTable()
{
    Table t;
    using Popularity = workload::Popularity;

    // Fig. 2: single medium request (142 input tokens) on an unloaded
    // Llama-7B/A40, by adapter rank.
    const model::CostModel a40(model::llama7B(), model::a40());
    const auto in = model::kMediumInputTokens;
    const auto ttftMs = [a40, in](int rank) {
        return sim::toMillis(a40.isolatedTtft(
            in, rank, model::adapterBytes(model::llama7B(), rank), true));
    };
    const double paperTtftMs[] = {74, 78, 88, 107, 144};
    for (std::size_t i = 0; i < model::paperRanks().size(); ++i) {
        const int rank = model::paperRanks()[i];
        t.row("fig02", "ttft_ms rank=" + std::to_string(rank),
              paperTtftMs[i], 0.05, kCostModelOnly,
              [ttftMs, rank](const Outcome &) { return ttftMs(rank); });
    }
    t.row("fig02", "adapter_share_pct rank=128", 60.0, 0.10, kCostModelOnly,
          [a40, in, ttftMs](const Outcome &) {
              const double base =
                  sim::toMillis(a40.isolatedTtft(in, 0, 0, false));
              return 100.0 * (1.0 - base / ttftMs(128));
          });
    t.row("fig02", "load_share_pct rank=128", 17.5, 0.10, kCostModelOnly,
          [a40, ttftMs](const Outcome &) {
              return 100.0 *
                     sim::toMillis(a40.adapterLoadTime(
                         model::adapterBytes(model::llama7B(), 128))) /
                     ttftMs(128);
          });

    // Fig. 3: TTFT vs input size, adapter resident.
    for (int rank : {8, 128}) {
        t.row("fig03", "ttft_s input=2000 rank=" + std::to_string(rank),
              kNoPaper, 0, kCostModelOnly, [a40, rank](const Outcome &) {
                  return sim::toSeconds(
                      a40.isolatedTtft(2000, rank, 0, false));
              });
    }

    // Fig. 4: S-LoRA over 1 / 50 / 500 rank-32 adapters.
    const auto pools = t.add(rank32Pools);
    const auto pooled = [](int adapters, double rps) {
        return [adapters, rps](const sweep::SweepCell &cell) {
            return cell.trace.numAdapters == adapters &&
                   cell.trace.rps == rps;
        };
    };
    for (const auto &[adapters, paper] :
         std::vector<std::pair<int, double>>{{50, 1.69}, {500, 2.60}}) {
        t.row("fig04",
              "p99_ttft_x lora" + std::to_string(adapters) + "/lora1 rps=8",
              paper, 0.15, pools, [pooled, adapters = adapters](
                                      const Outcome &o) {
                  return p99Ttft(o[0].report("slora", pooled(adapters, 8))) /
                         p99Ttft(o[0].report("slora", pooled(1, 8)));
              });
    }
    t.row("fig04", "pcie_bw_x lora500 rps=8 / lora1 rps=5", kNoPaper, 0,
          pools, [pooled](const Outcome &o) {
              return o[0].report("slora", pooled(500, 8))
                         .pcieMeanBytesPerSec /
                     std::max(o[0].report("slora", pooled(1, 5))
                                  .pcieMeanBytesPerSec,
                              1.0);
          });

    // Fig. 5: adapter-loading share of Llama-70B's TTFT on A100-80s.
    t.row("fig05", "load_share_pct rank=32 tp=4", 68.0, 0.10,
          kCostModelOnly, [](const Outcome &) {
              const model::CostModel cost(model::llama70B(), model::a100(80),
                                          4);
              const auto bytes = model::adapterBytes(model::llama70B(), 32);
              return 100.0 * static_cast<double>(cost.adapterLoadTime(bytes)) /
                     static_cast<double>(cost.isolatedTtft(
                         model::kMediumInputTokens, 32, bytes, true));
          });

    // Fig. 6: memory while Chameleon serves the medium load.
    const auto memory =
        t.add(sweeps({grid({"chameleon"}, {kMediumRps}, 360.0)}));
    t.row("fig06", "peak_used_gb", kNoPaper, 0, memory,
          [](const Outcome &o) {
              return peakOf(o[0].report("chameleon").stats.memTotalUsed) /
                     1e9;
          });
    t.row("fig06", "cache_hit_pct", kNoPaper, 0, memory,
          [](const Outcome &o) {
              return 100.0 * o[0].report("chameleon").cacheHitRate;
          });
    t.row("fig06", "evictions", kNoPaper, 0, memory, [](const Outcome &o) {
        return static_cast<double>(o[0].report("chameleon").cacheEvictions);
    });

    // Fig. 7: isolated latencies over a medium-load trace, not simulated.
    const auto isolated =
        t.add(sweeps({grid({"slora"}, {kMediumRps}, 600.0)}, false));
    for (const bool e2e : {false, true}) {
        for (const bool lora : {false, true}) {
            t.row("fig07",
                  std::string(e2e ? "e2e" : "ttft") + "_p99/p50 " +
                      (lora ? "lora" : "base"),
                  kNoPaper, 0, isolated, [e2e, lora](const Outcome &o) {
                      return isolatedTailAmplification(o[0], e2e, lora);
                  });
        }
    }

    // Fig. 8: slowdown tails per scheduler at high load.
    const std::vector<std::string> schedulers{
        "slora", "slora-chunked", "slora-sjf", "chameleon-nocache"};
    const auto slowdown =
        t.add(sweeps({grid(schedulers, {kMediumRps, kHighRps}, 240.0)}));
    for (const auto &system : schedulers) {
        t.row("fig08", "slowdown_p99 " + system + " rps=9.5", kNoPaper, 0,
              slowdown, [system](const Outcome &o) {
                  const auto &run = o[0];
                  return serving::slowdowns(
                             run.report(system, kHighRps).stats.records,
                             costOf(run.runner->cells().front()),
                             run.runner->pool())
                      .p99();
              });
    }

    // Figs. 11-13: four systems over loads 5-13; the SLO is the
    // medium load's.
    const auto loads = t.add(sweeps({grid(
        {"slora", "chameleon-nocache", "chameleon-nosched", "chameleon"},
        {5, 6, 7, 8, 9, 10, 11, 12, 13}, 240.0)}));
    t.row("fig11", "slo_s", kNoPaper, 0, loads,
          [](const Outcome &o) { return o[0].slo(kMediumRps); });
    t.row("fig11", "knee_rps slora", 8.6, 0.10, loads,
          [](const Outcome &o) { return knee(o[0], "slora", kMediumRps); });
    t.row("fig11", "knee_rps chameleon", 12.9, 0.10, loads,
          [](const Outcome &o) {
              return knee(o[0], "chameleon", kMediumRps);
          });
    for (const auto &[system, paper] :
         std::vector<std::pair<std::string, double>>{
             {"chameleon", 1.5},
             {"chameleon-nosched", 1.2},
             {"chameleon-nocache", 1.05}}) {
        t.row("fig11", "throughput_x " + system, paper, 0.10, loads,
              [system = system](const Outcome &o) {
                  return knee(o[0], system, kMediumRps) /
                         knee(o[0], "slora", kMediumRps);
              });
    }
    for (const auto &[rps, paper] : std::vector<std::pair<double, double>>{
             {6, 14.7}, {8, 24.6}, {9, 80.7}}) {
        t.row("fig11", "p99_ttft_cut_pct rps=" + std::to_string(int(rps)),
              paper, 0.25, loads, [rps = rps](const Outcome &o) {
                  return cutPct(p99Ttft(o[0].report("slora", rps)),
                                p99Ttft(o[0].report("chameleon", rps)));
              });
    }
    for (const std::string system : {"slora", "chameleon"}) {
        t.row("fig12", "p99_tbt_ms " + system + " rps=9", kNoPaper, 0,
              loads, [system](const Outcome &o) {
                  return o[0].report(system, 9).stats.tbt.p99();
              });
    }
    for (const auto &[rps, paper] : std::vector<std::pair<double, double>>{
             {6, 13.9}, {8, 20.9}, {9, 48.1}}) {
        t.row("fig13", "p50_ttft_cut_pct rps=" + std::to_string(int(rps)),
              paper, 0.25, loads, [rps = rps](const Outcome &o) {
                  const auto p50 = [&o, rps](const char *system) {
                      return o[0].report(system, rps).stats.ttft.p50();
                  };
                  return cutPct(p50("slora"), p50("chameleon"));
              });
    }

    // Fig. 14: adapter load stall on the critical path.
    const auto stalls =
        t.add(sweeps({grid({"slora", "chameleon"}, {kMediumRps}, 300.0)}));
    t.row("fig14", "zero_stall_pct chameleon", 75.0, 0.10, stalls,
          [](const Outcome &o) {
              return zeroSharePct(o[0].report("chameleon").stats.loadStall);
          });
    for (const auto &[system, paper] :
         std::vector<std::pair<std::string, double>>{{"slora", 30.0},
                                                     {"chameleon", 6.0}}) {
        t.row("fig14", "max_stall_ms " + system, paper, 0.25, stalls,
              [system = system](const Outcome &o) {
                  return o[0].report(system).stats.loadStall.percentile(100);
              });
    }

    // Fig. 15: P99 TTFT over 100-s windows of a 2000-s run at 9 RPS.
    const std::vector<std::string> timeline{"slora", "slora-sjf",
                                            "chameleon-nocache", "chameleon"};
    const auto longRun = t.add(sweeps({grid(timeline, {9}, 2000.0)}));
    for (const auto &system : timeline) {
        t.row("fig15", "max_window_p99_s " + system, kNoPaper, 0, longRun,
              [system](const Outcome &o) {
                  return peakWindowP99(o[0].report(system), 100 * sim::kSec);
              });
    }

    // Fig. 16: queueing delay by size class at high load. "<8%" is a
    // bound, read here as the paper value of the worst class.
    const auto queues = t.add(sweeps({grid(
        {"slora", "slora-sjf", "chameleon-nocache"}, {kHighRps}, 300.0)}));
    t.row("fig16", "queue_share_pct slora small", 28.6, 0.25, queues,
          [](const Outcome &o) {
              return sizeClasses(o[0].report("slora")).queueSharePct[0];
          });
    t.row("fig16", "queue_delay_s slora large", 1.5, 0.25, queues,
          [](const Outcome &o) {
              return sizeClasses(o[0].report("slora")).meanQueueDelay[2];
          });
    t.row("fig16", "queue_delay_s slora-sjf large", 5.15, 0.25, queues,
          [](const Outcome &o) {
              return sizeClasses(o[0].report("slora-sjf")).meanQueueDelay[2];
          });
    t.row("fig16", "max_queue_share_pct chameleon-nocache", 8.0, 0.25, queues,
          [](const Outcome &o) {
              const auto c = sizeClasses(o[0].report("chameleon-nocache"));
              return *std::max_element(c.queueSharePct, c.queueSharePct + 3);
          });

    // Figs. 17-18: eviction policies and prefetching with 200 adapters
    // and 24 GiB of extra workspace, which puts the cache under
    // eviction pressure.
    auto tight = grid({"slora", "chameleon", "chameleon-fairshare",
                       "chameleon-gdsf", "chameleon-lru",
                       "chameleon-prefetch"},
                      {kMediumRps}, 300.0, 200);
    tight.axes.push_back(
        {"engine.workspace_per_gpu", {sim::JsonValue::makeInt(24ll << 30)}});
    const auto policies = t.add(sweeps({tight}));
    for (const auto &[system, paper] :
         std::vector<std::pair<std::string, std::optional<double>>>{
             {"chameleon-lru", 0.82},
             {"chameleon-fairshare", 0.78},
             {"chameleon", 0.74},
             {"chameleon-gdsf", kNoPaper}}) {
        t.row("fig17", "p99_ttft_x " + system + "/slora", paper, 0.10,
              policies, [system = system](const Outcome &o) {
                  return p99Ttft(o[0].report(system)) /
                         p99Ttft(o[0].report("slora"));
              });
    }
    t.row("fig17", "p99_ttft_x rank=128 chameleon/chameleon-fairshare", 0.88,
          0.10, policies, [](const Outcome &o) {
              return p99TtftOfRank(o[0].report("chameleon"), 128) /
                     p99TtftOfRank(o[0].report("chameleon-fairshare"), 128);
          });
    t.row("fig18", "prefetch_gain_pct", 8.8, 0.25, policies,
          [](const Outcome &o) {
              return cutPct(p99Ttft(o[0].report("chameleon")),
                            p99Ttft(o[0].report("chameleon-prefetch")));
          });

    // Fig. 19: predictor accuracy around one 2x burst at 290-315 s.
    auto burst = grid({"chameleon-output-only", "chameleon"}, {9}, 600.0);
    burst.workload.burstMultiplier = 1.0;
    burst.workload.bursts = {{290.0, 315.0, 2.0}};
    burst.axes.push_back(
        sweep::SweepAxis::parse("predictor.accuracy", {"1", "0.8", "0.6"}));
    const auto accuracy = t.add(sweeps({burst}));
    for (const std::string system : {"chameleon-output-only", "chameleon"}) {
        for (const char *acc : {"1", "0.8", "0.6"}) {
            const auto atAccuracy = [acc](const sweep::SweepCell &cell) {
                return cell.spec.predictor.accuracy == std::stod(acc);
            };
            t.row("fig19", "burst_p99_s " + system + " acc=" + acc, kNoPaper,
                  0, accuracy, [system, atAccuracy](const Outcome &o) {
                      return peakWindowP99(o[0].report(system, atAccuracy),
                                           10 * sim::kSec, 250.0, 400.0);
                  });
        }
    }

    // Fig. 20: adapter count x rank popularity at high load (runs 0-9,
    // counts in order for uniform, then power-law ranks), and
    // uniform adapter popularity (run 10).
    const std::vector<int> counts{10, 50, 100, 150, 200};
    std::vector<sweep::SweepSpec> mixes;
    for (const auto ranks : {Popularity::Uniform, Popularity::PowerLaw}) {
        for (int count : counts) {
            mixes.push_back(grid({"slora", "chameleon"}, {kHighRps}, 240.0,
                                 count));
            mixes.back().workload.rankPopularity = ranks;
        }
    }
    mixes.push_back(grid({"slora", "chameleon"}, {kHighRps}, 240.0));
    mixes.back().workload.adapterPopularity = Popularity::Uniform;
    const auto mix = t.add(sweeps(mixes));
    for (const auto &[system, ranks, paper] :
         std::vector<std::tuple<std::string, int, double>>{
             {"slora", 0, 10}, {"chameleon", 0, 100},
             {"slora", 1, 10}, {"chameleon", 1, 150}}) {
        t.row("fig20",
              "adapters_within_5s_slo " + system +
                  (ranks ? " ranks=power-law" : " ranks=uniform"),
              paper, 0.25, mix,
              [counts, system = system, ranks = ranks](const Outcome &o) {
                  // The largest count up to which every count meets
                  // the paper's 5 s SLO.
                  double within = 0.0;
                  for (std::size_t i = 0; i < counts.size(); ++i) {
                      if (p99Ttft(o[5 * ranks + i].report(system)) > 5.0)
                          break;
                      within = counts[i];
                  }
                  return within;
              });
    }
    for (const std::string system : {"slora", "chameleon"}) {
        // P-P is the power-law-ranks run at 100 adapters; U-U run 10.
        t.row("fig20", "p99_ttft_x P-P/U-U " + system, kNoPaper, 0, mix,
              [system](const Outcome &o) {
                  return p99Ttft(o[7].report(system)) /
                         p99Ttft(o[10].report(system));
              });
    }

    // Fig. 21: three traces at high load, parameters untuned.
    const std::vector<std::pair<std::string, workload::TraceGenConfig>>
        presets{{"splitwise", workload::splitwiseLike()},
                {"wildchat", workload::wildchatLike()},
                {"lmsys", workload::lmsysLike()}};
    std::vector<sweep::SweepSpec> traces;
    for (const auto &[name, config] : presets) {
        traces.push_back(grid({"slora", "chameleon"}, {kHighRps}, 240.0));
        traces.back().workload = config;
        traces.back().workload.numAdapters = 100;
        traces.back().workload.durationSeconds = 240.0;
    }
    const auto traceMix = t.add(sweeps(traces));
    for (std::size_t i = 0; i < presets.size(); ++i) {
        t.row("fig21", "speedup_x " + presets[i].first,
              i == 0 ? kNoPaper : std::optional<double>(4.0), 0.25, traceMix,
              [i](const Outcome &o) {
                  return p99Ttft(o[i].report("slora")) /
                         p99Ttft(o[i].report("chameleon"));
              });
    }

    // Fig. 22: dynamic vs static queues; "similar" reads as 1.0.
    const auto queueing = t.add(sweeps({grid(
        {"chameleon-static", "chameleon"}, {kLowRps, kMediumRps, kHighRps},
        300.0)}));
    for (const auto &[label, rps, paper] :
         std::vector<std::tuple<std::string, double, double>>{
             {"low", kLowRps, 1.0},
             {"medium", kMediumRps, 1.0},
             {"high", kHighRps, 0.90}}) {
        t.row("fig22", "p99_ttft_x dynamic/static load=" + label, paper, 0.10,
              queueing, [rps = rps](const Outcome &o) {
                  return p99Ttft(o[0].report("chameleon", rps)) /
                         p99Ttft(o[0].report("chameleon-static", rps));
              });
    }

    // Fig. 23: model size on an A100-80; the SLO is the middle load's.
    struct Scale
    {
        std::string model;
        int adapters;
        std::vector<double> loads;
    };
    const std::vector<Scale> sizes{{"llama-7b", 500, {15, 25, 35}},
                                   {"llama-13b", 100, {16, 24, 32}},
                                   {"llama-30b", 10, {4, 6, 8}}};
    std::vector<sweep::SweepSpec> models;
    for (const auto &size : sizes) {
        models.push_back(onA100(
            grid({"slora", "chameleon"}, size.loads, 200.0, size.adapters),
            size.model, 80));
    }
    const auto modelMix = t.add(sweeps(models));
    const double paperGain[] = {1.86, 1.41, 1.67};
    for (std::size_t i = 0; i < sizes.size(); ++i) {
        const auto loadsOf = sizes[i].loads;
        t.row("fig23", "mean_p99_ttft_cut_pct " + sizes[i].model, 60.0, 0.25,
              modelMix, [i, loadsOf](const Outcome &o) {
                  double cut = 0.0;
                  for (double rps : loadsOf)
                      cut += cutPct(p99Ttft(o[i].report("slora", rps)),
                                    p99Ttft(o[i].report("chameleon", rps)));
                  return cut / 3.0;
              });
        t.row("fig23", "throughput_x " + sizes[i].model, paperGain[i], 0.10,
              modelMix, [i, loadsOf](const Outcome &o) {
                  return knee(o[i], "chameleon", loadsOf[1]) /
                         knee(o[i], "slora", loadsOf[1]);
              });
    }

    // Fig. 24: GPU memory, for each model that fits with 2 GiB to
    // spare; the SLO is the second load's.
    struct Memory
    {
        std::string model;
        int adapters;
        int memGiB;
        std::vector<double> loads;
        std::optional<double> paper;
    };
    const std::vector<double> loads7b{8, 14, 20, 26, 32, 38};
    const std::vector<double> loads13b{10, 18, 26, 34};
    const std::vector<Memory> memories{
        {"llama-7b", 500, 24, loads7b, 1.4},
        {"llama-7b", 500, 48, loads7b, 1.6},
        {"llama-7b", 500, 80, loads7b, 1.9},
        {"llama-13b", 100, 48, loads13b, kNoPaper},
        {"llama-13b", 100, 80, loads13b, kNoPaper},
        {"llama-30b", 10, 80, {3, 5, 7, 9}, kNoPaper}};
    std::vector<sweep::SweepSpec> gpus;
    for (const auto &m : memories) {
        gpus.push_back(onA100(
            grid({"slora", "chameleon"}, m.loads, 180.0, m.adapters), m.model,
            m.memGiB));
    }
    const auto memoryMix = t.add(sweeps(gpus));
    for (std::size_t i = 0; i < memories.size(); ++i) {
        const double sloRps = memories[i].loads[1];
        t.row("fig24",
              "throughput_x " + memories[i].model + " " +
                  std::to_string(memories[i].memGiB) + "G",
              memories[i].paper, 0.10, memoryMix,
              [i, sloRps](const Outcome &o) {
                  return knee(o[i], "chameleon", sloRps) /
                         knee(o[i], "slora", sloRps);
              });
    }

    // Fig. 25: tensor parallelism on A100-80s, loads scaled with the
    // engine's capacity.
    std::vector<sweep::SweepSpec> tps;
    const std::vector<std::pair<int, double>> degrees{
        {1, 1.0}, {2, 1.7}, {4, 2.8}};
    for (const auto &[tp, scale] : degrees) {
        tps.push_back(onA100(grid({"slora", "chameleon"},
                                  {8.0 * scale, 12.0 * scale, 15.0 * scale},
                                  180.0),
                             "llama-7b", 80, tp));
    }
    const auto tpMix = t.add(sweeps(tps));
    for (std::size_t i = 0; i < degrees.size(); ++i) {
        const double high = 15.0 * degrees[i].second;
        t.row("fig25",
              "p99_ttft_cut_pct tp=" + std::to_string(degrees[i].first) +
                  " load=high",
              i == 2 ? std::optional<double>(95.8) : kNoPaper, 0.25, tpMix,
              [i, high](const Outcome &o) {
                  return cutPct(p99Ttft(o[i].report("slora", high)),
                                p99Ttft(o[i].report("chameleon", high)));
              });
    }
    return t;
}

/** A row's seed median and quartiles. */
struct Summary
{
    const Row *row;
    double median = 0.0;
    double q1 = 0.0;
    double q3 = 0.0;

    std::string key() const { return row->figure + " " + row->metric; }
    bool within() const
    {
        return std::abs(median - *row->paper) <=
               row->tolerance * std::abs(*row->paper);
    }
};

/** Compare to a committed BENCH_fidelity.json: one line per failure.
 * Returns the failure count, or -1 when the baseline is unreadable. */
int
gate(const std::string &path, const std::vector<Summary> &summaries)
{
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    std::string error;
    const auto doc = sim::parseJson(text.str(), &error);
    const sim::JsonValue *rows = doc ? doc->find("rows") : nullptr;
    if (!in || rows == nullptr || !rows->isArray()) {
        std::fprintf(stderr, "fidelity: --baseline %s: %s\n", path.c_str(),
                     in ? (error.empty() ? "no \"rows\" array" : error.c_str())
                        : "cannot be read");
        return -1;
    }
    struct Pinned
    {
        double median, q1, q3;
    };
    std::map<std::string, Pinned> pinned;
    for (const auto &row : rows->items()) {
        const auto *figure = row.find("figure");
        const auto *metric = row.find("metric");
        const auto *median = row.find("median");
        const auto *q1 = row.find("q1");
        const auto *q3 = row.find("q3");
        if (!figure || !metric || !median || !q1 || !q3 ||
            !figure->isString() || !metric->isString() ||
            !median->isNumber() || !q1->isNumber() || !q3->isNumber()) {
            std::fprintf(stderr,
                         "fidelity: --baseline %s: a row lacks figure, "
                         "metric, median, q1 or q3\n",
                         path.c_str());
            return -1;
        }
        pinned[figure->asString() + " " + metric->asString()] = {
            median->asNumber(), q1->asNumber(), q3->asNumber()};
    }

    int failures = 0;
    const auto fail = [&failures](const std::string &key, const char *what) {
        std::printf("FAIL %s: %s\n", key.c_str(), what);
        ++failures;
    };
    for (const auto &s : summaries) {
        const auto it = pinned.find(s.key());
        if (it == pinned.end()) {
            fail(s.key(), "added (not in the baseline)");
            continue;
        }
        const Pinned base = it->second;
        pinned.erase(it);
        // Room for the last bits of a double's round trip.
        const double spread = base.q3 - base.q1 +
                              1e-9 * std::max(1.0, std::abs(base.median));
        char what[160];
        if (s.row->paper) {
            const double before = std::abs(base.median - *s.row->paper);
            const double now = std::abs(s.median - *s.row->paper);
            if (now <= before + spread)
                continue;
            std::snprintf(what, sizeof(what),
                          "median %.4g is %.4g from the paper's %.4g, "
                          "baseline %.4g was %.4g (spread %.4g)",
                          s.median, now, *s.row->paper, base.median, before,
                          base.q3 - base.q1);
        } else {
            if (std::abs(s.median - base.median) <= spread)
                continue;
            std::snprintf(what, sizeof(what),
                          "median %.4g moved from the baseline's %.4g by "
                          "more than its spread %.4g",
                          s.median, base.median, base.q3 - base.q1);
        }
        fail(s.key(), what);
    }
    for (const auto &[key, base] : pinned)
        fail(key, "dropped (in the baseline, not in the table)");
    return failures;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string baseline;
    if (argc == 3 && std::string(argv[1]) == "--baseline") {
        baseline = argv[2];
    } else if (argc != 1) {
        std::fprintf(stderr, "usage: fidelity [--baseline FILE]\n");
        return 2;
    }

    const Table table = fidelityTable();
    const std::size_t seeds = std::size(kSeeds);
    const std::size_t scenarios = table.scenarios.size();
    std::vector<std::vector<std::size_t>> rowsOf(scenarios);
    for (std::size_t r = 0; r < table.rows.size(); ++r)
        rowsOf[table.rows[r].scenario].push_back(r);

    // Every (seed, scenario) pair is one task; each writes its own
    // slots, so the result does not depend on the thread count.
    std::vector<std::vector<double>> values(table.rows.size(),
                                            std::vector<double>(seeds));
    const std::size_t tasks = seeds * scenarios;
    std::vector<std::vector<std::string>> stranded(tasks);
    std::atomic<std::size_t> next{0};
    const auto work = [&] {
        for (std::size_t task; (task = next.fetch_add(1)) < tasks;) {
            const std::size_t seed = task / scenarios;
            const std::size_t scenario = task % scenarios;
            const Outcome outcome = table.scenarios[scenario](kSeeds[seed]);
            for (const auto &run : outcome) {
                for (const auto &result : run.results) {
                    const auto &s = result.report.stats;
                    if (s.finished < s.submitted) {
                        stranded[task].push_back(
                            result.cell.system + " (" +
                            result.cell.axesLabel() + ", seed " +
                            std::to_string(kSeeds[seed]) + ") finished " +
                            std::to_string(s.finished) + " of " +
                            std::to_string(s.submitted));
                    }
                }
            }
            for (const std::size_t r : rowsOf[scenario])
                values[r][seed] = table.rows[r].value(outcome);
        }
    };
    const std::size_t workers = std::min<std::size_t>(
        std::max(1u, std::thread::hardware_concurrency()), tasks);
    std::vector<std::thread> threads;
    for (std::size_t w = 0; w < workers; ++w)
        threads.emplace_back(work);
    for (auto &thread : threads)
        thread.join();

    std::vector<Summary> summaries;
    sweep::BenchJson json("fidelity");
    std::printf("%-6s %-48s %10s %21s %8s  %s\n", "figure", "metric",
                "median", "[q1, q3]", "paper", "within");
    for (std::size_t r = 0; r < table.rows.size(); ++r) {
        const Row &row = table.rows[r];
        sim::PercentileTracker tracker;
        auto series = sim::JsonValue::makeArray();
        for (double v : values[r]) {
            tracker.add(v);
            series.push(sim::JsonValue::makeNumber(v));
        }
        const Summary s{&row, tracker.p50(), tracker.percentile(25),
                        tracker.percentile(75)};
        char quartiles[32];
        std::snprintf(quartiles, sizeof(quartiles), "[%.4g, %.4g]", s.q1,
                      s.q3);
        char paper[16] = "-";
        if (row.paper)
            std::snprintf(paper, sizeof(paper), "%.4g", *row.paper);
        std::printf("%-6s %-48s %10.4g %21s %8s  %s\n", row.figure.c_str(),
                    row.metric.c_str(), s.median, quartiles, paper,
                    !row.paper ? "-" : s.within() ? "yes" : "no");
        json.row()
            .field("figure", row.figure)
            .field("metric", row.metric)
            .field("paper", row.paper ? sim::JsonValue::makeNumber(*row.paper)
                                      : sim::JsonValue())
            .field("tolerance", row.tolerance)
            .field("median", s.median)
            .field("q1", s.q1)
            .field("q3", s.q3)
            .field("within", row.paper ? sim::JsonValue::makeBool(s.within())
                                       : sim::JsonValue())
            .field("values", series);
        summaries.push_back(s);
    }
    json.write("BENCH_fidelity.json");

    int failures = 0;
    for (const auto &task : stranded) {
        for (const auto &line : task) {
            std::printf("FAIL stranded requests: %s\n", line.c_str());
            ++failures;
        }
    }
    if (!baseline.empty()) {
        const int regressions = gate(baseline, summaries);
        if (regressions < 0)
            return 2;
        failures += regressions;
        std::printf("baseline %s: %d failure(s) over %zu rows\n",
                    baseline.c_str(), regressions, summaries.size());
    }
    return failures == 0 ? 0 : 1;
}
