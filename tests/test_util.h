/**
 * @file
 * Shared helpers for serving/chameleon tests: tiny engine builders,
 * fake admission contexts, request factories, and a residency log.
 */

#ifndef CHAMELEON_TESTS_TEST_UTIL_H
#define CHAMELEON_TESTS_TEST_UTIL_H

#include <memory>
#include <string>
#include <vector>

#include "chameleon/system.h"
#include "chameleon/system_registry.h"
#include "model/adapter.h"
#include "model/gpu_spec.h"
#include "model/llm.h"
#include "predict/length_predictor.h"
#include "serving/engine.h"
#include "serving/fifo_scheduler.h"
#include "serving/live_request.h"
#include "serving/scheduler.h"
#include "serving/slora_adapter_manager.h"
#include "simkit/simulator.h"
#include "workload/request.h"

namespace chameleon::testutil {

/** A LiveRequest suitable for standalone scheduler tests. */
inline serving::LiveRequest
liveRequest(std::int64_t id, std::int64_t input, std::int64_t predicted,
            model::AdapterId adapter = model::kNoAdapter,
            std::int64_t adapterBytes = 0, int rank = 0)
{
    serving::LiveRequest r;
    r.req.id = id;
    r.req.inputTokens = input;
    r.req.outputTokens = predicted;
    r.req.adapter = adapter;
    r.predictedOutput = predicted;
    r.adapterBytes = adapterBytes;
    r.rank = rank;
    return r;
}

/** Admission context that accepts everything (or a scripted subset). */
struct FakeAdmission
{
    serving::AdmissionContext ctx;
    std::vector<serving::LiveRequest *> reserved;
    /** Requests that must be refused and with which result. */
    serving::LiveRequest *refuse = nullptr;
    serving::ReserveResult refuseWith = serving::ReserveResult::NoKvMemory;

    FakeAdmission()
    {
        ctx.now = 0;
        ctx.prefillTokenBudget = 1 << 20;
        ctx.admissionSlots = 1 << 20;
        ctx.tryReserve = [this](serving::LiveRequest *r) {
            if (r == refuse)
                return refuseWith;
            reserved.push_back(r);
            return serving::ReserveResult::Ok;
        };
        ctx.estimateMemoryFree = [](std::int64_t) {
            return chameleon::sim::kTimeNever;
        };
        ctx.estimateExecTime = [](const serving::LiveRequest *) {
            return chameleon::sim::fromSeconds(1.0);
        };
        ctx.freeBytes = [] { return std::int64_t{1} << 40; };
        ctx.heldBytes = [](const serving::LiveRequest *) {
            return std::int64_t{0};
        };
        ctx.squashForBypass = [](serving::LiveRequest *) {};
        ctx.noteBypass = [] {};
    }
};

/** A fully wired engine with FIFO scheduling and baseline adapters. */
struct BaselineEngine
{
    sim::Simulator simulator;
    model::AdapterPool pool{model::llama7B(), 10};
    predict::LengthPredictor predictor{1.0}; // perfect predictions
    std::unique_ptr<serving::ServingEngine> engine;

    explicit BaselineEngine(serving::EngineConfig cfg = defaultConfig())
    {
        engine = std::make_unique<serving::ServingEngine>(
            simulator, cfg, &pool,
            std::make_unique<serving::FifoScheduler>(), &predictor);
        engine->setAdapterManager(
            std::make_unique<serving::SLoraAdapterManager>(
                pool, engine->memory(), engine->pcieLink()));
    }

    static serving::EngineConfig
    defaultConfig()
    {
        serving::EngineConfig cfg;
        cfg.model = model::llama7B();
        cfg.gpu = model::a40();
        return cfg;
    }
};

/**
 * Residency states as the manager reports them: the test's own view of
 * every adapter, built only from listener transitions.
 */
struct ResidencyLog : serving::ResidencyEvents
{
    enum class State { NotResident, Loading, Resident };
    std::vector<State> state;

    explicit ResidencyLog(int adapters)
        : state(static_cast<std::size_t>(adapters), State::NotResident)
    {
    }
    void onLoadStart(int, model::AdapterId id) override
    {
        state[static_cast<std::size_t>(id)] = State::Loading;
    }
    void onLoadComplete(int, model::AdapterId id) override
    {
        state[static_cast<std::size_t>(id)] = State::Resident;
    }
    void onEvict(int, model::AdapterId id) override
    {
        state[static_cast<std::size_t>(id)] = State::NotResident;
    }
    void onAcquire(int, model::AdapterId, sim::SimTime) override {}
    void onRelease(int, model::AdapterId) override {}

    /** Adapters with a queued reference that are neither resident nor
     * loading. */
    std::int64_t
    queuedNotResident(const std::vector<int> &queued) const
    {
        std::int64_t n = 0;
        for (std::size_t i = 0; i < state.size(); ++i)
            n += queued[i] > 0 && state[i] == State::NotResident ? 1 : 0;
        return n;
    }
};

/**
 * The registry spelling of a system label. Six variants that once were
 * registered presets are now composed ("chameleon-lru" is spelled
 * "chameleon+lru"); the parameterised tests that run them keep the old
 * names as labels, so their test names stay the same.
 */
inline std::string
systemOf(std::string label)
{
    const auto dash = label.find('-');
    if (!core::SystemRegistry::global().has(label) &&
        dash != std::string::npos)
        label[dash] = '+';
    return label;
}

} // namespace chameleon::testutil

#endif // CHAMELEON_TESTS_TEST_UTIL_H
