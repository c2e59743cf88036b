#include "obs/trace_recorder.h"

#include <utility>

#include "simkit/check.h"

namespace chameleon::obs {

namespace {

sim::JsonValue
argsToJson(const std::vector<TraceArg> &args)
{
    sim::JsonValue object = sim::JsonValue::makeObject();
    for (const TraceArg &arg : args) {
        switch (arg.kind) {
          case TraceArg::Kind::Int:
            object.set(arg.key, sim::JsonValue::makeInt(arg.i));
            break;
          case TraceArg::Kind::Double:
            object.set(arg.key, sim::JsonValue::makeNumber(arg.d));
            break;
          case TraceArg::Kind::String:
            object.set(arg.key, sim::JsonValue::makeString(arg.s));
            break;
        }
    }
    return object;
}

} // namespace

void
TraceRecorder::processName(int pid, const std::string &name)
{
    Event e;
    e.phase = 'M';
    e.pid = pid;
    e.name = "process_name";
    e.args.emplace_back("name", name);
    meta_.push_back(std::move(e));
}

void
TraceRecorder::threadName(int pid, Lane lane, const std::string &name)
{
    Event e;
    e.phase = 'M';
    e.pid = pid;
    e.tid = static_cast<int>(lane);
    e.name = "thread_name";
    e.args.emplace_back("name", name);
    meta_.push_back(std::move(e));
}

void
TraceRecorder::begin(int pid, Lane lane, const char *name, sim::SimTime ts,
                     Args args)
{
    Event e;
    e.phase = 'B';
    e.pid = pid;
    e.tid = static_cast<int>(lane);
    e.name = name;
    e.ts = ts;
    e.args.assign(args.begin(), args.end());
    push(std::move(e));
}

void
TraceRecorder::end(int pid, Lane lane, sim::SimTime ts)
{
    Event e;
    e.phase = 'E';
    e.pid = pid;
    e.tid = static_cast<int>(lane);
    e.ts = ts;
    push(std::move(e));
}

void
TraceRecorder::complete(int pid, Lane lane, const char *name,
                        sim::SimTime ts, sim::SimTime dur, Args args)
{
    CHM_CHECK(dur >= 0, "complete event with negative duration");
    Event e;
    e.phase = 'X';
    e.pid = pid;
    e.tid = static_cast<int>(lane);
    e.name = name;
    e.ts = ts;
    e.dur = dur;
    e.args.assign(args.begin(), args.end());
    push(std::move(e));
}

void
TraceRecorder::instant(int pid, Lane lane, const char *name,
                       sim::SimTime ts, Args args)
{
    Event e;
    e.phase = 'i';
    e.pid = pid;
    e.tid = static_cast<int>(lane);
    e.name = name;
    e.ts = ts;
    e.args.assign(args.begin(), args.end());
    push(std::move(e));
}

void
TraceRecorder::counter(int pid, const char *name, sim::SimTime ts,
                       Args values)
{
    Event e;
    e.phase = 'C';
    e.pid = pid;
    e.name = name;
    e.ts = ts;
    e.args.assign(values.begin(), values.end());
    push(std::move(e));
}

void
TraceRecorder::asyncBegin(int pid, const char *category, std::int64_t id,
                          const char *name, sim::SimTime ts, Args args)
{
    Event e;
    e.phase = 'b';
    e.pid = pid;
    e.tid = static_cast<int>(Lane::Requests);
    e.name = name;
    e.category = category;
    e.hasId = true;
    e.id = id;
    e.ts = ts;
    e.args.assign(args.begin(), args.end());
    push(std::move(e));
}

void
TraceRecorder::asyncEnd(int pid, const char *category, std::int64_t id,
                        const char *name, sim::SimTime ts)
{
    Event e;
    e.phase = 'e';
    e.pid = pid;
    e.tid = static_cast<int>(Lane::Requests);
    e.name = name;
    e.category = category;
    e.hasId = true;
    e.id = id;
    e.ts = ts;
    push(std::move(e));
}

sim::JsonValue
TraceRecorder::toJsonValue() const
{
    sim::JsonValue events = sim::JsonValue::makeArray();
    auto render = [&events](const Event &e) {
        sim::JsonValue object = sim::JsonValue::makeObject();
        if (!e.name.empty())
            object.set("name", sim::JsonValue::makeString(e.name));
        if (!e.category.empty())
            object.set("cat", sim::JsonValue::makeString(e.category));
        object.set("ph", sim::JsonValue::makeString(
                             std::string(1, e.phase)));
        if (e.phase != 'M')
            object.set("ts", sim::JsonValue::makeInt(e.ts));
        if (e.dur >= 0)
            object.set("dur", sim::JsonValue::makeInt(e.dur));
        object.set("pid", sim::JsonValue::makeInt(e.pid));
        object.set("tid", sim::JsonValue::makeInt(e.tid));
        if (e.hasId)
            object.set("id", sim::JsonValue::makeInt(e.id));
        if (!e.args.empty())
            object.set("args", argsToJson(e.args));
        events.push(std::move(object));
    };
    for (const Event &e : meta_)
        render(e);
    for (const Event &e : events_)
        render(e);

    sim::JsonValue root = sim::JsonValue::makeObject();
    root.set("traceEvents", std::move(events));
    root.set("displayTimeUnit", sim::JsonValue::makeString("ms"));
    return root;
}

std::string
TraceRecorder::toJson() const
{
    return toJsonValue().dump();
}

} // namespace chameleon::obs
