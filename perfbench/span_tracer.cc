#include "span_tracer.h"

#include <cstdio>

namespace perfbench {

const char *
layerName(Layer layer)
{
    switch (layer) {
      case Layer::SimSlice: return "simkit.run_until";
      case Layer::Route: return "routing.route";
      case Layer::DirectoryRead: return "fabric.directory_read";
      case Layer::MlqSelect: return "chameleon.mlq.select";
      case Layer::MlqEnqueue: return "chameleon.mlq.enqueue";
      case Layer::MlqSnapshot: return "chameleon.mlq.snapshot";
      case Layer::MlqHooks: return "chameleon.mlq.hooks";
      case Layer::Reserve: return "serving.reserve";
      case Layer::Context: return "serving.ctx";
      case Layer::CacheQueued: return "chameleon.cache.queued";
      case Layer::CacheDequeued: return "chameleon.cache.dequeued";
      case Layer::CacheCycle: return "chameleon.cache.cycle";
      case Layer::CacheAcquire: return "chameleon.cache.acquire";
      case Layer::CacheRelease: return "chameleon.cache.release";
      case Layer::CacheCanMakeResident:
        return "chameleon.cache.can_make_resident";
      case Layer::CacheTryFreeMemory:
        return "chameleon.cache.try_free_memory";
      case Layer::CacheIsResident: return "chameleon.cache.is_resident";
      case Layer::CachePeerAdmit: return "chameleon.cache.peer_admit";
      case Layer::CacheCachedBytes: return "chameleon.cache.cached_bytes";
      case Layer::Predict: return "predict";
      case Layer::DirectoryWrite: return "fabric.directory";
      case Layer::Count: break;
    }
    return "unknown";
}

void
SpanTracer::begin(Layer layer, std::int64_t request)
{
    const std::int64_t now = nowNs();
    std::int32_t span = -1;
    if (sampling_ && spans_.size() < kMaxSpans) {
        const std::int32_t parent = stack_.empty() ? -1 : stack_.back().span;
        span = static_cast<std::int32_t>(spans_.size());
        spans_.push_back(Span{layer, now, now, parent, request});
    }
    stack_.push_back(Frame{layer, now, 0, span});
}

std::int64_t
SpanTracer::end()
{
    const std::int64_t now = nowNs();
    const Frame frame = stack_.back();
    stack_.pop_back();
    const std::int64_t duration = now - frame.start;
    Totals &t = totals_[static_cast<int>(frame.layer)];
    ++t.calls;
    t.totalNs += duration;
    t.selfNs += duration - frame.childNs;
    if (!stack_.empty())
        stack_.back().childNs += duration;
    if (frame.span >= 0)
        spans_[static_cast<std::size_t>(frame.span)].end = now;
    return duration;
}

bool
SpanTracer::writeSpans(const std::string &path) const
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr)
        return false;
    const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start;
    std::fprintf(out, "[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(out,
                     "  {\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                     "\"end_ns\": %lld, \"parent\": %d, \"request\": %lld}%s\n",
                     i, layerName(s.layer),
                     static_cast<long long>(s.start - origin),
                     static_cast<long long>(s.end - origin), s.parent,
                     static_cast<long long>(s.request),
                     i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(out, "]\n");
    return std::fclose(out) == 0;
}

} // namespace perfbench
