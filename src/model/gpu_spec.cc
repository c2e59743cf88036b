#include "model/gpu_spec.h"

#include <cstdlib>

#include "simkit/check.h"

namespace chameleon::model {

namespace {
constexpr std::int64_t kGiB = 1024ll * 1024 * 1024;
} // namespace

GpuSpec
a40()
{
    GpuSpec g;
    g.name = "a40-48g";
    g.fp16Flops = 37.4e12;
    g.memBandwidth = 696e9;
    g.memBytes = 48 * kGiB;
    // Effective host link throughput calibrated so a rank-128 Llama-7B
    // adapter (268 MB) loads in ~25.5 ms, matching the paper's Fig. 2
    // loading share (17.5% of a 144 ms TTFT).
    g.pcieBandwidth = 10.5e9;
    g.pcieSetupSeconds = 0.3e-3;
    return g;
}

GpuSpec
a100(int memGiB)
{
    CHM_CHECK(memGiB == 24 || memGiB == 48 || memGiB == 80,
              "paper uses A100 configured with 24/48/80 GiB, got " << memGiB);
    GpuSpec g;
    g.name = "a100-" + std::to_string(memGiB) + "g";
    g.fp16Flops = 312e12;
    g.memBandwidth = 2000e9;
    g.memBytes = static_cast<std::int64_t>(memGiB) * kGiB;
    g.pcieBandwidth = 25e9;
    g.pcieSetupSeconds = 0.2e-3;
    return g;
}

bool
tryGpuByName(const std::string &name, GpuSpec *out)
{
    if (name == "a40") {
        *out = a40();
        return true;
    }
    if (name == "a100") {
        *out = a100(80);
        return true;
    }
    if (name.rfind("a100-", 0) == 0) {
        char *end = nullptr;
        const int gib =
            static_cast<int>(std::strtol(name.c_str() + 5, &end, 10));
        // Trailing garbage ("a100-48GB") must not parse as a100-48.
        if (*end == '\0' && (gib == 24 || gib == 48 || gib == 80)) {
            *out = a100(gib);
            return true;
        }
    }
    return false;
}

const char *
gpuPresetNames()
{
    return "a40, a100, a100-24, a100-48, a100-80";
}

bool
tryFleetByName(const std::string &name, std::vector<GpuSpec> *out)
{
    if (name.empty())
        return false;
    std::vector<GpuSpec> fleet;
    std::size_t start = 0;
    while (start <= name.size()) {
        const std::size_t plus = name.find('+', start);
        const std::string term =
            name.substr(start, plus == std::string::npos
                                   ? std::string::npos
                                   : plus - start);
        // The count is the suffix after the *last* 'x', so GPU names
        // may themselves contain an 'x' without breaking the grammar.
        const std::size_t x = term.rfind('x');
        if (x == std::string::npos || x == 0 || x + 1 >= term.size())
            return false;
        GpuSpec gpu;
        if (!tryGpuByName(term.substr(0, x), &gpu))
            return false;
        char *end = nullptr;
        const std::string countText = term.substr(x + 1);
        const long count = std::strtol(countText.c_str(), &end, 10);
        if (*end != '\0' || count < 1 || count > 1024)
            return false;
        for (long i = 0; i < count; ++i)
            fleet.push_back(gpu);
        if (plus == std::string::npos)
            break;
        start = plus + 1;
    }
    *out = std::move(fleet);
    return true;
}

std::string
fleetGrammarHelp()
{
    return std::string("<gpu>x<count> terms joined by '+' (e.g. "
                       "\"a40x4\", \"a100x2+a40x2\"); gpus: ") +
           gpuPresetNames();
}

} // namespace chameleon::model
