#include "calibrate.h"

#include <cstdint>
#include <vector>

#include "workloads.h"

namespace perfbench {

namespace {

/** Keeps the compiler from dropping the chase. */
volatile std::uint32_t g_sink = 0;

} // namespace

double
referenceKernelSeconds()
{
    // One pass of a full-period linear congruential sequence over 16 MiB
    // of 32-bit slots: slot i holds (a*i + c) mod n, so following the
    // slots visits every one once, in an order the prefetchers cannot
    // guess. Every step waits on the load before it, like walking the
    // simulator's request, event and cache objects.
    constexpr std::uint32_t kSlots = std::uint32_t{1} << 22;
    constexpr std::uint32_t kSteps = std::uint32_t{1} << 21;
    constexpr std::uint32_t kMultiplier = 1664525; // a = 1 mod 4
    constexpr std::uint32_t kIncrement = 1013904223; // c odd
    const double t0 = wallSeconds();
    std::vector<std::uint32_t> next(kSlots);
    for (std::uint32_t i = 0; i < kSlots; ++i)
        next[i] = (kMultiplier * i + kIncrement) & (kSlots - 1);
    std::uint32_t at = 0;
    for (std::uint32_t i = 0; i < kSteps; ++i)
        at = next[at];
    g_sink = at;
    return wallSeconds() - t0;
}

} // namespace perfbench
