/**
 * @file
 * A fixed reference kernel that measures how fast the host runs right
 * now, independent of the simulator's code.
 *
 * On a shared host other tenants slow every process down by tens of
 * percent, in episodes of seconds and drifts of minutes to hours. The
 * simulator's slowdowns follow memory latency, so the kernel is a chain
 * of dependent loads through 16 MiB that misses the caches at every
 * step. Timing it between simulator runs, and scaling each run's wall
 * time by the kernel's reference time over its measured time, cancels
 * much of the drift. The kernel never calls into `src/`, so a change to
 * the simulator cannot move it.
 */

#ifndef PERFBENCH_CALIBRATE_H
#define PERFBENCH_CALIBRATE_H

namespace perfbench {

/** The kernel's wall seconds on the reference host, a 4-vCPU shared Intel
 * Xeon VM (gcc 12, RelWithDebInfo). Scaled wall times read as if the
 * host ran the kernel in this time. */
constexpr double kReferenceKernelSeconds = 0.33;

/** Run the reference kernel once; returns its wall seconds. */
double referenceKernelSeconds();

} // namespace perfbench

#endif // PERFBENCH_CALIBRATE_H
