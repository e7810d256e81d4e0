/**
 * @file
 * Parallel experiment runner.
 *
 * Simulated systems are single-threaded by design, but a sweep (a
 * bench over context counts, a fault-rate grid, a fuzzer over seeds)
 * is embarrassingly parallel: every Session builds its own System,
 * PhysMem and kernel state, and runs share only immutable code
 * images, handed out by one mutex-guarded table per image kind
 * (isa/imagetable.h). This runner executes a batch of configs on a
 * small thread pool, one complete experiment per task, and returns
 * results in config order — output ordering is deterministic
 * regardless of which run finishes first.
 *
 * Per-run global state (the trace cycle clock, the crash hook, the
 * diagnostics arming) is thread-local, so concurrent runs neither
 * corrupt each other's trace prefixes nor dump the wrong system on a
 * panic. Each run's results are bit-identical to running it alone.
 */

#ifndef SMTOS_HARNESS_PARALLEL_H
#define SMTOS_HARNESS_PARALLEL_H

#include <cstddef>
#include <functional>
#include <vector>

#include "harness/session.h"

namespace smtos {

/**
 * Set the worker count used when a caller passes jobs = 0
 * (EnvOverrides::install applies SMTOS_JOBS here; 0 resets to the
 * hardware-concurrency default).
 */
void setDefaultJobs(unsigned jobs);

/**
 * Worker count used when a caller passes jobs = 0: the configured
 * default when set, else the host's hardware concurrency, else 1.
 */
unsigned defaultJobs();

/**
 * Invoke @p body(i) for every i in [0, n) on @p jobs worker threads
 * (0 = defaultJobs()). Indices are handed out atomically; with one
 * job (or n <= 1) everything runs on the calling thread. @p body must
 * be safe to call concurrently for distinct indices. Exceptions
 * escaping @p body are fatal (the simulator's error model is
 * panic/abort, not unwinding).
 */
void parallelFor(std::size_t n, const std::function<void(std::size_t)> &body,
                 unsigned jobs = 0);

/**
 * Run every configuration (each in its own Session) and return the
 * results in the same order. @p jobs as in parallelFor.
 */
std::vector<RunResult> runSessions(const std::vector<Session::Config> &cfgs,
                                   unsigned jobs = 0);

} // namespace smtos

#endif // SMTOS_HARNESS_PARALLEL_H
