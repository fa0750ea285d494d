/**
 * @file
 * Parallel experiment driver: a bounded worker pool that fans a grid
 * of independent experiment cells (workload × configuration) out
 * over host threads.
 *
 * The figure and ablation binaries run dozens of full simulator
 * pipelines that share nothing but the process-wide telemetry
 * registry (thread-safe; see support/telemetry.hh). Each cell writes
 * its result into a caller-preallocated slot, so the caller can
 * assemble tables in deterministic order afterwards regardless of
 * completion order.
 *
 * Worker count: min(grid size, jobs()), where jobs() is the
 * AREGION_JOBS environment variable when set, else the host's
 * hardware concurrency. AREGION_JOBS must be decimal digits only: any
 * other value (a sign, a space, trailing text) or 0 falls back to
 * hardware concurrency, and values above 256 are clamped — both with
 * a once-per-process stderr warning. Single-threaded hosts (or
 * AREGION_JOBS=1) start no thread: the calling thread runs the cells
 * in order, so results are byte-identical either way.
 */

#ifndef AREGION_SUPPORT_PARALLEL_HH
#define AREGION_SUPPORT_PARALLEL_HH

#include <cstddef>
#include <functional>

namespace aregion::parallel {

/** Worker count runGrid will use for a grid of `tasks` cells:
 *  min(tasks, AREGION_JOBS or hardware_concurrency), at least 1. */
size_t plannedThreads(size_t tasks);

/** The configured job budget itself (AREGION_JOBS when set and sane,
 *  else hardware concurrency), independent of any grid size. Bench
 *  exports record it so a snapshot pins down its parallelism. */
size_t configuredJobs();

/**
 * Run `fn(i)` for every i in [0, tasks) across plannedThreads(tasks)
 * workers. Blocks until all cells finish. The first exception thrown
 * by any cell is rethrown on the calling thread after the pool
 * drains (remaining queued cells still run; in-flight ones finish).
 *
 * Publishes `driver.tasks`, `driver.wall_us`, and `driver.threads`
 * telemetry. Cells must be independent: anything they share beyond
 * the telemetry registry needs the caller's own synchronization.
 */
void runGrid(size_t tasks, const std::function<void(size_t)> &fn);

} // namespace aregion::parallel

#endif // AREGION_SUPPORT_PARALLEL_HH
