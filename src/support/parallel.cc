#include "support/parallel.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>
#include <vector>

#include "support/logging.hh"
#include "support/telemetry.hh"
#include "support/telemetry_keys.hh"
#include "support/whole_number.hh"

namespace aregion::parallel {

namespace {

// Absurd AREGION_JOBS values (fat-fingered "1000" for "10") would
// oversubscribe the host into thrashing; cap well above any sane
// machine but below pathology.
constexpr size_t kMaxJobs = 256;

size_t
jobsFromEnv()
{
    // Warn at most once per process: runGrid is called per figure
    // table and a bad env var would otherwise spam every call.
    static std::atomic<bool> warned{false};
    auto warnOnce = [&](auto &&...parts) {
        if (!warned.exchange(true))
            AREGION_WARN(std::forward<decltype(parts)>(parts)...);
    };

    const unsigned hw = std::thread::hardware_concurrency();
    const size_t fallback = hw > 0 ? hw : 1;
    const char *env = std::getenv("AREGION_JOBS");
    if (!env)
        return fallback;

    // Decimal digits only; a digits-only value too large to read is
    // absurd, not malformed.
    const std::string_view text(env);
    const std::optional<uint64_t> parsed = wholeNumber(text);
    const bool digits = !text.empty() &&
        text.find_first_not_of("0123456789") == std::string_view::npos;
    if (digits && (!parsed || *parsed > kMaxJobs)) {
        warnOnce("AREGION_JOBS='", env, "' is absurd; clamping to ",
                 kMaxJobs);
        return kMaxJobs;
    }
    if (!parsed || *parsed == 0) {
        warnOnce("AREGION_JOBS='", env,
                 "' is not a positive whole number; using hardware "
                 "concurrency (", fallback, ")");
        return fallback;
    }
    return *parsed;
}

} // namespace

size_t
configuredJobs()
{
    return jobsFromEnv();
}

size_t
plannedThreads(size_t tasks)
{
    if (tasks == 0)
        return 1;
    const size_t jobs = jobsFromEnv();
    return std::max<size_t>(1, std::min(tasks, jobs));
}

void
runGrid(size_t tasks, const std::function<void(size_t)> &fn)
{
    namespace keys = telemetry::keys;
    auto &reg = telemetry::Registry::global();
    const auto start = std::chrono::steady_clock::now();
    const size_t threads = plannedThreads(tasks);

    // Cells are pulled in order; with one thread no thread starts and
    // the caller runs them all. An exception propagates only after the
    // remaining cells ran (drain-then-rethrow).
    std::exception_ptr first_error = nullptr;
    std::atomic<size_t> next{0};
    std::mutex error_mu;
    auto worker = [&]() {
        for (;;) {
            const size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= tasks)
                return;
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mu);
                if (!first_error)
                    first_error = std::current_exception();
            }
        }
    };
    std::vector<std::thread> pool;
    pool.reserve(threads - 1);
    for (size_t t = 0; t + 1 < threads; ++t)
        pool.emplace_back(worker);
    worker();                   // the calling thread pulls cells too
    for (std::thread &t : pool)
        t.join();

    const auto wall_us =
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count();
    reg.add(keys::kDriverTasks, tasks);
    reg.add(keys::kDriverWallUs, static_cast<uint64_t>(wall_us));
    reg.set(keys::kDriverThreads, static_cast<double>(threads));

    if (first_error)
        std::rethrow_exception(first_error);
}

} // namespace aregion::parallel
