/**
 * @file
 * The generic deterministic batch core shared by every engine.
 *
 * Both the simulation engine (harness::Engine) and the multi-backend
 * evaluation engine (eval::Engine) need the same machinery: partition
 * a batch of jobs into compute work, cache hits and in-batch aliases;
 * shard the compute work over a worker pool; resolve the aliases; and
 * hand back results *in job order* so downstream output is
 * deterministic at any thread count. This header factors that core
 * out as a template over the (Job, Result) pair.
 *
 * The contract that makes sharding safe is the same as in PR 1: a
 * job's result must be a pure function of the job itself (seeds are
 * derived from job keys, never from scheduling), so any assignment of
 * jobs to workers yields bit-identical results.
 */

#ifndef GPULITMUS_HARNESS_BATCH_H
#define GPULITMUS_HARNESS_BATCH_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace gpulitmus::harness {

/**
 * Result memo shared across an engine's lifetime: maps job cache keys
 * to computed results. Thread-safe; hit counting includes in-batch
 * aliases (a duplicate cell served from a batch-mate's computation).
 */
template <typename Result>
class BatchCache
{
  public:
    std::shared_ptr<const Result>
    lookup(uint64_t key) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = map_.find(key);
        return it == map_.end() ? nullptr : it->second;
    }

    void
    store(uint64_t key, std::shared_ptr<const Result> result)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        map_.emplace(key, std::move(result));
    }

    void
    addHits(uint64_t n)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        hits_ += n;
    }

    uint64_t
    hits() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return hits_;
    }

    size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return map_.size();
    }

    void
    clear()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        map_.clear();
    }

  private:
    mutable std::mutex mutex_;
    std::unordered_map<uint64_t, std::shared_ptr<const Result>> map_;
    uint64_t hits_ = 0;
};

/** The pluggable pieces of a batch run. */
template <typename Job, typename Result>
struct BatchOps
{
    /** Cache identity of a job; jobs with equal keys have
     * interchangeable results (up to re-labelling). */
    std::function<uint64_t(const Job &)> cacheKey;
    /** Compute one job's result (called from worker threads). */
    std::function<std::shared_ptr<const Result>(const Job &)> execute;
    /** Re-point a computed/cached result at the job that requested
     * it (labels and other non-key identity), marking it served. */
    std::function<std::shared_ptr<const Result>(const Result &,
                                                const Job &)>
        servedFrom;
    /** Human label for telemetry spans (obs/trace.h); optional, only
     * consulted while a trace is being collected. */
    std::function<std::string(const Job &)> describe;
};

/**
 * Execute a batch: cache/alias partition, worker pool, in-order
 * result slots. `cache` may be null (no memoisation — every job
 * computes, even duplicates). `progress` is invoked from worker
 * threads as *computed* jobs finish (cache hits and aliases are not
 * reported); completion order is nondeterministic.
 */
template <typename Job, typename Result>
std::vector<std::shared_ptr<const Result>>
runBatch(const std::vector<Job> &jobs, int threads,
         BatchCache<Result> *cache, const BatchOps<Job, Result> &ops,
         const std::function<void(size_t done, size_t total,
                                  const Result &)> &progress = nullptr)
{
    const size_t n = jobs.size();
    std::vector<std::shared_ptr<const Result>> slots(n);

    // Partition into compute jobs, cache hits and in-batch aliases.
    // An alias is a job whose cache key is owned by an earlier job in
    // this batch; it reuses that job's result instead of recomputing.
    std::vector<size_t> compute;
    std::vector<std::pair<size_t, size_t>> aliases; // (index, owner)
    uint64_t batch_hits = 0;
    {
        std::unordered_map<uint64_t, size_t> owner;
        compute.reserve(n);
        for (size_t i = 0; i < n; ++i) {
            if (!cache) {
                compute.push_back(i);
                continue;
            }
            uint64_t key = ops.cacheKey(jobs[i]);
            if (auto cached = cache->lookup(key)) {
                slots[i] = ops.servedFrom(*cached, jobs[i]);
                ++batch_hits;
                continue;
            }
            auto claimed = owner.find(key);
            if (claimed != owner.end()) {
                aliases.push_back({i, claimed->second});
                ++batch_hits;
            } else {
                owner[key] = i;
                compute.push_back(i);
            }
        }
        if (cache)
            cache->addHits(batch_hits);
    }

    // Telemetry observes the batch — counters and wall clocks only,
    // never job identity or sharding, so results stay bit-identical
    // with GPULITMUS_OBS on or off (tests/test_obs.cc pins this).
    const bool obs_on = obs::enabled();
    if (obs_on) {
        obs::counter("engine_batches_total").add();
        obs::counter("engine_jobs_total").add(n);
        obs::counter("engine_jobs_cached_total").add(batch_hits);
    }
    const auto batch_start = std::chrono::steady_clock::now();
    auto micros_since = [](std::chrono::steady_clock::time_point t0) {
        auto us =
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - t0)
                .count();
        return static_cast<uint64_t>(us < 0 ? 0 : us);
    };

    // Shard the compute jobs over the pool. Results are pure
    // functions of their jobs, so any sharding is bit-identical.
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    std::mutex progress_mutex;
    auto worker = [&]() {
        const auto worker_start = std::chrono::steady_clock::now();
        uint64_t busy_us = 0;
        for (;;) {
            size_t c = next.fetch_add(1);
            if (c >= compute.size())
                break;
            size_t idx = compute[c];
            // Queue wait: how long the job sat behind its batch-mates
            // before a worker picked it up.
            if (obs_on)
                obs::timer("engine_queue_wait_us")
                    .record(micros_since(batch_start));
            std::shared_ptr<const Result> result;
            {
                obs::Span span(ops.describe && obs::Trace::active()
                                   ? "job " + ops.describe(jobs[idx])
                                   : std::string("job"),
                               "engine");
                const auto job_start =
                    std::chrono::steady_clock::now();
                result = ops.execute(jobs[idx]);
                if (obs_on) {
                    uint64_t us = micros_since(job_start);
                    obs::timer("engine_job_latency_us").record(us);
                    busy_us += us;
                }
            }
            slots[idx] = result;
            size_t finished = done.fetch_add(1) + 1;
            if (progress) {
                std::lock_guard<std::mutex> lock(progress_mutex);
                progress(finished, compute.size(), *result);
            }
        }
        // Utilisation: busy µs over wall µs, summed across workers.
        if (obs_on) {
            obs::counter("engine_worker_busy_us_total").add(busy_us);
            obs::counter("engine_worker_wall_us_total")
                .add(micros_since(worker_start));
        }
    };

    int pool = static_cast<int>(
        std::min<size_t>(static_cast<size_t>(threads), compute.size()));
    if (pool <= 1) {
        worker();
    } else {
        std::vector<std::thread> workers;
        workers.reserve(static_cast<size_t>(pool));
        for (int t = 0; t < pool; ++t)
            workers.emplace_back(worker);
        for (auto &t : workers)
            t.join();
    }

    // Resolve in-batch aliases now that their owners have run.
    for (auto [idx, owner_idx] : aliases)
        slots[idx] = ops.servedFrom(*slots[owner_idx], jobs[idx]);

    // Install computed results into the cache.
    if (cache) {
        for (size_t idx : compute)
            cache->store(ops.cacheKey(jobs[idx]), slots[idx]);
    }

    return slots;
}

} // namespace gpulitmus::harness

#endif // GPULITMUS_HARNESS_BATCH_H
