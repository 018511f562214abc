/**
 * @file
 * The telemetry registry: zero-overhead-when-off process metrics.
 *
 * Every layer of the pipeline is instrumented — the evaluation engine
 * (queue wait, job latency, worker utilisation, cache traffic), the
 * explorer (replays, prunes, resumes), the result store (L2
 * hits/misses/appends) and the serve daemon (requests, latency,
 * connected clients) — but the instrumented code paths must keep two
 * invariants that rule out the obvious designs:
 *
 * - *Determinism*: every result is a pure function of its job
 *   (eval/backend.h). Telemetry therefore never touches RNG streams,
 *   job keys or scheduling — counters observe, they do not steer —
 *   and a run with GPULITMUS_OBS=0 is bit-identical to an
 *   instrumented run (tests/test_obs.cc pins this).
 * - *Hot-loop neutrality*: the explorer ticks a counter per replay
 *   and the engine per job. An increment is one relaxed atomic add
 *   on a striped slot — no locks, no allocation, no syscalls — and
 *   with telemetry disabled it collapses to one relaxed load and a
 *   predictable branch.
 *
 * Counters are *striped*: each counter owns a small array of
 * cache-line-padded slots and a thread adds to the slot its id hashes
 * to, so concurrent workers never contend on one line. Reads
 * aggregate the stripes; they are monotonic but not a snapshot of an
 * instant (fine for rates and totals, the only uses).
 *
 * Handles registered under a name live for the process lifetime —
 * `reset()` zeroes values but never invalidates references — so call
 * sites may cache `obs::counter("...")` in a static. The registry
 * renders itself as JSON (the serve `metrics` command) and as
 * Prometheus text exposition (docs/OBSERVABILITY.md catalogues the
 * names).
 */

#ifndef GPULITMUS_OBS_METRICS_H
#define GPULITMUS_OBS_METRICS_H

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace gpulitmus::obs {

/** Telemetry master switch: GPULITMUS_OBS=0 in the environment turns
 * every counter/gauge/timer/trace into a no-op (read once, cached).
 * Results are bit-identical either way; only visibility changes. */
bool enabled();

/** Test hook: override the cached environment decision. */
void setEnabled(bool on);

namespace detail {

/** One cache line per stripe so concurrent writers never share. */
struct alignas(64) Stripe
{
    std::atomic<uint64_t> value{0};
};

inline constexpr size_t kStripes = 16;

/** This thread's stripe index: a small counter-assigned id, stable
 * for the thread's lifetime. */
size_t threadStripe();

} // namespace detail

/** Monotonic event counter, striped across threads. */
class Counter
{
  public:
    void
    add(uint64_t n = 1)
    {
        if (!enabled())
            return;
        stripes_[detail::threadStripe()].value.fetch_add(
            n, std::memory_order_relaxed);
    }

    uint64_t
    value() const
    {
        uint64_t sum = 0;
        for (const auto &s : stripes_)
            sum += s.value.load(std::memory_order_relaxed);
        return sum;
    }

    void
    reset()
    {
        for (auto &s : stripes_)
            s.value.store(0, std::memory_order_relaxed);
    }

  private:
    detail::Stripe stripes_[detail::kStripes];
};

/** Last-writer-wins instantaneous value (connected clients, frontier
 * depth). Signed so add(-1) tracks live populations. */
class Gauge
{
  public:
    void
    set(int64_t v)
    {
        if (!enabled())
            return;
        value_.store(v, std::memory_order_relaxed);
    }

    void
    add(int64_t delta)
    {
        if (!enabled())
            return;
        value_.fetch_add(delta, std::memory_order_relaxed);
    }

    int64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<int64_t> value_{0};
};

/**
 * Duration histogram in microseconds: count, sum, min/max, and
 * power-of-two buckets (bucket b counts durations in [2^b, 2^{b+1})
 * µs; bucket 0 additionally holds sub-µs records). Count and sum are
 * striped like Counter; buckets and extrema are single relaxed
 * atomics — timer records happen at job/request granularity, far off
 * any inner loop.
 */
class Timer
{
  public:
    static constexpr size_t kBuckets = 32;

    void record(uint64_t micros);

    uint64_t count() const;
    uint64_t sumMicros() const;
    uint64_t minMicros() const; ///< 0 when count() == 0
    uint64_t maxMicros() const;
    uint64_t bucket(size_t i) const;

    void reset();

  private:
    detail::Stripe counts_[detail::kStripes];
    detail::Stripe sums_[detail::kStripes];
    std::atomic<uint64_t> min_{UINT64_MAX};
    std::atomic<uint64_t> max_{0};
    std::atomic<uint64_t> buckets_[kBuckets]{};
};

/** RAII span for a Timer: records the scope's wall time on
 * destruction. The clock is only read when telemetry is on. */
class TimerScope
{
  public:
    explicit TimerScope(Timer &timer) : timer_(&timer)
    {
        if (enabled())
            start_ = std::chrono::steady_clock::now();
        else
            timer_ = nullptr;
    }

    ~TimerScope()
    {
        if (!timer_)
            return;
        auto us =
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - start_)
                .count();
        timer_->record(static_cast<uint64_t>(us < 0 ? 0 : us));
    }

    TimerScope(const TimerScope &) = delete;
    TimerScope &operator=(const TimerScope &) = delete;

  private:
    Timer *timer_;
    std::chrono::steady_clock::time_point start_;
};

/** One metric in a registry snapshot. */
struct MetricSample
{
    std::string name;
    enum Kind
    {
        kCounter,
        kGauge,
        kTimer
    } kind = kCounter;
    int64_t value = 0;       ///< counter/gauge value; timer count
    uint64_t sumMicros = 0;  ///< timers only
    uint64_t minMicros = 0;  ///< timers only
    uint64_t maxMicros = 0;  ///< timers only
};

/**
 * The process-wide metric registry. Registration (first lookup of a
 * name) takes a mutex; subsequent use of the returned reference is
 * lock-free. Entries are never removed, so references stay valid for
 * the process lifetime.
 */
class Registry
{
  public:
    static Registry &instance();

    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Timer &timer(const std::string &name);

    /** All metrics, name-sorted, one consistent-enough read each. */
    std::vector<MetricSample> snapshot() const;

    /** The snapshot as one JSON object: counters/gauges map to
     * numbers, timers to {count,sum_us,min_us,max_us,mean_us}. */
    std::string json() const;

    /** Prometheus text exposition (version 0.0.4): every name gains a
     * `gpulitmus_` prefix, timers render as `<name>_count` /
     * `<name>_sum_us` / min / max. */
    std::string prometheus() const;

    /** Zero every value (names and references survive). Tests only —
     * the daemon's counters are cumulative by design. */
    void reset();

  private:
    Registry() = default;
    struct Impl;
    Impl &impl() const;
};

/** Shorthands for call-site caching:
 *   static obs::Counter &c = obs::counter("mc_replays_total"); */
Counter &counter(const std::string &name);
Gauge &gauge(const std::string &name);
Timer &timer(const std::string &name);

} // namespace gpulitmus::obs

#endif // GPULITMUS_OBS_METRICS_H
