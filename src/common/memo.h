/**
 * @file
 * A bounded, thread-safe memo that computes each key once.
 *
 * The per-program memos (model::Checker's candidate enumerations, the
 * explorer pre-pass in analysis/sc.h) are shared by every engine
 * worker, and a worker pool reaches one program's cells together: at
 * budget 0 the three workers of an explore ask for the same program
 * at the same moment. A memo that only stored finished values would
 * let all of them miss. Here the first caller computes, and a caller
 * that asks for a key being computed waits for that result.
 *
 * Bounded by a coarse clear-at-capacity policy: callers visit
 * programs with strong locality (every chip and model of one program
 * back to back), so a small bound keeps nearly all reuse. A caller
 * waiting on an entry keeps it alive through a clear.
 */

#ifndef GPULITMUS_COMMON_MEMO_H
#define GPULITMUS_COMMON_MEMO_H

#include <cstddef>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

namespace gpulitmus {

template <typename V>
class OnceMemo
{
  public:
    using Value = std::shared_ptr<const V>;

    explicit OnceMemo(size_t capacity) : capacity_(capacity) {}

    /**
     * The value for `key`: `compute()`'s result, computed by the first
     * caller only. `hit` (optional) says whether this call reused a
     * value, finished or in flight, instead of computing it.
     */
    template <typename Fn>
    Value
    get(const std::string &key, Fn &&compute, bool *hit = nullptr)
    {
        std::promise<Value> promise;
        std::shared_future<Value> value;
        bool found = false;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            auto it = map_.find(key);
            if (it != map_.end()) {
                value = it->second;
                found = true;
            } else {
                if (map_.size() >= capacity_)
                    map_.clear();
                value = promise.get_future().share();
                map_.emplace(key, value);
            }
        }
        if (hit)
            *hit = found;
        if (!found) {
            try {
                promise.set_value(std::make_shared<const V>(compute()));
            } catch (...) {
                // Callers waiting now get the failure; a later caller
                // computes afresh instead of finding it.
                promise.set_exception(std::current_exception());
                std::lock_guard<std::mutex> lock(mutex_);
                map_.erase(key);
            }
        }
        return value.get();
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
    const size_t capacity_;
    mutable std::mutex mutex_;
    std::unordered_map<std::string, std::shared_future<Value>> map_;
};

} // namespace gpulitmus

#endif // GPULITMUS_COMMON_MEMO_H
