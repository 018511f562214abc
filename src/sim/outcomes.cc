#include "sim/outcomes.h"

#include <map>

namespace gpulitmus::sim {

OutcomeTable::OutcomeTable(const litmus::Test &test)
    : test_(&test), keyer_(test)
{
}

uint32_t
OutcomeTable::idOf(const Machine &machine)
{
    auto [it, fresh] = byDigest_.try_emplace(machine.outcomeDigest(), 0);
    if (fresh)
        it->second = intern(machine.finalState());
    return it->second;
}

uint32_t
OutcomeTable::intern(const litmus::FinalState &state)
{
    ++materialised_;
    auto [it, fresh] = byKey_.emplace(
        keyer_.keyFor(state), static_cast<uint32_t>(keys_.size()));
    if (fresh) {
        keys_.push_back(&it->first);
        sat_.push_back(0);
    }
    if (test_->condition.eval(state))
        sat_[it->second] = 1;
    return it->second;
}

void
OutcomeTable::fill(litmus::Histogram &hist,
                   const std::vector<uint64_t> &counts) const
{
    std::map<std::string, uint64_t> by_key;
    uint64_t observed = 0, total = 0;
    for (uint32_t id = 0; id < counts.size(); ++id) {
        if (counts[id] == 0)
            continue;
        by_key[key(id)] = counts[id];
        total += counts[id];
        if (satisfies(id))
            observed += counts[id];
    }
    hist.restore(std::move(by_key), observed, total);
}

} // namespace gpulitmus::sim
