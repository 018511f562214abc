/**
 * @file
 * The outcome table: dense ids for the distinct outcomes of one test's
 * runs, shared by both searchers — the sampling harness
 * (harness::runJob) and the exhaustive explorer (mc::Explorer).
 *
 * A run's outcome, as users see it, is its outcome key
 * (litmus::Histogram::keyFor over the registers and locations the
 * final condition mentions). Rendering a key needs the string-keyed
 * final-state maps, which cost far more than the run's 128-bit
 * Machine::outcomeDigest(). The table memoises digest -> id, so only
 * the first run with a given digest materialises its final state,
 * renders the key and evaluates the condition; every repeat is one
 * hash probe. Ids are dense per distinct *key*: digests that differ
 * only in registers the condition does not mention share one id.
 */

#ifndef GPULITMUS_SIM_OUTCOMES_H
#define GPULITMUS_SIM_OUTCOMES_H

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "litmus/outcome.h"
#include "sim/machine.h"

namespace gpulitmus::sim {

class OutcomeTable
{
  public:
    explicit OutcomeTable(const litmus::Test &test);

    /** Id of the outcome of `machine`'s last completed run, memoised
     * by its outcomeDigest(). */
    uint32_t idOf(const Machine &machine);

    /** Id of a materialised final state, bypassing the digest memo
     * (the explorer's debug mode records every leaf this way). */
    uint32_t intern(const litmus::FinalState &state);

    /** The rendered outcome key of `id` (ids are dense from 0, in
     * order of first sight). */
    const std::string &key(uint32_t id) const { return *keys_[id]; }

    /** Does outcome `id` satisfy the condition body? The condition
     * reads only the keyed registers and locations, so this is a
     * property of the key. */
    bool satisfies(uint32_t id) const { return sat_[id] != 0; }

    /** Final states materialised so far (one per new digest, plus one
     * per intern() call). */
    uint64_t materialised() const { return materialised_; }

    /** Install per-id run counts (`counts[id]`) into `hist`: keys as
     * rendered, observed = the runs of satisfying ids. */
    void fill(litmus::Histogram &hist,
              const std::vector<uint64_t> &counts) const;

  private:
    const litmus::Test *test_;
    litmus::Histogram keyer_; ///< outcome-key renderer only
    std::unordered_map<Digest128, uint32_t, Digest128::Hasher>
        byDigest_;
    std::unordered_map<std::string, uint32_t> byKey_;
    std::vector<const std::string *> keys_; ///< id -> stored key
    std::vector<uint8_t> sat_;              ///< by id
    uint64_t materialised_ = 0;
};

} // namespace gpulitmus::sim

#endif // GPULITMUS_SIM_OUTCOMES_H
