/**
 * @file
 * Exhaustive sequentially-consistent enumeration of a litmus test:
 * every interleaving of the threads' instructions, each executing
 * atomically in program order against flat memory.
 *
 * This is the reference semantics the race analyzer's "fully ordered"
 * verdict promises: if no conflicting pair can be reordered, the weak
 * machine can only produce outcomes this enumerator also reaches. The
 * explorer pre-pass (prepass() below, run by eval::McBackend)
 * substitutes this result for a full weak-memory exploration on
 * fully-ordered programs, and tests/test_analysis.cc differentially
 * validates the substitution.
 */

#ifndef GPULITMUS_ANALYSIS_SC_H
#define GPULITMUS_ANALYSIS_SC_H

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>

#include "litmus/test.h"

namespace gpulitmus::analysis {

struct ScOptions
{
    /** Distinct-state budget; enumeration declines beyond it. */
    uint64_t maxStates = 1u << 20;
};

/** The SC-reachable outcome set of a test. */
struct ScResult
{
    /** Every interleaving terminates and was enumerated. False when
     * a spin loop admits non-terminating schedules — the result then
     * covers exactly the terminating executions, matching the
     * explorer's fairComplete semantics. */
    bool complete = false;
    /** Outcome key (litmus::Histogram::keyFor) -> number of distinct
     * terminal machine states rendering to it. */
    std::map<std::string, uint64_t> finals;
    /** Outcome keys whose final state satisfies the condition body. */
    std::set<std::string> satisfying;
    uint64_t states = 0; ///< distinct states visited
};

/**
 * Enumerate the SC outcomes of a test by graph search over
 * interpreter states. Returns std::nullopt when the state budget is
 * exhausted (callers fall back to full exploration).
 */
std::optional<ScResult> enumerateSc(const litmus::Test &test,
                                    ScOptions opts = {});

/** The explorer pre-pass's answer for one program. */
struct Prepass
{
    /** analyze() found no dangerous cycle. */
    bool fullyOrdered = false;
    /** When fully ordered and within the state budget: the SC
     * outcome set, which is then the exact reachable set. */
    std::optional<ScResult> sc;
};

/**
 * The pre-pass of a test: analyze(), then enumerateSc() when the
 * program is fully ordered. It reads only the program, so it runs
 * once per program: a process-wide memo keyed by Test::programText
 * answers every later cell of the same program (each chip, each
 * renamed copy such as mp@HD6570), and a caller asking for a program
 * being computed waits for that result (common/memo.h). Each call
 * ticks `analysis_prepass_total`, and a memo answer
 * `analysis_prepass_memo_hits_total`.
 */
std::shared_ptr<const Prepass> prepass(const litmus::Test &test);

/** Bound of the pre-pass memo: reaching it clears the memo. */
constexpr size_t kPrepassMemoCapacity = 64;

/** Entries in the pre-pass memo (for tests and instrumentation). */
size_t prepassCacheSize();
/** Drop every memoised pre-pass. */
void clearPrepassCache();

} // namespace gpulitmus::analysis

#endif // GPULITMUS_ANALYSIS_SC_H
