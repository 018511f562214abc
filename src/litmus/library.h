/**
 * @file
 * The built-in library of litmus tests from the paper: every figure's
 * test, the Tab. 3 idioms, and the Sec. 6 counterexample against the
 * operational baseline model.
 *
 * Naming follows the paper: coRR (Fig. 1), mp-L1 (Fig. 3),
 * coRR-L2-L1 (Fig. 4), mp-volatile (Fig. 5), dlb-mp (Fig. 7),
 * dlb-lb (Fig. 8), cas-sl (Fig. 9), sl-future (Fig. 11),
 * lb+deps-xor / lb+deps-and (Fig. 13), mp-fig14 (Fig. 14), and the
 * classic idioms mp / sb / lb / coRR over global memory.
 */

#ifndef GPULITMUS_LITMUS_LIBRARY_H
#define GPULITMUS_LITMUS_LIBRARY_H

#include <optional>
#include <vector>

#include "litmus/test.h"
#include "ptx/types.h"

namespace gpulitmus::litmus::paperlib {

/** Fence choice for parameterised tests: nullopt = no fence. */
using FenceOpt = std::optional<ptx::Scope>;

/** Fig. 1: read-read coherence, intra-CTA, global memory. */
Test coRR();

/** Fig. 3: mp with L1 (.ca) loads and .cg stores, inter-CTA. */
Test mpL1(FenceOpt fence);

/** Fig. 4: coRR mixing .cg then .ca loads, intra-CTA. */
Test coRRL2L1(FenceOpt fence);

/** Fig. 5: mp with volatile accesses in shared memory, intra-CTA. */
Test mpVolatile();

/** Fig. 7: message passing distilled from the load-balancing deque. */
Test dlbMp(bool with_fences);

/** Fig. 8: load buffering distilled from the load-balancing deque. */
Test dlbLb(bool with_fences);

/** Fig. 9: spin lock using compare-and-swap (CUDA by Example). */
Test casSl(bool with_fences);

/** Fig. 11: spin lock future-value test (He–Yu). */
Test slFuture(bool fixed);

/** Tab. 3 idiom: message passing over global memory (.cg). */
Test mp(FenceOpt fence = std::nullopt, bool inter_cta = true);

/** Tab. 3 idiom: store buffering over global memory (.cg). */
Test sb(FenceOpt fence = std::nullopt, bool inter_cta = true);

/** Tab. 3 idiom: load buffering over global memory (.cg). */
Test lb(FenceOpt fence = std::nullopt, bool inter_cta = true);

/** Sec. 6: inter-CTA lb with membar.cta between all accesses — the
 * test that shows the Sorensen et al. operational model unsound. */
Test lbMembarCtas();

/** Sec. 3.1.2 fix: mp with .cg operators and membar.gl fences. */
Test mpMembarGls();

/** The exact sb test of Fig. 12, with x shared and y global. */
Test sbFig12();

/** Fig. 13: inter-CTA lb whose stores' addresses depend on the loads,
 * the dependency made by (a) xor r2,r1,r1, which ptxas -O3 proves zero
 * and removes, or (b) and r2,r1,0x80000000, which it keeps. */
Test lbDeps(bool xor_scheme);

/** Fig. 14: intra-CTA mp with membar.cta on the writer and membar.gl
 * on the reader; the model forbids the weak outcome (cta-constraint). */
Test mpFig14();

/** A named paper test for registries and sweep drivers. */
struct NamedTest
{
    std::string id;      ///< e.g. "coRR", "mp-L1+membar.gl"
    std::string section; ///< paper cross-reference
    Test test;
};

/** All library tests (each fence variant separately). */
std::vector<NamedTest> allTests();

} // namespace gpulitmus::litmus::paperlib

#endif // GPULITMUS_LITMUS_LIBRARY_H
