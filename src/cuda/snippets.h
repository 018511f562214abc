/**
 * @file
 * The published CUDA snippets the paper audits, distilled to PTX
 * litmus tests through the Tab. 5 mapping:
 *
 * - the CUDA by Example spin lock (Fig. 2) -> cas-sl (Fig. 9);
 * - the Cederman-Tsigas work-stealing deque (Fig. 6) -> dlb-mp
 *   (Fig. 7) and dlb-lb (Fig. 8);
 * - the He-Yu database spin lock (Fig. 10) -> sl-future (Fig. 11).
 *
 * Each distillation is PTX thread text for litmus::TestBuilder: every
 * CUDA construct is written by cuda::translate from its Tab. 5 row,
 * and the control flow as setp and guarded instructions. So the tests
 * in litmus/library.h are reproduced from the CUDA side (the test
 * suite asserts the equivalence).
 */

#ifndef GPULITMUS_CUDA_SNIPPETS_H
#define GPULITMUS_CUDA_SNIPPETS_H

#include "litmus/test.h"

namespace gpulitmus::cuda {

/** cas-sl distilled from the CUDA by Example lock of Fig. 2. */
litmus::Test distillCasSpinLock(bool with_fences);

/** dlb-mp distilled from the deque's push/steal pair (Fig. 6). */
litmus::Test distillDequeMp(bool with_fences);

/** dlb-lb distilled from the deque's pop/steal pair (Fig. 6). */
litmus::Test distillDequeLb(bool with_fences);

/** sl-future distilled from the He-Yu lock of Fig. 10. */
litmus::Test distillHeYuLock(bool fixed);

/** The CUDA source of Fig. 2 (with or without the (+) fences), for
 * documentation and the examples. */
std::string casSpinLockSource(bool with_fences);

/** The CUDA source of Fig. 6 (deque excerpts). */
std::string dequeSource(bool with_fences);

/** The CUDA source of Fig. 10 (He-Yu lock). */
std::string heYuLockSource(bool fixed);

} // namespace gpulitmus::cuda

#endif // GPULITMUS_CUDA_SNIPPETS_H
