/**
 * @file
 * The built-in scenario catalog: the paper's audited applications
 * (Sec. 3.2) plus the classic GPU synchronisation idioms the
 * workgroup-progress literature catalogues, each a litmus::Test whose
 * bug is the forbidden (`~exists`) final condition. The threads are
 * PTX text through litmus::TestBuilder, as in the paper library; the
 * two scenarios that are paper-library tests (cas-sl, dlb-mp) are
 * taken from it and renamed.
 *
 * These constructors back the registry entries in registry.cc; they
 * are exposed directly for the examples, the benches and the tests.
 */

#ifndef GPULITMUS_SCENARIO_CATALOG_H
#define GPULITMUS_SCENARIO_CATALOG_H

#include "litmus/test.h"

namespace gpulitmus::scenario {

/**
 * The CUDA by Example spin lock distilled (Fig. 2 -> Fig. 9), i.e.
 * paperlib::casSl: T0 unlocks after writing data, T1 locks and reads
 * it. Forbidden: the lock was acquired yet the read returned stale
 * data — the bug of Nvidia's erratum. Straight-line (the lock
 * acquisition is the single CAS of the distillation).
 */
litmus::Test casSpinlock(bool fenced);

/**
 * The dot-product client of CUDA by Example App 1.2: `threads` CTAs
 * (2..6) each add their local sum (tid + 1) to a global accumulator
 * under the *full* spin lock (CAS loop, critical section, release).
 * Forbidden: the final sum is wrong — an update was lost to a stale
 * read inside the critical section.
 */
litmus::Test spinlockDotProduct(int threads, bool fenced);

/**
 * The Cederman-Tsigas work-stealing deque, push/steal pair (Fig. 6
 * -> Fig. 7), i.e. paperlib::dlbMp: forbidden, the thief observed the
 * pushed tail but read an empty task slot — the deque lost a task.
 */
litmus::Test workStealingDeque(bool fenced);

/**
 * A ticket lock protecting an accumulator: each thread draws a
 * ticket (atom.inc), spins until served, adds tid + 1 to the sum and
 * publishes the next ticket. Forbidden: the final sum is wrong.
 */
litmus::Test ticketLock(bool fenced);

/**
 * A one-slot producer/consumer ring: the producer fills the slot and
 * publishes the head; the consumer spins on the head, then reads the
 * slot. Forbidden: the consumer read an empty slot after seeing the
 * published head (message passing through a spin loop).
 */
litmus::Test producerConsumerRing(bool fenced);

/**
 * A two-thread flag barrier: each thread writes its data, raises its
 * flag, spins on the other's flag, then reads the other's data.
 * Forbidden: either thread read stale data after the barrier.
 */
litmus::Test flagBarrier(bool fenced);

/**
 * A seqlock: the writer bumps the sequence odd, writes both data
 * words, bumps it even; the reader samples the sequence around its
 * reads. Forbidden: the reader saw a stable even sequence yet torn
 * (stale) data.
 */
litmus::Test seqlock(bool fenced);

} // namespace gpulitmus::scenario

#endif // GPULITMUS_SCENARIO_CATALOG_H
