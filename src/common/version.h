/**
 * @file
 * The compiled-in code-version / result-schema stamp.
 *
 * Persisted verdicts are only reusable between binaries that would
 * have computed them identically. Three things can silently change a
 * result between builds: the simulator/explorer semantics, the
 * outcome-key rendering, and the digest construction itself
 * (common/hash.h documents that its constants are not a serialisation
 * format). kAbiVersion names the equivalence class: two binaries with
 * the same stamp promise bit-identical results for the same job.
 *
 * Bump the number whenever any of those change:
 *  - machine/explorer behaviour for an existing job (new ChoiceKind,
 *    changed chip fit, changed pruning that alters results),
 *  - job digest or store record encoding (serve/store.h),
 *  - outcome-key or verdict rendering,
 *  - Hash128/Digest128 constants.
 *
 * The stamp is folded into every persistent job digest AND written
 * into the store file header, so a stale store is detected even if
 * the digest function itself is what changed. It is also reported by
 * `gpulitmus list --json` and the serve `hello` handshake so clients
 * can refuse to mix incompatible daemons.
 */

#ifndef GPULITMUS_COMMON_VERSION_H
#define GPULITMUS_COMMON_VERSION_H

namespace gpulitmus {

/** Result-equivalence generation (see file header for bump rules).
 * 2: the mc backend's static pre-pass (analysis/) answers
 * fully-ordered programs from SC enumeration, changing the stored
 * search statistics and path weights for those jobs.
 * 3: the explorer issues eagerly (commit, then issue to the next
 * block point), changing the stored replays, states and path
 * weights of explored jobs; reachable sets are unchanged.
 * 4: dead-L1 pruning (the explorer pins the L1 draws of a test with
 * no ld.ca) changes the stored replays, states and path weights of
 * explored jobs; reachable sets are unchanged. */
inline constexpr int kAbiVersion = 4;

/** The stamp as written into store headers, handshakes and JSON. */
inline constexpr const char *kAbiVersionString = "gpulitmus-abi-4";

} // namespace gpulitmus

#endif // GPULITMUS_COMMON_VERSION_H
