/**
 * @file
 * The built-in .cat models.
 *
 * - ptx(): the paper's model of Nvidia GPUs (Fig. 15 + Fig. 16):
 *   SPARC RMO with the load-load hazard relaxation, no-thin-air, and
 *   one RMO constraint per scope (cta / gl / sys).
 * - rmo(): plain (unscoped) SPARC RMO as in Fig. 15 with a single
 *   constraint where every fence orders — the paper's CPU baseline.
 * - sc(): sequential consistency (Lamport), for reference.
 * - tso(): an x86-TSO-like model, for reference.
 * - scPerLocFull(): full SC-per-location *including* read-read pairs;
 *   unsound for coRR-observing chips (ablation of Sec. 5.2.2).
 * - baseline(): the comparison baseline of Sec. 6, an axiomatic
 *   rendering of the operational Nvidia model of Sorensen et al.
 *   (ICS 2013). Its fences drain the issuing core's buffers whatever
 *   their scope, so a membar.cta orders globally. The paper shows it
 *   unsound: inter-CTA lb+membar.ctas is forbidden by the model but
 *   observed 586 times on GTX Titan (and 19 times on GTX 660) per
 *   100k runs. Listed as `baseline`; the model's own name is
 *   `sorensen-operational`.
 */

#ifndef GPULITMUS_CAT_MODELS_H
#define GPULITMUS_CAT_MODELS_H

#include <string>
#include <vector>

#include "cat/cat.h"

namespace gpulitmus::cat::models {

/** Source text of each built-in model. */
std::string ptxSource();
std::string rmoSource();
std::string scSource();
std::string tsoSource();
std::string scPerLocFullSource();
std::string baselineSource();

/** Parsed singletons (parsed once, shared). */
const Model &ptx();
const Model &rmo();
const Model &sc();
const Model &tso();
const Model &scPerLocFull();
const Model &baseline();

/** All built-in models with the ids they are listed and resolved
 * by (a backend id, e.g. `--models ptx,baseline`). */
std::vector<std::pair<std::string, const Model *>> all();

} // namespace gpulitmus::cat::models

#endif // GPULITMUS_CAT_MODELS_H
