/**
 * @file
 * Chip profiles: the micro-architectural parameters that make the
 * simulated GPUs of Tab. 1 exhibit (or not exhibit) each weak
 * behaviour.
 *
 * The paper measures real silicon; we have none, so each chip is a
 * parameter point of the operational machine in machine.h. The
 * *mechanisms* (store buffers, non-coherent L1s, out-of-order commit
 * windows, scoped fences) are shared; the per-chip numbers are fitted
 * so the observation tables reproduce the paper's shape: which chip
 * is weak on which idiom, and which fence restores order. The fits
 * are documented per field; see DESIGN.md for the substitution
 * rationale.
 */

#ifndef GPULITMUS_SIM_CHIP_H
#define GPULITMUS_SIM_CHIP_H

#include <string>
#include <vector>

#include "ptx/types.h"

namespace gpulitmus::sim {

/** Probability of L1 invalidation per fence scope (cta, gl, sys). */
struct InvalProbs
{
    double cta = 1.0;
    double gl = 1.0;
    double sys = 1.0;

    double
    at(ptx::Scope s) const
    {
        switch (s) {
          case ptx::Scope::Cta: return cta;
          case ptx::Scope::Gl: return gl;
          case ptx::Scope::Sys: return sys;
        }
        return 1.0;
    }
};

struct ChipProfile
{
    // ---- identity (Tab. 1 / Tab. 4) --------------------------------
    std::string shortName; ///< e.g. "Titan"
    std::string chipName;  ///< e.g. "GTX Titan"
    std::string vendor;    ///< "Nvidia" or "AMD"
    std::string arch;      ///< "Fermi", "Kepler", ...
    int year = 0;
    std::string sdk;       ///< SDK version used (Tab. 4)
    std::string driver;    ///< driver version (Tab. 4)
    std::string options;   ///< -arch option (Tab. 4)

    int numSMs = 8; ///< streaming multiprocessors / compute units

    // ---- commit-window relaxations ----------------------------------
    /** Same-address read-read reordering (the coRR load-load hazard,
     * Fig. 1). Fermi/Kepler true; Maxwell and AMD false. */
    bool allowCoRR = false;
    /** Probability a younger same-address load overtakes when jitter
     * (memory stress or bank conflicts) is present. */
    double corrPass = 0.0;
    /** Probability a younger store overtakes an older load to a
     * different location (load buffering; needs memory stress). */
    double rwPass = 0.0;
    /** Probability a younger load overtakes an older load, different
     * locations (reader-side mp; needs memory stress). */
    double rrPass = 0.0;
    /** Probability a younger store overtakes an older store when the
     * chip has no store buffer (AMD writer-side mp). */
    double wwPass = 0.0;
    /** Probability a younger load overtakes an older store
     * (bufferless sb path; on GCN only under bank conflicts). */
    double wrPass = 0.0;
    /** wrPass contribution that requires the bank-conflict
     * incantation (HD7970 sb, Tab. 6). */
    double wrPassBank = 0.0;
    /** Probability an atomic overtakes an older plain store (AMD
     * cas-sl path; Nvidia gets cas-sl from the store buffer). */
    double atomPass = 0.0;
    /** Window reordering of shared-memory accesses; volatile does not
     * inhibit it (mp-volatile, Fig. 5). */
    double sharedPass = 0.0;

    /** Probability an *inter-CTA-transparent* membar.cta still blocks
     * the window (lb+membar.ctas observed ~4x less than lb on Titan,
     * Sec. 6). */
    double ctaFenceInterBlock = 0.75;
    /** Nvidia's window machinery only engages under memory stress
     * (Tab. 6 columns 1-8 are all zero on Titan); AMD exhibits weak
     * behaviours without it (Sec. 4.3.1). */
    bool reorderNeedsStress = true;

    // ---- store buffer (per SM, Nvidia) ------------------------------
    bool storeBuffer = false;
    /** Probability the drain actor defers when picked under memory
     * stress (visibility delay; drives sb and cas-sl magnitudes). */
    double drainLaziness = 0.0;
    /** Probability a drain picks a younger (different-address) entry
     * first (writer-side mp / dlb-mp). */
    double drainOutOfOrder = 0.0;
    /** Probability an atomic flushes the SM's store buffer before it
     * acts at the L2 (atomics serialise against pending stores on
     * some chips; scales the cas-sl magnitudes of Fig. 9). */
    double atomFlush = 0.0;

    // ---- L1 behaviour (.ca loads, Nvidia) ---------------------------
    /** Probability a testing location is warm in an SM's L1 at
     * iteration start (models residue of previous iterations). */
    double l1WarmProb = 0.0;
    /** Probability a stale-marked line keeps serving its old value at
     * a .ca hit (per read) under memory stress. */
    double l1StaleServe = 0.0;
    /** Fence-invalidation probabilities for lines staled by *other*
     * SMs' stores (mp-L1, Fig. 3). */
    InvalProbs invalInter;
    /** Fence-invalidation probabilities for lines staled by stores
     * from the *same* SM (coRR-L2-L1, Fig. 4). */
    InvalProbs invalSame;
    /** ld.cg evicts a matching L1 line ("existing cache lines ...
     * will be evicted", PTX manual p. 121; reliable on Kepler only). */
    double cgLoadEvicts = 0.0;
    /** st.cg evicts the issuing SM's matching L1 line. */
    double cgStoreEvicts = 0.0;

    // ---- compiler quirks (consumed by the opt module) ----------------
    /** CUDA 5.5 reorders volatile loads to the same address at -O3
     * (Sec. 4.4, observed on Maxwell). */
    bool cuda55ReordersVolatileLoads = false;
    /** AMD OpenCL removes fences between loads (GCN 1.0, Sec 3.1.2). */
    bool amdRemovesFenceBetweenLoads = false;
    /** AMD OpenCL reorders a load past a CAS (TeraScale 2, Fig. 8's
     * "n/a" cell). */
    bool amdReordersLoadCas = false;
    /** AMD OpenCL coalesces repeated loads of one location unless
     * suppressed (Sec. 4.4). */
    bool amdCoalescesRepeatedLoads = false;

    bool isNvidia() const { return vendor == "Nvidia"; }
    bool isAmd() const { return vendor == "AMD"; }
};

/** All chips of Tab. 1 in paper order (including the GTX 280, which
 * showed no weak behaviours and is omitted from the result tables). */
const std::vector<ChipProfile> &allChips();

/** The chips that appear in the paper's per-test result rows. */
std::vector<ChipProfile> resultChips();

/** Look up by short name ("GTX5", "TesC", ..., "HD7970") or chip
 * name; null if unknown. */
const ChipProfile *findChip(const std::string &name);

/** findChip, fatal if unknown. */
const ChipProfile &chip(const std::string &short_name);

} // namespace gpulitmus::sim

#endif // GPULITMUS_SIM_CHIP_H
