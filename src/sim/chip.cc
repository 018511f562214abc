#include "sim/chip.h"

#include "common/log.h"

namespace gpulitmus::sim {

namespace {

std::vector<ChipProfile>
buildChips()
{
    std::vector<ChipProfile> chips;

    {
        // Tesla GTX 280 (2008): the paper observed no weak behaviours
        // on it (footnote 7) and omits it from the result tables.
        ChipProfile c;
        c.shortName = "GTX280";
        c.chipName = "GTX 280";
        c.vendor = "Nvidia";
        c.arch = "Tesla";
        c.year = 2008;
        c.sdk = "5.5";
        c.driver = "331.20";
        c.options = "sm_13";
        c.numSMs = 30;
        chips.push_back(c);
    }

    {
        // Fermi GTX 540m: coRR and mp-volatile weak; mp-L1 weak but
        // any fence restores it (Fig. 3); the same-SM L1 path needs a
        // .gl fence (Fig. 4: membar.cta leaves 1934/100k); none of
        // the RMW-based tests (Figs. 7, 8, 9, 11) observed.
        ChipProfile c;
        c.shortName = "GTX5";
        c.chipName = "GTX 540m";
        c.vendor = "Nvidia";
        c.arch = "Fermi";
        c.year = 2011;
        c.sdk = "5.5";
        c.driver = "331.20";
        c.options = "sm_21";
        c.numSMs = 2;
        c.allowCoRR = true;
        c.corrPass = 0.65;
        c.sharedPass = 0.16;
        c.ctaFenceInterBlock = 1.0;
        c.l1WarmProb = 0.25;
        c.l1StaleServe = 0.85;
        c.invalInter = {1.0, 1.0, 1.0};   // any fence fixes Fig. 3
        c.invalSame = {0.25, 1.0, 1.0};   // .cta insufficient in Fig. 4
        c.cgLoadEvicts = 0.80; // usually, not reliably (Fig. 4)
        chips.push_back(c);
    }

    {
        // Fermi Tesla C2075: the weakest chip in the study; no fence
        // restores L1 coherence on either path (Figs. 3 and 4), and
        // all the RMW-based tests are observed.
        ChipProfile c;
        c.shortName = "TesC";
        c.chipName = "Tesla C2075";
        c.vendor = "Nvidia";
        c.arch = "Fermi";
        c.year = 2011;
        c.sdk = "5.5";
        c.driver = "334.16";
        c.options = "sm_20";
        c.numSMs = 14;
        c.allowCoRR = true;
        c.corrPass = 0.50;
        c.rwPass = 0.075;
        c.rrPass = 0.05;
        c.sharedPass = 0.13;
        c.ctaFenceInterBlock = 1.0;
        c.storeBuffer = true;
        c.drainLaziness = 0.08;
        c.drainOutOfOrder = 0.22;
        c.atomFlush = 0.80;
        c.l1WarmProb = 0.58;
        c.l1StaleServe = 0.92;
        c.invalInter = {0.97, 0.98, 0.985}; // no fence fully fixes
        c.invalSame = {0.27, 0.50, 0.52};
        c.cgLoadEvicts = 0.97; // usually, not reliably (Fig. 4)
        chips.push_back(c);
    }

    {
        // Kepler GTX 660.
        ChipProfile c;
        c.shortName = "GTX6";
        c.chipName = "GTX 660";
        c.vendor = "Nvidia";
        c.arch = "Kepler";
        c.year = 2012;
        c.sdk = "5.0";
        c.driver = "331.67";
        c.options = "sm_30";
        c.numSMs = 5;
        c.allowCoRR = true;
        c.corrPass = 0.55;
        c.rwPass = 0.040;
        c.rrPass = 0.018;
        c.sharedPass = 0.07;
        c.ctaFenceInterBlock = 0.996; // lb+membar.ctas: 19/100k
        c.storeBuffer = true;
        c.drainLaziness = 0.05;
        c.drainOutOfOrder = 0.45;
        c.atomFlush = 0.85;
        c.l1WarmProb = 0.24;
        c.l1StaleServe = 0.9;
        c.invalInter = {0.9996, 1.0, 1.0};
        c.invalSame = {1.0, 1.0, 1.0};
        c.cgLoadEvicts = 0.999;  // Kepler honours the manual
        c.cgStoreEvicts = 0.9998; // Fig. 4 nearly silent (obs 2)
        chips.push_back(c);
    }

    {
        // Kepler GTX Titan: the chip of Tab. 6; strong store-buffer
        // effects (sb up to 6673/100k) and the Sec. 6 lb+membar.ctas
        // counterexample (586/100k).
        ChipProfile c;
        c.shortName = "Titan";
        c.chipName = "GTX Titan";
        c.vendor = "Nvidia";
        c.arch = "Kepler";
        c.year = 2013;
        c.sdk = "6.0";
        c.driver = "331.62";
        c.options = "sm_35";
        c.numSMs = 14;
        c.allowCoRR = true;
        c.corrPass = 0.55;
        c.rwPass = 0.220;
        c.rrPass = 0.090;
        c.sharedPass = 0.06;
        c.ctaFenceInterBlock = 0.74; // lb 2247 -> lb+ctas 586
        c.storeBuffer = true;
        c.drainLaziness = 0.15;
        c.drainOutOfOrder = 0.50;
        c.atomFlush = 0.40;
        c.l1WarmProb = 0.42;
        c.l1StaleServe = 0.9;
        c.invalInter = {0.78, 1.0, 1.0}; // membar.cta leaves 1696
        c.invalSame = {0.999, 1.0, 1.0}; // Fig. 4: 141 -> 0 with .cta
        c.cgLoadEvicts = 0.0;  // Fig. 4 observed without fences
        c.cgStoreEvicts = 0.995;
        chips.push_back(c);
    }

    {
        // Maxwell GTX 750: essentially strong in the paper's tests
        // (only mp-L1 with no fence shows 3/100k); the CUDA 5.5
        // volatile-load reordering of Sec. 4.4 was found on Maxwell.
        ChipProfile c;
        c.shortName = "GTX7";
        c.chipName = "GTX 750";
        c.vendor = "Nvidia";
        c.arch = "Maxwell";
        c.year = 2014;
        c.sdk = "6.0";
        c.driver = "331.62";
        c.options = "sm_50";
        c.numSMs = 4;
        c.l1WarmProb = 0.004;
        c.l1StaleServe = 0.03;
        c.invalInter = {1.0, 1.0, 1.0};
        c.invalSame = {1.0, 1.0, 1.0};
        c.cgLoadEvicts = 1.0;
        c.cgStoreEvicts = 1.0;
        c.cuda55ReordersVolatileLoads = true;
        chips.push_back(c);
    }

    {
        // AMD TeraScale 2 (Radeon HD 6570): no coRR; mp weak without
        // fences, fixed by OpenCL global fences; cas-sl observed; the
        // compiler reorders a load past a CAS (dlb-lb "n/a").
        ChipProfile c;
        c.shortName = "HD6570";
        c.chipName = "Radeon HD 6570";
        c.vendor = "AMD";
        c.arch = "TeraScale 2";
        c.year = 2011;
        c.sdk = "2.9";
        c.driver = "14.4";
        c.options = "default";
        c.numSMs = 8;
        c.reorderNeedsStress = false;
        c.rrPass = 0.12;   // reader-side mp (9327/100k unfenced)
        c.wwPass = 0.04;
        c.atomPass = 0.045; // cas-sl 508
        c.amdReordersLoadCas = true;
        c.amdCoalescesRepeatedLoads = true;
        chips.push_back(c);
    }

    {
        // AMD GCN 1.0 (Radeon HD 7970): massive load buffering (up to
        // 38664/100k in Tab. 6), modest mp, sb only under bank
        // conflicts; the compiler removes fences between loads.
        ChipProfile c;
        c.shortName = "HD7970";
        c.chipName = "Radeon HD 7970";
        c.vendor = "AMD";
        c.arch = "GCN 1.0";
        c.year = 2012;
        c.sdk = "2.9";
        c.driver = "14.4";
        c.options = "default";
        c.numSMs = 32;
        c.reorderNeedsStress = false;
        c.rwPass = 0.85;
        c.rrPass = 0.030;
        c.wwPass = 0.030;
        c.wrPassBank = 0.00002;
        c.atomPass = 0.070; // cas-sl 748
        c.amdRemovesFenceBetweenLoads = true;
        c.amdCoalescesRepeatedLoads = true;
        chips.push_back(c);
    }

    return chips;
}

} // anonymous namespace

const std::vector<ChipProfile> &
allChips()
{
    static std::vector<ChipProfile> chips = buildChips();
    return chips;
}

std::vector<ChipProfile>
resultChips()
{
    std::vector<ChipProfile> out;
    for (const auto &c : allChips()) {
        if (c.shortName != "GTX280")
            out.push_back(c);
    }
    return out;
}

const ChipProfile *
findChip(const std::string &name)
{
    for (const auto &c : allChips()) {
        if (c.shortName == name || c.chipName == name)
            return &c;
    }
    return nullptr;
}

const ChipProfile &
chip(const std::string &short_name)
{
    if (const ChipProfile *c = findChip(short_name))
        return *c;
    fatal("unknown chip '%s'", short_name.c_str());
}

} // namespace gpulitmus::sim
