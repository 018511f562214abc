#include "cat/models.h"

namespace gpulitmus::cat::models {

std::string
rmoSource()
{
    // Fig. 15 of the paper, plus a single unscoped RMO constraint in
    // which every fence provides ordering (plain SPARC RMO).
    return R"CAT(
(* SPARC RMO, transcription of Fig. 15 *)
let com = rf | co | fr
let po-loc-llh = WW(po-loc) | WR(po-loc) | RW(po-loc)
acyclic (po-loc-llh | com) as sc-per-loc-llh
let dp = addr | data | ctrl
acyclic (dp | rf) as no-thin-air
let rmo(fence) = dp | fence | rfe | co | fr
let all-fence = membar.cta | membar.gl | membar.sys
acyclic rmo(all-fence) as rmo-constraint
)CAT";
}

std::string
ptxSource()
{
    // Fig. 15 concatenated with Fig. 16: RMO per scope.
    return R"CAT(
(* PTX model: RMO stratified by the GPU concurrency hierarchy.
   Transcription of Fig. 15 + Fig. 16 of the paper. *)
let com = rf | co | fr
let po-loc-llh = WW(po-loc) | WR(po-loc) | RW(po-loc)
acyclic (po-loc-llh | com) as sc-per-loc-llh
let dp = addr | data | ctrl
acyclic (dp | rf) as no-thin-air
let rmo(fence) = dp | fence | rfe | co | fr

let sys-fence = membar.sys
let gl-fence = membar.gl | sys-fence
let cta-fence = membar.cta | gl-fence
let rmo-cta = rmo(cta-fence) & cta
let rmo-gl = rmo(gl-fence) & gl
let rmo-sys = rmo(sys-fence) & sys
acyclic rmo-cta as cta-constraint
acyclic rmo-gl as gl-constraint
acyclic rmo-sys as sys-constraint
)CAT";
}

std::string
scSource()
{
    return R"CAT(
(* Sequential consistency: po and communication form a total order *)
let com = rf | co | fr
acyclic (po | com) as sc
)CAT";
}

std::string
tsoSource()
{
    return R"CAT(
(* x86-TSO-like: write-to-read program order relaxed, buffers
   forwarded locally *)
let com = rf | co | fr
acyclic (po-loc | com) as sc-per-loc
let ppo = po \ WR(po)
let all-fence = membar.cta | membar.gl | membar.sys
acyclic (ppo | all-fence | rfe | co | fr) as tso
)CAT";
}

std::string
scPerLocFullSource()
{
    return R"CAT(
(* Full SC-per-location *including* read-read pairs. Unsound for
   Fermi/Kepler, which exhibit coRR (Fig. 1): ablation of the
   load-load-hazard relaxation of Sec. 5.2.2. *)
let com = rf | co | fr
acyclic (po-loc | com) as sc-per-loc
)CAT";
}

// One function-local static per model: C++ initialises each exactly
// once, thread-safely, so concurrent first uses (the daemon's client
// threads) never race.

const Model &
ptx()
{
    static const Model model = Model::parseOrDie(ptxSource(), "ptx");
    return model;
}

const Model &
rmo()
{
    static const Model model = Model::parseOrDie(rmoSource(), "rmo");
    return model;
}

const Model &
sc()
{
    static const Model model = Model::parseOrDie(scSource(), "sc");
    return model;
}

const Model &
tso()
{
    static const Model model = Model::parseOrDie(tsoSource(), "tso");
    return model;
}

const Model &
scPerLocFull()
{
    static const Model model =
        Model::parseOrDie(scPerLocFullSource(), "sc-per-loc-full");
    return model;
}

std::vector<std::pair<std::string, const Model *>>
all()
{
    return {
        {"ptx", &ptx()},
        {"rmo", &rmo()},
        {"sc", &sc()},
        {"tso", &tso()},
        {"sc-per-loc-full", &scPerLocFull()},
    };
}

} // namespace gpulitmus::cat::models
