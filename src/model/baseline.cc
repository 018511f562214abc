#include "model/baseline.h"

namespace gpulitmus::model {

std::string
operationalBaselineSource()
{
    return R"CAT(
(* Axiomatic rendering of the Sorensen et al. operational model:
   fences drain the issuing core's buffers irrespective of scope, so
   every membar orders globally. Unsound w.r.t. hardware; see Sec. 6
   of the paper and its row in bench/paper_ledger.h. *)
let com = rf | co | fr
let po-loc-llh = WW(po-loc) | WR(po-loc) | RW(po-loc)
acyclic (po-loc-llh | com) as sc-per-loc-llh
let dp = addr | data | ctrl
acyclic (dp | rf) as no-thin-air
let any-fence = membar.cta | membar.gl | membar.sys
acyclic (dp | any-fence | rfe | co | fr) as buffer-drain-order
)CAT";
}

const cat::Model &
operationalBaseline()
{
    static cat::Model model = cat::Model::parseOrDie(
        operationalBaselineSource(), "sorensen-operational");
    return model;
}

} // namespace gpulitmus::model
