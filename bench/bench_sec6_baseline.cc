/**
 * @file
 * Regenerates the Sec. 6 baseline comparison: the operational model
 * of Sorensen et al. forbids the inter-CTA lb+membar.ctas test, but
 * hardware observes it (586/100k on GTX Titan, 19/100k on GTX 660) —
 * so that model is unsound. The paper's axiomatic PTX model allows
 * the test (the membar.cta edges do not join the inter-CTA rfe edges
 * at any single scope), so it stays sound.
 */

#include "bench_util.h"
#include "cat/models.h"
#include "litmus/library.h"
#include "model/baseline.h"
#include "model/checker.h"

using namespace gpulitmus;

int
main()
{
    benchutil::printHeader(
        "Sec. 6 - unsoundness of the operational baseline model",
        "inter-CTA lb with membar.cta between all accesses"
        " (lb+membar.ctas)");

    litmus::Test test = litmus::paperlib::lbMembarCtas();

    model::Checker ptx_checker(cat::models::ptx());
    model::Checker op_checker(model::operationalBaseline());
    auto ptx_verdict = ptx_checker.check(test);
    auto op_verdict = op_checker.check(test);

    Table table;
    table.header({"", "GTX6", "Titan", "ptx model",
                  "operational baseline"});
    std::vector<std::string> measured{"lb+membar.ctas (sim)"};
    serve::Plan plan;
    for (const auto &r : benchutil::run(
             benchutil::request("sweep", {benchutil::inCodeTest(test)},
                                {sim::chip("GTX6"), sim::chip("Titan")}),
             plan))
        measured.push_back(std::to_string(r.observedPer100k));
    measured.push_back(ptx_verdict.conditionSatisfiable
                           ? "allowed"
                           : "forbidden");
    measured.push_back(op_verdict.conditionSatisfiable ? "allowed"
                                                       : "forbidden");
    table.row(measured);
    table.row({"lb+membar.ctas (paper)", "19", "586", "allowed",
               "forbidden"});
    table.print(std::cout);

    std::cout << "\nThe operational baseline forbids a behaviour the"
                 " (simulated) hardware exhibits: it is unsound."
                 " The PTX model of Sec. 5 allows it: sound.\n";
    return 0;
}
