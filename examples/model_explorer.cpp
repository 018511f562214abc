/**
 * @file
 * Explore the axiomatic side through the unified eval backend API:
 * resolve a model backend by name (built-in or a .cat file path),
 * evaluate the test through it, then enumerate every candidate
 * execution and print the Fig. 14-style event graphs with the
 * forbidding cycles.
 *
 * Usage: model_explorer [test] [model-backend]
 *   test: a paper-library id (default mp-fig14, the execution of
 *         Fig. 14), a .litmus path or a scenario spec, resolved as the
 *         gpulitmus CLI resolves it; `gpulitmus list` names them
 *   model-backend: ptx | rmo | sc | tso | sc-per-loc-full | baseline
 *                  | path/to/model.cat
 */

#include <iostream>
#include <string>

#include "axiom/enumerate.h"
#include "eval/backend.h"
#include "model/checker.h"
#include "serve/protocol.h"

using namespace gpulitmus;

int
main(int argc, char **argv)
{
    std::string test_name = argc > 1 ? argv[1] : "mp-fig14";
    std::string model_name = argc > 2 ? argv[2] : "ptx";

    // An unknown test or model name is a hard error (with the valid
    // names listed), never a silent fallback.
    std::string error;
    auto spec = serve::testSpecFor(test_name, &error);
    auto loaded = spec ? serve::resolveTest(*spec, &error) : std::nullopt;
    if (!loaded) {
        std::cerr << "error: " << error << "\n";
        return 1;
    }
    const litmus::Test &test = loaded->test;
    if (!model::inModelScope(test)) {
        std::cerr << "error: '" << test_name
                  << "' is outside the model scope (.ca/volatile/loops,"
                     " Sec. 5.5)\n";
        return 1;
    }
    auto axiom_backend = eval::modelBackendByName(model_name, &error);
    if (!axiom_backend) {
        std::cerr << "error: " << error << "\n";
        return 1;
    }
    const cat::Model &model = axiom_backend->model();

    // The one-call evaluation the harness uses for campaigns.
    eval::EvalJob job;
    job.backend = model_name;
    job.test = test;
    eval::EvalResult evaluated = axiom_backend->evaluate(job);
    std::cout << "backend " << evaluated.backend << ": "
              << evaluated.verdict->numCandidates << " candidates, "
              << evaluated.verdict->numAllowed << " allowed, verdict "
              << evaluated.verdict->verdict << "\n\n";

    std::cout << test.str() << "\n";
    std::cout << "model: " << model.name() << " (checks:";
    for (const auto &c : model.checkNames())
        std::cout << " " << c;
    std::cout << ")\n\n";

    auto execs = axiom::enumerateExecutions(test);
    int allowed = 0;
    int satisfying_allowed = 0;
    for (const auto &ex : execs) {
        cat::ModelResult res = model.evaluate(ex);
        bool weak = test.condition.eval(ex.finalState);
        allowed += res.allowed;
        satisfying_allowed += res.allowed && weak;
        if (!weak)
            continue; // print only the executions the test asks about
        std::cout << "--- candidate satisfying the final condition: "
                  << (res.allowed ? "ALLOWED" : "FORBIDDEN") << "\n";
        std::cout << ex.str();
        for (const auto &check : res.checks) {
            if (check.passed)
                continue;
            std::cout << "  check '" << check.name << "' fails; cycle:";
            for (int id : check.cycle)
                std::cout << " " << static_cast<char>('a' + id % 26);
            std::cout << "\n";
        }
        std::cout << "\n";
    }

    std::cout << execs.size() << " candidates, " << allowed
              << " allowed by " << model.name() << ", "
              << satisfying_allowed
              << " of them satisfy the final condition => the relaxed"
                 " outcome is "
              << (satisfying_allowed ? "ALLOWED" : "FORBIDDEN")
              << "\n";
    return 0;
}
