#include "model/checker.h"

#include <unordered_map>

#include "common/memo.h"
#include "obs/metrics.h"

namespace gpulitmus::model {

namespace {

/**
 * One program's candidate executions, with what every model's check
 * reads of each: its outcome key (an index into `keys`, the distinct
 * keys in first-seen order) and whether its final state satisfies the
 * condition body. Both are functions of the program, so they are
 * computed once with the enumeration, not once per model.
 */
struct Candidates
{
    std::vector<axiom::Execution> executions;
    std::vector<std::string> keys;
    std::vector<uint32_t> keyOf;
    std::vector<char> satisfies;
};

Candidates
enumerate(const litmus::Test &test, const axiom::EnumeratorOptions &opts)
{
    Candidates c;
    c.executions = axiom::enumerateExecutions(test, opts);
    litmus::Histogram keyer(test);
    std::unordered_map<std::string, uint32_t> ids;
    for (const auto &ex : c.executions) {
        std::string key = keyer.keyFor(ex.finalState);
        auto [it, fresh] = ids.emplace(
            key, static_cast<uint32_t>(c.keys.size()));
        if (fresh)
            c.keys.push_back(std::move(key));
        c.keyOf.push_back(it->second);
        c.satisfies.push_back(test.condition.eval(ex.finalState));
    }
    return c;
}

/**
 * Process-wide memo of candidate enumerations, keyed by the program
 * text (Test::programText, so a renamed copy such as mp@HD6570 shares
 * mp's entry) and the enumerator options — exact, never by hash
 * alone, so distinct programs never collide into each other's
 * candidate sets. Enumeration dominates a validation sweep's model
 * side; a program checked against N models, on N chips, enumerates
 * once.
 */
OnceMemo<Candidates> &
enumerationCache()
{
    static OnceMemo<Candidates> cache(kEnumerationMemoCapacity);
    return cache;
}

} // namespace

size_t
enumerationCacheSize()
{
    return enumerationCache().size();
}

void
clearEnumerationCache()
{
    enumerationCache().clear();
}

bool
inModelScope(const litmus::Test &test)
{
    for (const auto &th : test.program.threads) {
        for (const auto &in : th.instrs) {
            if (in.isMemAccess() &&
                (in.cacheOp == ptx::CacheOp::Ca || in.isVolatile))
                return false;
            // Branches mean loops (spin-lock scenarios): the
            // axiomatic side enumerates finite executions only, so
            // looped programs are outside the model scope — the
            // paper distills them away (Tab. 5) before evaluation.
            if (in.op == ptx::Opcode::Bra)
                return false;
        }
    }
    return true;
}

Checker::Checker(const cat::Model &model, axiom::EnumeratorOptions opts)
    : model_(&model), opts_(opts)
{
}

Verdict
Checker::check(const litmus::Test &test) const
{
    static obs::Counter &checks = obs::counter("model_checks_total");
    static obs::Counter &candidates =
        obs::counter("model_candidates_total");
    static obs::Counter &hits =
        obs::counter("model_enumeration_memo_hits_total");

    Verdict v;
    v.testName = test.name;
    v.modelName = model_->name();

    std::string key = test.programText() + "\n#opts " +
                      std::to_string(opts_.maxStepsPerThread) + " " +
                      std::to_string(opts_.maxValuesPerLoc) + " " +
                      std::to_string(opts_.maxCandidates);
    bool hit = false;
    auto shared = enumerationCache().get(
        key, [&] { return enumerate(test, opts_); }, &hit);
    const Candidates &c = *shared;
    v.numCandidates = c.executions.size();
    checks.add();
    candidates.add(v.numCandidates);
    if (hit)
        hits.add();

    bool forall_ok = true;
    std::vector<char> key_allowed(c.keys.size(), 0);
    for (size_t i = 0; i < c.executions.size(); ++i) {
        const axiom::Execution &ex = c.executions[i];
        int failed = model_->firstFailedCheck(ex);
        bool satisfies = c.satisfies[i];
        if (failed < 0) {
            ++v.numAllowed;
            key_allowed[c.keyOf[i]] = 1;
            if (satisfies) {
                v.conditionSatisfiable = true;
                if (!v.witness)
                    v.witness = ex;
            } else {
                forall_ok = false;
            }
        } else if (satisfies && !v.forbiddenWitness) {
            v.forbiddenWitness = ex;
            v.forbiddingCheck =
                model_->checkNames()[static_cast<size_t>(failed)];
        }
    }

    // Forbidden keys: keys seen only on forbidden candidates.
    for (size_t k = 0; k < c.keys.size(); ++k)
        (key_allowed[k] ? v.allowedKeys : v.forbiddenKeys)
            .insert(c.keys[k]);

    switch (test.quantifier) {
      case litmus::Quantifier::Exists:
        v.verdict = v.conditionSatisfiable ? "Ok" : "No";
        break;
      case litmus::Quantifier::NotExists:
        v.verdict = v.conditionSatisfiable ? "No" : "Ok";
        break;
      case litmus::Quantifier::Forall:
        v.verdict = forall_ok ? "Ok" : "No";
        break;
    }
    return v;
}

bool
Checker::allows(const litmus::Test &test) const
{
    return check(test).conditionSatisfiable;
}

SoundnessReport
checkSoundness(const Verdict &verdict,
               const litmus::Histogram &observed)
{
    SoundnessReport report;
    for (const auto &[key, count] : observed.counts()) {
        if (count == 0)
            continue;
        if (!verdict.allowedKeys.count(key)) {
            report.sound = false;
            report.violations.push_back(key);
        }
    }
    return report;
}

} // namespace gpulitmus::model
