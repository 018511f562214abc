/**
 * @file
 * The repository's keystone property test — a scaled-down Sec. 5.4:
 * for a family of generated tests plus the in-scope paper tests,
 * every behaviour the simulated hardware exhibits must be allowed by
 * the PTX model, on every Nvidia chip. (The .ca and volatile tests
 * are outside the model's scope, Sec. 5.5, exactly as in the paper.)
 */

#include <gtest/gtest.h>

#include "cat/models.h"
#include "gen/generator.h"
#include "harness/campaign.h"
#include "litmus/library.h"
#include "model/checker.h"

namespace gpulitmus {
namespace {

using model::inModelScope;

struct SoundnessCase
{
    std::string id;
    litmus::Test test;
};

std::vector<SoundnessCase>
soundnessCases()
{
    std::vector<SoundnessCase> cases;
    gen::GeneratorOptions opts;
    opts.maxEdges = 4;
    opts.maxTests = 60;
    for (auto &g : gen::generate(gen::defaultPool(), opts))
        cases.push_back({g.cycleName, std::move(g.test)});
    for (auto &nt : litmus::paperlib::allTests()) {
        if (inModelScope(nt.test))
            cases.push_back({nt.id + " " + nt.test.name,
                             std::move(nt.test)});
    }
    return cases;
}

class Soundness : public ::testing::TestWithParam<SoundnessCase>
{
};

TEST_P(Soundness, SimulatedBehavioursAllowedByPtxModel)
{
    const litmus::Test &test = GetParam().test;
    model::Checker checker(cat::models::ptx());
    model::Verdict verdict = checker.check(test);

    harness::Job job;
    job.test = test;
    job.iterations = 800;
    for (const auto &chip : sim::resultChips()) {
        if (!chip.isNvidia())
            continue;
        job.chip = chip;
        harness::JobResult run = harness::runJob(job);
        auto report = model::checkSoundness(verdict, run.hist);
        EXPECT_TRUE(report.sound)
            << test.name << " on " << chip.shortName
            << ": observed-but-forbidden outcome '"
            << (report.violations.empty() ? ""
                                          : report.violations.front())
            << "'";
    }
}

INSTANTIATE_TEST_SUITE_P(
    GeneratedAndPaper, Soundness,
    ::testing::ValuesIn(soundnessCases()),
    [](const ::testing::TestParamInfo<SoundnessCase> &info) {
        std::string name = info.param.id;
        std::string out;
        for (char c : name) {
            out += std::isalnum(static_cast<unsigned char>(c))
                       ? c
                       : '_';
        }
        return out + "_" + std::to_string(info.index);
    });

TEST(Completeness, ModelAllowedOutcomesAreSimReachableForIdioms)
{
    // The dual direction, on the classic idioms: outcomes the model
    // allows should actually show up on the weakest chip. (Not a
    // general theorem — hardware may be stronger — but true for
    // these shapes on TesC/Titan.)
    harness::Job job;
    job.iterations = 60000;
    for (auto test : {litmus::paperlib::mp(), litmus::paperlib::sb(),
                      litmus::paperlib::coRR()}) {
        model::Checker checker(cat::models::ptx());
        model::Verdict verdict = checker.check(test);
        job.chip = sim::chip(test.name == "coRR" ? "GTX5" : "Titan");
        job.test = test;
        harness::JobResult run = harness::runJob(job);
        for (const auto &key : verdict.allowedKeys) {
            EXPECT_TRUE(run.hist.counts().count(key))
                << test.name << ": allowed outcome '" << key
                << "' never observed";
        }
    }
}

} // namespace
} // namespace gpulitmus
