/**
 * @file
 * Integration tests over the on-disk litmus corpus: every file in
 * litmus-tests/ must parse, print-reparse stably, run on the
 * simulator, and model-check — and the expected verdicts hold:
 * ~exists files are never observed and are forbidden by the PTX
 * model; exists files are allowed by it.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "cat/models.h"
#include "harness/campaign.h"
#include "litmus/parser.h"
#include "model/checker.h"

#ifndef GPULITMUS_SOURCE_DIR
#define GPULITMUS_SOURCE_DIR "."
#endif

namespace gpulitmus {
namespace {

const char *kCorpus[] = {
    "corr.litmus",        "mp.litmus",
    "mp-membar.gl.litmus", "sb.litmus",
    "lb.litmus",          "lb-membar.ctas.litmus",
    "mp-volatile.litmus", "cas-sl.litmus",
    "mp-deps.litmus",     "corr-l2-l1.litmus",
    // Generated scoped variants (gpulitmus gen): intra-CTA mp/lb/sb/
    // coRR/2+2w, inter-CTA 2+2w and wse/rfe chains missing from the
    // hand corpus, plus the scoped-model signature mp+membar.ctas.
    "PodWW+Rfe-cta+PodRR+Fre-cta.litmus",
    "PodRW+Rfe-cta+PodRW+Rfe-cta.litmus",
    "PodWR+Fre-cta+PodWR+Fre-cta.litmus",
    "PodWW+Wse-dev+PodWW+Wse-dev.litmus",
    "PodWW+Wse-cta+PodWW+Wse-cta.litmus",
    "F.cta-dWW+Rfe-dev+F.cta-dRR+Fre-dev.litmus",
    "PodWW+Wse-dev+PodWR+Fre-dev.litmus",
    "Rfe-cta+PosRR+Fre-cta.litmus",
    "Wse-dev+Rfe-cta+PosRR+Fre-dev.litmus",
    "Rfe-dev+PosRR+Fre-cta+Wse-dev.litmus",
};

std::string
readFile(const std::string &name)
{
    std::string path =
        std::string(GPULITMUS_SOURCE_DIR) + "/litmus-tests/" + name;
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

class Corpus : public ::testing::TestWithParam<const char *>
{
};

TEST_P(Corpus, ParsesAndRoundTrips)
{
    litmus::ParseError err;
    auto test = litmus::parseTest(readFile(GetParam()), &err);
    ASSERT_TRUE(test.has_value()) << GetParam() << ": " << err.message;

    auto reparsed = litmus::parseTest(test->str(), &err);
    ASSERT_TRUE(reparsed.has_value())
        << GetParam() << " reprint: " << err.message;
    EXPECT_EQ(reparsed->program.numThreads(),
              test->program.numThreads());
    EXPECT_EQ(reparsed->scopeTree, test->scopeTree);
    EXPECT_EQ(reparsed->condition.str(), test->condition.str());
}

TEST_P(Corpus, RunsAndRespectsQuantifier)
{
    auto test = litmus::parseTest(readFile(GetParam()));
    ASSERT_TRUE(test.has_value());
    harness::Job job;
    job.chip = sim::chip("Titan");
    job.test = *test;
    job.iterations = 3000;
    harness::JobResult run = harness::runJob(job);
    const litmus::Histogram &hist = run.hist;
    EXPECT_EQ(hist.total(), 3000u);
    if (test->quantifier == litmus::Quantifier::NotExists) {
        EXPECT_EQ(hist.observed(), 0u)
            << GetParam() << ": forbidden outcome observed";
    }
}

TEST_P(Corpus, ModelVerdictMatchesQuantifier)
{
    auto test = litmus::parseTest(readFile(GetParam()));
    ASSERT_TRUE(test.has_value());
    // The corpus is curated so the PTX model's verdict is "Ok" for
    // every file: exists files are allowed, ~exists files forbidden.
    model::Checker checker(cat::models::ptx());
    model::Verdict v = checker.check(*test);
    EXPECT_EQ(v.verdict, "Ok") << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Files, Corpus, ::testing::ValuesIn(kCorpus),
    [](const ::testing::TestParamInfo<const char *> &info) {
        std::string name = info.param;
        for (auto &c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

} // namespace
} // namespace gpulitmus
