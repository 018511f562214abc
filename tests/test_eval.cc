/**
 * @file
 * Tests for the unified eval backend API: backend resolution, the
 * tagged EvalResult of each engine, key/cache semantics of
 * backend-named jobs, the engine's cache/alias/progress semantics,
 * the conformance join over the on-disk corpus, and bit-identity of
 * engine-run sim campaigns with harness::runJob at any thread count.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "cat/models.h"
#include "eval/backend.h"
#include "harness/campaign.h"
#include "litmus/library.h"
#include "litmus/parser.h"
#include "model/checker.h"

#ifndef GPULITMUS_SOURCE_DIR
#define GPULITMUS_SOURCE_DIR "."
#endif

namespace gpulitmus::eval {
namespace {

namespace pl = litmus::paperlib;

const char *kCorpus[] = {
    "corr.litmus",         "mp.litmus",
    "mp-membar.gl.litmus", "sb.litmus",
    "lb.litmus",           "lb-membar.ctas.litmus",
    "mp-volatile.litmus",  "cas-sl.litmus",
    "mp-deps.litmus",      "corr-l2-l1.litmus",
};

litmus::Test
corpusTest(const std::string &name)
{
    std::string path =
        std::string(GPULITMUS_SOURCE_DIR) + "/litmus-tests/" + name;
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::stringstream ss;
    ss << in.rdbuf();
    litmus::ParseError err;
    auto test = litmus::parseTest(ss.str(), &err);
    EXPECT_TRUE(test.has_value()) << name << ": " << err.message;
    return *test;
}

TEST(BackendRegistry, ResolvesEveryBuiltin)
{
    for (const auto &name : builtinBackendNames()) {
        std::string error;
        auto backend = backendByName(name, &error);
        ASSERT_NE(backend, nullptr) << name << ": " << error;
        if (name == "baseline")
            EXPECT_EQ(backend->name(), "baseline");
        else
            EXPECT_EQ(backend->name(), name);
    }
    // Aliases of the Sec. 6 baseline.
    for (const char *alias : {"operational", "sorensen"}) {
        auto backend = backendByName(alias);
        ASSERT_NE(backend, nullptr);
        EXPECT_EQ(backend->name(), "baseline");
    }
}

TEST(BackendRegistry, UnknownNameIsAnErrorListingValidNames)
{
    std::string error;
    EXPECT_EQ(backendByName("bogus", &error), nullptr);
    EXPECT_NE(error.find("unknown backend 'bogus'"),
              std::string::npos);
    for (const auto &name : builtinBackendNames())
        EXPECT_NE(error.find(name), std::string::npos) << name;
}

TEST(BackendRegistry, LoadsModelFromCatFile)
{
    std::string path = "/tmp/gpulitmus_test_model.cat";
    {
        std::ofstream out(path);
        out << cat::models::scSource();
    }
    std::string error;
    auto backend = backendByName(path, &error);
    ASSERT_NE(backend, nullptr) << error;
    auto axiom =
        std::dynamic_pointer_cast<const AxiomBackend>(backend);
    ASSERT_NE(axiom, nullptr);

    // The file model behaves exactly like the built-in it copies.
    EvalJob job;
    job.backend = path;
    job.test = pl::mp();
    auto verdict = backend->evaluate(job).verdict;
    ASSERT_TRUE(verdict.has_value());
    model::Verdict builtin =
        model::Checker(cat::models::sc()).check(pl::mp());
    EXPECT_EQ(verdict->allowedKeys, builtin.allowedKeys);
    std::remove(path.c_str());
}

TEST(BackendRegistry, BadCatFileReportsParseError)
{
    std::string path = "/tmp/gpulitmus_bad_model.cat";
    {
        std::ofstream out(path);
        out << "let sc = (((\n";
    }
    std::string error;
    EXPECT_EQ(backendByName(path, &error), nullptr);
    EXPECT_FALSE(error.empty());
    std::remove(path.c_str());
}

TEST(SimBackend, MatchesHarnessRunBitForBit)
{
    harness::RunConfig cfg;
    cfg.iterations = 1500;
    litmus::Histogram direct = harness::run(sim::chip("Titan"),
                                            pl::mp(), cfg);

    SimBackend backend;
    EvalResult result = backend.evaluate(
        harness::Job::fromConfig(sim::chip("Titan"), pl::mp(), cfg));
    ASSERT_TRUE(result.hasHist());
    EXPECT_FALSE(result.hasVerdict());
    EXPECT_EQ(result.backend, harness::kSimBackend);
    EXPECT_EQ(result.hist->counts(), direct.counts());
    EXPECT_EQ(result.hist->observed(), direct.observed());
}

TEST(AxiomBackend, MatchesCheckerVerdict)
{
    AxiomBackend backend(cat::models::ptx());
    EvalJob job;
    job.backend = "ptx";
    job.test = pl::lbMembarCtas();
    EvalResult result = backend.evaluate(job);
    ASSERT_TRUE(result.hasVerdict());
    EXPECT_FALSE(result.hasHist());

    model::Verdict direct =
        model::Checker(cat::models::ptx()).check(pl::lbMembarCtas());
    EXPECT_EQ(result.verdict->numCandidates, direct.numCandidates);
    EXPECT_EQ(result.verdict->numAllowed, direct.numAllowed);
    EXPECT_EQ(result.verdict->allowedKeys, direct.allowedKeys);
    EXPECT_EQ(result.verdict->verdict, direct.verdict);
}

TEST(EvalJob, SimKeysUnchangedByBackendRedesign)
{
    // A default job IS a sim job: the backend field must not perturb
    // the PR-1 key/seed derivation.
    harness::RunConfig cfg;
    harness::Job job =
        harness::Job::fromConfig(sim::chip("Titan"), pl::mp(), cfg);
    EXPECT_TRUE(job.isSim());
    harness::Job named = job;
    named.backend = harness::kSimBackend;
    EXPECT_EQ(job.key(), named.key());
    EXPECT_EQ(job.derivedSeed(), named.derivedSeed());
    EXPECT_EQ(job.cacheKey(), named.cacheKey());
}

TEST(EvalJob, ModelKeysIgnoreSimAxesButNotBackendOrTest)
{
    harness::RunConfig cfg;
    harness::Job job =
        harness::Job::fromConfig(sim::chip("Titan"), pl::mp(), cfg);
    job.backend = "ptx";

    harness::Job other_cell = job;
    other_cell.chip = sim::chip("TesC");
    other_cell.inc = sim::Incantations::fromColumn(3);
    other_cell.iterations *= 2;
    other_cell.seed += 99;
    EXPECT_EQ(job.cacheKey(), other_cell.cacheKey());

    harness::Job other_backend = job;
    other_backend.backend = "rmo";
    EXPECT_NE(job.cacheKey(), other_backend.cacheKey());

    harness::Job other_test = job;
    other_test.test = pl::sb();
    EXPECT_NE(job.cacheKey(), other_test.cacheKey());

    // And the backend id separates model keys from sim keys.
    harness::Job sim_job = job;
    sim_job.backend = harness::kSimBackend;
    EXPECT_NE(job.cacheKey(), sim_job.cacheKey());
}

TEST(EvalEngine, MixedBackendGridJoinsAndDedups)
{
    harness::Campaign campaign;
    campaign.iterations(800)
        .overChips(std::vector<std::string>{"Titan", "TesC"})
        .overBackends({harness::kSimBackend, "ptx"})
        .test(pl::mp(), "mp");

    auto jobs = campaign.jobs();
    ASSERT_EQ(jobs.size(), 4u); // 2 chips x {sim, ptx}
    EXPECT_EQ(jobs[0].backend, harness::kSimBackend);
    EXPECT_EQ(jobs[1].backend, "ptx");

    Engine engine;
    ConformanceSink conformance;
    auto results = engine.run(campaign, {&conformance});
    ASSERT_EQ(results.size(), 4u);

    // The two ptx cells collapse onto one evaluation.
    size_t computed_models = 0;
    for (const auto &r : results) {
        if (r.hasVerdict() && !r.fromCache)
            ++computed_models;
    }
    EXPECT_EQ(computed_models, 1u);

    // Join: one cell per (chip x model).
    auto cells = conformance.cells();
    ASSERT_EQ(cells.size(), 2u);
    for (const auto &cell : cells) {
        EXPECT_EQ(cell.model, "ptx");
        EXPECT_EQ(cell.runs, 800u);
        EXPECT_NE(cell.kind, Conformance::Unsound);
    }
}

TEST(EvalEngine, BaselineAliasesNormaliseAndShareOneEvaluation)
{
    // "operational"/"sorensen" are aliases of "baseline": jobs naming
    // either must dedup onto one evaluation under the resolved name.
    harness::Job a;
    a.backend = "baseline";
    a.test = pl::mp();
    harness::Job b = a;
    b.backend = "operational";

    Engine engine;
    auto results = engine.run({a, b});
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].backend, "baseline");
    EXPECT_EQ(results[1].backend, "baseline");
    EXPECT_EQ(results[1].job->backend, "baseline"); // normalised
    EXPECT_FALSE(results[0].fromCache);
    EXPECT_TRUE(results[1].fromCache); // shared, not recomputed
}

TEST(EvalEngine, RejectsUnknownBackend)
{
    harness::Job job;
    job.backend = "no-such-backend";
    job.test = pl::mp();
    Engine engine;
    EXPECT_EXIT(engine.run({job}),
                ::testing::ExitedWithCode(1), "unknown backend");
}

TEST(Conformance, PtxSoundOnCorpusForEveryChipProfile)
{
    // The cross-backend keystone: over the on-disk corpus, the ptx
    // model must never be "unsound" (observed-but-forbidden) on ANY
    // chip profile. AMD chips run what their OpenCL compiler
    // produces; out-of-scope tests (.ca/volatile, Sec. 5.5) are
    // excluded exactly as in the paper.
    harness::RunConfig cfg;
    cfg.iterations = 600;

    harness::Campaign campaign;
    campaign.base(cfg);
    size_t in_scope = 0;
    for (const auto &name : kCorpus) {
        litmus::Test test = corpusTest(name);
        if (!model::inModelScope(test))
            continue;
        ++in_scope;
        for (const auto &chip : sim::resultChips()) {
            auto to_run = compileForChip(test, chip);
            if (!to_run)
                continue; // miscompiled: the paper's "n/a" cells
            harness::Job sim_job =
                harness::Job::fromConfig(chip, *to_run, cfg);
            sim_job.label = std::string(name);
            campaign.add(sim_job);
            harness::Job model_job = sim_job;
            model_job.backend = "ptx";
            campaign.add(std::move(model_job));
        }
    }
    ASSERT_GT(in_scope, 5u);

    Engine engine;
    ConformanceSink conformance;
    engine.run(campaign, {&conformance});

    auto cells = conformance.cells();
    ASSERT_GE(cells.size(), in_scope * 2); // AMD "n/a" cells drop out
    for (const auto &cell : cells) {
        EXPECT_NE(cell.kind, Conformance::Unsound)
            << cell.test << " on " << cell.chip
            << ": observed-but-forbidden '"
            << (cell.violations.empty() ? ""
                                        : cell.violations.front())
            << "'";
    }
    EXPECT_EQ(conformance.count(Conformance::Unsound), 0u);
}

TEST(Conformance, FlagsTheSec6BaselineAsUnsound)
{
    // The Sec. 6 counterexample through the new API: inter-CTA
    // lb+membar.ctas is observed on the Titan but forbidden by the
    // operational baseline model.
    harness::Campaign campaign;
    campaign.iterations(30000)
        .overChips(std::vector<std::string>{"Titan"})
        .overBackends({harness::kSimBackend, "baseline", "ptx"})
        .test(pl::lbMembarCtas(), "lb+membar.ctas");

    Engine engine;
    ConformanceSink conformance;
    engine.run(campaign, {&conformance});

    bool baseline_unsound = false;
    for (const auto &cell : conformance.cells()) {
        if (cell.model == "baseline")
            baseline_unsound |= cell.kind == Conformance::Unsound;
        if (cell.model == "ptx") {
            EXPECT_NE(cell.kind, Conformance::Unsound);
        }
    }
    EXPECT_TRUE(baseline_unsound);
    EXPECT_GE(conformance.count(Conformance::Unsound), 1u);
}

TEST(Conformance, SinkSummaryAndJsonShape)
{
    harness::Campaign campaign;
    campaign.iterations(500)
        .overChips(std::vector<std::string>{"Titan"})
        .overBackends({harness::kSimBackend, "ptx", "sc"})
        .test(pl::mp(), "mp");
    Engine engine;
    ConformanceSink conformance;
    engine.run(campaign, {&conformance});

    std::string summary = conformance.summary().str();
    EXPECT_NE(summary.find("model"), std::string::npos);
    EXPECT_NE(summary.find("ptx"), std::string::npos);
    EXPECT_NE(summary.find("sc"), std::string::npos);

    std::ostringstream os;
    conformance.writeTo(os);
    std::string doc = os.str();
    EXPECT_EQ(doc.front(), '[');
    for (const char *field :
         {"\"test\":\"mp\"", "\"chip\":\"Titan\"", "\"model\":\"ptx\"",
          "\"model\":\"sc\"", "\"kind\":\"", "\"violations\":"})
        EXPECT_NE(doc.find(field), std::string::npos) << field;
}

TEST(EvalEngine, JsonSinkTagsBothSides)
{
    harness::Campaign campaign;
    campaign.iterations(300)
        .overChips(std::vector<std::string>{"Titan"})
        .overBackends({harness::kSimBackend, "ptx"})
        .test(pl::sb(), "sb");
    Engine engine;
    JsonSink json;
    engine.run(campaign, {&json});
    ASSERT_EQ(json.size(), 2u);
    std::ostringstream os;
    json.writeTo(os);
    std::string doc = os.str();
    for (const char *field :
         {"\"backend\":\"sim\"", "\"backend\":\"ptx\"",
          "\"label\":\"sb\"", "\"chip\":\"Titan\"", "\"column\":16",
          "\"iterations\":300", "\"obs_per_100k\":", "\"counts\":{",
          "\"cached\":false", "\"from_store\":false",
          "\"candidates\":", "\"allowed_outcomes\":"})
        EXPECT_NE(doc.find(field), std::string::npos) << field;
}

TEST(EvalEngine, SimCampaignBitIdenticalToRunJobAt1And8Threads)
{
    // A sim-only sweep through the engine is bit-identical to
    // harness::runJob — the single-cell reference — at any thread
    // count, over the whole on-disk corpus.
    std::vector<litmus::Test> tests;
    for (const auto &name : kCorpus)
        tests.push_back(corpusTest(name));
    harness::Campaign campaign;
    campaign.iterations(400)
        .overChips(std::vector<std::string>{"Titan", "HD7970"})
        .overColumns(9, 12)
        .overTests(tests);
    auto jobs = campaign.jobs();

    for (int threads : {1, 8}) {
        EngineOptions opts;
        opts.threads = threads;
        opts.cache = false;
        Engine engine(opts);
        auto actual = engine.run(campaign);

        ASSERT_EQ(actual.size(), jobs.size());
        for (size_t i = 0; i < jobs.size(); ++i) {
            harness::JobResult expected = harness::runJob(jobs[i]);
            ASSERT_TRUE(actual[i].hasHist());
            EXPECT_EQ(expected.hist.counts(), actual[i].hist->counts())
                << "cell " << i << " at " << threads << " threads";
            EXPECT_EQ(expected.observedPer100k,
                      actual[i].observedPer100k);
        }
    }
}

TEST(EvalEngine, CacheServesRepeatedCells)
{
    harness::RunConfig cfg;
    cfg.iterations = 300;
    harness::Job job =
        harness::Job::fromConfig(sim::chip("Titan"), pl::mp(), cfg);

    Engine engine;
    // Duplicate cell within one batch: computed once, aliased once.
    // The alias keeps its own identity (label is not part of the
    // cache key) while reusing the computed histogram.
    harness::Job renamed = job;
    renamed.label = "renamed";
    auto batch = engine.run({job, renamed});
    ASSERT_EQ(batch.size(), 2u);
    EXPECT_FALSE(batch[0].fromCache);
    EXPECT_TRUE(batch[1].fromCache);
    EXPECT_EQ(batch[1].label(), "renamed");
    EXPECT_EQ(batch[0].hist->counts(), batch[1].hist->counts());
    EXPECT_EQ(engine.cacheHits(), 1u);
    EXPECT_EQ(engine.cacheSize(), 1u);

    // Same cell in a later run: served from the cache.
    auto again = engine.run({job});
    EXPECT_TRUE(again[0].fromCache);
    EXPECT_EQ(again[0].hist->counts(), batch[0].hist->counts());
    EXPECT_EQ(engine.cacheHits(), 2u);

    // A different cell misses.
    harness::Job other = job;
    other.inc = sim::Incantations::fromColumn(9);
    auto miss = engine.run({other});
    EXPECT_FALSE(miss[0].fromCache);
    EXPECT_EQ(engine.cacheSize(), 2u);
}

TEST(EvalEngine, CacheCanBeDisabled)
{
    harness::RunConfig cfg;
    cfg.iterations = 200;
    harness::Job job =
        harness::Job::fromConfig(sim::chip("Titan"), pl::mp(), cfg);
    EngineOptions opts;
    opts.cache = false;
    Engine engine(opts);
    auto batch = engine.run({job, job});
    EXPECT_FALSE(batch[0].fromCache);
    EXPECT_FALSE(batch[1].fromCache);
    EXPECT_EQ(engine.cacheHits(), 0u);
    EXPECT_EQ(engine.cacheSize(), 0u);
    // Still deterministic: both computed the same stream.
    EXPECT_EQ(batch[0].hist->counts(), batch[1].hist->counts());
}

TEST(EvalEngine, ProgressCallbackCountsComputedJobs)
{
    size_t calls = 0;
    size_t last_total = 0;
    Engine engine;
    // Four distinct cells plus an in-batch duplicate: the duplicate
    // is an alias, not work, so it is never reported.
    auto jobs = harness::Campaign()
                    .iterations(100)
                    .test(pl::mp(), "mp")
                    .overColumns(1, 4)
                    .jobs();
    jobs.push_back(jobs.front());
    engine.run(jobs, {},
               [&](size_t done, size_t total, const EvalResult &) {
                   ++calls;
                   last_total = total;
                   EXPECT_LE(done, total);
               });
    EXPECT_EQ(calls, 4u);
    EXPECT_EQ(last_total, 4u);
}

TEST(EvalEngine, TableSinkShape)
{
    TableSink table("test", TableSink::byLabel(), TableSink::byColumn());
    Engine engine;
    engine.run(harness::Campaign()
                   .iterations(200)
                   .test(pl::mp(), "mp")
                   .test(pl::sb(), "sb")
                   .overColumns(9, 12),
               {&table});
    std::string rendered = table.render().str();
    // Header: corner + the four columns; body: one row per test.
    EXPECT_NE(rendered.find("test"), std::string::npos);
    for (const char *col : {"9", "10", "11", "12"})
        EXPECT_NE(rendered.find(col), std::string::npos);
    EXPECT_NE(rendered.find("mp"), std::string::npos);
    EXPECT_NE(rendered.find("sb"), std::string::npos);
    // 1 header + 1 rule + 2 body rows.
    size_t lines = 0;
    for (char ch : rendered)
        lines += ch == '\n';
    EXPECT_EQ(lines, 4u);
}

} // namespace
} // namespace gpulitmus::eval
