#include "eval/backend.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <string_view>
#include <thread>
#include <unordered_map>

#include "analysis/sc.h"
#include "cat/models.h"
#include "common/log.h"
#include "common/strutil.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/store.h"

namespace gpulitmus::eval {

// ---- SimBackend -----------------------------------------------------

EvalResult
SimBackend::evaluate(const EvalJob &job) const
{
    harness::JobResult sim = harness::runJob(job);
    EvalResult result;
    result.job = sim.job;
    result.backend = name();
    result.hist = std::move(sim.hist);
    result.observedPer100k = sim.observedPer100k;
    result.millis = sim.millis;
    return result;
}

// ---- McBackend ------------------------------------------------------

mc::ExploreOptions
McBackend::optionsFor(const EvalJob &job)
{
    mc::ExploreOptions opts;
    opts.machine.inc = job.inc;
    opts.machine.maxMicroSteps = job.maxMicroSteps;
    opts.maxReplays = job.iterations;
    return opts;
}

EvalResult
McBackend::evaluate(const EvalJob &job) const
{
    auto owned = std::make_shared<EvalJob>(job);
    EvalResult result;
    result.job = owned;
    result.backend = name();

    // Static pre-pass (docs/ANALYSIS.md): a program with no racy pair
    // can only reach sequentially consistent outcomes, so the SC
    // enumeration IS the exact reachable set — no weak-memory
    // exploration needed. The substitution is differentially
    // validated in tests/test_analysis.cc, against the exploration
    // below, over the corpus, all scenario variants and generated
    // programs. The pre-pass reads only the program, so it runs once
    // per program; every other cell of it is a memo answer.
    auto start = std::chrono::steady_clock::now();
    auto pre = analysis::prepass(owned->test);
    if (pre->sc) {
        mc::ExploreResult x;
        x.testName = owned->test.name;
        x.chipName = owned->chip.shortName;
        x.column = owned->inc.column();
        x.complete = pre->sc->complete;
        x.fairComplete = true;
        x.finals = pre->sc->finals;
        x.satisfying = pre->sc->satisfying;
        for (const auto &[key, w] : x.finals)
            x.paths += w;
        x.stats.distinctStates = pre->sc->states;
        auto end = std::chrono::steady_clock::now();
        x.millis =
            std::chrono::duration<double, std::milli>(end - start)
                .count();
        result.exact = std::move(x);
        result.millis = result.exact->millis;
        return result;
    }

    mc::Explorer explorer(owned->chip, owned->test,
                          optionsFor(*owned));
    result.exact = explorer.explore();
    result.millis = result.exact->millis;
    return result;
}

// ---- AxiomBackend ---------------------------------------------------

AxiomBackend::AxiomBackend(const cat::Model &model, std::string name)
    : model_(&model), name_(std::move(name))
{
}

AxiomBackend::AxiomBackend(std::shared_ptr<const cat::Model> owned,
                           std::string name)
    : owned_(std::move(owned)), model_(owned_.get()),
      name_(std::move(name))
{
}

std::shared_ptr<AxiomBackend>
AxiomBackend::fromSource(const std::string &source,
                         const std::string &name, std::string *error)
{
    cat::CatError cat_error;
    auto model = cat::Model::parse(source, name, &cat_error);
    if (!model) {
        if (error) {
            *error = "cannot parse model '" + name +
                     "': " + cat_error.message + " (line " +
                     std::to_string(cat_error.line) + ")";
        }
        return nullptr;
    }
    // The protected constructor keeps the parsed model alive for the
    // backend's lifetime (built-ins are static and stay non-owned).
    struct Owner : AxiomBackend
    {
        Owner(std::shared_ptr<const cat::Model> m, std::string n)
            : AxiomBackend(std::move(m), std::move(n))
        {
        }
    };
    return std::make_shared<Owner>(
        std::make_shared<cat::Model>(std::move(*model)), name);
}

std::shared_ptr<AxiomBackend>
AxiomBackend::fromFile(const std::string &path, std::string *error)
{
    std::ifstream in(path);
    if (!in) {
        if (error)
            *error = "cannot open model file '" + path + "'";
        return nullptr;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    return fromSource(buffer.str(), path, error);
}

EvalResult
AxiomBackend::evaluate(const EvalJob &job) const
{
    auto owned = std::make_shared<EvalJob>(job);
    EvalResult result;
    result.job = owned;
    result.backend = name();

    // Out-of-scope tests (.ca/volatile/loops, model::inModelScope)
    // get an explicit refusal instead of an enumeration the model
    // has nothing to say about — and, for looped programs, one that
    // would not terminate in useful time. The engine stays total
    // over arbitrary (scenario) grids; conformance joins skip these.
    if (!model::inModelScope(owned->test)) {
        model::Verdict v;
        v.testName = owned->test.name;
        v.modelName = name();
        v.outOfScope = true;
        v.verdict = "out-of-scope (.ca/volatile/loops, Sec. 5.5)";
        result.verdict = std::move(v);
        return result;
    }

    auto start = std::chrono::steady_clock::now();
    model::Checker checker(*model_);
    result.verdict = checker.check(owned->test);
    auto end = std::chrono::steady_clock::now();
    result.millis =
        std::chrono::duration<double, std::milli>(end - start).count();
    return result;
}

// ---- registry -------------------------------------------------------

namespace {

bool
looksLikeModelPath(const std::string &name)
{
    return name.find('/') != std::string::npos ||
           endsWith(name, ".cat");
}

} // namespace

std::vector<std::string>
builtinBackendNames()
{
    std::vector<std::string> names{harness::kSimBackend,
                                   harness::kMcBackend};
    for (const auto &[name, model] : cat::models::all())
        names.push_back(name);
    return names;
}

std::shared_ptr<const Backend>
backendByName(const std::string &name, std::string *error)
{
    static std::mutex mutex;
    static std::unordered_map<std::string,
                              std::shared_ptr<const Backend>>
        registry;

    std::lock_guard<std::mutex> lock(mutex);
    auto it = registry.find(name);
    if (it != registry.end())
        return it->second;

    std::shared_ptr<const Backend> backend;
    if (name == harness::kSimBackend) {
        backend = std::make_shared<SimBackend>();
    } else if (name == harness::kMcBackend) {
        backend = std::make_shared<McBackend>();
    } else if (looksLikeModelPath(name)) {
        backend = AxiomBackend::fromFile(name, error);
        if (!backend)
            return nullptr;
    } else {
        for (const auto &[model_name, model] : cat::models::all()) {
            if (model_name == name) {
                backend = std::make_shared<AxiomBackend>(*model, name);
                break;
            }
        }
        if (!backend) {
            if (error) {
                *error = "unknown backend '" + name + "' (valid: " +
                         join(builtinBackendNames(), ", ") +
                         ", or a .cat file path)";
            }
            return nullptr;
        }
    }
    registry.emplace(name, backend);
    return backend;
}

std::vector<std::string>
builtinModelNames()
{
    std::vector<std::string> names;
    for (const auto &name : builtinBackendNames()) {
        if (name != harness::kSimBackend &&
            name != harness::kMcBackend)
            names.push_back(name);
    }
    return names;
}

std::shared_ptr<const AxiomBackend>
modelBackendByName(const std::string &name, std::string *error)
{
    auto backend = backendByName(name, error);
    if (!backend) {
        // File paths keep the open/parse diagnostic; an unknown id
        // gets the model list ("sim" would be misleading here).
        if (error && !looksLikeModelPath(name)) {
            *error = "unknown model '" + name + "' (valid: " +
                     join(builtinModelNames(), ", ") +
                     ", or a .cat file path)";
        }
        return nullptr;
    }
    auto axiom =
        std::dynamic_pointer_cast<const AxiomBackend>(backend);
    if (!axiom && error) {
        *error = "backend '" + name + "' is not a model (valid: " +
                 join(builtinModelNames(), ", ") +
                 ", or a .cat file path)";
    }
    return axiom;
}

// ---- Engine ---------------------------------------------------------

namespace {

/** Compute one job and feed the result to the persistent store (the
 * L2 behind the in-process cache), if any. */
std::shared_ptr<const EvalResult>
computeJob(const Backend &backend, serve::ResultStore *store,
           const EvalJob &job)
{
    auto result = std::make_shared<EvalResult>(backend.evaluate(job));
    if (store)
        store->putEval(job, *result);
    return result;
}

/** The same cell in every field a delivered result shows: a cache hit
 * for it can keep the cached job instead of copying the requested one.
 * Cache keys leave out the label, and model keys the chip,
 * incantation, iteration and seed axes, so equal keys are not enough. */
bool
sameCell(const EvalJob &a, const EvalJob &b)
{
    if (a.label != b.label || a.backend != b.backend ||
        a.iterations != b.iterations || a.seed != b.seed ||
        a.maxMicroSteps != b.maxMicroSteps || !(a.inc == b.inc) ||
        !(a.chip == b.chip))
        return false;
    return (a.text && a.text == b.text) ||
           a.renderedTest()->str == b.renderedTest()->str;
}

/** The result delivered for `requested`: a copy of its slot. A hit (a
 * cache entry or a batch-mate's result) is re-pointed at the requested
 * job — unless that is the same cell as the one it was computed for —
 * and rebinds its histogram to stay self-contained. */
EvalResult
deliver(const EvalResult &slot, const EvalJob &requested, bool hit)
{
    EvalResult out = slot;
    if (!hit)
        return out;
    if (!sameCell(*slot.job, requested)) {
        auto owned = std::make_shared<EvalJob>(requested);
        if (out.hist)
            out.hist->rebind(owned->test);
        out.job = std::move(owned);
    }
    out.fromCache = true;
    out.millis = 0.0;
    return out;
}

uint64_t
microsSince(std::chrono::steady_clock::time_point t0)
{
    auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
    return static_cast<uint64_t>(us < 0 ? 0 : us);
}

} // namespace

Engine::Engine(EngineOptions opts)
    : threads_(opts.threads > 0 ? opts.threads
                                : harness::defaultJobs()),
      store_(opts.store)
{
}

uint64_t
Engine::cacheHits() const
{
    std::lock_guard<std::mutex> lock(cacheMutex_);
    return cacheHits_;
}

size_t
Engine::cacheSize() const
{
    std::lock_guard<std::mutex> lock(cacheMutex_);
    return cache_.size();
}

Engine::Batch
Engine::resolve(const std::vector<EvalJob> &jobs)
{
    Batch b;
    b.jobs_ = &jobs;
    // Resolve every backend up front so a typo'd id fails before any
    // work is done, and workers never touch the registry lock.
    for (const EvalJob &job : jobs) {
        if (b.backends_.count(job.backend))
            continue;
        std::string error;
        auto backend = backendByName(job.backend, &error);
        if (!backend)
            fatal("%s", error.c_str());
        b.backends_.emplace(job.backend, std::move(backend));
    }
    const size_t n = jobs.size();
    b.slots_.resize(n);

    // Cache hits and in-batch aliases. An alias is a job whose cache
    // key is owned by an earlier job in this batch; it reuses that
    // job's result instead of recomputing. The cache lock covers only
    // the lookups: concurrent callers (the daemon's clients) share
    // this engine.
    std::vector<size_t> owners;
    uint64_t batch_hits = 0;
    b.hits_.assign(n, 0);
    b.keys_.resize(n);
    for (size_t i = 0; i < n; ++i)
        b.keys_[i] = jobs[i].cacheKey();
    {
        std::lock_guard<std::mutex> lock(cacheMutex_);
        for (size_t i = 0; i < n; ++i) {
            if (auto hit = cache_.find(b.keys_[i]); hit != cache_.end())
                b.slots_[i] = hit->second;
        }
    }
    std::unordered_map<uint64_t, size_t> owner;
    for (size_t i = 0; i < n; ++i) {
        if (b.slots_[i]) {
            b.hits_[i] = 1;
            ++batch_hits;
        } else if (auto claimed = owner.find(b.keys_[i]);
                   claimed != owner.end()) {
            b.aliases_.push_back({i, claimed->second});
            ++batch_hits;
        } else {
            owner[b.keys_[i]] = i;
            owners.push_back(i);
        }
    }

    // Store hits: the L2 answers what the cache could not, here
    // rather than in the workers, so a batch the store answers
    // starts none. Hits join the in-process cache like computed
    // results do.
    uint64_t store_hits = 0;
    for (size_t i : owners) {
        std::optional<EvalResult> hit;
        if (store_)
            hit = store_->fetchEval(jobs[i]);
        if (!hit) {
            b.compute_.push_back(i);
            continue;
        }
        b.slots_[i] = std::make_shared<EvalResult>(std::move(*hit));
        ++store_hits;
    }
    {
        std::lock_guard<std::mutex> lock(cacheMutex_);
        cacheHits_ += batch_hits;
        if (store_hits > 0) {
            for (size_t i : owners) {
                if (b.slots_[i])
                    cache_.emplace(b.keys_[i], b.slots_[i]);
            }
        }
    }

    // Telemetry observes the batch — counters and wall clocks only,
    // never job identity or sharding, so results stay bit-identical
    // with GPULITMUS_OBS on or off (tests/test_obs.cc pins this).
    if (obs::enabled()) {
        obs::counter("engine_batches_total").add();
        obs::counter("engine_jobs_total").add(n);
        obs::counter("engine_jobs_cached_total").add(batch_hits);
        if (store_hits > 0)
            obs::counter("engine_jobs_from_store_total").add(store_hits);
    }
    return b;
}

std::vector<EvalResult>
Engine::run(Batch b, ProgressFn progress)
{
    const std::vector<EvalJob> &batch = *b.jobs_;
    const std::vector<size_t> &compute = b.compute_;
    auto &slots = b.slots_;
    const bool obs_on = obs::enabled();
    const auto batch_start = std::chrono::steady_clock::now();

    // Shard the compute jobs over the pool. Results are pure
    // functions of their jobs, so any sharding is bit-identical.
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    std::mutex progress_mutex;
    auto worker = [&]() {
        const auto worker_start = std::chrono::steady_clock::now();
        uint64_t busy_us = 0;
        for (;;) {
            size_t c = next.fetch_add(1);
            if (c >= compute.size())
                break;
            const EvalJob &job = batch[compute[c]];
            // Queue wait: how long the job sat behind its batch-mates
            // before a worker picked it up.
            if (obs_on)
                obs::timer("engine_queue_wait_us")
                    .record(microsSince(batch_start));
            std::shared_ptr<const EvalResult> result;
            {
                obs::Span span(obs::Trace::active()
                                   ? "job " + job.backend + ":" +
                                         job.displayLabel()
                                   : std::string("job"),
                               "engine");
                const auto job_start = std::chrono::steady_clock::now();
                result = computeJob(*b.backends_.at(job.backend),
                                    store_, job);
                if (obs_on) {
                    uint64_t us = microsSince(job_start);
                    obs::timer("engine_job_latency_us").record(us);
                    busy_us += us;
                }
            }
            slots[compute[c]] = result;
            size_t finished = done.fetch_add(1) + 1;
            if (progress) {
                std::lock_guard<std::mutex> lock(progress_mutex);
                progress(finished, compute.size(), *result);
            }
        }
        // Utilisation: busy µs over wall µs, summed across workers.
        if (obs_on) {
            obs::counter("engine_worker_busy_us_total").add(busy_us);
            obs::counter("engine_worker_wall_us_total")
                .add(microsSince(worker_start));
        }
    };

    int pool = static_cast<int>(
        std::min<size_t>(static_cast<size_t>(threads_), compute.size()));
    if (pool == 1) {
        worker();
    } else if (pool > 1) {
        std::vector<std::thread> workers;
        workers.reserve(static_cast<size_t>(pool));
        for (int t = 0; t < pool; ++t)
            workers.emplace_back(worker);
        for (auto &t : workers)
            t.join();
    }

    // Resolve in-batch aliases now that their owners have run, then
    // install the computed results into the cache.
    for (auto [idx, owner_idx] : b.aliases_) {
        slots[idx] = slots[owner_idx];
        b.hits_[idx] = 1;
    }
    if (!compute.empty()) {
        std::lock_guard<std::mutex> lock(cacheMutex_);
        for (size_t idx : compute)
            cache_.emplace(b.keys_[idx], slots[idx]);
    }

    // Deliver in job order: deterministic at any thread count. Each
    // delivered result is built once, here.
    std::vector<EvalResult> results;
    results.reserve(slots.size());
    for (size_t i = 0; i < slots.size(); ++i)
        results.push_back(deliver(*slots[i], batch[i], b.hits_[i]));
    return results;
}

std::vector<EvalResult>
Engine::run(const std::vector<EvalJob> &jobs, ProgressFn progress)
{
    return run(resolve(jobs), std::move(progress));
}

// ---- obs/100k grid -------------------------------------------------

Table
obsTable(const std::vector<EvalResult> &results, const std::string &corner,
         const std::function<std::string(const EvalResult &)> &row_of)
{
    std::vector<std::string> rows, cols;
    std::map<std::string, std::map<std::string, std::string>> cells;
    for (const EvalResult &r : results) {
        std::string row = row_of(r);
        std::string col = std::to_string(r.column());
        if (cells.find(row) == cells.end())
            rows.push_back(row);
        if (std::find(cols.begin(), cols.end(), col) == cols.end())
            cols.push_back(col);
        cells[row][col] = std::to_string(r.observedPer100k);
    }
    Table table;
    std::vector<std::string> header{corner};
    header.insert(header.end(), cols.begin(), cols.end());
    table.header(header);
    for (const auto &row : rows) {
        std::vector<std::string> line{row};
        const auto &have = cells.at(row);
        for (const auto &col : cols) {
            auto it = have.find(col);
            line.push_back(it == have.end() ? "-" : it->second);
        }
        table.row(line);
    }
    return table;
}

// ---- conformance --------------------------------------------------

const char *
toString(Conformance kind)
{
    switch (kind) {
      case Conformance::Sound: return "sound";
      case Conformance::Unsound: return "unsound";
      case Conformance::Imprecise: return "imprecise";
      case Conformance::Rare: return "rare";
      case Conformance::Unreachable: return "unreachable";
      case Conformance::Bounded: return "bounded";
    }
    return "?";
}

namespace {

/**
 * Classify one cell against one verdict from whatever evidence is
 * present: `observed` (sampling histogram, may be null) and `exact`
 * (exploration, may be null). The upgrade logic in one place so
 * sim+mc, sim-only and mc-only cells cannot drift apart.
 */
void
classify(ConformanceCell &cell, const model::Verdict &verdict,
         const std::map<std::string, uint64_t> *observed,
         const mc::ExploreResult *exact)
{
    auto observedHas = [&](const std::string &key) {
        if (!observed)
            return false;
        auto it = observed->find(key);
        return it != observed->end() && it->second > 0;
    };

    // Violations: sampled-but-forbidden, plus (definitively)
    // reachable-but-forbidden when an exploration is present.
    if (observed) {
        for (const auto &[key, count] : *observed) {
            if (count > 0 && !verdict.allowedKeys.count(key))
                cell.violations.push_back(key);
        }
    }
    if (exact) {
        for (const auto &[key, weight] : exact->finals) {
            if (!verdict.allowedKeys.count(key) &&
                !observedHas(key))
                cell.violations.push_back(key);
        }
        // Cross-engine sanity: everything the sampler saw must be
        // reachable by the exhaustive search of the same machine.
        if (observed && exact->complete) {
            for (const auto &[key, count] : *observed) {
                if (count > 0 && !exact->reachable(key))
                    cell.inconsistent.push_back(key);
            }
        }
        cell.hasExact = true;
        cell.exactComplete = exact->complete;
    }

    // The imprecision side: allowed outcomes the sampler missed,
    // resolved by the exploration when one is present.
    for (const auto &allowed : verdict.allowedKeys) {
        if (observedHas(allowed))
            continue;
        if (!exact) {
            cell.unobserved.push_back(allowed);
        } else if (exact->reachable(allowed)) {
            // Without a histogram, the exploration itself is the
            // observation: only unsampled-but-reachable keys count
            // as "rare".
            if (observed) {
                cell.rare.push_back(
                    {allowed, exact->finals.at(allowed)});
            }
        } else if (exact->complete) {
            cell.unreachable.push_back(allowed);
        } else {
            cell.unobserved.push_back(allowed);
        }
    }

    if (!cell.violations.empty())
        cell.kind = Conformance::Unsound;
    else if (!cell.unobserved.empty())
        cell.kind = cell.hasExact && !cell.exactComplete
                        ? Conformance::Bounded
                        : Conformance::Imprecise;
    else if (!cell.rare.empty())
        cell.kind = Conformance::Rare;
    else if (!cell.unreachable.empty())
        cell.kind = Conformance::Unreachable;
    else
        cell.kind = Conformance::Sound;
}

} // anonymous namespace

std::vector<ConformanceCell>
conform(const std::vector<EvalResult> &results)
{
    // Each result's rendered test, held here because a job without a
    // shared text renders a fresh one.
    std::vector<std::shared_ptr<const harness::TestText>> texts;
    texts.reserve(results.size());
    // Result indices of the sim and exact sides. Cache hits repeat
    // identical cells; keep the first per (cell, label) so repeats do
    // not duplicate rows but distinctly-labelled duplicates stay
    // visible.
    std::vector<size_t> sims, exacts;
    std::set<std::pair<uint64_t, std::string>> seen_sims, seen_exacts;
    // test text -> model id -> verdict; keyed by the exact text so
    // distinct tests can never collide into each other's verdicts.
    std::map<std::string_view,
             std::map<std::string_view, const model::Verdict *>>
        verdicts;
    for (size_t i = 0; i < results.size(); ++i) {
        const EvalResult &r = results[i];
        texts.push_back(r.job->renderedTest());
        if (r.hasHist() &&
            seen_sims.insert({r.job->cacheKey(), r.label()}).second)
            sims.push_back(i);
        if (r.hasExact() &&
            seen_exacts.insert({r.job->cacheKey(), r.label()}).second)
            exacts.push_back(i);
        // Out-of-scope refusals never join: the model said nothing, so
        // the cell must not read as trivially sound (or unsound).
        if (r.hasVerdict() && !r.verdict->outOfScope)
            verdicts[texts[i]->str][r.backend] = &*r.verdict;
    }

    auto same_cell = [&](size_t a, size_t b) {
        const EvalJob &x = *results[a].job, &y = *results[b].job;
        return texts[a]->str == texts[b]->str &&
               x.chip.shortName == y.chip.shortName &&
               x.inc.column() == y.inc.column();
    };
    std::vector<ConformanceCell> out;
    auto join = [&](size_t i, const litmus::Histogram *hist,
                    const mc::ExploreResult *exact) {
        auto matching = verdicts.find(texts[i]->str);
        if (matching == verdicts.end())
            return;
        const EvalJob &job = *results[i].job;
        for (const auto &[model, verdict] : matching->second) {
            ConformanceCell cell;
            cell.test = job.displayLabel();
            cell.chip = job.chip.shortName;
            cell.column = job.inc.column();
            cell.model = model;
            cell.runs = hist ? hist->total() : 0;
            classify(cell, *verdict, hist ? &hist->counts() : nullptr,
                     exact);
            out.push_back(std::move(cell));
        }
    };
    for (size_t sim : sims) {
        auto exact = std::find_if(exacts.begin(), exacts.end(),
                                  [&](size_t e) { return same_cell(sim, e); });
        join(sim, &*results[sim].hist,
             exact == exacts.end() ? nullptr : &*results[*exact].exact);
    }
    // Explorations with no sim histogram of their own still make
    // cells: the exact set *is* the observation.
    for (size_t exact : exacts) {
        if (std::none_of(sims.begin(), sims.end(),
                         [&](size_t sim) { return same_cell(sim, exact); }))
            join(exact, nullptr, &*results[exact].exact);
    }
    return out;
}

Table
conformanceSummary(const std::vector<ConformanceCell> &cells)
{
    struct ModelRow
    {
        size_t cells = 0;
        size_t sound = 0, unsound = 0, imprecise = 0;
        size_t rare = 0, unreachable = 0, bounded = 0;
        std::string example; ///< first unsound counterexample
    };
    std::vector<std::string> order;
    std::map<std::string, ModelRow> rows;
    for (const auto &cell : cells) {
        if (!rows.count(cell.model))
            order.push_back(cell.model);
        ModelRow &row = rows[cell.model];
        ++row.cells;
        switch (cell.kind) {
          case Conformance::Sound: ++row.sound; break;
          case Conformance::Imprecise: ++row.imprecise; break;
          case Conformance::Rare: ++row.rare; break;
          case Conformance::Unreachable: ++row.unreachable; break;
          case Conformance::Bounded: ++row.bounded; break;
          case Conformance::Unsound:
            ++row.unsound;
            if (row.example.empty()) {
                row.example = cell.test + " on " + cell.chip + ": " +
                              cell.violations.front();
            }
            break;
        }
    }
    Table table;
    table.header({"model", "cells", "sound", "unsound", "imprecise",
                  "rare", "unreach", "bounded", "verdict",
                  "first counterexample"});
    for (const auto &model : order) {
        const ModelRow &row = rows.at(model);
        table.row({model, std::to_string(row.cells),
                   std::to_string(row.sound),
                   std::to_string(row.unsound),
                   std::to_string(row.imprecise),
                   std::to_string(row.rare),
                   std::to_string(row.unreachable),
                   std::to_string(row.bounded),
                   row.unsound == 0 ? "SOUND" : "UNSOUND",
                   row.example.empty() ? "-" : row.example});
    }
    return table;
}

namespace {

std::vector<std::string>
cellJsonEntries(const std::vector<ConformanceCell> &cells)
{
    auto keyArray = [](const std::vector<std::string> &keys) {
        std::string out = "[";
        bool first = true;
        for (const auto &key : keys) {
            if (!first)
                out += ",";
            out += "\"" + jsonEscape(key) + "\"";
            first = false;
        }
        return out + "]";
    };
    std::vector<std::string> entries;
    entries.reserve(cells.size());
    for (const ConformanceCell &cell : cells) {
        std::string rare = "{";
        bool first = true;
        for (const auto &[key, weight] : cell.rare) {
            if (!first)
                rare += ",";
            rare += "\"" + jsonEscape(key) +
                    "\":" + std::to_string(weight);
            first = false;
        }
        rare += "}";
        entries.push_back(
            "{\"test\":\"" + jsonEscape(cell.test) + "\"," +
            "\"chip\":\"" + jsonEscape(cell.chip) + "\"," +
            "\"column\":" + std::to_string(cell.column) + "," +
            "\"model\":\"" + jsonEscape(cell.model) + "\"," +
            "\"kind\":\"" + toString(cell.kind) + "\"," +
            "\"runs\":" + std::to_string(cell.runs) + "," +
            "\"exact\":" + (cell.hasExact ? "true" : "false") + "," +
            "\"exact_complete\":" +
            (cell.exactComplete ? "true" : "false") + "," +
            "\"violations\":" + keyArray(cell.violations) + "," +
            "\"unobserved\":" + keyArray(cell.unobserved) + "," +
            "\"rare\":" + rare + "," +
            "\"unreachable\":" + keyArray(cell.unreachable) + "," +
            "\"inconsistent\":" + keyArray(cell.inconsistent) + "}");
    }
    return entries;
}

} // namespace

bool
writeConformanceFile(const std::string &path,
                     const std::vector<ConformanceCell> &cells)
{
    return writeJsonArrayFile(path, cellJsonEntries(cells));
}

// ---- cell JSON ------------------------------------------------------

namespace {

/** An integer, as std::to_string renders it. */
template <typename Int>
void
appendNum(std::string &out, Int v)
{
    char buf[24];
    auto end = std::to_chars(buf, buf + sizeof buf, v).ptr;
    out.append(buf, end);
}

/** A double, as std::to_string renders it ("%f"). */
void
appendFixed(std::string &out, double v)
{
    char buf[64];
    int n = std::snprintf(buf, sizeof buf, "%f", v);
    if (n > 0 && static_cast<size_t>(n) < sizeof buf)
        out.append(buf, static_cast<size_t>(n));
    else
        out += std::to_string(v);
}

void
appendBool(std::string &out, bool v)
{
    out += v ? "true" : "false";
}

/** A quoted, escaped JSON string. */
void
appendStr(std::string &out, std::string_view v)
{
    out += '"';
    appendJsonEscaped(out, v);
    out += '"';
}

/** A JSON object of string -> count members. */
void
appendCounts(std::string &out,
             const std::map<std::string, uint64_t> &counts)
{
    out += '{';
    bool first = true;
    for (const auto &[key, count] : counts) {
        if (!first)
            out += ',';
        first = false;
        appendStr(out, key);
        out += ':';
        appendNum(out, count);
    }
    out += '}';
}

void
appendVerdictFields(std::string &out, const model::Verdict &v)
{
    out += ",\"model\":";
    appendStr(out, v.modelName);
    out += ",\"candidates\":";
    appendNum(out, v.numCandidates);
    out += ",\"allowed\":";
    appendNum(out, v.numAllowed);
    out += ",\"model_verdict\":";
    appendStr(out, v.verdict);
    out += ",\"allowed_outcomes\":[";
    bool first = true;
    for (const auto &key : v.allowedKeys) {
        if (!first)
            out += ',';
        first = false;
        appendStr(out, key);
    }
    out += ']';
}

void
appendExactFields(std::string &out, const mc::ExploreResult &x,
                  const EvalJob &job)
{
    out += ",\"chip\":";
    appendStr(out, x.chipName);
    out += ",\"column\":";
    appendNum(out, x.column);
    out += ",\"complete\":";
    appendBool(out, x.complete);
    out += ",\"fair_complete\":";
    appendBool(out, x.fairComplete);
    out += ",\"paths\":";
    appendNum(out, x.paths);
    out += ",\"replays\":";
    appendNum(out, x.stats.replays);
    out += ",\"states\":";
    appendNum(out, x.stats.distinctStates);
    out += ",\"state_cuts\":";
    appendNum(out, x.stats.stateCuts);
    out += ",\"sleep_skips\":";
    appendNum(out, x.stats.sleepSkips);
    // Bounded-verdict diagnostics: deepest frontier, checkpoint
    // resumes, and the replay budget the job carried. The budget comes
    // from the job — not the advisory ExploreResult fields — so
    // store-served cells render byte-identically to computed ones (CI
    // diffs them).
    out += ",\"peak_depth\":";
    appendNum(out, x.stats.peakDepth);
    out += ",\"resumes\":";
    appendNum(out, x.stats.resumes);
    out += ",\"budget_replays\":";
    appendNum(out, job.iterations);
    out += ",\"reachable\":";
    appendCounts(out, x.finals);
}

} // namespace

void
appendCellJson(std::string &out, const EvalResult &result)
{
    const EvalJob &job = *result.job;
    out += "{\"label\":";
    if (!job.label.empty())
        appendStr(out, job.label);
    else
        appendStr(out, job.displayLabel());
    if (result.hasHist()) {
        // The sim schema: job identity, histogram and provenance (a
        // both-sided result appends the verdict fields).
        const litmus::Histogram &hist = *result.hist;
        out += ",\"backend\":";
        appendStr(out, job.backend);
        out += ",\"test\":";
        appendStr(out, job.test.name);
        out += ",\"chip\":";
        appendStr(out, job.chip.shortName);
        out += ",\"vendor\":";
        appendStr(out, job.chip.vendor);
        out += ",\"column\":";
        appendNum(out, job.inc.column());
        out += ",\"incantations\":";
        appendStr(out, job.inc.str());
        out += ",\"iterations\":";
        appendNum(out, job.iterations);
        out += ",\"seed\":";
        appendNum(out, job.seed);
        out += ",\"observed\":";
        appendNum(out, hist.observed());
        out += ",\"total\":";
        appendNum(out, hist.total());
        out += ",\"obs_per_100k\":";
        appendNum(out, result.observedPer100k);
        out += ",\"verdict\":";
        appendStr(out, hist.verdict());
        out += ",\"cached\":";
        appendBool(out, result.fromCache);
        out += ",\"millis\":";
        appendFixed(out, result.millis);
        out += ",\"counts\":";
        appendCounts(out, hist.counts());
        if (result.hasVerdict())
            appendVerdictFields(out, *result.verdict);
    } else {
        out += ",\"backend\":";
        appendStr(out, result.backend);
        out += ",\"test\":";
        appendStr(out, job.test.name);
        out += ",\"cached\":";
        appendBool(out, result.fromCache);
        out += ",\"millis\":";
        appendFixed(out, result.millis);
        if (result.hasVerdict())
            appendVerdictFields(out, *result.verdict);
        if (result.hasExact())
            appendExactFields(out, *result.exact, job);
    }
    // Provenance for store-hit assertions (CI serve-smoke greps it).
    out += ",\"from_store\":";
    appendBool(out, result.fromStore);
    out += '}';
}

std::string
evalCellJson(const EvalResult &result)
{
    std::string out;
    appendCellJson(out, result);
    return out;
}

bool
writeCellsFile(const std::string &path,
               const std::vector<EvalResult> &results)
{
    std::vector<std::string> entries;
    entries.reserve(results.size());
    for (const EvalResult &r : results)
        entries.push_back(evalCellJson(r));
    return writeJsonArrayFile(path, entries);
}

} // namespace gpulitmus::eval
