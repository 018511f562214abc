/**
 * @file
 * The unified evaluation API: one Job, three engines.
 *
 * The paper's central empirical move (Sec. 5.4) is running the *same*
 * litmus test through two very different engines — hardware
 * observation and herd-style model evaluation — and comparing
 * verdicts. This layer makes "evaluate test T under engine E" one
 * uniform operation:
 *
 * - a Backend has a name() and evaluates an EvalJob (the harness::Job
 *   — the job itself names its backend) to an EvalResult, a tagged
 *   result carrying a litmus::Histogram (simulation), a
 *   model::Verdict (axiomatic evaluation), or both;
 * - SimBackend wraps the operational machine (harness::runJob),
 *   AxiomBackend wraps model::Checker over any cat::Model (built-in
 *   or parsed from a .cat file), BaselineBackend wraps the Sec. 6
 *   operational-baseline model;
 * - eval::Engine spreads a mixed-backend batch over a deterministic
 *   worker pool with an in-process result cache — sim cells keep
 *   their harness::runJob RNG streams bit-identically at any thread
 *   count, model cells collapse onto one evaluation per (backend,
 *   test);
 * - ConformanceSink joins the sim histograms against the model
 *   verdicts per (chip, test, incantation) cell and classifies each
 *   as sound, unsound (observed-but-forbidden) or imprecise
 *   (allowed-never-observed) — the Sec. 5.4 table as one planned
 *   validate request (serve::planJobs).
 *   Exact (mc) results join too and upgrade imprecise cells to
 *   rare/unreachable/bounded; the full verdict lattice and the
 *   exact-vs-sampled evidence semantics are documented in
 *   docs/VERDICTS.md.
 *
 * Engine notes: SimBackend rides the pooled per-thread machine cache
 * in harness::runJob (one compiled machine per (chip, test) pair,
 * re-parameterised per job), and McBackend's explorer checkpoints
 * and digest-keys its search (mc/explorer.h) — both pure wall-clock
 * machinery whose results are bit-identical to recomputation, so
 * cache identities never observe them. The GPULITMUS_MC_DEBUG_KEYS
 * environment knob (McBackend::optionsFor) switches the explorer's
 * state cache back to the PR-3 string keys for forensic
 * cross-checks.
 */

#ifndef GPULITMUS_EVAL_BACKEND_H
#define GPULITMUS_EVAL_BACKEND_H

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "cat/cat.h"
#include "common/table.h"
#include "harness/campaign.h"
#include "litmus/outcome.h"
#include "mc/explorer.h"
#include "model/checker.h"

namespace gpulitmus::serve {
class ResultStore; // serve/store.h — only backend.cc needs the type
}

namespace gpulitmus::eval {

/** One Job across every engine: the harness job, whose `backend`
 * field names the engine that evaluates it. */
using EvalJob = harness::Job;

/**
 * Tagged result of evaluating one job under one backend: a histogram
 * (sim), a verdict (axiomatic), or — for joined sinks — either side
 * of the comparison. Self-contained: `job` owns the test the
 * histogram references.
 */
struct EvalResult
{
    /** The job as submitted (shared so histograms, which reference
     * their test, stay valid however results are copied around). */
    std::shared_ptr<const EvalJob> job;
    /** Resolved backend id ("sim", "ptx", "baseline", ...). */
    std::string backend;

    /** Simulation side: the outcome histogram. */
    std::optional<litmus::Histogram> hist;
    /** Observations normalised to per-100k, as the paper reports. */
    uint64_t observedPer100k = 0;

    /** Axiomatic side: the model verdict. */
    std::optional<model::Verdict> verdict;

    /** Exhaustive side: the exact reachable set (mc backend). */
    std::optional<mc::ExploreResult> exact;

    /** True when the engine served this cell from its cache (or from
     * a batch-mate with the same cache identity). */
    bool fromCache = false;
    /** True when the persistent result store answered this cell
     * (EngineOptions::store) without evaluating. */
    bool fromStore = false;
    /** Wall-clock of the evaluation (0 for cache hits). */
    double millis = 0.0;

    bool hasHist() const { return hist.has_value(); }
    bool hasVerdict() const { return verdict.has_value(); }
    bool hasExact() const { return exact.has_value(); }

    const sim::ChipProfile &chip() const { return job->chip; }
    std::string label() const { return job->displayLabel(); }
    int column() const { return job->inc.column(); }
};

/**
 * An evaluation engine: evaluates jobs, one at a time. Implementations
 * must be safe to call from multiple worker threads concurrently.
 */
class Backend
{
  public:
    virtual ~Backend() = default;

    /** Backend id; mixed into job keys and shown by sinks. */
    virtual std::string name() const = 0;

    /** Evaluate one job to a tagged result. */
    virtual EvalResult evaluate(const EvalJob &job) const = 0;
};

/** The operational simulator: wraps harness::runJob, so a sim cell is
 * bit-identical to runJob of the same job (same derived seed). */
class SimBackend : public Backend
{
  public:
    std::string name() const override { return harness::kSimBackend; }
    EvalResult evaluate(const EvalJob &job) const override;
};

/**
 * The exhaustive schedule explorer ("mc", alias "exhaustive"): the
 * same operational machine as SimBackend, enumerated instead of
 * sampled (mc/explorer.h). The job's `iterations` field is the
 * replay budget; `seed` is ignored (the search is deterministic).
 * Returns the exact reachable final-state set in EvalResult::exact —
 * or a bounded lower bound when the budget trips.
 */
class McBackend : public Backend
{
  public:
    std::string name() const override { return harness::kMcBackend; }
    EvalResult evaluate(const EvalJob &job) const override;

    /** The explorer configuration a job maps to (shared with tests
     * and benches so they explore exactly what the backend runs). */
    static mc::ExploreOptions optionsFor(const EvalJob &job);
};

/**
 * Herd-style axiomatic evaluation: wraps model::Checker over any
 * cat::Model — a built-in (non-owning) or one parsed from a .cat
 * file (owning). The result depends only on the test; candidate
 * enumeration is memoised process-wide (model/checker.h).
 */
class AxiomBackend : public Backend
{
  public:
    /** Non-owning view of a built-in (static-lifetime) model; the
     * backend id defaults to the model's name. */
    explicit AxiomBackend(const cat::Model &model,
                          axiom::EnumeratorOptions opts = {});

    /** Parse `source` as a .cat model the backend owns. Returns null
     * and sets `error` on bad syntax. */
    static std::shared_ptr<AxiomBackend>
    fromSource(const std::string &source, const std::string &name,
               std::string *error = nullptr);

    /** Load and parse a .cat model file. Returns null and sets
     * `error` when unreadable or malformed. */
    static std::shared_ptr<AxiomBackend>
    fromFile(const std::string &path, std::string *error = nullptr);

    std::string name() const override { return name_; }
    EvalResult evaluate(const EvalJob &job) const override;

    const cat::Model &model() const { return *model_; }

  protected:
    AxiomBackend(std::shared_ptr<const cat::Model> owned,
                 std::string name);

  private:
    std::shared_ptr<const cat::Model> owned_; ///< null for built-ins
    const cat::Model *model_;
    axiom::EnumeratorOptions opts_;
    std::string name_;
};

/** The Sec. 6 comparison baseline: the operational Nvidia model of
 * Sorensen et al. rendered axiomatically (model/baseline.h). The
 * paper shows it unsound (inter-CTA lb+membar.ctas). */
class BaselineBackend : public AxiomBackend
{
  public:
    BaselineBackend();
    std::string name() const override { return "baseline"; }
};

/**
 * Resolve a backend id: "sim"; "mc" (alias: exhaustive); a built-in
 * model name (ptx, rmo, sc, tso, sc-per-loc-full); "baseline"
 * (aliases: operational, sorensen); or a path to a .cat file
 * (anything containing '/' or ending in ".cat"). Instances are
 * cached process-wide, so repeated resolution is cheap and every job
 * naming the same backend shares one engine. Returns null and sets
 * `error` (which lists the valid names) when the id is unknown or
 * the file fails to parse.
 */
std::shared_ptr<const Backend>
backendByName(const std::string &name, std::string *error = nullptr);

/** backendByName restricted to axiomatic (model) backends: resolves
 * the id and rejects non-model engines like "sim". Returns null and
 * sets `error` (listing the valid model names) otherwise. */
std::shared_ptr<const AxiomBackend>
modelBackendByName(const std::string &name,
                   std::string *error = nullptr);

/** The built-in backend ids, in presentation order. */
std::vector<std::string> builtinBackendNames();

/** The built-in model backend ids (every builtin except the
 * simulator). */
std::vector<std::string> builtinModelNames();

/** Streaming sink for evaluation results, delivered in job order. */
class EvalSink
{
  public:
    virtual ~EvalSink() = default;
    virtual void add(const EvalResult &result) = 0;
};

/** Progress callback: (computed jobs finished so far, total jobs to
 * compute, the result that just finished). Cells served from the
 * cache, the store or aliased onto a batch-mate are not reported —
 * the callback tracks evaluation work, not deliveries. Invoked from
 * worker threads as jobs complete; completion order is
 * nondeterministic, use sinks for ordered output. */
using ProgressFn =
    std::function<void(size_t done, size_t total, const EvalResult &)>;

struct EngineOptions
{
    /** Worker threads; 0 means harness::defaultJobs(). */
    int threads = 0;
    /** Optional persistent result store (serve/store.h): the L2
     * behind the in-process cache. Consulted on every cache miss
     * before any worker starts, fed every computed result. Not
     * owned; must outlive the engine. */
    serve::ResultStore *store = nullptr;
};

/**
 * The evaluation engine: spreads a batch of jobs — any mix of
 * backends — across a worker pool. Results come back in job order
 * regardless of scheduling, because a job's result is a pure function
 * of the job (seeds derive from job keys, never from scheduling): sim
 * histograms are bit-identical at any thread count. Repeated cells
 * within and across run() calls are computed once per Engine — model
 * jobs with the same (backend, test) collapse onto one evaluation. Unknown backend ids are fatal. Safe to call
 * from several threads at once (the daemon's client handlers do).
 *
 * A run has two phases. resolve() does every lookup on the calling
 * thread — in-process cache hits, in-batch aliases, store hits — and
 * leaves a Batch that knows how many jobs must compute. run(Batch)
 * then computes those on the pool; with none, it starts no worker.
 * The daemon reads Batch::computing() in between to decide whether a
 * request needs a journal entry and a heartbeat monitor.
 */
class Engine
{
  public:
    /** A batch with its lookups done (see resolve()). Refers to the
     * job vector it was resolved from, which must outlive it. */
    class Batch
    {
      public:
        /** Jobs that must compute: no cache entry, batch-mate or
         * store record answers them. */
        size_t computing() const { return compute_.size(); }

      private:
        friend class Engine;
        const std::vector<EvalJob> &jobs() const
        {
            return normalised_.empty() ? *submitted_ : normalised_;
        }

        const std::vector<EvalJob> *submitted_ = nullptr;
        std::vector<EvalJob> normalised_; ///< made only when needed
        std::unordered_map<std::string, std::shared_ptr<const Backend>>
            backends_;
        /** Shared results: computed, fetched from the store, or the
         * cache entry or batch-mate result a hit reuses. */
        std::vector<std::shared_ptr<const EvalResult>> slots_;
        /** 1 where the slot is a hit that run() re-points at its job. */
        std::vector<char> hits_;
        std::vector<uint64_t> keys_;  ///< cache keys
        std::vector<size_t> compute_; ///< job indices to evaluate
        /** (job index, index of the batch-mate it reuses). */
        std::vector<std::pair<size_t, size_t>> aliases_;
    };

    explicit Engine(EngineOptions opts = {});

    /** Resolve backends and answer every job the cache, a batch-mate
     * or the store can answer; unknown backend ids are fatal. */
    Batch resolve(const std::vector<EvalJob> &jobs);

    /** Compute what `batch` left open, then deliver every result to
     * the sinks in job order and return them. */
    std::vector<EvalResult>
    run(Batch batch, const std::vector<EvalSink *> &sinks = {},
        ProgressFn progress = nullptr);

    /** resolve() then run(): execute all jobs; blocks until done. */
    std::vector<EvalResult>
    run(const std::vector<EvalJob> &jobs,
        const std::vector<EvalSink *> &sinks = {},
        ProgressFn progress = nullptr);

    int threads() const { return threads_; }
    /** Cells served from the cache (including in-batch aliases) over
     * this Engine's lifetime. */
    uint64_t cacheHits() const;
    size_t cacheSize() const;

  private:
    int threads_ = 1;
    serve::ResultStore *store_ = nullptr;

    /** Result memo keyed by Job::cacheKey. */
    mutable std::mutex cacheMutex_;
    std::unordered_map<uint64_t, std::shared_ptr<const EvalResult>>
        cache_;
    uint64_t cacheHits_ = 0;
};

/**
 * Renders results as a fixed-width table (common/table). Rows and
 * columns are chosen by caller-supplied key functions; cells are
 * obs/100k. First-seen order is preserved for both axes.
 */
class TableSink : public EvalSink
{
  public:
    using KeyFn = std::function<std::string(const EvalResult &)>;

    TableSink(std::string corner, KeyFn row_of, KeyFn col_of);

    void add(const EvalResult &result) override;

    /** Assemble the table from everything added so far. */
    Table render() const;

    // Common axis key functions.
    static KeyFn byChip();   ///< chip short name
    static KeyFn byColumn(); ///< Tab. 6 incantation column
    static KeyFn byLabel();  ///< job display label

  private:
    std::string corner_;
    KeyFn rowOf_, colOf_;
    std::vector<std::string> rowOrder_, colOrder_;
    std::map<std::string, std::map<std::string, std::string>> cells_;
};

// ---- conformance ----------------------------------------------------

/**
 * Classification of one (chip, test, incantation, model) cell.
 *
 * Sampling alone can only produce the first three. When an exact
 * (mc) exploration of the same cell is present, every `Imprecise`
 * verdict upgrades to a definitive one: each allowed-but-unsampled
 * outcome is either reachable (the sampling was merely unlucky —
 * `Rare`, with the explorer's path weight) or provably unreachable
 * by the machine (`Unreachable` — the model is genuinely looser).
 * `Bounded` is the graceful degradation when the exploration budget
 * tripped before the question was settled.
 */
enum class Conformance
{
    Sound,       ///< every observed outcome is allowed by the model
    Unsound,     ///< an observed/reachable outcome is forbidden
    Imprecise,   ///< sound, but some allowed outcome never showed up
    Rare,        ///< imprecise, upgraded: the missing outcomes are
                 ///  reachable — under-sampling, not model slack
    Unreachable, ///< imprecise, upgraded: the missing outcomes are
                 ///  machine-unreachable — definitive model slack
    Bounded,     ///< imprecise; the exploration budget ran out first
};

const char *toString(Conformance kind);

/** One row of the Sec. 5.4 join. */
struct ConformanceCell
{
    std::string test;  ///< display label of the simulated cell
    std::string chip;  ///< chip short name
    int column = 16;   ///< incantation column of the simulated cell
    std::string model; ///< model backend id
    Conformance kind = Conformance::Sound;
    /** Observed-but-forbidden (or mc-reachable-but-forbidden)
     * outcome keys. */
    std::vector<std::string> violations;
    /** Allowed-but-never-observed outcome keys (still unresolved:
     * no exact data, or the budget tripped). */
    std::vector<std::string> unobserved;
    /** Allowed, unsampled, but mc-reachable: key -> path weight. */
    std::vector<std::pair<std::string, uint64_t>> rare;
    /** Allowed but provably machine-unreachable (exact data). */
    std::vector<std::string> unreachable;
    /** Sim-observed keys the exploration claims unreachable — an
     * internal inconsistency that must be empty (it would mean the
     * explorer lost states the sampler found). */
    std::vector<std::string> inconsistent;
    /** Simulated runs behind the observation (0 for mc-only cells). */
    uint64_t runs = 0;
    /** An exact exploration joined this cell. */
    bool hasExact = false;
    /** The joined exploration drained its choice tree. */
    bool exactComplete = false;
};

/**
 * Joins simulation histograms against model verdicts: feed it a
 * mixed-backend batch (sim + one or more model backends over the
 * same tests, as a planned validate request is) and it pairs every
 * simulated (chip, test, incantation) cell with every verdict for the
 * same test text, classifying each pair. Results from the mc backend
 * join too: an exact exploration of the same (chip, test,
 * incantation) upgrades the cell's verdict
 * (Imprecise -> Rare/Unreachable/Bounded, see Conformance) and adds
 * reachable-but-forbidden outcomes to the violations — a definitive
 * unsoundness proof that needs no sampling luck. Cells with an
 * exploration but no sim histogram are classified from the exact set
 * alone. Duplicate deliveries (cache hits) are deduplicated by cell
 * identity.
 */
class ConformanceSink : public EvalSink
{
  public:
    void add(const EvalResult &result) override;

    /** The join, in first-seen sim-cell order. Computed lazily and
     * memoised until the next add(), so repeated accessors (summary,
     * the classification counts) never redo the O(cells x models)
     * pairing. */
    const std::vector<ConformanceCell> &cells() const;

    /** Cells classified as `kind` (over cells()). */
    size_t count(Conformance kind) const;
    /** Cells whose sim observations escaped the exploration — must
     * stay 0; anything else is an explorer/simulator divergence. */
    size_t inconsistentCells() const;

    /** Per-model summary: cells, sound/unsound/imprecise counts and
     * the first counterexample. */
    Table summary() const;

    /** The join as a JSON array of cells. */
    void writeTo(std::ostream &os) const;
    bool writeFile(const std::string &path) const;

  private:
    struct SimCell
    {
        std::shared_ptr<const EvalJob> job; ///< owns the test
        litmus::Histogram hist;
        std::string text; ///< exact test text (join key)
    };

    struct ExactCell
    {
        std::shared_ptr<const EvalJob> job; ///< owns the test
        mc::ExploreResult exact;
        std::string text; ///< exact test text (join key)
    };

    /** The exploration joined to a sim cell, matched on (test text,
     * chip, incantation column); null when none was delivered. */
    const ExactCell *exactFor(const std::string &text,
                              const std::string &chip,
                              int column) const;

    std::vector<SimCell> sims_;
    std::vector<ExactCell> exacts_;
    /** Dedup of redelivered cells by (cache key, label): cache hits
     * across runs collapse, while distinctly-labelled submissions of
     * identical content keep their own rows. */
    std::set<std::pair<uint64_t, std::string>> seenSims_;
    std::set<std::pair<uint64_t, std::string>> seenExacts_;
    /** test text -> model id -> verdict; keyed by the exact text so
     * distinct tests can never collide into each other's verdicts. */
    std::map<std::string, std::map<std::string, model::Verdict>>
        verdicts_;
    /** Memoised join; reset by add(). */
    mutable std::optional<std::vector<ConformanceCell>> joined_;
};

/**
 * One evaluation result rendered as a JSON object — the schema of
 * JsonSink entries, shared with the serve layer's `result` events so
 * daemon output cannot drift from `--json` output. Sim entries carry
 * the histogram (plus the verdict fields of a both-sided result);
 * verdict/exact-only entries carry the model and exploration
 * statistics. Every entry carries "from_store".
 */
std::string evalCellJson(const EvalResult &result);

/** evalCellJson appended to `out`, with no temporaries: the daemon
 * renders result events straight into the bytes it sends. */
void appendCellJson(std::string &out, const EvalResult &result);

/**
 * Writes evaluation results as a JSON array (evalCellJson entries) for
 * machine consumption: BENCH artifacts, `gpulitmus sweep/explore
 * --json`.
 */
class JsonSink : public EvalSink
{
  public:
    void add(const EvalResult &result) override;

    void writeTo(std::ostream &os) const;
    bool writeFile(const std::string &path) const;
    size_t size() const { return entries_.size(); }

  private:
    std::vector<std::string> entries_;
};

} // namespace gpulitmus::eval

#endif // GPULITMUS_EVAL_BACKEND_H
