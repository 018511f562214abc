/**
 * @file
 * The durable, content-addressed result store: a verdict for a given
 * job never needs recomputing.
 *
 * Every engine result — a sampled histogram, a model verdict, an
 * exact exploration — is a pure function of its job (eval::Engine's
 * in-process cache relies on that contract; this layer extends it
 * across process lifetimes). The store persists results on
 * disk keyed by a 128-bit content digest of the job (Digest128,
 * common/hash.h) folded with the compiled-in ABI stamp
 * (common/version.h), so:
 *
 *  - two binaries of the same ABI generation share verdicts byte for
 *    byte (the warm half of BENCH_serve.json);
 *  - a binary of a *different* generation never serves a stale entry:
 *    the stamp is in the digest AND in the file header, so even a
 *    change to the digest function itself is caught.
 *
 * On-disk format (DIR/results.log), designed for crash safety over
 * compactness:
 *
 *   header:  "GLRS" u32(formatVersion) u32(abiLen) abi-bytes
 *   record:  u32(kRecordMagic) u32(payloadLen)
 *            u64(digest.lo) u64(digest.hi) u64(payloadChecksum)
 *            payload-bytes
 *
 * The log is append-only; the full index lives in memory (decoded
 * records, shared_ptr-served). open() replays the log: a torn tail
 * (crash mid-append) or a corrupt record (checksum/magic/length
 * mismatch) truncates the log at the last intact record — everything
 * before it is served, everything after is recomputed, nothing wrong
 * is ever returned. A header from another ABI generation resets the
 * log entirely (stale verdicts are worthless, ISSUE rule: never
 * served).
 *
 * Payloads deliberately exclude the job's test/chip (the requester
 * supplies those — a hit re-points the stored result at the submitted
 * job, exactly like an eval::Engine cache hit) and the model witnesses
 * (display-only; the conformance join never reads them — documented
 * in docs/SERVE.md).
 *
 * Capacity: maxBytes (StoreOptions) bounds the log. When an append
 * would exceed it, the log is compacted — rewritten from the index
 * dropping oldest-appended entries down to half the cap (temp file +
 * atomic rename, so a crash mid-compaction leaves either the old or
 * the new log, both valid).
 *
 * Thread safety: all public methods are safe from concurrent engine
 * workers and daemon client threads (one mutex; lookups copy a
 * shared_ptr, decodes happen once at load/put).
 */

#ifndef GPULITMUS_SERVE_STORE_H
#define GPULITMUS_SERVE_STORE_H

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "eval/backend.h"
#include "harness/campaign.h"

namespace gpulitmus::serve {

struct StoreOptions
{
    /** Log size cap in bytes; 0 = unbounded. Exceeding it compacts
     * the log, evicting oldest-appended entries to half the cap. */
    uint64_t maxBytes = 0;
    /** fsync on every flush() (daemons); plain CLI store use keeps
     * it off and relies on the OS cache + torn-tail recovery. */
    bool syncOnFlush = true;
};

/** Counters over one open store's lifetime (monotonic). */
struct StoreStats
{
    uint64_t hits = 0;      ///< fetches served from the store
    uint64_t misses = 0;    ///< fetches that found nothing
    uint64_t appends = 0;   ///< records written by this process
    uint64_t loaded = 0;    ///< intact records replayed at open()
    uint64_t evicted = 0;   ///< records dropped by compaction
    /** Bytes cut from the log at open() (torn tail / corruption). */
    uint64_t truncatedBytes = 0;
    /** The log belonged to another ABI generation and was reset. */
    bool resetStale = false;
};

/**
 * One persistent result store rooted at a directory. Open one per
 * daemon (or per CLI invocation with --store); concurrent *processes*
 * on one directory are not coordinated — the daemon owns its store,
 * and the offline CLI path expects one process at a time (the ops
 * notes in docs/SERVE.md).
 */
class ResultStore
{
  public:
    ~ResultStore();

    /** Open (creating the directory/log as needed). Returns null and
     * sets `error` when the directory cannot be created or the log
     * cannot be opened for append. */
    static std::unique_ptr<ResultStore>
    open(const std::string &dir, StoreOptions opts = {},
         std::string *error = nullptr);

    /**
     * Content digest of a job, ABI stamp folded in. Mirrors the
     * *semantics* of harness::Job::cacheKey — model jobs key on
     * (backend, test text) only; sim jobs add chip/column/seed; mc
     * jobs add chip/column/budget but no seed — over the job's
     * content rather than 64-bit fnv1a folds, so records are immune
     * to in-process hash-seed choices and wide enough to address
     * every result a fleet of sweeps can produce.
     */
    static Digest128 digestFor(const harness::Job &job);

    /** Serve an evaluation result: null on miss; on hit the result is
     * re-pointed at `job` (label, owned test), `fromStore` set,
     * `millis` zeroed. */
    std::optional<eval::EvalResult> fetchEval(const harness::Job &job);

    /** Persist a computed result (idempotent: an existing digest is
     * left alone — results are pure functions of jobs, so the first
     * write is as good as any). */
    void putEval(const harness::Job &job,
                 const eval::EvalResult &result);

    /** Push appended records to disk (and fsync when syncOnFlush).
     * False + `error` when the write-back fails. */
    bool flush(std::string *error = nullptr);

    size_t size() const;
    StoreStats stats() const;
    const std::string &dir() const { return dir_; }
    std::string logPath() const;

  private:
    ResultStore(std::string dir, StoreOptions opts);

    struct Record; ///< decoded payload + append order (store.cc)

    bool loadLog(std::string *error);
    bool appendLocked(const Digest128 &key,
                      const std::shared_ptr<const Record> &rec);
    bool compactLocked();
    void putRecord(const Digest128 &key,
                   std::shared_ptr<const Record> rec);
    std::shared_ptr<const Record> lookup(const Digest128 &key);

    std::string dir_;
    StoreOptions opts_;

    mutable std::mutex mutex_;
    std::unordered_map<Digest128, std::shared_ptr<const Record>,
                       Digest128::Hasher>
        index_;
    uint64_t appendSeq_ = 0; ///< eviction order stamp
    int fd_ = -1;            ///< append handle on results.log
    uint64_t logBytes_ = 0;  ///< current log length
    StoreStats stats_;
};

} // namespace gpulitmus::serve

#endif // GPULITMUS_SERVE_STORE_H
