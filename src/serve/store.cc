#include "serve/store.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>

#include "common/log.h"
#include "common/version.h"
#include "obs/metrics.h"

namespace gpulitmus::serve {

namespace {

constexpr char kFileMagic[4] = {'G', 'L', 'R', 'S'};
constexpr uint32_t kFormatVersion = 1;
constexpr uint32_t kRecordMagic = 0x47524543; // "GREC"

// ---- little-endian buffer codec ------------------------------------
// Fixed-width little-endian, so a log written on any supported host
// replays on any other (the toolchain targets are all LE; the codec
// makes that explicit rather than memcpy-ing host order).

void
putU32(std::string &out, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out += static_cast<char>((v >> (8 * i)) & 0xff);
}

void
putU64(std::string &out, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out += static_cast<char>((v >> (8 * i)) & 0xff);
}

void
putDouble(std::string &out, double v)
{
    uint64_t bits;
    static_assert(sizeof bits == sizeof v);
    std::memcpy(&bits, &v, sizeof bits);
    putU64(out, bits);
}

void
putStr(std::string &out, std::string_view s)
{
    putU64(out, s.size());
    out.append(s.data(), s.size());
}

void
putCountMap(std::string &out,
            const std::map<std::string, uint64_t> &m)
{
    putU64(out, m.size());
    for (const auto &[key, count] : m) {
        putStr(out, key);
        putU64(out, count);
    }
}

void
putStrSet(std::string &out, const std::set<std::string> &s)
{
    putU64(out, s.size());
    for (const auto &key : s)
        putStr(out, key);
}

/** Bounds-checked sequential reader; any overrun latches !ok and
 * zero/empty values, so decode failures degrade to "corrupt record"
 * instead of UB. */
struct Reader
{
    std::string_view data;
    size_t pos = 0;
    bool ok = true;

    uint32_t
    u32()
    {
        if (pos + 4 > data.size()) {
            ok = false;
            return 0;
        }
        uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<uint32_t>(
                     static_cast<unsigned char>(data[pos + i]))
                 << (8 * i);
        pos += 4;
        return v;
    }

    uint64_t
    u64()
    {
        if (pos + 8 > data.size()) {
            ok = false;
            return 0;
        }
        uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<uint64_t>(
                     static_cast<unsigned char>(data[pos + i]))
                 << (8 * i);
        pos += 8;
        return v;
    }

    double
    dbl()
    {
        uint64_t bits = u64();
        double v = 0.0;
        std::memcpy(&v, &bits, sizeof v);
        return v;
    }

    std::string
    str()
    {
        uint64_t n = u64();
        if (!ok || pos + n > data.size()) {
            ok = false;
            return {};
        }
        std::string s(data.substr(pos, n));
        pos += n;
        return s;
    }

    std::map<std::string, uint64_t>
    countMap()
    {
        std::map<std::string, uint64_t> m;
        uint64_t n = u64();
        for (uint64_t i = 0; ok && i < n; ++i) {
            std::string key = str();
            uint64_t count = u64();
            if (ok)
                m.emplace(std::move(key), count);
        }
        return m;
    }

    std::set<std::string>
    strSet()
    {
        std::set<std::string> s;
        uint64_t n = u64();
        for (uint64_t i = 0; ok && i < n; ++i) {
            std::string key = str();
            if (ok)
                s.insert(std::move(key));
        }
        return s;
    }
};

constexpr uint8_t kHasHist = 1 << 0;
constexpr uint8_t kHasVerdict = 1 << 1;
constexpr uint8_t kHasExact = 1 << 2;

} // namespace

/**
 * The decoded payload of one store record: the job-independent half
 * of an EvalResult. The test, chip profile and label come back from
 * the job a fetch supplies; model witnesses are display-only and
 * deliberately not persisted (docs/SERVE.md).
 */
struct ResultStore::Record
{
    uint64_t seq = 0; ///< append order (in-memory, drives eviction)

    std::string backend;

    bool hasHist = false;
    std::map<std::string, uint64_t> counts;
    uint64_t observed = 0;
    uint64_t total = 0;
    uint64_t observedPer100k = 0;

    std::optional<model::Verdict> verdict;
    std::optional<mc::ExploreResult> exact;

    std::string
    encode() const
    {
        std::string out;
        uint8_t flags = 0;
        if (hasHist)
            flags |= kHasHist;
        if (verdict)
            flags |= kHasVerdict;
        if (exact)
            flags |= kHasExact;
        out += static_cast<char>(flags);
        putStr(out, backend);
        if (hasHist) {
            putCountMap(out, counts);
            putU64(out, observed);
            putU64(out, total);
            putU64(out, observedPer100k);
        }
        if (verdict) {
            const model::Verdict &v = *verdict;
            putStr(out, v.testName);
            putStr(out, v.modelName);
            putU64(out, v.numCandidates);
            putU64(out, v.numAllowed);
            putStrSet(out, v.allowedKeys);
            putStrSet(out, v.forbiddenKeys);
            out += static_cast<char>(v.conditionSatisfiable ? 1 : 0);
            out += static_cast<char>(v.outOfScope ? 1 : 0);
            putStr(out, v.verdict);
            putStr(out, v.forbiddingCheck);
        }
        if (exact) {
            const mc::ExploreResult &x = *exact;
            putStr(out, x.testName);
            putStr(out, x.chipName);
            putU64(out, static_cast<uint64_t>(x.column));
            out += static_cast<char>(x.complete ? 1 : 0);
            out += static_cast<char>(x.fairComplete ? 1 : 0);
            putCountMap(out, x.finals);
            putStrSet(out, x.satisfying);
            putU64(out, x.paths);
            putU64(out, x.stats.replays);
            putU64(out, x.stats.choicePoints);
            putU64(out, x.stats.stateCuts);
            putU64(out, x.stats.sleepSkips);
            putU64(out, x.stats.distinctStates);
            putU64(out, x.stats.peakDepth);
            putU64(out, x.stats.resumes);
            putU64(out, x.stats.replayedChoices);
            putDouble(out, x.millis);
        }
        return out;
    }

    static std::shared_ptr<Record>
    decode(std::string_view payload)
    {
        Reader r{payload};
        auto rec = std::make_shared<Record>();
        if (payload.empty())
            return nullptr;
        uint8_t flags = static_cast<uint8_t>(payload[0]);
        r.pos = 1;
        rec->backend = r.str();
        if (flags & kHasHist) {
            rec->hasHist = true;
            rec->counts = r.countMap();
            rec->observed = r.u64();
            rec->total = r.u64();
            rec->observedPer100k = r.u64();
        }
        if (flags & kHasVerdict) {
            model::Verdict v;
            v.testName = r.str();
            v.modelName = r.str();
            v.numCandidates = r.u64();
            v.numAllowed = r.u64();
            v.allowedKeys = r.strSet();
            v.forbiddenKeys = r.strSet();
            if (r.pos + 2 > r.data.size())
                r.ok = false;
            if (r.ok) {
                v.conditionSatisfiable = r.data[r.pos++] != 0;
                v.outOfScope = r.data[r.pos++] != 0;
            }
            v.verdict = r.str();
            v.forbiddingCheck = r.str();
            rec->verdict = std::move(v);
        }
        if (flags & kHasExact) {
            mc::ExploreResult x;
            x.testName = r.str();
            x.chipName = r.str();
            x.column = static_cast<int>(r.u64());
            if (r.pos + 2 > r.data.size())
                r.ok = false;
            if (r.ok) {
                x.complete = r.data[r.pos++] != 0;
                x.fairComplete = r.data[r.pos++] != 0;
            }
            x.finals = r.countMap();
            x.satisfying = r.strSet();
            x.paths = r.u64();
            x.stats.replays = r.u64();
            x.stats.choicePoints = r.u64();
            x.stats.stateCuts = r.u64();
            x.stats.sleepSkips = r.u64();
            x.stats.distinctStates = r.u64();
            x.stats.peakDepth = static_cast<size_t>(r.u64());
            x.stats.resumes = r.u64();
            x.stats.replayedChoices = r.u64();
            x.millis = r.dbl();
            rec->exact = std::move(x);
        }
        // A record must consume its payload exactly: trailing bytes
        // mean the encoder and decoder disagree — treat as corrupt.
        if (!r.ok || r.pos != payload.size())
            return nullptr;
        return rec;
    }
};

namespace {

/** Checksum over payload + key, so a bit flip anywhere in the record
 * body (including the stored digest) is caught. */
uint64_t
recordChecksum(std::string_view payload, const Digest128 &key)
{
    Hash128 h;
    h.putBytes(reinterpret_cast<const uint8_t *>(payload.data()),
               payload.size());
    h.put64(key.lo);
    h.put64(key.hi);
    Digest128 d = h.digest();
    return d.lo ^ d.hi;
}

std::string
headerBytes()
{
    std::string out(kFileMagic, sizeof kFileMagic);
    putU32(out, kFormatVersion);
    std::string_view abi = kAbiVersionString;
    putU32(out, static_cast<uint32_t>(abi.size()));
    out.append(abi.data(), abi.size());
    return out;
}

/** Record header size on disk: magic + payloadLen + key.lo + key.hi
 * + checksum. */
constexpr size_t kRecordHeader = 4 + 4 + 8 + 8 + 8;

std::string
recordBytes(const Digest128 &key, const std::string &payload)
{
    std::string out;
    out.reserve(kRecordHeader + payload.size());
    putU32(out, kRecordMagic);
    putU32(out, static_cast<uint32_t>(payload.size()));
    putU64(out, key.lo);
    putU64(out, key.hi);
    putU64(out, recordChecksum(payload, key));
    out += payload;
    return out;
}

bool
writeAll(int fd, std::string_view bytes)
{
    size_t off = 0;
    while (off < bytes.size()) {
        ssize_t n = ::write(fd, bytes.data() + off,
                            bytes.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<size_t>(n);
    }
    return true;
}

} // namespace

// ---- ResultStore ----------------------------------------------------

ResultStore::ResultStore(std::string dir, StoreOptions opts)
    : dir_(std::move(dir)), opts_(opts)
{
}

ResultStore::~ResultStore()
{
    if (fd_ >= 0) {
        if (unsynced_ && opts_.syncOnFlush)
            syncLocked();
        ::close(fd_);
    }
}

std::string
ResultStore::logPath() const
{
    return dir_ + "/results.log";
}

std::unique_ptr<ResultStore>
ResultStore::open(const std::string &dir, StoreOptions opts,
                  std::string *error)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        if (error)
            *error = "cannot create store directory '" + dir +
                     "': " + ec.message();
        return nullptr;
    }
    std::unique_ptr<ResultStore> store(new ResultStore(dir, opts));
    if (!store->loadLog(error))
        return nullptr;
    return store;
}

bool
ResultStore::loadLog(std::string *error)
{
    std::string path = logPath();
    fd_ = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
    if (fd_ < 0) {
        if (error)
            *error = "cannot open '" + path +
                     "': " + std::strerror(errno);
        return false;
    }

    // Read the whole log (the index is in-memory anyway).
    std::string bytes;
    {
        char buf[1 << 16];
        for (;;) {
            ssize_t n = ::read(fd_, buf, sizeof buf);
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                if (error)
                    *error = "cannot read '" + path +
                             "': " + std::strerror(errno);
                return false;
            }
            if (n == 0)
                break;
            bytes.append(buf, static_cast<size_t>(n));
        }
    }

    const std::string header = headerBytes();
    auto reset = [&](bool stale) -> bool {
        if (::ftruncate(fd_, 0) != 0 ||
            ::lseek(fd_, 0, SEEK_SET) < 0 ||
            !writeAll(fd_, header)) {
            if (error)
                *error = "cannot initialise '" + path +
                         "': " + std::strerror(errno);
            return false;
        }
        logBytes_ = header.size();
        stats_.resetStale = stale;
        return true;
    };

    if (bytes.empty())
        return reset(false);

    // Header check: wrong magic/format is a foreign file; a different
    // ABI stamp is a stale store from another binary generation. Both
    // reset — stale verdicts must never be served, and the next run
    // refills the log.
    if (bytes.size() < header.size() ||
        std::string_view(bytes).substr(0, header.size()) != header) {
        warn("result store %s is from another build generation (or"
             " corrupt); resetting", path.c_str());
        return reset(true);
    }

    // Replay records until the first torn/corrupt one, then truncate
    // there: everything before is intact (checksummed), everything
    // after is unreadable without trusting a corrupt length field.
    size_t pos = header.size();
    size_t good = pos;
    while (pos < bytes.size()) {
        if (pos + kRecordHeader > bytes.size())
            break; // torn record header
        Reader r{std::string_view(bytes), pos};
        uint32_t magic = r.u32();
        uint32_t len = r.u32();
        Digest128 key{0, 0};
        key.lo = r.u64();
        key.hi = r.u64();
        uint64_t checksum = r.u64();
        if (magic != kRecordMagic ||
            pos + kRecordHeader + len > bytes.size())
            break;
        std::string_view payload(bytes.data() + pos + kRecordHeader,
                                 len);
        if (recordChecksum(payload, key) != checksum)
            break;
        auto rec = Record::decode(payload);
        if (!rec)
            break;
        rec->seq = appendSeq_++;
        index_[key] = std::move(rec);
        ++stats_.loaded;
        pos += kRecordHeader + len;
        good = pos;
    }
    if (good < bytes.size()) {
        stats_.truncatedBytes = bytes.size() - good;
        warn("result store %s: truncating %llu corrupt/torn bytes"
             " (%llu records recovered)",
             path.c_str(),
             static_cast<unsigned long long>(stats_.truncatedBytes),
             static_cast<unsigned long long>(stats_.loaded));
        if (::ftruncate(fd_, static_cast<off_t>(good)) != 0) {
            if (error)
                *error = "cannot truncate '" + path +
                         "': " + std::strerror(errno);
            return false;
        }
    }
    if (::lseek(fd_, 0, SEEK_END) < 0) {
        if (error)
            *error = "cannot seek '" + path +
                     "': " + std::strerror(errno);
        return false;
    }
    logBytes_ = good;
    return true;
}

Digest128
ResultStore::digestFor(const harness::Job &job)
{
    Hash128 h;
    auto put = [&h](std::string_view s) {
        h.put64(s.size());
        h.putBytes(reinterpret_cast<const uint8_t *>(s.data()),
                   s.size());
    };
    put(kAbiVersionString);
    put(job.backend);
    put(job.renderedTest()->str);
    if (job.isSim() || job.isMc()) {
        // Chip + column select the machine mechanisms; iterations are
        // the sampling depth / replay budget; the micro-step cap
        // bounds runs. Sim adds the seed (the RNG stream identity);
        // mc search is deterministic, so no seed axis — the same
        // exclusions as Job::cacheKey.
        put(job.chip.shortName);
        h.put64(static_cast<uint64_t>(job.inc.column()));
        h.put64(job.iterations);
        h.put64(static_cast<uint64_t>(job.maxMicroSteps));
        if (job.isSim())
            h.put64(job.seed);
    }
    return h.digest();
}

std::shared_ptr<const ResultStore::Record>
ResultStore::lookup(const Digest128 &key)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(key);
    if (it == index_.end()) {
        ++stats_.misses;
        obs::counter("store_misses_total").add();
        return nullptr;
    }
    ++stats_.hits;
    obs::counter("store_hits_total").add();
    return it->second;
}

std::optional<eval::EvalResult>
ResultStore::fetchEval(const harness::Job &job)
{
    auto rec = lookup(digestFor(job));
    if (!rec)
        return std::nullopt;

    eval::EvalResult result;
    auto owned = std::make_shared<harness::Job>(job);
    result.backend = rec->backend;
    if (rec->hasHist) {
        litmus::Histogram hist(owned->test);
        hist.restore(rec->counts, rec->observed, rec->total);
        result.hist = std::move(hist);
        result.observedPer100k = rec->observedPer100k;
    }
    if (rec->verdict)
        result.verdict = *rec->verdict;
    if (rec->exact)
        result.exact = *rec->exact;
    result.job = std::move(owned);
    result.fromStore = true;
    result.millis = 0.0;
    return result;
}

void
ResultStore::putEval(const harness::Job &job,
                     const eval::EvalResult &result)
{
    auto rec = std::make_shared<Record>();
    rec->backend = result.backend;
    if (result.hasHist()) {
        rec->hasHist = true;
        rec->counts = result.hist->counts();
        rec->observed = result.hist->observed();
        rec->total = result.hist->total();
        rec->observedPer100k = result.observedPer100k;
    }
    if (result.hasVerdict()) {
        rec->verdict = *result.verdict;
        // Witness executions are display-only (the conformance join
        // reads keys and flags) and have no stable encoding; drop
        // them so every store round trip is exact over what it keeps.
        rec->verdict->witness.reset();
        rec->verdict->forbiddenWitness.reset();
    }
    if (result.hasExact())
        rec->exact = *result.exact;
    putRecord(digestFor(job), std::move(rec));
}

void
ResultStore::putRecord(const Digest128 &key,
                       std::shared_ptr<const Record> rec)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (index_.count(key))
        return; // results are pure functions of jobs: first write wins
    appendLocked(key, rec);
}

bool
ResultStore::appendLocked(const Digest128 &key,
                          const std::shared_ptr<const Record> &rec)
{
    auto mutable_rec = std::const_pointer_cast<Record>(rec);
    mutable_rec->seq = appendSeq_++;
    std::string bytes = recordBytes(key, rec->encode());
    if (!writeAll(fd_, bytes)) {
        warn("result store %s: append failed: %s", logPath().c_str(),
             std::strerror(errno));
        return false;
    }
    logBytes_ += bytes.size();
    unsynced_ = true;
    ++stats_.appends;
    obs::counter("store_appends_total").add();
    index_[key] = rec;
    if (opts_.maxBytes > 0 && logBytes_ > opts_.maxBytes)
        compactLocked();
    return true;
}

bool
ResultStore::compactLocked()
{
    // Rewrite the log from the index, dropping oldest-appended
    // entries until the projected size fits half the cap (so each
    // compaction buys headroom instead of thrashing). Temp file +
    // rename keeps a crash mid-compaction recoverable: the directory
    // holds either the old log or the new one, both internally valid.
    std::vector<std::pair<const Digest128 *,
                          std::shared_ptr<const Record>>>
        entries;
    entries.reserve(index_.size());
    for (const auto &[key, rec] : index_)
        entries.push_back({&key, rec});
    std::sort(entries.begin(), entries.end(),
              [](const auto &a, const auto &b) {
                  return a.second->seq < b.second->seq;
              });

    std::vector<std::string> encoded;
    encoded.reserve(entries.size());
    uint64_t total = headerBytes().size();
    for (const auto &[key, rec] : entries) {
        encoded.push_back(recordBytes(*key, rec->encode()));
        total += encoded.back().size();
    }
    size_t drop = 0;
    const uint64_t target = opts_.maxBytes / 2;
    while (drop < entries.size() && total > target) {
        total -= encoded[drop].size();
        ++drop;
    }

    std::string tmp = logPath() + ".compact";
    int tmp_fd =
        ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (tmp_fd < 0) {
        warn("result store %s: compaction failed to open temp: %s",
             logPath().c_str(), std::strerror(errno));
        return false;
    }
    bool ok = writeAll(tmp_fd, headerBytes());
    for (size_t i = drop; ok && i < encoded.size(); ++i)
        ok = writeAll(tmp_fd, encoded[i]);
    if (ok && opts_.syncOnFlush) {
        ok = ::fsync(tmp_fd) == 0;
        obs::counter("store_fsyncs_total").add();
    }
    ::close(tmp_fd);
    if (!ok || ::rename(tmp.c_str(), logPath().c_str()) != 0) {
        warn("result store %s: compaction failed: %s",
             logPath().c_str(), std::strerror(errno));
        ::unlink(tmp.c_str());
        return false;
    }

    for (size_t i = 0; i < drop; ++i)
        index_.erase(*entries[i].first);
    stats_.evicted += drop;
    logBytes_ = total;

    // The old fd still points at the unlinked inode; reopen the new
    // log for subsequent appends.
    int new_fd = ::open(logPath().c_str(), O_WRONLY | O_APPEND);
    if (new_fd < 0) {
        warn("result store %s: cannot reopen after compaction: %s",
             logPath().c_str(), std::strerror(errno));
        return false;
    }
    ::close(fd_);
    fd_ = new_fd;
    return true;
}

bool
ResultStore::flush(std::string *error)
{
    std::lock_guard<std::mutex> lock(mutex_);
    // Appends hit the kernel synchronously (::write); flush makes
    // them durable. Nothing appended since the last good flush means
    // nothing to sync: a request answered from the cache or the store
    // must not queue every client on this mutex behind an fsync.
    if (!unsynced_ || !opts_.syncOnFlush)
        return true;
    if (!syncLocked()) {
        if (error)
            *error = "fsync '" + logPath() +
                     "' failed: " + std::strerror(errno);
        return false;
    }
    return true;
}

bool
ResultStore::syncLocked()
{
    obs::counter("store_fsyncs_total").add();
    if (::fsync(fd_) != 0)
        return false;
    unsynced_ = false;
    return true;
}

size_t
ResultStore::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return index_.size();
}

StoreStats
ResultStore::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

} // namespace gpulitmus::serve
