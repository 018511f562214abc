#include "serve/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>

#include "common/log.h"
#include "common/strutil.h"
#include "common/version.h"
#include "litmus/library.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "scenario/registry.h"
#include "sim/chip.h"

namespace gpulitmus::serve {

int Server::sSignalPipe[2] = {-1, -1};

namespace {

/** Append the start of an event object,
 * `{"event":"<name>"[,"id":"<id>"]`, to `out`. The caller appends
 * fields and the closing brace. */
void
appendEventHead(std::string &out, const char *event, const std::string &id)
{
    out += "{\"event\":\"";
    out += event;
    out += '"';
    if (!id.empty()) {
        out += ",\"id\":\"";
        appendJsonEscaped(out, id);
        out += '"';
    }
}

/** The start of an event object (appendEventHead). */
std::string
eventHead(const char *event, const std::string &id)
{
    std::string e;
    appendEventHead(e, event, id);
    return e;
}

/** A complete `error` event line. */
std::string
errorEvent(const std::string &id, const std::string &message)
{
    return eventHead("error", id) + "," + jsonField("message", message) +
           "}";
}

bool
writeAll(int fd, std::string_view bytes)
{
    static obs::Counter &writes = obs::counter("serve_event_writes_total");
    size_t off = 0;
    while (off < bytes.size()) {
        // Ticked before the send, so a client that has read the bytes
        // also sees the count.
        writes.add();
        ssize_t n =
            ::send(fd, bytes.data() + off, bytes.size() - off,
                   MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<size_t>(n);
    }
    return true;
}

/** Period of the wall-clock heartbeat `progress` events. */
constexpr auto kHeartbeatPeriod = std::chrono::seconds(2);

/**
 * Wall-clock progress for a request that computes: a monitor thread
 * emits a heartbeat `progress` event every kHeartbeatPeriod, so a
 * *single* long job — an exploration burning 128k replays between
 * completions — is visibly alive. It samples the telemetry registry
 * (the explorer ticks mc_replays_total per replay, mc/explorer.cc)
 * and derives jobs/sec and an ETA over the `total` jobs that compute;
 * it only observes, so results are unchanged. Stops on destruction.
 */
class Heartbeat
{
  public:
    Heartbeat(std::function<void(const std::string &)> emit,
              std::string head, size_t total,
              const std::atomic<size_t> &done)
        : emit_(std::move(emit)), head_(std::move(head)),
          total_(total), done_(done)
    {
        obs::counter("serve_heartbeat_monitors_total").add();
        thread_ = std::thread([this]() { loop(); });
    }
    Heartbeat(const Heartbeat &) = delete;
    Heartbeat &operator=(const Heartbeat &) = delete;

    ~Heartbeat()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
        }
        cv_.notify_all();
        thread_.join();
    }

  private:
    void
    loop()
    {
        const auto t0 = std::chrono::steady_clock::now();
        uint64_t last_replays =
            obs::counter("mc_replays_total").value();
        std::unique_lock<std::mutex> lock(mutex_);
        while (!cv_.wait_for(lock, kHeartbeatPeriod,
                             [this] { return stop_; })) {
            auto elapsed_ms =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
            size_t done = done_.load();
            uint64_t replays = obs::counter("mc_replays_total").value();
            double secs = static_cast<double>(elapsed_ms) / 1000.0;
            double rate =
                secs > 0.0 ? static_cast<double>(done) / secs : 0.0;
            std::string e = head_;
            e += ",\"heartbeat\":true";
            e += ",\"done\":" + std::to_string(done);
            e += ",\"total\":" + std::to_string(total_);
            e += ",\"elapsed_ms\":" + std::to_string(elapsed_ms);
            e += ",\"jobs_per_sec\":" + strprintf("%.3f", rate);
            if (rate > 0.0 && total_ > done) {
                double eta = static_cast<double>(total_ - done) / rate;
                e += ",\"eta_sec\":" + strprintf("%.1f", eta);
            }
            e += ",\"mc_replays_delta\":" +
                 std::to_string(replays - last_replays);
            last_replays = replays;
            emit_(e + "}");
        }
    }

    std::function<void(const std::string &)> emit_;
    std::string head_; ///< the event head: `{"event":"progress"...`
    size_t total_;
    const std::atomic<size_t> &done_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stop_ = false;
    std::thread thread_; ///< last: starts after the fields above
};

} // namespace

// ---- Client ---------------------------------------------------------

struct Server::Client
{
    int fd = -1;
    std::string inbuf = {};
    std::mutex writeMutex = {};
    /** The peer sent more than kMaxRequestLineBytes without a
     * newline; readLine gave up on the connection. */
    bool overflowed = false;

    /** Write newline-terminated event lines in one piece; serialised
     * because progress events come from engine worker threads while
     * the handler owns the socket. */
    bool
    write(std::string_view lines)
    {
        std::lock_guard<std::mutex> lock(writeMutex);
        return writeAll(fd, lines);
    }

    /** Write one event line. */
    bool writeLine(const std::string &line) { return write(line + "\n"); }

    /**
     * Next request line; polls so the handler can notice daemon
     * shutdown instead of blocking in read() forever. Returns false
     * on EOF/error, when `running` drops, or when the pending line
     * outgrows kMaxRequestLineBytes (`overflowed` set) — a peer that
     * never sends a newline must not grow the daemon without bound.
     */
    bool
    readLine(std::string *line, const std::atomic<bool> &running)
    {
        size_t scanned = 0; // inbuf bytes already searched for '\n'
        for (;;) {
            auto nl = inbuf.find('\n', scanned);
            if (nl != std::string::npos) {
                *line = inbuf.substr(0, nl);
                inbuf.erase(0, nl + 1);
                if (!line->empty() && line->back() == '\r')
                    line->pop_back();
                return true;
            }
            scanned = inbuf.size();
            if (inbuf.size() > kMaxRequestLineBytes) {
                overflowed = true;
                return false;
            }
            if (!running.load())
                return false;
            struct pollfd pfd{fd, POLLIN, 0};
            int ready = ::poll(&pfd, 1, 250);
            if (ready < 0 && errno != EINTR)
                return false;
            if (ready <= 0)
                continue;
            char buf[4096];
            ssize_t n = ::recv(fd, buf, sizeof buf, 0);
            if (n == 0)
                return false; // peer closed
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                return false;
            }
            inbuf.append(buf, static_cast<size_t>(n));
        }
    }
};

// ---- lifecycle ------------------------------------------------------

Server::Server(ServerOptions opts) : opts_(std::move(opts)) {}

Server::~Server()
{
    if (unixFd_ >= 0) {
        ::close(unixFd_);
        ::unlink(opts_.socketPath.c_str());
    }
    if (tcpFd_ >= 0)
        ::close(tcpFd_);
}

std::unique_ptr<Server>
Server::create(const ServerOptions &opts, std::string *error)
{
    std::unique_ptr<Server> server(new Server(opts));
    if (!server->setup(error))
        return nullptr;
    return server;
}

bool
Server::setup(std::string *error)
{
    if (opts_.socketPath.empty() && opts_.tcpPort == 0) {
        if (error)
            *error = "serve needs a --socket path or a --port";
        return false;
    }

    if (!opts_.storeDir.empty()) {
        StoreOptions sopts;
        sopts.maxBytes = opts_.maxStoreBytes;
        store_ = ResultStore::open(opts_.storeDir, sopts, error);
        if (!store_)
            return false;
    }

    eval::EngineOptions eopts;
    eopts.threads = opts_.threads;
    eopts.store = store_.get();
    engine_ = std::make_unique<eval::Engine>(eopts);

    if (sSignalPipe[0] < 0) {
        if (::pipe(sSignalPipe) != 0) {
            if (error)
                *error = std::string("cannot create signal pipe: ") +
                         std::strerror(errno);
            return false;
        }
        for (int fd : sSignalPipe)
            ::fcntl(fd, F_SETFL, O_NONBLOCK);
    }

    if (!opts_.socketPath.empty()) {
        struct sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (opts_.socketPath.size() >= sizeof addr.sun_path) {
            if (error)
                *error = "socket path too long (" +
                         std::to_string(opts_.socketPath.size()) +
                         " bytes; limit " +
                         std::to_string(sizeof addr.sun_path - 1) +
                         ")";
            return false;
        }
        std::strncpy(addr.sun_path, opts_.socketPath.c_str(),
                     sizeof addr.sun_path - 1);
        ::unlink(opts_.socketPath.c_str()); // stale socket from a kill
        unixFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (unixFd_ < 0 ||
            ::bind(unixFd_, reinterpret_cast<sockaddr *>(&addr),
                   sizeof addr) != 0 ||
            ::listen(unixFd_, 16) != 0) {
            if (error)
                *error = "cannot listen on '" + opts_.socketPath +
                         "': " + std::strerror(errno);
            return false;
        }
    }

    if (opts_.tcpPort != 0) {
        struct sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(static_cast<uint16_t>(opts_.tcpPort));
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        tcpFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        int one = 1;
        if (tcpFd_ >= 0)
            ::setsockopt(tcpFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                         sizeof one);
        if (tcpFd_ < 0 ||
            ::bind(tcpFd_, reinterpret_cast<sockaddr *>(&addr),
                   sizeof addr) != 0 ||
            ::listen(tcpFd_, 16) != 0) {
            if (error)
                *error = "cannot listen on 127.0.0.1:" +
                         std::to_string(opts_.tcpPort) + ": " +
                         std::strerror(errno);
            return false;
        }
    }

    replayJournal();
    return true;
}

void
Server::notifySignal(int)
{
    if (sSignalPipe[1] >= 0) {
        char byte = 1;
        // Best effort; a full pipe already means a pending wakeup.
        [[maybe_unused]] ssize_t n =
            ::write(sSignalPipe[1], &byte, 1);
    }
}

void
Server::shutdown()
{
    running_.store(false);
    notifySignal(0);
}

ServerStats
Server::stats() const
{
    std::lock_guard<std::mutex> lock(statsMutex_);
    return stats_;
}

// ---- journal --------------------------------------------------------

std::string
Server::writeJournal(const Request &req)
{
    std::string path = opts_.storeDir + "/pending/" +
                       std::to_string(journalSeq_.fetch_add(1)) +
                       ".req";
    std::ofstream out(path);
    out << renderRequest(req) << "\n" << std::flush;
    if (!out) {
        ::unlink(path.c_str());
        return "";
    }
    obs::counter("serve_journal_writes_total").add();
    return path;
}

void
Server::replayJournal()
{
    if (!store_)
        return;
    std::string dir = opts_.storeDir + "/pending";
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        return;

    std::vector<std::pair<uint64_t, std::string>> entries;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir, ec)) {
        if (entry.path().extension() != ".req")
            continue;
        auto seq = parseInt(entry.path().stem().string());
        entries.push_back(
            {seq ? static_cast<uint64_t>(*seq) : 0,
             entry.path().string()});
    }
    std::sort(entries.begin(), entries.end());
    for (const auto &[seq, path] : entries)
        journalSeq_ = std::max(journalSeq_.load(), seq + 1);

    // Requests interrupted by a crash/kill re-run to completion:
    // every cell already in the store is a hit, only the tail
    // computes. No client is attached, so results go to the store
    // alone — the resubmitting client gets them as store hits.
    for (const auto &[seq, path] : entries) {
        std::ifstream in(path);
        std::string line;
        if (!in || !std::getline(in, line)) {
            ::unlink(path.c_str());
            continue;
        }
        std::string error;
        auto req = parseRequest(line, &error);
        Plan plan;
        if (!req || !planJobs(*req, &plan, &error)) {
            warn("serve: dropping unreplayable journal entry %s: %s",
                 path.c_str(), error.c_str());
            ::unlink(path.c_str());
            continue;
        }
        inform("serve: replaying interrupted request '%s' (%zu jobs)",
               req->id.c_str(), plan.jobs.size());
        engine_->run(plan.jobs);
        store_->flush();
        ::unlink(path.c_str());
        obs::counter("serve_journal_replays_total").add();
        std::lock_guard<std::mutex> lock(statsMutex_);
        ++stats_.replayedRequests;
    }
}

// ---- accept loop ----------------------------------------------------

void
Server::run()
{
    running_.store(true);
    acceptLoop();

    // Drain: handler threads notice running_ == false at their next
    // poll tick and finish their in-flight request first.
    std::vector<std::thread> clients;
    {
        std::lock_guard<std::mutex> lock(clientsMutex_);
        clients.swap(clients_);
    }
    for (auto &t : clients)
        t.join();

    if (store_) {
        std::string error;
        if (!store_->flush(&error))
            warn("serve: final store flush failed: %s",
                 error.c_str());
    }
}

void
Server::acceptLoop()
{
    // The signal pipe is static (shared by every Server this process
    // creates, because signal handlers need a fixed target). A
    // previous server that exited its loop on the running_ flag alone
    // — shutdown() raced with an accept — leaves its wake-up byte
    // unread, and that stale byte would shut this server down on its
    // first poll. Drain before looping; the pipe is non-blocking.
    char stale[64];
    while (::read(sSignalPipe[0], stale, sizeof stale) > 0) {
    }
    while (running_.load()) {
        struct pollfd pfds[3];
        nfds_t n = 0;
        int unix_slot = -1, tcp_slot = -1;
        if (unixFd_ >= 0) {
            unix_slot = static_cast<int>(n);
            pfds[n++] = {unixFd_, POLLIN, 0};
        }
        if (tcpFd_ >= 0) {
            tcp_slot = static_cast<int>(n);
            pfds[n++] = {tcpFd_, POLLIN, 0};
        }
        int sig_slot = static_cast<int>(n);
        pfds[n++] = {sSignalPipe[0], POLLIN, 0};

        int ready = ::poll(pfds, n, 500);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            warn("serve: poll failed: %s", std::strerror(errno));
            break;
        }
        if (ready == 0)
            continue;
        if (pfds[sig_slot].revents & POLLIN) {
            char drain[64];
            while (::read(sSignalPipe[0], drain, sizeof drain) > 0) {
            }
            running_.store(false);
            break;
        }
        for (int slot : {unix_slot, tcp_slot}) {
            if (slot < 0 || !(pfds[slot].revents & POLLIN))
                continue;
            int fd = ::accept(pfds[slot].fd, nullptr, nullptr);
            if (fd < 0)
                continue;
            {
                std::lock_guard<std::mutex> lock(statsMutex_);
                ++stats_.connections;
            }
            std::lock_guard<std::mutex> lock(clientsMutex_);
            clients_.emplace_back(
                [this, fd]() { handleClient(fd); });
        }
    }
}

void
Server::handleClient(int fd)
{
    Client client{fd};
    obs::counter("serve_connections_total").add();
    obs::gauge("serve_clients_connected").add(1);
    // Handshake first: the client learns the ABI generation before
    // submitting anything, so a stale client can bail out early.
    client.writeLine(helloEvent(""));

    std::string line;
    while (client.readLine(&line, running_)) {
        if (trim(line).empty())
            continue;
        handleRequest(client, line);
    }
    if (client.overflowed) {
        client.writeLine(errorEvent(
            "", "request line exceeds " +
                    std::to_string(kMaxRequestLineBytes) +
                    " bytes; closing"));
    }
    ::close(fd);
    obs::gauge("serve_clients_connected").add(-1);
}

// ---- request handling -----------------------------------------------

std::string
Server::helloEvent(const std::string &id) const
{
    return eventHead("hello", id) + "," +
           jsonField("abi", kAbiVersionString) +
           ",\"abi_version\":" + std::to_string(kAbiVersion) +
           ",\"threads\":" + std::to_string(engine_->threads()) +
           ",\"store_records\":" +
           std::to_string(store_ ? store_->size() : 0) + "}";
}

void
Server::handleRequest(Client &client, const std::string &line)
{
    std::string error;
    auto req = parseRequest(line, &error);
    if (!req) {
        client.writeLine(errorEvent("", error));
        return;
    }
    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        ++stats_.requests;
    }
    obs::counter("serve_requests_total").add();
    obs::TimerScope latency(
        obs::timer("serve_request_latency_us"));
    obs::Span span("request " + req->cmd, "serve");

    if (req->cmd == "hello") {
        client.writeLine(helloEvent(req->id));
        return;
    }
    if (req->cmd == "list") {
        client.writeLine(eventHead("list", req->id) + "," +
                         registryJson({}) + "}");
        client.writeLine(eventHead("done", req->id) + "}");
        return;
    }
    if (req->cmd == "stats") {
        ServerStats s = stats();
        StoreStats ss = store_ ? store_->stats() : StoreStats{};
        client.writeLine(
            eventHead("stats", req->id) +
            ",\"connections\":" + std::to_string(s.connections) +
            ",\"requests\":" + std::to_string(s.requests) +
            ",\"jobs\":" + std::to_string(s.jobs) +
            ",\"replayed_requests\":" +
            std::to_string(s.replayedRequests) +
            ",\"store_records\":" +
            std::to_string(store_ ? store_->size() : 0) +
            ",\"store_hits\":" + std::to_string(ss.hits) +
            ",\"store_misses\":" + std::to_string(ss.misses) +
            ",\"engine_cache_hits\":" +
            std::to_string(engine_->cacheHits()) + "}");
        client.writeLine(eventHead("done", req->id) + "}");
        return;
    }
    if (req->cmd == "metrics") {
        // The whole telemetry registry, twice: structured for
        // `status --watch`/scripts, Prometheus text exposition for
        // scrapers (escaped into one JSON string; a scrape proxy
        // unwraps it — docs/OBSERVABILITY.md has the recipe).
        const auto &registry = obs::Registry::instance();
        client.writeLine(
            eventHead("metrics", req->id) +
            ",\"enabled\":" + (obs::enabled() ? "true" : "false") +
            ",\"metrics\":" + registry.json() + "," +
            jsonField("prometheus", registry.prometheus()) + "}");
        client.writeLine(eventHead("done", req->id) + "}");
        return;
    }
    if (req->cmd == "shutdown") {
        client.writeLine(eventHead("done", req->id) + "}");
        shutdown();
        return;
    }
    runJobsRequest(client, *req);
}

void
Server::runJobsRequest(Client &client, const Request &req)
{
    Plan plan;
    std::string error;
    if (!planJobs(req, &plan, &error)) {
        client.writeLine(errorEvent(req.id, error));
        return;
    }
    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        stats_.jobs += plan.jobs.size();
    }

    // Every lookup happens before anything computes. A request the
    // cache and the store answer completely pays for nothing else:
    // no journal entry, no heartbeat thread, no worker, no flush —
    // and its events go out in one write.
    eval::Engine::Batch batch = engine_->resolve(plan.jobs);
    const size_t computing = batch.computing();

    // Journal before computing: a daemon killed mid-request replays
    // this entry at the next startup and completes it from the store.
    std::string journal;
    if (store_ && computing > 0)
        journal = writeJournal(req);

    // The request's events, buffered until the next point the client
    // must hear from us.
    std::string out;
    appendEventHead(out, "accepted", req.id);
    out += ",\"jobs\":" + std::to_string(plan.jobs.size()) +
           ",\"skipped\":" + jsonStringArray(plan.skipped) +
           ",\"notes\":" + jsonStringArray(plan.notes) + "}\n";
    // A request that computes announces itself before its first job.
    if (computing > 0) {
        client.write(out);
        out.clear();
    }

    eval::ConformanceSink conformance;

    // Progress at two granularities: per-job events from the
    // engine's workers as computed jobs complete, and wall-clock
    // heartbeats from a monitor thread while anything computes.
    std::atomic<size_t> jobs_done{0};
    auto progress = [&client, &req, &jobs_done](
                        size_t done, size_t total,
                        const eval::EvalResult &r) {
        jobs_done.store(done);
        client.writeLine(eventHead("progress", req.id) +
                         ",\"done\":" + std::to_string(done) +
                         ",\"total\":" + std::to_string(total) +
                         "," + jsonField("label", r.label()) + "}");
    };
    std::vector<eval::EvalResult> results;
    {
        std::optional<Heartbeat> heartbeat;
        if (computing > 0) {
            heartbeat.emplace(
                [&client](const std::string &line) {
                    client.writeLine(line);
                },
                eventHead("progress", req.id), computing, jobs_done);
        }
        results = engine_->run(std::move(batch), {&conformance},
                               progress);
    }

    for (const auto &r : results) {
        appendEventHead(out, "result", req.id);
        out += ",\"cell\":";
        eval::appendCellJson(out, r);
        out += "}\n";
    }

    // The batch command's exit status and tallies, by the same
    // function the batch CLI uses.
    Outcome o = summarize(req, results, conformance);
    appendEventHead(out, "summary", req.id);
    const std::pair<const char *, size_t> fields[] = {
        {"exit", static_cast<size_t>(o.exit)},
        {"results", o.results}, {"store_results", o.fromStore},
        {"cells", o.cells}, {"sound", o.sound}, {"unsound", o.unsound},
        {"imprecise", o.imprecise}, {"rare", o.rare},
        {"unreachable", o.unreachable}, {"bounded", o.bounded},
        {"forbidden_reachable", o.forbiddenReachable},
        {"inconsistent", o.inconsistent}};
    for (const auto &[key, value] : fields) {
        out += ",\"";
        out += key;
        out += "\":";
        out += std::to_string(value);
    }
    out += "}\n";

    // Results reach the client before the flush; `done` after it.
    if (store_ && computing > 0) {
        client.write(out);
        out.clear();
        std::string flush_error;
        if (!store_->flush(&flush_error))
            warn("serve: store flush failed: %s",
                 flush_error.c_str());
        else if (!journal.empty())
            ::unlink(journal.c_str());
    }
    appendEventHead(out, "done", req.id);
    out += "}\n";
    client.write(out);
}

} // namespace gpulitmus::serve
