/**
 * @file
 * The `gpulitmus serve` daemon: a persistent validation service over
 * the evaluation engine and the durable result store.
 *
 * One Server owns one eval::Engine (whose in-process result cache is
 * the L1) layered over one ResultStore (the durable L2), and listens
 * on a Unix-domain socket and/or a loopback TCP port. Each accepted
 * connection gets a handler thread speaking the line-delimited JSON
 * protocol (serve/protocol.h, docs/SERVE.md): requests plan to job
 * batches through the planner the batch CLI also runs in-process, run
 * on the shared engine, and stream back progress/result/summary
 * events.
 * Results already in the store are answered without touching a
 * backend — the second submission of a corpus validation is pure
 * store reads.
 *
 * Durability/resume: every accepted job-carrying request is journaled
 * to STORE/pending/<seq>.req before it runs and unlinked after its
 * results are flushed. A daemon killed mid-request replays the journal
 * at the next startup: cells finished before the kill come straight
 * from the store, only the tail recomputes. The store itself is the
 * checkpoint, at result granularity.
 *
 * Shutdown: SIGINT/SIGTERM (via notifySignal) or a `shutdown` request
 * stops the accept loop, drains in-flight client handlers, flushes
 * the store, and exits cleanly — the serve-smoke CI job asserts the
 * clean exit.
 */

#ifndef GPULITMUS_SERVE_SERVER_H
#define GPULITMUS_SERVE_SERVER_H

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "eval/backend.h"
#include "serve/protocol.h"
#include "serve/store.h"

namespace gpulitmus::serve {

/** Longest request line the daemon buffers (1 MiB). A connection
 * that sends more without a newline gets an `error` event and is
 * closed. The largest real request — a corpus inlined as source — is
 * a few KB. */
inline constexpr size_t kMaxRequestLineBytes = size_t{1} << 20;

struct ServerOptions
{
    /** Unix-domain socket path; empty disables. Mind sockaddr_un's
     * ~100-byte path limit. */
    std::string socketPath;
    /** TCP port on 127.0.0.1; 0 disables. Loopback only: the daemon
     * trusts its requests. */
    int tcpPort = 0;
    /** Result-store directory; empty runs without durability (L1
     * cache only, no journal). */
    std::string storeDir;
    /** Engine worker threads; 0 = harness::defaultJobs(). */
    int threads = 0;
    /** Store log cap (StoreOptions::maxBytes); 0 = unbounded. */
    uint64_t maxStoreBytes = 0;
};

/** Daemon counters, served by the `stats` request. */
struct ServerStats
{
    uint64_t connections = 0;
    uint64_t requests = 0;
    uint64_t jobs = 0;        ///< jobs planned across all requests
    uint64_t replayedRequests = 0; ///< journal entries run at startup
};

class Server
{
  public:
    /** Bind the listeners, open the store, replay the journal.
     * Returns null + `error` when a listener or the store cannot be
     * set up. */
    static std::unique_ptr<Server> create(const ServerOptions &opts,
                                          std::string *error);
    ~Server();

    /** Accept-and-serve until shutdown() (or a signal via
     * notifySignal, or a `shutdown` request). Drains in-flight
     * handlers and flushes the store before returning. */
    void run();

    /** Request a graceful stop; safe from any thread. */
    void shutdown();

    /** Async-signal-safe shutdown trigger for sigaction handlers:
     * writes one byte to the self-pipe the accept loop polls. */
    static void notifySignal(int sig);

    const ServerOptions &options() const { return opts_; }
    ResultStore *store() { return store_.get(); }
    ServerStats stats() const;

  private:
    explicit Server(ServerOptions opts);

    bool setup(std::string *error);
    void replayJournal();
    void acceptLoop();
    void handleClient(int fd);

    /** One connected client: line-buffered reads, mutex-serialised
     * writes (progress events arrive from engine worker threads). */
    struct Client;

    void handleRequest(Client &client, const std::string &line);
    void runJobsRequest(Client &client, const Request &req);
    std::string journalPath(uint64_t seq) const;
    /** The `hello` event: ABI stamp, worker count, stored records. */
    std::string helloEvent(const std::string &id) const;

    ServerOptions opts_;
    std::unique_ptr<ResultStore> store_;
    std::unique_ptr<eval::Engine> engine_;

    int unixFd_ = -1;
    int tcpFd_ = -1;
    std::atomic<bool> running_{false};
    std::atomic<uint64_t> journalSeq_{0};

    std::mutex clientsMutex_;
    std::vector<std::thread> clients_;

    mutable std::mutex statsMutex_;
    ServerStats stats_;

    /** Self-pipe shared with the signal handler (one daemon per
     * process; the CLI installs the handlers). */
    static int sSignalPipe[2];
};

} // namespace gpulitmus::serve

#endif // GPULITMUS_SERVE_SERVER_H
