/**
 * @file
 * Client side of the `gpulitmus serve` protocol: connect to a running
 * daemon (Unix socket or loopback TCP), submit one request line, and
 * stream the event lines back (serve/protocol.h, docs/SERVE.md).
 *
 * The transport is deliberately thin — a connected fd, a line buffer —
 * because the protocol is line-delimited JSON and the interesting
 * logic (planning, evaluation, verdicts) all lives daemon-side. The
 * `gpulitmus submit`/`status` subcommands and the serve tests/CI smoke
 * job are the consumers.
 */

#ifndef GPULITMUS_SERVE_CLIENT_H
#define GPULITMUS_SERVE_CLIENT_H

#include <functional>
#include <memory>
#include <string>

#include "common/json.h"
#include "serve/protocol.h"

namespace gpulitmus::serve {

class Client
{
  public:
    /** Connect to a daemon's Unix-domain socket. Returns null and
     * sets `error` when the connection fails. */
    static std::unique_ptr<Client>
    connectUnix(const std::string &path, std::string *error);

    /** Connect to a daemon's TCP listener (host is an IPv4 literal,
     * normally 127.0.0.1). */
    static std::unique_ptr<Client>
    connectTcp(const std::string &host, int port, std::string *error);

    ~Client();

    /** Send one line (newline appended). */
    bool sendLine(const std::string &line,
                  std::string *error = nullptr);

    /** Read the next line, blocking. False on EOF or transport
     * error (`error` left empty for a clean EOF). */
    bool readLine(std::string *line, std::string *error = nullptr);

    /** Per-event callback: the event's header (its top-level scalar
     * members, from json::parseHeader) plus its raw wire line. A
     * nested member — a `result`'s `cell`, the `metrics` registry,
     * `accepted`'s `skipped` and `notes` — is only in `line`; a
     * callback that needs one parses `line` itself. */
    using EventFn = std::function<void(const json::Value &event,
                                       const std::string &line)>;

    /**
     * Submit one request and consume its event stream until the
     * terminal `done`/`error` event. Returns the daemon's verdict as
     * a process exit code — the `summary` event's `exit` field (the
     * same 0/2 semantics as the batch CLI), 1 for a protocol `error`
     * event, -1 + `error` on transport failure.
     */
    int submit(const Request &req, const EventFn &onEvent,
               std::string *error);

  private:
    explicit Client(int fd) : fd_(fd) {}

    int fd_;
    std::string inbuf_;
};

} // namespace gpulitmus::serve

#endif // GPULITMUS_SERVE_CLIENT_H
