#include "serve/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace gpulitmus::serve {

namespace {

std::unique_ptr<Client>
fail(int fd, std::string *error, const std::string &what)
{
    if (fd >= 0)
        ::close(fd);
    if (error)
        *error = what + ": " + std::strerror(errno);
    return nullptr;
}

} // namespace

Client::~Client()
{
    if (fd_ >= 0)
        ::close(fd_);
}

std::unique_ptr<Client>
Client::connectUnix(const std::string &path, std::string *error)
{
    struct sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof addr.sun_path) {
        if (error)
            *error = "socket path too long: " + path;
        return nullptr;
    }
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof addr.sun_path - 1);
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return fail(fd, error, "cannot create socket");
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof addr) != 0)
        return fail(fd, error, "cannot connect to '" + path + "'");
    return std::unique_ptr<Client>(new Client(fd));
}

std::unique_ptr<Client>
Client::connectTcp(const std::string &host, int port,
                   std::string *error)
{
    struct sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        if (error)
            *error = "not an IPv4 address: " + host;
        return nullptr;
    }
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return fail(fd, error, "cannot create socket");
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof addr) != 0)
        return fail(fd, error,
                    "cannot connect to " + host + ":" +
                        std::to_string(port));
    return std::unique_ptr<Client>(new Client(fd));
}

bool
Client::sendLine(const std::string &line, std::string *error)
{
    std::string out = line + "\n";
    size_t off = 0;
    while (off < out.size()) {
        ssize_t n = ::send(fd_, out.data() + off, out.size() - off,
                           MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (error)
                *error = std::string("send failed: ") +
                         std::strerror(errno);
            return false;
        }
        off += static_cast<size_t>(n);
    }
    return true;
}

bool
Client::readLine(std::string *line, std::string *error)
{
    for (;;) {
        auto nl = inbuf_.find('\n');
        if (nl != std::string::npos) {
            *line = inbuf_.substr(0, nl);
            inbuf_.erase(0, nl + 1);
            if (!line->empty() && line->back() == '\r')
                line->pop_back();
            return true;
        }
        char buf[4096];
        ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
        if (n == 0)
            return false; // clean EOF
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (error)
                *error = std::string("recv failed: ") +
                         std::strerror(errno);
            return false;
        }
        inbuf_.append(buf, static_cast<size_t>(n));
    }
}

int
Client::submit(const Request &req, const EventFn &onEvent,
               std::string *error)
{
    if (!sendLine(renderRequest(req), error))
        return -1;

    int exit_code = 0;
    std::string line;
    for (;;) {
        std::string readError;
        if (!readLine(&line, &readError)) {
            if (error)
                *error = readError.empty()
                             ? "connection closed before the "
                               "terminal event"
                             : readError;
            return -1;
        }
        auto event = json::parseHeader(line);
        if (!event || !event->isObject())
            continue; // not ours to diagnose; wait for a real event
        std::string kind = event->getString("event");
        // The daemon echoes our id; skip stray events for other ids
        // (only possible if a caller multiplexes, which submit
        // doesn't — but cheap to be strict).
        if (!req.id.empty()) {
            std::string id = event->getString("id");
            if (!id.empty() && id != req.id && kind != "hello")
                continue;
        }
        if (onEvent)
            onEvent(*event, line);
        if (kind == "summary")
            exit_code = static_cast<int>(event->getInt("exit", 0));
        if (kind == "done")
            return exit_code;
        if (kind == "error") {
            if (error)
                *error = event->getString("message");
            return 1;
        }
    }
}

} // namespace gpulitmus::serve
