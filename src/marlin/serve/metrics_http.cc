#include "marlin/serve/metrics_http.hh"

#include <cerrno>
#include <chrono>
#include <cstring>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "marlin/base/logging.hh"
#include "marlin/obs/exposition.hh"

namespace marlin::serve
{

namespace
{

void
setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0)
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

std::string
httpResponse(const char *status, const char *content_type,
             const std::string &body)
{
    std::string out = "HTTP/1.0 ";
    out += status;
    out += "\r\nContent-Type: ";
    out += content_type;
    out += "\r\nContent-Length: " + std::to_string(body.size());
    out += "\r\nConnection: close\r\n\r\n";
    out += body;
    return out;
}

} // namespace

MetricsHttp::MetricsHttp(MetricsHttpConfig config_in)
    : config(config_in), poller(config.poller),
      scrapeCounter(
          obs::Registry::instance().counter("obs.scrapes")),
      errorCounter(
          obs::Registry::instance().counter("obs.scrape_errors"))
{
}

MetricsHttp::~MetricsHttp()
{
    stop();
}

bool
MetricsHttp::start()
{
    listenFd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd < 0) {
        warn("metrics-http: socket: %s", std::strerror(errno));
        return false;
    }
    setNonBlocking(listenFd);
    const int one = 1;
    ::setsockopt(listenFd, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));

    struct sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
    addr.sin_port = htons(config.port);
    if (::bind(listenFd, reinterpret_cast<struct sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        warn("metrics-http: bind port %u: %s", config.port,
             std::strerror(errno));
        ::close(listenFd);
        listenFd = -1;
        return false;
    }
    if (::listen(listenFd, config.backlog) != 0) {
        warn("metrics-http: listen: %s", std::strerror(errno));
        ::close(listenFd);
        listenFd = -1;
        return false;
    }

    struct sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(listenFd,
                      reinterpret_cast<struct sockaddr *>(&bound),
                      &len) == 0) {
        boundPort = ntohs(bound.sin_port);
    }
    poller.add(listenFd);
    return true;
}

void
MetricsHttp::serviceOnce(int timeout_ms)
{
    if (listenFd < 0)
        return;
    poller.wait(events, timeout_ms);
    for (const PollEvent &ev : events) {
        if (ev.fd == listenFd) {
            if (ev.readable)
                acceptClients();
            continue;
        }
        auto it = conns.find(ev.fd);
        if (it == conns.end())
            continue;
        if (ev.closed) {
            closeConn(ev.fd);
            continue;
        }
        if (ev.readable)
            handleReadable(it->second);
        auto again = conns.find(ev.fd);
        if (again == conns.end())
            continue;
        if (ev.writable)
            flushOutput(again->second);
    }
}

void
MetricsHttp::startThread()
{
    stopFlag.store(false, std::memory_order_release);
    thread = std::thread([this] {
        while (!stopFlag.load(std::memory_order_acquire))
            serviceOnce(50);
    });
}

void
MetricsHttp::stop()
{
    stopFlag.store(true, std::memory_order_release);
    poller.wake();
    if (thread.joinable())
        thread.join();
    for (auto &[fd, conn] : conns)
        ::close(fd);
    conns.clear();
    if (listenFd >= 0) {
        poller.remove(listenFd);
        ::close(listenFd);
        listenFd = -1;
    }
}

void
MetricsHttp::acceptClients()
{
    for (;;) {
        const int fd = ::accept(listenFd, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return;
            if (errno == EINTR)
                continue;
            warn("metrics-http: accept: %s", std::strerror(errno));
            return;
        }
        setNonBlocking(fd);
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one,
                     sizeof(one));
        Conn conn;
        conn.fd = fd;
        conns.emplace(fd, std::move(conn));
        poller.add(fd);
    }
}

void
MetricsHttp::handleReadable(Conn &conn)
{
    char buf[4096];
    for (;;) {
        const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
        if (n > 0) {
            if (!conn.responding)
                conn.in.append(buf, static_cast<std::size_t>(n));
            if (static_cast<std::size_t>(n) < sizeof(buf))
                break;
            continue;
        }
        if (n == 0) {
            // Peer finished sending (or left). If a full request
            // line arrived, answer it below; otherwise drop.
            if (conn.in.find("\r\n") == std::string::npos &&
                conn.in.find('\n') == std::string::npos) {
                closeConn(conn.fd);
                return;
            }
            break;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        if (errno == EINTR)
            continue;
        closeConn(conn.fd);
        return;
    }
    if (conn.responding)
        return;
    // A request line is enough: this endpoint ignores headers.
    if (conn.in.find('\n') == std::string::npos &&
        conn.in.size() < config.maxRequestBytes)
        return;
    buildResponse(conn);
    flushOutput(conn);
}

void
MetricsHttp::buildResponse(Conn &conn)
{
    conn.responding = true;
    std::size_t eol = conn.in.find('\n');
    if (eol == std::string::npos)
        eol = conn.in.size();
    std::string line = conn.in.substr(0, eol);
    if (!line.empty() && line.back() == '\r')
        line.pop_back();

    const std::size_t sp1 = line.find(' ');
    const std::size_t sp2 =
        sp1 == std::string::npos ? std::string::npos
                                 : line.find(' ', sp1 + 1);
    const std::string method =
        sp1 == std::string::npos ? line : line.substr(0, sp1);
    const std::string path =
        sp1 == std::string::npos
            ? std::string()
            : line.substr(sp1 + 1, sp2 == std::string::npos
                                       ? std::string::npos
                                       : sp2 - sp1 - 1);

    if (method != "GET" || path.empty() || path[0] != '/') {
        errorCounter.add();
        conn.out = httpResponse("400 Bad Request", "text/plain",
                                "bad request\n");
    } else if (path == "/metrics" ||
               path.rfind("/metrics?", 0) == 0) {
        scrapes.fetch_add(1, std::memory_order_relaxed);
        scrapeCounter.add();
        conn.out = httpResponse("200 OK",
                                obs::prometheusContentType,
                                obs::renderPrometheusText());
    } else if (path == "/healthz") {
        conn.out =
            httpResponse("200 OK", "text/plain", "ok\n");
    } else {
        errorCounter.add();
        conn.out = httpResponse("404 Not Found", "text/plain",
                                "not found\n");
    }
    conn.in.clear();
}

void
MetricsHttp::flushOutput(Conn &conn)
{
    while (conn.outOff < conn.out.size()) {
        const ssize_t n = ::send(
            conn.fd, conn.out.data() + conn.outOff,
            conn.out.size() - conn.outOff, MSG_NOSIGNAL);
        if (n > 0) {
            conn.outOff += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            poller.setWriteInterest(conn.fd, true);
            return;
        }
        if (n < 0 && errno == EINTR)
            continue;
        closeConn(conn.fd);
        return;
    }
    // HTTP/1.0, Connection: close — done means close.
    closeConn(conn.fd);
}

void
MetricsHttp::closeConn(int fd)
{
    auto it = conns.find(fd);
    if (it == conns.end())
        return;
    poller.remove(fd);
    ::close(fd);
    conns.erase(it);
}

} // namespace marlin::serve
