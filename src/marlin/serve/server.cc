#include "marlin/serve/server.hh"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "marlin/base/instant.hh"
#include "marlin/base/logging.hh"
#include "marlin/obs/metrics.hh"
#include "marlin/obs/trace.hh"

namespace marlin::serve
{

namespace
{

obs::Counter &
counterOf(const char *name)
{
    return obs::Registry::instance().counter(name);
}

obs::Counter &
acceptedCounter()
{
    static obs::Counter &c = counterOf("serve.accepted");
    return c;
}

obs::Counter &
closedCounter()
{
    static obs::Counter &c = counterOf("serve.closed");
    return c;
}

obs::Counter &
eofCounter()
{
    static obs::Counter &c = counterOf("serve.eof");
    return c;
}

obs::Counter &
protocolErrorCounter()
{
    static obs::Counter &c = counterOf("serve.protocol_errors");
    return c;
}

obs::Counter &
responseCounter()
{
    static obs::Counter &c = counterOf("serve.responses");
    return c;
}

obs::Counter &
reloadCounter()
{
    static obs::Counter &c = counterOf("serve.reloads");
    return c;
}

obs::Counter &
bytesInCounter()
{
    static obs::Counter &c = counterOf("serve.bytes_in");
    return c;
}

obs::Counter &
bytesOutCounter()
{
    static obs::Counter &c = counterOf("serve.bytes_out");
    return c;
}

obs::Gauge &
connectionsGauge()
{
    static obs::Gauge &g =
        obs::Registry::instance().gauge("serve.connections");
    return g;
}

obs::Gauge &
qpsGauge()
{
    static obs::Gauge &g =
        obs::Registry::instance().gauge("serve.qps");
    return g;
}

obs::Histogram &
requestLatencyHistogram()
{
    static obs::Histogram &h = obs::Registry::instance().histogram(
        "serve.request.latency_us",
        {50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000,
         100000});
    return h;
}

void
setNonBlocking(int fd)
{
    // accept4/SOCK_NONBLOCK covers the normal path; this is the
    // belt-and-braces fallback for platforms without accept4.
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0)
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

} // namespace

Server::Server(ServePolicy &policy_in, ServeConfig config_in)
    : policy(policy_in), config(config_in),
      batcher(config.batchMax, config.batchDeadlineUs),
      poller(config.poller)
{
}

Server::~Server()
{
    for (auto &[id, conn] : connections)
        ::close(conn.fd);
    if (listenFd >= 0)
        ::close(listenFd);
}

bool
Server::start()
{
    listenFd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd < 0) {
        warn("serve: socket: %s", std::strerror(errno));
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
    if (::bind(listenFd,
               reinterpret_cast<struct sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        warn("serve: bind port %u: %s", config.port,
             std::strerror(errno));
        ::close(listenFd);
        listenFd = -1;
        return false;
    }
    if (::listen(listenFd, config.backlog) != 0) {
        warn("serve: listen: %s", std::strerror(errno));
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
    lastReloadCheckNs = base::nowNsSinceStart();
    windowStartNs = lastReloadCheckNs;
    return true;
}

const char *
Server::backendName() const
{
    return poller.backendName();
}

void
Server::setReloadHook(std::function<bool(bool)> hook)
{
    reloadHook = std::move(hook);
}

ServeStats
Server::stats() const
{
    ServeStats s = counters;
    s.activeConnections = connections.size();
    return s;
}

int
Server::waitTimeoutMs() const
{
    if (!batcher.empty() ||
        base::nowNsSinceStart() - lastFlushNs <
            config.batchDeadlineUs * 1000) {
        return 0;
    }
    std::uint64_t cap_ms = 50;
    if (config.reloadPollMs > 0)
        cap_ms = std::min(cap_ms, config.reloadPollMs);
    return static_cast<int>(cap_ms);
}

void
Server::run()
{
    MARLIN_ASSERT(listenFd >= 0, "Server::run before start()");
    while (!stopFlag.load(std::memory_order_acquire)) {
        poller.wait(events, waitTimeoutMs());

        for (const PollEvent &ev : events) {
            if (ev.fd == listenFd) {
                if (ev.readable)
                    acceptClients();
                continue;
            }
            // Re-resolve per action: an earlier event (or a batch
            // flush inside drainDecoder) may have closed this fd.
            auto it = byFd.find(ev.fd);
            if (it == byFd.end())
                continue;
            const std::uint64_t id = it->second;
            if (ev.closed) {
                closeConnection(id, true);
                continue;
            }
            if (ev.readable)
                handleReadable(connections.at(id));
            auto again = byFd.find(ev.fd);
            if (again == byFd.end() || again->second != id)
                continue;
            if (ev.writable)
                flushOutput(connections.at(id));
        }

        // A poll that found nothing means no more requests are on
        // the way: holding the batch longer would only add latency.
        // A turn that enqueued requests had events, so requests
        // that arrive together still share one flush.
        const std::uint64_t now = base::nowNsSinceStart();
        if (!batcher.empty() &&
            (events.empty() || batcher.full() ||
             batcher.deadlineExpired(now))) {
            flushBatch();
        }
        maybeReload(now);
        publishGauges(now);
    }
}

void
Server::acceptClients()
{
    for (;;) {
        struct sockaddr_in peer{};
        socklen_t len = sizeof(peer);
        const int fd = ::accept(
            listenFd, reinterpret_cast<struct sockaddr *>(&peer),
            &len);
        if (fd < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return;
            if (errno == EINTR)
                continue;
            warn("serve: accept: %s", std::strerror(errno));
            return;
        }
        setNonBlocking(fd);
        const int one = 1;
        // Batched responses are small; Nagle would add a spurious
        // ~40ms to every under-MSS reply.
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one,
                     sizeof(one));
        const std::uint64_t id = nextConnId++;
        connections.emplace(
            id, Connection(id, fd, config.maxPayloadBytes));
        byFd[fd] = id;
        poller.add(fd);
        ++counters.accepted;
        acceptedCounter().add();
        debugLog("serve: accepted connection %llu (fd %d)",
                 static_cast<unsigned long long>(id), fd);
    }
}

void
Server::handleReadable(Connection &conn)
{
    char buf[16384];
    for (;;) {
        const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
        if (n > 0) {
            bytesInCounter().add(static_cast<std::uint64_t>(n));
            conn.decoder.feed(buf, static_cast<std::size_t>(n));
            if (static_cast<std::size_t>(n) < sizeof(buf))
                break;
            continue;
        }
        if (n == 0) {
            ++counters.eofs;
            eofCounter().add();
            closeConnection(conn.id, true);
            return;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        if (errno == EINTR)
            continue;
        closeConnection(conn.id, false);
        return;
    }
    drainDecoder(conn);
}

void
Server::drainDecoder(Connection &conn)
{
    const std::uint64_t id = conn.id;
    RequestView req;
    for (;;) {
        const FrameDecoder::Result r = conn.decoder.next(req);
        if (r == FrameDecoder::Result::NeedMore)
            return;
        if (FrameDecoder::isError(r)) {
            ++counters.protocolErrors;
            protocolErrorCounter().add();
            debugLog("serve: connection %llu poisoned (%s)",
                     static_cast<unsigned long long>(id),
                     FrameDecoder::resultName(r));
            encodeResponse(conn.outBuf, Status::BadFrame, nullptr,
                           0);
            conn.closeAfterFlush = true;
            flushOutput(conn);
            return;
        }
        const std::uint64_t now = base::nowNsSinceStart();
        if (req.agentId >= policy.numAgents()) {
            encodeResponse(conn.outBuf, Status::BadAgent, nullptr,
                           0);
            flushOutput(conn);
        } else if (req.obsCount() !=
                   policy.obsDim(req.agentId)) {
            encodeResponse(conn.outBuf, Status::BadObsDim, nullptr,
                           0);
            flushOutput(conn);
        } else {
            batcher.add(id, req.agentId, req.payload,
                        req.obsCount(), now);
            if (batcher.full())
                flushBatch();
        }
        // An in-band error reply (or a flushed batch) may have hit
        // a dead socket and closed the connection under us.
        auto it = connections.find(id);
        if (it == connections.end())
            return;
    }
}

void
Server::flushBatch()
{
    const std::uint64_t now = base::nowNsSinceStart();
    // Counted before the responses go out, so a client holding its
    // answer also sees this flush in stats().
    ++counters.batches;
    lastFlushNs = now;
    batcher.flush(
        policy,
        [this](std::uint64_t conn_id, const Real *actions,
               std::size_t count, std::uint64_t enqueue_ns,
               std::uint64_t trace_id) {
            auto it = connections.find(conn_id);
            if (it == connections.end())
                return; // Client left while its request waited.
            Connection &conn = it->second;
            const std::uint64_t write_start =
                base::nowNsSinceStart();
            encodeResponse(conn.outBuf, Status::Ok, actions,
                           count);
            ++conn.responses;
            ++counters.responses;
            responseCounter().add();
            requestLatencyHistogram().observe(
                static_cast<double>(base::nowNsSinceStart() -
                                    enqueue_ns) /
                1000.0);
            if (trace_id != 0) {
                // Flow in: closes the arrow the batcher opened at
                // enqueue, so one request reads accept → enqueue →
                // infer → write in the trace.
                obs::recordFlowSpan(
                    "serve_write", "serve", write_start,
                    base::nowNsSinceStart() - write_start,
                    trace_id, obs::FlowDir::In);
            }
            flushOutput(conn);
        },
        now);
}

void
Server::flushOutput(Connection &conn)
{
    while (conn.hasPendingOutput()) {
        const ssize_t n = ::send(
            conn.fd, conn.outBuf.data() + conn.outOff,
            conn.outBuf.size() - conn.outOff, MSG_NOSIGNAL);
        if (n > 0) {
            bytesOutCounter().add(static_cast<std::uint64_t>(n));
            conn.outOff += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            // Kernel buffer full: finish later on EPOLLOUT.
            poller.setWriteInterest(conn.fd, true);
            return;
        }
        if (n < 0 && errno == EINTR)
            continue;
        closeConnection(conn.id, false);
        return;
    }
    conn.compactOutput();
    poller.setWriteInterest(conn.fd, false);
    if (conn.closeAfterFlush)
        closeConnection(conn.id, true);
}

void
Server::closeConnection(std::uint64_t id, bool expected)
{
    auto it = connections.find(id);
    if (it == connections.end())
        return;
    const int fd = it->second.fd;
    poller.remove(fd);
    ::close(fd);
    byFd.erase(fd);
    connections.erase(it);
    ++counters.closed;
    closedCounter().add();
    if (!expected)
        warn("serve: connection %llu closed on socket error",
             static_cast<unsigned long long>(id));
}

void
Server::maybeReload(std::uint64_t now_ns)
{
    const bool requested =
        reloadFlag.exchange(false, std::memory_order_acq_rel);
    const bool poll_due =
        config.reloadPollMs > 0 &&
        now_ns - lastReloadCheckNs >=
            config.reloadPollMs * 1000000ull;
    if (!requested && !poll_due)
        return;
    lastReloadCheckNs = now_ns;
    if (!reloadHook)
        return;
    if (reloadHook(requested)) {
        ++counters.reloads;
        reloadCounter().add();
        inform("serve: weights reloaded (version %llu, %zu "
               "connection(s) live)",
               static_cast<unsigned long long>(policy.version()),
               connections.size());
    }
}

void
Server::publishGauges(std::uint64_t now_ns)
{
    connectionsGauge().set(
        static_cast<double>(connections.size()));
    const std::uint64_t elapsed = now_ns - windowStartNs;
    if (elapsed < 1000000000ull)
        return;
    const std::uint64_t served =
        counters.responses - windowResponses;
    qpsGauge().set(static_cast<double>(served) * 1e9 /
                   static_cast<double>(elapsed));
    windowStartNs = now_ns;
    windowResponses = counters.responses;
}

namespace
{
std::atomic<Server *> g_sighup_server{nullptr};

void
sighupHandler(int)
{
    Server *s = g_sighup_server.load(std::memory_order_acquire);
    if (s != nullptr)
        s->requestReload();
}
} // namespace

void
installSighupReload(Server *server)
{
    g_sighup_server.store(server, std::memory_order_release);
    struct sigaction sa{};
    sa.sa_handler = server != nullptr ? sighupHandler : SIG_DFL;
    sa.sa_flags = SA_RESTART;
    ::sigemptyset(&sa.sa_mask);
    ::sigaction(SIGHUP, &sa, nullptr);
}

} // namespace marlin::serve
