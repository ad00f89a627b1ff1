/**
 * @file
 * The policy-serving front end: a single-threaded TCP server that
 * multiplexes many client connections over epoll (poll fallback),
 * coalesces their requests in a MicroBatcher, answers each batch
 * with one zero-alloc actor forward per agent, and hot-swaps the
 * served weights on SIGHUP or a reload-poll tick without dropping
 * a single connection.
 *
 * Threading model: everything — accept, read, decode, batch,
 * inference, write, reload — runs on the one thread inside run().
 * stop() and requestReload() are the only cross-thread entry
 * points; both are a single atomic store the loop observes on its
 * next service turn. Single-threading is what makes the hot weight
 * swap trivially safe: a reload happens between two batch flushes,
 * so no in-flight forward can observe a half-copied network.
 */

#ifndef MARLIN_SERVE_SERVER_HH
#define MARLIN_SERVE_SERVER_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "marlin/serve/batcher.hh"
#include "marlin/serve/connection.hh"
#include "marlin/serve/policy.hh"
#include "marlin/serve/poller.hh"

namespace marlin::serve
{

/** Knobs of a serving front end. */
struct ServeConfig
{
    /** TCP port; 0 binds an ephemeral port (see Server::port). */
    std::uint16_t port = 0;
    /** listen(2) backlog. */
    int backlog = 64;
    /** Flush a batch as soon as this many requests are queued. */
    std::size_t batchMax = 32;
    /** Flush when the oldest request has waited this long. */
    std::uint64_t batchDeadlineUs = 200;
    /**
     * Check the reload hook every this many ms even without a
     * SIGHUP (0 = reload only on SIGHUP / requestReload).
     */
    std::uint64_t reloadPollMs = 0;
    /** Reject request frames with larger payloads. */
    std::size_t maxPayloadBytes = 1 << 20;
    /** Readiness backend. */
    PollerKind poller = PollerKind::Auto;
};

/** Point-in-time server statistics (single snapshot, not atomic). */
struct ServeStats
{
    std::uint64_t accepted = 0;
    std::uint64_t closed = 0;
    std::uint64_t eofs = 0;
    std::uint64_t protocolErrors = 0;
    std::uint64_t requests = 0;
    std::uint64_t responses = 0;
    std::uint64_t reloads = 0;
    std::uint64_t batches = 0;
    std::size_t activeConnections = 0;
};

/** Single-threaded epoll/poll policy server. */
class Server
{
  public:
    Server(ServePolicy &policy, ServeConfig config);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Bind + listen on config.port (loopback-and-any: INADDR_ANY).
     * Returns false with a warning on failure. Must be called
     * before run().
     */
    bool start();

    /** The bound port (the kernel's pick when config.port was 0). */
    std::uint16_t port() const { return boundPort; }

    /** Readiness backend actually in use ("epoll" or "poll"). */
    const char *backendName() const;

    /**
     * Serve until stop(). Installs nothing; signal handlers are the
     * binary's business (wire SIGHUP to requestReload()).
     */
    void run();

    /**
     * Ask the loop to exit and wake it, so an idle loop does not
     * sleep out its poll timeout; safe from any thread/signal
     * handler.
     */
    void
    stop()
    {
        stopFlag.store(true, std::memory_order_release);
        poller.wake();
    }

    /**
     * Ask the loop to invoke the reload hook at the next service
     * turn; safe from any thread and from signal handlers (one
     * atomic store, the SIGHUP path).
     */
    void
    requestReload()
    {
        reloadFlag.store(true, std::memory_order_release);
    }

    /**
     * Hook invoked on the server thread between batches when a
     * reload was requested (or every reloadPollMs). @p forced is
     * true for SIGHUP / requestReload() — reload unconditionally —
     * and false for a poll tick, where the hook may skip when the
     * checkpoint on disk is unchanged. Return true when new
     * weights were actually swapped in; the server counts it as a
     * completed reload.
     */
    void setReloadHook(std::function<bool(bool forced)> hook);

    ServeStats stats() const;

  private:
    void acceptClients();
    void handleReadable(Connection &conn);
    void drainDecoder(Connection &conn);
    void flushBatch();
    void flushOutput(Connection &conn);
    void closeConnection(std::uint64_t id, bool expected);
    void maybeReload(std::uint64_t now_ns);
    void publishGauges(std::uint64_t now_ns);
    int waitTimeoutMs() const;

    ServePolicy &policy;
    ServeConfig config;
    MicroBatcher batcher;
    Poller poller;

    int listenFd = -1;
    std::uint16_t boundPort = 0;
    std::uint64_t nextConnId = 1;
    std::map<std::uint64_t, Connection> connections;
    /** fd -> connection id for event dispatch. */
    std::map<int, std::uint64_t> byFd;
    std::vector<PollEvent> events;
    /** Connections to close after the current service turn. */
    std::vector<std::uint64_t> doomed;

    std::atomic<bool> stopFlag{false};
    std::atomic<bool> reloadFlag{false};
    std::function<bool(bool forced)> reloadHook;
    std::uint64_t lastReloadCheckNs = 0;

    // QPS window for the serve.qps gauge.
    std::uint64_t windowStartNs = 0;
    std::uint64_t windowResponses = 0;

    ServeStats counters;
};

/**
 * Install a SIGHUP handler that calls requestReload() on @p server
 * (process-wide; the last installed server wins). Passing nullptr
 * restores SIG_DFL.
 */
void installSighupReload(Server *server);

} // namespace marlin::serve

#endif // MARLIN_SERVE_SERVER_HH
