/**
 * @file
 * Minimal HTTP/1.0 metrics endpoint: `GET /metrics` answers with the
 * Prometheus text rendering of the obs registry, `GET /healthz` with
 * "ok". Built on the same serve::Poller readiness backend as the
 * policy server (epoll on Linux, poll(2) fallback), non-blocking
 * end to end, one response per connection (Connection: close).
 *
 * Two service modes, chosen by the mount point:
 *
 *  - serviceOnce(): one poll turn, driven by a thread the caller
 *    already owns. The async training CLI hooks this into the
 *    supervisor's watchdog tick, so scrapes are served without
 *    adding a thread and — critically — without touching the actor
 *    or learner hot paths: rendering allocates, and the zero-alloc
 *    steady-state contract only covers the hot threads.
 *  - startThread(): a dedicated background service loop, for
 *    processes without a convenient idle thread (marlin_serve's
 *    event loop must not stall on a scrape render; the lockstep
 *    trainer has no watchdog).
 *
 * Malformed requests get a 400 and poison only their own
 * connection; the listener and every other connection stay live
 * (same isolation contract as the policy server's framing errors).
 */

#ifndef MARLIN_SERVE_METRICS_HTTP_HH
#define MARLIN_SERVE_METRICS_HTTP_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "marlin/obs/metrics.hh"
#include "marlin/serve/poller.hh"

namespace marlin::serve
{

/** Endpoint knobs, fixed for the run. */
struct MetricsHttpConfig
{
    /** TCP port; 0 binds an ephemeral port (see port()). */
    std::uint16_t port = 0;
    PollerKind poller = PollerKind::Auto;
};

/** The /metrics + /healthz HTTP endpoint. */
class MetricsHttp
{
  public:
    explicit MetricsHttp(MetricsHttpConfig config = {});
    ~MetricsHttp();

    MetricsHttp(const MetricsHttp &) = delete;
    MetricsHttp &operator=(const MetricsHttp &) = delete;

    /** Bind + listen. False (with a warning) on failure. */
    bool start();

    /** Port actually bound (resolves port 0). */
    std::uint16_t port() const { return boundPort; }

    /**
     * One service turn: wait up to @p timeout_ms for readiness,
     * then accept / read / respond / flush whatever is ready.
     * Call from exactly one thread at a time.
     */
    void serviceOnce(int timeout_ms = 0);

    /** Spawn a background loop of serviceOnce(50). */
    void startThread();

    /** Stop the background loop (if any) and close every fd. */
    void stop();

    /** Successful /metrics scrapes served. */
    std::uint64_t
    scrapesServed() const noexcept
    {
        return scrapes.load(std::memory_order_relaxed);
    }

  private:
    struct Conn
    {
        int fd = -1;
        std::string in;      ///< Bytes read so far.
        std::string out;     ///< Response being flushed.
        std::size_t outOff = 0;
        bool responding = false;
    };

    void acceptClients();
    void handleReadable(Conn &conn);
    /** Build conn.out from the request line in conn.in. */
    void buildResponse(Conn &conn);
    /** Write pending output; closes when fully flushed. */
    void flushOutput(Conn &conn);
    void closeConn(int fd);

    MetricsHttpConfig config;
    Poller poller;
    int listenFd = -1;
    std::uint16_t boundPort = 0;
    std::map<int, Conn> conns;
    std::vector<PollEvent> events;

    std::atomic<std::uint64_t> scrapes{0};

    std::thread thread;
    std::atomic<bool> stopFlag{false};

    // Obs registry handles, resolved once at construction.
    obs::Counter &scrapeCounter;
    obs::Counter &errorCounter;
};

} // namespace marlin::serve

#endif // MARLIN_SERVE_METRICS_HTTP_HH
