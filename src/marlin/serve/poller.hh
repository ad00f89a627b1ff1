/**
 * @file
 * Readiness-notification backend for the serving event loop: epoll
 * on Linux, portable poll(2) everywhere (and on Linux when forced,
 * so the fallback stays tested on the primary platform).
 *
 * The interface is the small subset the server needs: every
 * registered fd is always read-interested, write interest toggles
 * as output queues fill and drain, and wait() reports (fd,
 * readable, writable, closed) tuples.
 */

#ifndef MARLIN_SERVE_POLLER_HH
#define MARLIN_SERVE_POLLER_HH

#include <map>
#include <string>
#include <vector>

#include <poll.h>

namespace marlin::serve
{

/** Which readiness backend a Server uses. */
enum class PollerKind
{
    Auto,  ///< epoll on Linux, poll elsewhere.
    Epoll, ///< Force epoll (fatal off Linux).
    Poll,  ///< Force the portable poll(2) backend.
};

/** Parse "auto" / "epoll" / "poll"; returns false on junk. */
bool pollerKindFromString(const std::string &name, PollerKind &out);

/** One ready fd from Poller::wait. */
struct PollEvent
{
    int fd = -1;
    bool readable = false;
    bool writable = false;
    /** Error/hangup condition; treat as readable-then-close. */
    bool closed = false;
};

/** Level-triggered readiness multiplexer over one of the backends. */
class Poller
{
  public:
    explicit Poller(PollerKind kind);
    ~Poller();

    Poller(const Poller &) = delete;
    Poller &operator=(const Poller &) = delete;

    /** Backend actually in use after Auto resolution. */
    const char *backendName() const;

    /** Register @p fd with read interest. */
    void add(int fd);

    /** Toggle write interest for a registered fd. */
    void setWriteInterest(int fd, bool on);

    /** Deregister @p fd (call before closing it). */
    void remove(int fd);

    /**
     * Block up to @p timeout_ms (0 = return immediately) and fill
     * @p out with ready fds. Returns the event count; EINTR reports
     * as 0 events.
     */
    std::size_t wait(std::vector<PollEvent> &out, int timeout_ms);

    /**
     * Make the blocked wait(), or the next one, return at once. Safe
     * from any thread and from a signal handler: one write(2) to a
     * non-blocking eventfd (a pipe off Linux), which wait() drains
     * and never reports as an event.
     */
    void wake();

  private:
    /** Drain the wake channel after it polled readable. */
    void drainWake();

    bool useEpoll = false;
    int epollFd = -1;
    /** Wake channel ends; the same eventfd twice on Linux. */
    int wakeRead = -1;
    int wakeWrite = -1;
    /** fd -> write interest, for both backends. */
    std::map<int, bool> interest;
    /** poll(2) backend scratch, rebuilt per wait. */
    std::vector<struct pollfd> pollScratch;
};

} // namespace marlin::serve

#endif // MARLIN_SERVE_POLLER_HH
