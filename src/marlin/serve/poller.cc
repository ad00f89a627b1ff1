#include "marlin/serve/poller.hh"

#include <cerrno>
#include <cstdint>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

#ifdef __linux__
#include <sys/epoll.h>
#include <sys/eventfd.h>
#endif

#include "marlin/base/logging.hh"

namespace marlin::serve
{

bool
pollerKindFromString(const std::string &name, PollerKind &out)
{
    if (name == "auto") {
        out = PollerKind::Auto;
        return true;
    }
    if (name == "epoll") {
        out = PollerKind::Epoll;
        return true;
    }
    if (name == "poll") {
        out = PollerKind::Poll;
        return true;
    }
    return false;
}

Poller::Poller(PollerKind kind)
{
#ifdef __linux__
    useEpoll = kind != PollerKind::Poll;
    if (useEpoll) {
        epollFd = ::epoll_create1(0);
        if (epollFd < 0) {
            warn("epoll_create1 failed (%s); falling back to poll",
                 std::strerror(errno));
            useEpoll = false;
        }
    }
    wakeRead = wakeWrite = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
#else
    if (kind == PollerKind::Epoll)
        fatal("epoll poller requested on a non-Linux platform");
    useEpoll = false;
    int fds[2];
    if (::pipe(fds) == 0) {
        wakeRead = fds[0];
        wakeWrite = fds[1];
        for (int fd : fds)
            ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
    }
#endif
    (void)kind;
    if (wakeRead < 0) {
        // wake() becomes a no-op: a stop waits out the poll timeout.
        warn("poller wake channel: %s", std::strerror(errno));
        return;
    }
#ifdef __linux__
    if (useEpoll) {
        struct epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.fd = wakeRead;
        if (::epoll_ctl(epollFd, EPOLL_CTL_ADD, wakeRead, &ev) != 0)
            warn("epoll_ctl add wake fd: %s", std::strerror(errno));
    }
#endif
}

Poller::~Poller()
{
    if (epollFd >= 0)
        ::close(epollFd);
    if (wakeWrite >= 0 && wakeWrite != wakeRead)
        ::close(wakeWrite);
    if (wakeRead >= 0)
        ::close(wakeRead);
}

void
Poller::wake()
{
    if (wakeWrite < 0)
        return;
    // Signal handlers may call this: keep the interrupted code's
    // errno. A full channel (EAGAIN) already holds a pending wake.
    const int saved = errno;
    const std::uint64_t one = 1;
    if (::write(wakeWrite, &one, sizeof(one)) < 0) {
    }
    errno = saved;
}

void
Poller::drainWake()
{
    std::uint64_t buf[8];
    while (::read(wakeRead, buf, sizeof(buf)) > 0) {
    }
}

const char *
Poller::backendName() const
{
    return useEpoll ? "epoll" : "poll";
}

void
Poller::add(int fd)
{
    interest[fd] = false;
#ifdef __linux__
    if (useEpoll) {
        struct epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.fd = fd;
        if (::epoll_ctl(epollFd, EPOLL_CTL_ADD, fd, &ev) != 0)
            warn("epoll_ctl add fd %d: %s", fd,
                 std::strerror(errno));
    }
#endif
}

void
Poller::setWriteInterest(int fd, bool on)
{
    auto it = interest.find(fd);
    if (it == interest.end() || it->second == on)
        return;
    it->second = on;
#ifdef __linux__
    if (useEpoll) {
        struct epoll_event ev{};
        ev.events = EPOLLIN | (on ? EPOLLOUT : 0u);
        ev.data.fd = fd;
        if (::epoll_ctl(epollFd, EPOLL_CTL_MOD, fd, &ev) != 0)
            warn("epoll_ctl mod fd %d: %s", fd,
                 std::strerror(errno));
    }
#endif
}

void
Poller::remove(int fd)
{
    interest.erase(fd);
#ifdef __linux__
    if (useEpoll) {
        // Ignore failures: the fd may already be gone.
        ::epoll_ctl(epollFd, EPOLL_CTL_DEL, fd, nullptr);
    }
#endif
}

std::size_t
Poller::wait(std::vector<PollEvent> &out, int timeout_ms)
{
    out.clear();
#ifdef __linux__
    if (useEpoll) {
        struct epoll_event events[64];
        const int n =
            ::epoll_wait(epollFd, events, 64, timeout_ms);
        if (n < 0) {
            if (errno != EINTR)
                warn("epoll_wait: %s", std::strerror(errno));
            return 0;
        }
        for (int i = 0; i < n; ++i) {
            if (events[i].data.fd == wakeRead) {
                drainWake();
                continue;
            }
            PollEvent ev;
            ev.fd = events[i].data.fd;
            ev.readable = (events[i].events & EPOLLIN) != 0;
            ev.writable = (events[i].events & EPOLLOUT) != 0;
            ev.closed =
                (events[i].events & (EPOLLERR | EPOLLHUP)) != 0;
            out.push_back(ev);
        }
        return out.size();
    }
#endif
    pollScratch.clear();
    if (wakeRead >= 0) {
        struct pollfd p{};
        p.fd = wakeRead;
        p.events = POLLIN;
        pollScratch.push_back(p);
    }
    for (const auto &[fd, want_write] : interest) {
        struct pollfd p{};
        p.fd = fd;
        p.events =
            static_cast<short>(POLLIN | (want_write ? POLLOUT : 0));
        pollScratch.push_back(p);
    }
    const int n =
        ::poll(pollScratch.data(),
               static_cast<nfds_t>(pollScratch.size()), timeout_ms);
    if (n < 0) {
        if (errno != EINTR)
            warn("poll: %s", std::strerror(errno));
        return 0;
    }
    for (const struct pollfd &p : pollScratch) {
        if (p.revents == 0)
            continue;
        if (p.fd == wakeRead) {
            drainWake();
            continue;
        }
        PollEvent ev;
        ev.fd = p.fd;
        ev.readable = (p.revents & POLLIN) != 0;
        ev.writable = (p.revents & POLLOUT) != 0;
        ev.closed = (p.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0;
        out.push_back(ev);
    }
    return out.size();
}

} // namespace marlin::serve
