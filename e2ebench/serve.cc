/**
 * @file
 * serve-cn3-r<rate>: an in-process serve::Server (default config:
 * batchMax 32, deadline 200 us) on its own thread, answering
 * cooperative-navigation policy queries for 3 agents. The calling
 * thread is one open-loop generator over 4 non-blocking loopback
 * connections: request i is due at i / rate seconds, whatever the
 * server is doing, and is timed from its due time, so a stall's wait
 * on later requests counts. The first fifth of the window warms the
 * path (connections, allocator, caches) and is not measured: serving
 * tails measured from a cold start swing by an order of magnitude.
 */

#include <cerrno>
#include <cstring>
#include <deque>
#include <memory>
#include <thread>

#include <fcntl.h>
#include <sys/socket.h>

#include "marlin/base/thread_pool.hh"
#include "marlin/core/maddpg.hh"
#include "marlin/env/environment.hh"
#include "marlin/replay/uniform_sampler.hh"
#include "marlin/serve/client.hh"
#include "marlin/serve/server.hh"
#include "workloads.hh"

namespace e2e
{

namespace
{

using namespace marlin;

constexpr std::size_t kAgents = 3;
constexpr std::size_t kConnections = 4;
/** Every this many responses is recomputed bench-side. */
constexpr std::uint64_t kCheckEvery = 64;
/** Time allowed for the last responses after sending stops. */
constexpr std::uint64_t kDrainNs = 2'000'000'000;

/** Observation of request @p id: a pure function of (seed, id). */
void
requestObs(std::uint64_t salt, std::uint64_t id, std::size_t dim,
           Real *out)
{
    for (std::size_t j = 0; j < dim; ++j)
        out[j] = hashValue(salt + (id << 8) + j);
}

/** A request on the wire, awaiting its in-order response. */
struct Inflight
{
    std::uint64_t id = 0;
    std::uint64_t dueNs = 0;
    std::uint64_t sentNs = 0;
};

/** One generator connection (the socket is owned by client). */
struct Connection
{
    serve::BlockingClient client;
    serve::FrameDecoder decoder{serve::responseMagic, 1 << 20};
    std::vector<std::byte> out;
    std::size_t outOff = 0;
    std::deque<Inflight> inflight;
    bool dead = false;
};

/** Policy, server thread and warmed connections. */
class Service
{
  public:
    explicit Service(std::uint64_t seed)
    {
        std::vector<std::size_t> dims;
        {
            const auto environment =
                env::makeCooperativeNavigationEnv(kAgents, seed);
            for (std::size_t i = 0; i < kAgents; ++i)
                dims.push_back(environment->obsDim(i));
        }
        core::TrainConfig config;
        config.seed = seed;
        trainer = std::make_unique<core::MaddpgTrainer>(
            dims, 5, config,
            [] { return std::make_unique<replay::UniformSampler>(); });
        policy.adoptFrom(*trainer);
        reference.adoptFrom(*trainer);

        server = std::make_unique<serve::Server>(policy,
                                                 serve::ServeConfig{});
        if (!server->start())
            fatal("bench_e2e: serve workload cannot bind a port");
        thread = std::thread([this] { server->run(); });

        std::vector<Real> obs;
        std::vector<Real> actions;
        for (std::size_t c = 0; c < kConnections; ++c) {
            auto conn = std::make_unique<Connection>();
            if (!conn->client.connect("127.0.0.1", server->port(),
                                      2000))
                fatal("bench_e2e: cannot connect to the server");
            obs.assign(policy.obsDim(c % kAgents), Real(0));
            serve::Status status = serve::Status::Ok;
            if (!conn->client.request(
                    static_cast<std::uint16_t>(c % kAgents), obs.data(),
                    obs.size(), actions, status) ||
                status != serve::Status::Ok)
                fatal("bench_e2e: warm-up request failed");
            const int fd = conn->client.fd();
            ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
            conns.push_back(std::move(conn));
        }
    }

    ~Service()
    {
        conns.clear();
        server->stop();
        thread.join();
    }

    Service(const Service &) = delete;
    Service &operator=(const Service &) = delete;

    std::unique_ptr<core::MaddpgTrainer> trainer;
    serve::ServePolicy policy;
    /** Bench-side copy of the weights for the output check. */
    serve::ServePolicy reference;
    std::unique_ptr<serve::Server> server;
    std::vector<std::unique_ptr<Connection>> conns;

  private:
    std::thread thread;
};

/** Serve-side registry state at one instant. */
struct ServeMark
{
    HistogramState queueWait;
    HistogramState infer;
    HistogramState latency;
    std::uint64_t requests = 0;

    static ServeMark
    take()
    {
        ServeMark m;
        m.queueWait = HistogramState::read("serve.request.queue_wait_us");
        m.infer = HistogramState::read("serve.batch.infer_us");
        m.latency = HistogramState::read("serve.request.latency_us");
        m.requests = counterValue("serve.requests");
        return m;
    }
};

/** Flush @p conn's pending bytes and read what arrived; false on a
 *  dropped connection. */
bool
pump(Connection &conn)
{
    const int fd = conn.client.fd();
    while (conn.outOff < conn.out.size()) {
        const ssize_t n = ::send(fd, conn.out.data() + conn.outOff,
                                 conn.out.size() - conn.outOff,
                                 MSG_NOSIGNAL);
        if (n > 0) {
            conn.outOff += static_cast<std::size_t>(n);
        } else if (n < 0 && errno == EINTR) {
            continue;
        } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            break;
        } else {
            return false;
        }
    }
    if (conn.outOff == conn.out.size()) {
        conn.out.clear();
        conn.outOff = 0;
    }
    char buf[16384];
    for (;;) {
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n > 0) {
            conn.decoder.feed(buf, static_cast<std::size_t>(n));
        } else if (n < 0 && errno == EINTR) {
            continue;
        } else {
            return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
        }
    }
}

} // namespace

Report
runServe(const Options &opt, double rate)
{
    Report rep(std::string("serve-cn3-r") +
               std::to_string(static_cast<int>(rate / 1000)) + "k");
    if (opt.smoke)
        rate = 2000;
    base::ThreadPool::setGlobalThreads(1);
    rep.config("pool_threads", 1);
    rep.config("connections", kConnections);
    rep.config("rate_per_s", rate);

    std::unique_ptr<Service> svc;
    rep.metric("setup_s", timeSetups(9, [&] {
                   svc.reset();
                   svc = std::make_unique<Service>(opt.seed);
               }),
               "s", 9);

    const std::uint64_t salt = mix64(opt.seed);
    const auto window_ns = static_cast<std::uint64_t>(opt.seconds * 1e9);
    const std::uint64_t t0 = nowNs() + 1'000'000;
    const std::uint64_t measure_from = t0 + window_ns / 5;
    const std::uint64_t send_until = t0 + window_ns;
    // A traced run splits the measured four fifths into thirds.
    Window window(measure_from, send_until, opt.traced);
    auto due = [&](std::uint64_t id) {
        return t0 + static_cast<std::uint64_t>(
                        static_cast<double>(id) * 1e9 / rate);
    };

    std::vector<Real> obs;
    std::vector<Real> actions;
    serve::ResponseView resp;
    numeric::Matrix x;
    numeric::Matrix y;
    // Float samples keep the generator's own footprint small next to
    // the server's in peak_rss_mb.
    PerPart<std::vector<float>> latency_us;
    PerPart<double> sent_in{};
    double timed_wire_us = 0;
    double late_max_us = 0;
    std::uint64_t first_recv = 0;
    std::uint64_t last_recv = 0;
    std::uint64_t sent = 0;
    std::uint64_t received = 0;
    std::uint64_t bad_status = 0;
    std::uint64_t mismatched = 0;
    std::uint64_t checked = 0;
    std::uint64_t dropped_conns = 0;
    PerPart<ServeMark> marks;
    Part part = Part::Untraced;
    // A measured request belongs to the part its due time falls in;
    // a part begins once its switch (and registry mark) is done.
    PerPart<std::uint64_t> part_from{measure_from, UINT64_MAX,
                                     UINT64_MAX};
    // Switching tracing on stalls the generator once; lateness counts
    // from just after that, at the generator's steady pace.
    std::uint64_t late_from = opt.traced ? UINT64_MAX : measure_from;
    auto part_of = [&](std::uint64_t due_ns) {
        return due_ns >= part_from[idx(Part::Counted)] ? Part::Counted
               : due_ns >= part_from[idx(Part::Timed)] ? Part::Timed
                                                       : Part::Untraced;
    };
    std::uint64_t next_id = 0;
    std::uint64_t next_due = due(0);
    std::uint64_t drain_deadline = UINT64_MAX;

    for (;;) {
        std::uint64_t now = nowNs();
        if (now >= measure_from && now < send_until) {
            window.advance({});
            if (window.part() != part) {
                part = window.part();
                marks[idx(part)] = ServeMark::take();
                now = nowNs();
                part_from[idx(part)] = now;
                if (part == Part::Timed)
                    late_from = now;
            }
        }
        // Open loop: emit everything due, however far behind.
        while (next_due <= now && next_due < send_until) {
            const std::uint64_t id = next_id;
            Connection &conn = *svc->conns[id % kConnections];
            const auto agent = static_cast<std::uint16_t>(id % kAgents);
            const std::size_t dim = svc->policy.obsDim(agent);
            obs.resize(dim);
            requestObs(salt, id, dim, obs.data());
            serve::encodeRequest(conn.out, agent, obs.data(), dim);
            conn.inflight.push_back({id, next_due, now});
            if (next_due >= late_from)
                late_max_us = std::max(
                    late_max_us,
                    static_cast<double>(now - next_due) * 1e-3);
            if (next_due >= measure_from)
                sent_in[idx(part_of(next_due))] += 1;
            ++sent;
            next_due = due(++next_id);
        }
        if (next_due >= send_until && drain_deadline == UINT64_MAX) {
            window.close();
            drain_deadline = now + kDrainNs;
        }

        bool pending = false;
        for (auto &cp : svc->conns) {
            Connection &conn = *cp;
            if (conn.dead)
                continue;
            if (!pump(conn)) {
                conn.dead = true;
                ++dropped_conns;
                continue;
            }
            while (conn.decoder.next(resp) ==
                   serve::FrameDecoder::Result::Frame) {
                const std::uint64_t t = nowNs();
                if (conn.inflight.empty()) {
                    ++bad_status; // A response nobody asked for.
                    continue;
                }
                const Inflight req = conn.inflight.front();
                conn.inflight.pop_front();
                ++received;
                const auto agent =
                    static_cast<std::size_t>(req.id % kAgents);
                if (resp.status != serve::Status::Ok ||
                    resp.actionCount() != svc->policy.actDim()) {
                    ++bad_status;
                    continue;
                }
                if (req.id % kCheckEvery == 0) {
                    actions.resize(resp.actionCount());
                    resp.copyActions(actions.data());
                    const std::size_t dim = svc->policy.obsDim(agent);
                    x.reshape(1, dim);
                    requestObs(salt, req.id, dim, x.data());
                    svc->reference.forward(agent, x, y);
                    ++checked;
                    if (std::memcmp(y.data(), actions.data(),
                                    actions.size() * sizeof(Real)) != 0)
                        ++mismatched;
                }
                if (req.dueNs < measure_from || req.dueNs >= send_until)
                    continue;
                const Part p = part_of(req.dueNs);
                latency_us[idx(p)].push_back(
                    static_cast<float>(t - req.dueNs) * 1e-3f);
                if (p == Part::Timed)
                    timed_wire_us +=
                        static_cast<double>(t - req.sentNs) * 1e-3;
                if (first_recv == 0)
                    first_recv = t;
                last_recv = t;
            }
            pending = pending || !conn.inflight.empty();
        }
        if (drain_deadline != UINT64_MAX &&
            (!pending || now >= drain_deadline))
            break;
    }

    std::uint64_t missing = 0;
    for (const auto &cp : svc->conns)
        missing += cp->inflight.size();
    rep.attempted = sent;

    PerPart<double> p50{};
    for (std::size_t i = 0; i < 3; ++i)
        p50[i] = quantile(latency_us[i], 0.5);
    const double timed_n =
        static_cast<double>(latency_us[idx(Part::Timed)].size());
    std::vector<float> all;
    for (const auto &v : latency_us)
        all.insert(all.end(), v.begin(), v.end());
    latency_us = {};

    const auto measured = static_cast<double>(all.size());
    rep.metric("throughput",
               last_recv > first_recv
                   ? (measured - 1) / seconds(last_recv - first_recv)
                   : 0,
               "1/s", all.size());
    rep.metric("latency_p50", quantile(all, 0.50), "us", all.size());
    rep.metric("latency_p95", quantile(all, 0.95), "us", all.size());

    rep.check("all_responses_ok", bad_status == 0,
              std::to_string(bad_status) + " non-Ok or unmatched",
              bad_status);
    rep.check("sent_equals_received", missing == 0 && sent == received,
              std::to_string(sent) + " sent, " +
                  std::to_string(received) + " received",
              missing);
    rep.check("no_dropped_connections", dropped_conns == 0,
              std::to_string(dropped_conns) + " dropped", dropped_conns);
    rep.check("sampled_responses_bit_identical",
              mismatched == 0 && checked > 0,
              std::to_string(mismatched) + " of " +
                  std::to_string(checked) +
                  " responses differ from a bench-side forward",
              mismatched);

    if (opt.traced) {
        const ServeMark &a = marks[idx(Part::Timed)];
        const ServeMark &b = marks[idx(Part::Counted)];
        const HistogramState wait = b.queueWait.since(a.queueWait);
        const HistogramState infer = b.infer.since(a.infer);
        const HistogramState server = b.latency.since(a.latency);
        const double client_us = timed_n > 0 ? timed_wire_us / timed_n : 0;
        rep.layer("serve.queue_wait_us", wait.mean(), "us");
        rep.layer("serve.batch_size",
                  infer.count > 0
                      ? static_cast<double>(b.requests - a.requests) /
                            static_cast<double>(infer.count)
                      : 0,
                  "count");
        rep.layer("serve.infer_us", infer.mean(), "us");
        rep.layer("serve.server_us", server.mean(), "us");
        rep.layer("serve.wire_us", client_us - server.mean(), "us");
        rep.layer("serve.gen_late_max_us", late_max_us, "us");
        rep.layer("unattributed_share",
                  client_us > 0 ? 1 - server.mean() / client_us : 0,
                  "share");
        const double untraced = p50[idx(Part::Untraced)];
        reportWindowLayers(rep, window, sent_in, 0,
                           untraced > 0
                               ? p50[idx(Part::Timed)] / untraced - 1
                               : 0);
        finishTracing(opt, rep);
    }
    return rep;
}

} // namespace e2e
