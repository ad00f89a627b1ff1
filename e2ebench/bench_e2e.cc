/**
 * @file
 * bench_e2e: the end-to-end benchmark of MARLin. One binary, one
 * workload per process:
 *
 *   bench_e2e --workload <name|all> --seed <S> [--seconds <T>]
 *             [--traced] [--trace-out <file>] [--smoke]
 *             [--json <out>]
 *
 * Untraced, it drives only public entry points and reports the
 * end-to-end metrics. With --traced it also times the calls into each
 * layer from the wrappers in timed.hh and reads registry deltas,
 * reporting per-layer metrics. Every run checks its outputs, counts
 * operations attempted and failed, and exits non-zero when a check
 * fails. `all` runs each workload in its own child process so that
 * setup_s and peak_rss_mb stay per workload.
 *
 * README.md in this directory defines every workload and metric.
 */

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>

#include <malloc.h>
#include <sys/wait.h>
#include <unistd.h>

#include "marlin/base/logging.hh"
#include "marlin/base/random.hh"
#include "marlin/numeric/kernels.hh"
#include "marlin/obs/trace.hh"
#include "timed.hh"
#include "workloads.hh"

namespace e2e
{

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> list = {
        {"lockstep-cn3", runLockstep},
        {"replay-pp6-512k", runReplay},
        {"async-cn3-a2", runAsync},
        {"serve-cn3-r10k",
         [](const Options &o) { return runServe(o, 10000); }},
        {"serve-cn3-r30k",
         [](const Options &o) { return runServe(o, 30000); }},
    };
    return list;
}

double
timeSetups(int times, const std::function<void()> &setup)
{
    std::vector<double> walls;
    for (int i = 0; i < times; ++i) {
        const std::uint64_t t0 = nowNs();
        setup();
        walls.push_back(seconds(nowNs() - t0));
    }
    return median(walls);
}

Window::Window(const Options &opt)
    : Window(nowNs(),
             nowNs() + static_cast<std::uint64_t>(opt.seconds * 1e9),
             opt.traced)
{
}

Window::Window(std::uint64_t start_ns, std::uint64_t end_ns, bool traced)
    : end(end_ns),
      timedFrom(traced ? start_ns + (end_ns - start_ns) / 3 : UINT64_MAX),
      countedFrom(traced ? start_ns + (end_ns - start_ns) * 2 / 3
                         : UINT64_MAX)
{
}

namespace
{
/** Spans kept per traced run; later ones are dropped and counted. */
constexpr std::size_t kTraceCapacity = 1 << 17;
} // namespace

void
Window::advance(std::initializer_list<Probes *> probes)
{
    const std::uint64_t now = nowNs();
    if (current == Part::Untraced && now >= timedFrom) {
        current = Part::Timed;
        marlin::obs::TraceRing::enable(kTraceCapacity);
        for (Probes *p : probes)
            p->on = true;
        timedMark = CounterMark::take();
    }
    if (current == Part::Timed && now >= countedFrom) {
        current = Part::Counted;
        for (Probes *p : probes)
            p->on = false;
        marlin::numeric::kernels::setCounting(true);
        countedMark = CounterMark::take();
    }
}

void
finishTracing(const Options &opt, Report &rep)
{
    const marlin::obs::TraceRing *ring =
        marlin::obs::TraceRing::active();
    if (ring == nullptr)
        return;
    rep.layer("trace.spans", static_cast<double>(ring->size()),
              "count");
    rep.layer("trace.dropped_spans",
              static_cast<double>(ring->dropped()), "count");
    if (opt.tracePath.empty())
        return;
    std::string error;
    if (!marlin::obs::exportTrace(opt.tracePath, &error))
        rep.check("trace_export", false, error);
}

CounterMark
CounterMark::take()
{
    const auto snap = marlin::obs::Registry::instance().snapshot();
    CounterMark m;
    m.kernelCalls = counterSum(snap, "kernels.", ".calls");
    m.kernelElems = counterSum(snap, "kernels.", ".elems");
    m.gatherBytes = counterSum(snap, "replay.gather.bytes", "");
    return m;
}

void
reportWindowLayers(Report &rep, const Window &window,
                   const PerPart<double> &ops, double gather_s,
                   double overhead)
{
    const CounterMark &a = window.timedMark;
    const CounterMark &b = window.countedMark;
    const CounterMark &c = window.closedMark;
    const double counted = ops[idx(Part::Counted)];
    const double timed = ops[idx(Part::Timed)];
    const double per_counted = counted > 0 ? 1.0 / counted : 0;
    rep.layer("numeric.kernel_calls_per_op",
              static_cast<double>(c.kernelCalls - b.kernelCalls) *
                  per_counted,
              "count");
    rep.layer("numeric.kernel_elems_per_op",
              static_cast<double>(c.kernelElems - b.kernelElems) *
                  per_counted,
              "count");
    const double bytes = static_cast<double>(b.gatherBytes - a.gatherBytes);
    rep.layer("replay.gather_bytes_per_op", timed > 0 ? bytes / timed : 0,
              "B");
    rep.layer("replay.gather_gbps",
              gather_s > 0 ? bytes / gather_s * 1e-9 : 0, "GB/s");
    rep.layer("trace.overhead_share", overhead, "share");
}

void
reportProbeLayers(Report &rep, const Probes &probes, double wall,
                  std::size_t storage_bytes)
{
    const double update = probes.update.s();
    const double plan = probes.plan.s();
    const double gather = probes.gather.s();
    rep.layer("core.update_share", update / wall, "share");
    rep.layer("core.update_self_share",
              update > 0 ? (update - plan - gather) / wall : 0, "share");
    rep.layer("core.update_ms", probes.update.mean() * 1e3, "ms");
    rep.layer("replay.plan_share", plan / wall, "share");
    rep.layer("replay.gather_share", gather / wall, "share");
    rep.layer("replay.append_share", probes.append.s() / wall, "share");
    rep.layer("replay.plan_us", probes.plan.mean() * 1e6, "us");
    rep.layer("replay.gather_us", probes.gather.mean() * 1e6, "us");
    rep.layer("replay.storage_mb",
              static_cast<double>(storage_bytes) / (1 << 20), "MB");
}

double
overheadShare(const PerPart<std::vector<double>> &rates)
{
    const double timed = median(rates[idx(Part::Timed)]);
    if (rates[idx(Part::Untraced)].empty() || timed <= 0)
        return 0;
    return median(rates[idx(Part::Untraced)]) / timed - 1;
}

std::vector<double>
allParts(const PerPart<std::vector<double>> &v)
{
    std::vector<double> all;
    for (const auto &part : v)
        all.insert(all.end(), part.begin(), part.end());
    return all;
}

std::uint64_t
mix64(std::uint64_t x)
{
    return marlin::SplitMix64(x).next();
}

float
hashValue(std::uint64_t key)
{
    // 24 random bits map exactly onto a float in [-1, 1).
    return static_cast<float>(mix64(key) >> 40) * 0x1p-23f - 1.0f;
}

} // namespace e2e

namespace
{

using e2e::Options;

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "bench_e2e: %s\nusage: bench_e2e --workload "
                 "<name|all> --seed <S> [--seconds <T>] [--traced] "
                 "[--trace-out <file>] [--smoke] [--json <out>]\n"
                 "workloads:",
                 why);
    for (const auto &w : e2e::workloads())
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    bool have_seconds = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + arg).c_str());
            return argv[++i];
        };
        char *end = nullptr;
        if (arg == "--workload") {
            opt.workload = value();
        } else if (arg == "--seed") {
            const std::string v = value();
            opt.seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end != '\0')
                usage("--seed needs a whole number");
        } else if (arg == "--seconds") {
            const std::string v = value();
            opt.seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end != '\0' || !(opt.seconds > 0) ||
                opt.seconds > 120)
                usage("--seconds needs a number in (0, 120]");
            have_seconds = true;
        } else if (arg == "--traced") {
            opt.traced = true;
        } else if (arg == "--smoke") {
            opt.smoke = true;
        } else if (arg == "--json") {
            opt.jsonPath = value();
        } else if (arg == "--trace-out") {
            opt.tracePath = value();
        } else {
            usage(("unknown argument " + arg).c_str());
        }
    }
    if (opt.workload.empty())
        usage("--workload is required");
    if (opt.smoke && !have_seconds)
        opt.seconds = 1.0;
    return opt;
}

/** `--workload all`: one child process per workload, in order. */
int
runAll(int argc, char **argv, const Options &opt)
{
    int worst = 0;
    for (const auto &w : e2e::workloads()) {
        std::vector<std::string> args;
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--workload" || arg == "--json" ||
                arg == "--trace-out") {
                ++i; // Replaced per child below.
                continue;
            }
            args.push_back(arg);
        }
        args.insert(args.end(), {"--workload", w.name});
        if (!opt.jsonPath.empty())
            args.insert(args.end(),
                        {"--json", opt.jsonPath + "." + w.name});
        if (!opt.tracePath.empty())
            args.insert(args.end(),
                        {"--trace-out", opt.tracePath + "." + w.name});
        std::vector<char *> child_argv;
        child_argv.push_back(argv[0]);
        for (auto &a : args)
            child_argv.push_back(a.data());
        child_argv.push_back(nullptr);

        std::fflush(stdout);
        const pid_t pid = ::fork();
        if (pid < 0) {
            std::perror("fork");
            return 1;
        }
        if (pid == 0) {
            ::execv("/proc/self/exe", child_argv.data());
            std::perror("execv");
            std::_Exit(127);
        }
        int status = 0;
        while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
        }
        const int code =
            WIFEXITED(status) ? WEXITSTATUS(status) : 128;
        if (code != 0) {
            std::fprintf(stderr, "bench_e2e: workload %s exited %d\n",
                         w.name, code);
            worst = code;
        }
    }
    return worst;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    marlin::setLogLevel(marlin::LogLevel::Warn);
    // One malloc arena for every thread: with glibc's per-thread
    // arenas, which arena each short-lived async thread lands in made
    // peak_rss_mb bimodal (66 or 75 MB) run to run. MARLin's hot paths
    // do not allocate, so the shared arena costs them nothing.
    ::mallopt(M_ARENA_MAX, 1);
    if (opt.workload == "all")
        return runAll(argc, argv, opt);

    const e2e::Workload *chosen = nullptr;
    for (const auto &w : e2e::workloads())
        if (opt.workload == w.name)
            chosen = &w;
    if (chosen == nullptr)
        usage(("unknown workload " + opt.workload).c_str());

    e2e::Report rep = chosen->run(opt);
    rep.metric("peak_rss_mb", e2e::peakRssMb(), "MB", 1);
    if (rep.attempted == 0)
        rep.check("operations_attempted", false, "no operation ran");
    rep.print();
    if (!opt.jsonPath.empty() && !rep.writeJson(opt.jsonPath, opt)) {
        std::fprintf(stderr, "bench_e2e: cannot write %s\n",
                     opt.jsonPath.c_str());
        return 1;
    }
    return rep.correct() ? 0 : 3;
}
