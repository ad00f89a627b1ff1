/**
 * @file
 * The benchmark's workloads and the measurement scaffolding they
 * share: repeated set-up, and the measured window with the parts a
 * traced run splits it into.
 */

#ifndef MARLIN_E2EBENCH_WORKLOADS_HH
#define MARLIN_E2EBENCH_WORKLOADS_HH

#include <array>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <vector>

#include "report.hh"

namespace e2e
{

struct Probes;

Report runLockstep(const Options &opt);
Report runReplay(const Options &opt);
Report runAsync(const Options &opt);
Report runServe(const Options &opt, double rate);

/** A registered workload: its name and how to run it. */
struct Workload
{
    const char *name;
    std::function<Report(const Options &)> run;
};

/** Every workload, in the order `--workload all` runs them. */
const std::vector<Workload> &workloads();

/**
 * Run @p setup @p times times and return the median wall seconds.
 * Each call must build a complete instance (the caller keeps the
 * last), so work moved into set-up shows in setup_s.
 */
double timeSetups(int times, const std::function<void()> &setup);

/**
 * The thirds of a traced window. Untraced is the reference for
 * trace.overhead_share; Timed runs the wrappers and the trace ring
 * and gives every per-layer time; Counted adds kernel invocation
 * counting, whose cost would distort those times, and gives the
 * per-operation counts. An untraced run stays Untraced throughout.
 */
enum class Part { Untraced = 0, Timed = 1, Counted = 2 };

/** Registry counters at the start of each part and at the end. */
struct CounterMark
{
    std::uint64_t kernelCalls = 0;
    std::uint64_t kernelElems = 0;
    std::uint64_t gatherBytes = 0;

    static CounterMark take();
};

/**
 * The measured window: --seconds from its construction, or the span a
 * workload with its own warm-up gives (serve).
 */
class Window
{
  public:
    explicit Window(const Options &opt);
    Window(std::uint64_t start_ns, std::uint64_t end_ns, bool traced);

    bool open() const { return nowNs() < end; }

    /**
     * Move to the part the next segment belongs to. On entering
     * Timed this turns on the trace ring and @p probes; on entering
     * Counted it turns the probes off and kernel counting on. Either
     * way it takes a CounterMark.
     */
    void advance(std::initializer_list<Probes *> probes);

    Part part() const { return current; }

    /** Take closedMark once the last segment has run. */
    void close() { closedMark = CounterMark::take(); }

    /** Counters when Timed began, when Counted began, and at close. */
    CounterMark timedMark;
    CounterMark countedMark;
    CounterMark closedMark;

  private:
    std::uint64_t end;
    std::uint64_t timedFrom;
    std::uint64_t countedFrom;
    Part current = Part::Untraced;
};

/** Per-part values (rates, walls) of a workload's segments. */
template <typename T>
using PerPart = std::array<T, 3>;

inline std::size_t
idx(Part p)
{
    return static_cast<std::size_t>(p);
}

/** Export the trace ring to opt.tracePath and report its counts. */
void finishTracing(const Options &opt, Report &rep);

/**
 * Layers every traced workload reports from the window's marks:
 * kernel calls/elements per operation (Counted part), gathered bytes
 * per operation and gather bandwidth (Timed part), and the tracing
 * overhead from the Untraced and Timed rates.
 */
void reportWindowLayers(Report &rep, const Window &window,
                        const PerPart<double> &ops, double gather_s,
                        double overhead);

/**
 * core.update_*, replay.{plan,gather,append}_* and replay.storage_mb
 * from one set of probes over @p wall seconds of the Timed part.
 */
void reportProbeLayers(Report &rep, const Probes &probes, double wall,
                       std::size_t storage_bytes);

/** median(untraced rates) / median(timed rates) - 1. */
double overheadShare(const PerPart<std::vector<double>> &rates);

/** All segments' values, whatever part they ran in. */
std::vector<double> allParts(const PerPart<std::vector<double>> &v);

/** Deterministic value in [-1, 1) from a 64-bit key (SplitMix64). */
float hashValue(std::uint64_t key);

/** SplitMix64 finalizer. */
std::uint64_t mix64(std::uint64_t x);

} // namespace e2e

#endif // MARLIN_E2EBENCH_WORKLOADS_HH
