/**
 * @file
 * What every workload of bench_e2e shares: the command-line options,
 * the report it fills (end-to-end metrics, per-layer metrics, output
 * checks and operation counts), and the small statistics helpers the
 * metrics are computed with.
 */

#ifndef MARLIN_E2EBENCH_REPORT_HH
#define MARLIN_E2EBENCH_REPORT_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "marlin/obs/metrics.hh"

namespace e2e
{

/** Parsed bench_e2e command line. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    /** Length of the measured window (set-up and checks excluded). */
    double seconds = 10;
    /** Time layer calls and record spans (per-layer metrics). */
    bool traced = false;
    /** Tiny sizes and a ~1 s window, for the e2e_smoke test. */
    bool smoke = false;
    std::string jsonPath;
    /** Perfetto trace of a traced run; empty writes none. */
    std::string tracePath;
};

/** One named number with its unit and the samples behind it. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
    std::uint64_t samples = 0;
};

/** One output check (a failed check is a failed operation). */
struct Check
{
    std::string name;
    bool ok = true;
    std::string detail;
};

/** Everything one workload run reports. */
class Report
{
  public:
    explicit Report(std::string workload_name)
        : workload(std::move(workload_name))
    {
    }

    void
    metric(const std::string &name, double value, const char *unit,
           std::uint64_t samples)
    {
        metrics.push_back({name, value, unit, samples});
    }

    void
    layer(const std::string &name, double value, const char *unit)
    {
        layers.push_back({name, value, unit, 0});
    }

    void
    config(const std::string &key, double value)
    {
        settings.push_back({key, value, "", 0});
    }

    /** Record a check; a failing one adds @p weight failed ops. */
    void check(const std::string &name, bool ok,
               const std::string &detail = "",
               std::uint64_t weight = 1);

    bool correct() const;

    /** Human-readable lines on stdout. */
    void print() const;

    /** Write the JSON document check_e2e.py and run.py read. */
    bool writeJson(const std::string &path, const Options &opt) const;

    std::string workload;
    std::vector<Metric> metrics;
    std::vector<Metric> layers;
    std::vector<Metric> settings;
    std::vector<Check> checks;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

/** Steady-clock nanoseconds on the library's trace timebase. */
std::uint64_t nowNs();

inline double
seconds(std::uint64_t ns)
{
    return static_cast<double>(ns) * 1e-9;
}

/** Median of @p v (reorders it); 0 for an empty vector. */
double median(std::vector<double> v);

/**
 * Nearest-rank quantile @p q in [0, 1] of @p v (reorders it); 0 for
 * an empty vector.
 */
template <typename T>
double
quantile(std::vector<T> &v, double q)
{
    if (v.empty())
        return 0;
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    const std::size_t idx =
        std::min(v.size() - 1, rank > 0 ? rank - 1 : 0);
    std::nth_element(v.begin(), v.begin() + idx, v.end());
    return static_cast<double>(v[idx]);
}

/** Peak resident set of this process in MiB (getrusage). */
double peakRssMb();

/** Sum of every registry counter whose name has both affixes. */
std::uint64_t counterSum(const std::vector<marlin::obs::MetricSample> &s,
                         const std::string &prefix,
                         const std::string &suffix);

/** A registry histogram's count and sum at one instant. */
struct HistogramState
{
    std::uint64_t count = 0;
    double sum = 0;

    /** Read @p name from the registry (empty when unregistered). */
    static HistogramState read(const std::string &name);

    /** Observations between @p earlier and this state. */
    HistogramState since(const HistogramState &earlier) const;

    double mean() const { return count > 0 ? sum / count : 0; }
};

/** Current value of registry counter @p name. */
std::uint64_t counterValue(const std::string &name);

} // namespace e2e

#endif // MARLIN_E2EBENCH_REPORT_HH
