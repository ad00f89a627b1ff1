#include "marlin/obs/metrics.hh"

#include <algorithm>
#include <limits>

#include "marlin/base/instant.hh"
#include "marlin/base/logging.hh"

namespace marlin::obs
{

std::size_t
Counter::shardIndex() noexcept
{
    return base::currentThreadTag() % metricShards;
}

Histogram::Histogram(std::string name, std::vector<double> bounds_in)
    : _name(std::move(name)), bounds(std::move(bounds_in)),
      counts(bounds.size() + 1)
{
    MARLIN_ASSERT(std::is_sorted(bounds.begin(), bounds.end()),
                  "histogram bucket bounds must be ascending");
}

void
Histogram::observe(double v) noexcept
{
    // First bucket whose upper bound covers v; overflow otherwise.
    std::size_t i = 0;
    while (i < bounds.size() && v > bounds[i])
        ++i;
    counts[i].fetch_add(1, std::memory_order_relaxed);
    double expected = _sum.load(std::memory_order_relaxed);
    while (!_sum.compare_exchange_weak(expected, expected + v,
                                       std::memory_order_relaxed)) {
    }
}

double
Histogram::bucketUpperBound(std::size_t i) const
{
    MARLIN_ASSERT(i < counts.size(), "histogram bucket out of range");
    return i < bounds.size()
               ? bounds[i]
               : std::numeric_limits<double>::infinity();
}

std::uint64_t
Histogram::totalCount() const noexcept
{
    std::uint64_t total = 0;
    for (const auto &c : counts)
        total += c.load(std::memory_order_relaxed);
    return total;
}

void
Histogram::reset() noexcept
{
    for (auto &c : counts)
        c.store(0, std::memory_order_relaxed);
    _sum.store(0.0, std::memory_order_relaxed);
}

Registry &
Registry::instance()
{
    static Registry registry;
    return registry;
}

Counter &
Registry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex);
    if (gauges.count(name) != 0 || histograms.count(name) != 0)
        fatal("metric '%s' already registered with another kind",
              name.c_str());
    auto it = counters.find(name);
    if (it == counters.end()) {
        it = counters
                 .emplace(name, std::unique_ptr<Counter>(
                                    new Counter(name)))
                 .first;
    }
    return *it->second;
}

Gauge &
Registry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex);
    if (counters.count(name) != 0 || histograms.count(name) != 0)
        fatal("metric '%s' already registered with another kind",
              name.c_str());
    auto it = gauges.find(name);
    if (it == gauges.end()) {
        it = gauges
                 .emplace(name,
                          std::unique_ptr<Gauge>(new Gauge(name)))
                 .first;
    }
    return *it->second;
}

Histogram &
Registry::histogram(const std::string &name,
                    std::vector<double> bounds)
{
    std::lock_guard<std::mutex> lock(mutex);
    if (counters.count(name) != 0 || gauges.count(name) != 0)
        fatal("metric '%s' already registered with another kind",
              name.c_str());
    auto it = histograms.find(name);
    if (it == histograms.end()) {
        if (bounds.empty())
            fatal("histogram '%s' needs bucket bounds on first "
                  "registration",
                  name.c_str());
        it = histograms
                 .emplace(name,
                          std::unique_ptr<Histogram>(new Histogram(
                              name, std::move(bounds))))
                 .first;
    }
    return *it->second;
}

std::vector<MetricSample>
Registry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex);
    std::vector<MetricSample> out;
    out.reserve(counters.size() + gauges.size() +
                histograms.size());
    for (const auto &[name, c] : counters) {
        MetricSample s;
        s.name = name;
        s.kind = MetricSample::Kind::Counter;
        s.count = c->value();
        out.push_back(std::move(s));
    }
    for (const auto &[name, g] : gauges) {
        MetricSample s;
        s.name = name;
        s.kind = MetricSample::Kind::Gauge;
        s.value = g->value();
        out.push_back(std::move(s));
    }
    for (const auto &[name, h] : histograms) {
        MetricSample s;
        s.name = name;
        s.kind = MetricSample::Kind::Histogram;
        s.count = h->totalCount();
        s.value = h->sum();
        s.buckets.reserve(h->numBuckets());
        for (std::size_t i = 0; i < h->numBuckets(); ++i)
            s.buckets.emplace_back(h->bucketUpperBound(i),
                                   h->bucketCount(i));
        out.push_back(std::move(s));
    }
    std::sort(out.begin(), out.end(),
              [](const MetricSample &a, const MetricSample &b) {
                  return a.name < b.name;
              });
    return out;
}

void
Registry::resetAll()
{
    std::lock_guard<std::mutex> lock(mutex);
    for (auto &[name, c] : counters)
        c->reset();
    for (auto &[name, g] : gauges)
        g->reset();
    for (auto &[name, h] : histograms)
        h->reset();
}

} // namespace marlin::obs
