#include "report.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include <sys/resource.h>

#include "marlin/base/instant.hh"

namespace e2e
{

void
Report::check(const std::string &name, bool ok,
              const std::string &detail, std::uint64_t weight)
{
    checks.push_back({name, ok, detail});
    if (!ok)
        failed += weight;
}

bool
Report::correct() const
{
    for (const Check &c : checks)
        if (!c.ok)
            return false;
    return failed == 0;
}

void
Report::print() const
{
    std::printf("workload %s: attempted %llu, failed %llu\n",
                workload.c_str(),
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (const Metric &m : settings)
        std::printf("  config  %-32s %g\n", m.name.c_str(), m.value);
    for (const Metric &m : metrics)
        std::printf("  e2e     %-32s %14.6g %-6s (n=%llu)\n",
                    m.name.c_str(), m.value, m.unit.c_str(),
                    static_cast<unsigned long long>(m.samples));
    for (const Metric &m : layers)
        std::printf("  layer   %-32s %14.6g %s\n", m.name.c_str(),
                    m.value, m.unit.c_str());
    for (const Check &c : checks)
        std::printf("  check   %-32s %s %s\n", c.name.c_str(),
                    c.ok ? "ok" : "FAILED", c.detail.c_str());
}

namespace
{

/** JSON has no NaN/Inf: write them as null so readers reject them. */
void
writeNumber(std::FILE *f, double v)
{
    if (std::isfinite(v))
        std::fprintf(f, "%.17g", v);
    else
        std::fprintf(f, "null");
}

void
writeString(std::FILE *f, const std::string &s)
{
    std::fputc('"', f);
    for (const char c : s) {
        if (c == '"' || c == '\\')
            std::fputc('\\', f);
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        std::fputc(c, f);
    }
    std::fputc('"', f);
}

void
writeMetrics(std::FILE *f, const char *key,
             const std::vector<Metric> &list)
{
    std::fprintf(f, ",\n  \"%s\": {", key);
    for (std::size_t i = 0; i < list.size(); ++i) {
        const Metric &m = list[i];
        std::fprintf(f, "%s\n    ", i > 0 ? "," : "");
        writeString(f, m.name);
        std::fprintf(f, ": {\"value\": ");
        writeNumber(f, m.value);
        std::fprintf(f, ", \"unit\": ");
        writeString(f, m.unit);
        std::fprintf(f, ", \"samples\": %llu}",
                     static_cast<unsigned long long>(m.samples));
    }
    std::fprintf(f, "\n  }");
}

} // namespace

bool
Report::writeJson(const std::string &path, const Options &opt) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "{\n  \"workload\": ");
    writeString(f, workload);
    std::fprintf(f,
                 ",\n  \"seed\": %llu,\n  \"seconds\": %.17g,\n"
                 "  \"traced\": %s,\n  \"smoke\": %s,\n"
                 "  \"attempted\": %llu,\n  \"failed\": %llu,\n"
                 "  \"correct\": %s,\n  \"config\": {",
                 static_cast<unsigned long long>(opt.seed),
                 opt.seconds, opt.traced ? "true" : "false",
                 opt.smoke ? "true" : "false",
                 static_cast<unsigned long long>(attempted),
                 static_cast<unsigned long long>(failed),
                 correct() ? "true" : "false");
    for (std::size_t i = 0; i < settings.size(); ++i) {
        std::fprintf(f, "%s", i > 0 ? ", " : "");
        writeString(f, settings[i].name);
        std::fprintf(f, ": ");
        writeNumber(f, settings[i].value);
    }
    std::fprintf(f, "}");
    writeMetrics(f, "metrics", metrics);
    writeMetrics(f, "layers", layers);
    std::fprintf(f, ",\n  \"checks\": [");
    for (std::size_t i = 0; i < checks.size(); ++i) {
        std::fprintf(f, "%s\n    {\"name\": ", i > 0 ? "," : "");
        writeString(f, checks[i].name);
        std::fprintf(f, ", \"ok\": %s, \"detail\": ",
                     checks[i].ok ? "true" : "false");
        writeString(f, checks[i].detail);
        std::fprintf(f, "}");
    }
    std::fprintf(f, "\n  ]\n}\n");
    return std::fclose(f) == 0;
}

std::uint64_t
nowNs()
{
    return marlin::base::nowNsSinceStart();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    const std::size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + mid, v.end());
    if (v.size() % 2 == 1)
        return v[mid];
    const double hi = v[mid];
    const double lo = *std::max_element(v.begin(), v.begin() + mid);
    return (lo + hi) / 2;
}

double
peakRssMb()
{
    struct rusage usage{};
    if (::getrusage(RUSAGE_SELF, &usage) != 0)
        return 0;
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB
}

std::uint64_t
counterSum(const std::vector<marlin::obs::MetricSample> &samples,
           const std::string &prefix, const std::string &suffix)
{
    std::uint64_t total = 0;
    for (const auto &s : samples) {
        if (s.kind != marlin::obs::MetricSample::Kind::Counter)
            continue;
        if (s.name.size() < prefix.size() + suffix.size() ||
            s.name.compare(0, prefix.size(), prefix) != 0 ||
            s.name.compare(s.name.size() - suffix.size(),
                           suffix.size(), suffix) != 0)
            continue;
        total += s.count;
    }
    return total;
}

std::uint64_t
counterValue(const std::string &name)
{
    for (const auto &s : marlin::obs::Registry::instance().snapshot())
        if (s.name == name &&
            s.kind == marlin::obs::MetricSample::Kind::Counter)
            return s.count;
    return 0;
}

HistogramState
HistogramState::read(const std::string &name)
{
    HistogramState out;
    for (const auto &s : marlin::obs::Registry::instance().snapshot()) {
        if (s.name != name ||
            s.kind != marlin::obs::MetricSample::Kind::Histogram)
            continue;
        out.count = s.count;
        out.sum = s.value;
    }
    return out;
}

HistogramState
HistogramState::since(const HistogramState &earlier) const
{
    return {count - earlier.count, sum - earlier.sum};
}

} // namespace e2e
