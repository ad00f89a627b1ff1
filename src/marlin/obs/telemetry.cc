#include "marlin/obs/telemetry.hh"

#include <cmath>
#include <cstdio>
#include <ctime>

#include "marlin/base/instant.hh"
#include "marlin/base/logging.hh"
#include "marlin/obs/metrics.hh"
#include "marlin/version.hh"

namespace marlin::obs
{

namespace
{

/** JSON has no NaN/Inf literals; non-finite values become null. */
std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
metricsJson()
{
    std::string out = "{";
    bool first = true;
    for (const MetricSample &s : Registry::instance().snapshot()) {
        if (!first)
            out += ",";
        first = false;
        out += "\"" + jsonEscape(s.name) + "\":{";
        switch (s.kind) {
        case MetricSample::Kind::Counter:
            out += "\"kind\":\"counter\",\"count\":" +
                   std::to_string(s.count);
            break;
        case MetricSample::Kind::Gauge:
            out += "\"kind\":\"gauge\",\"value\":" +
                   jsonNumber(s.value);
            break;
        case MetricSample::Kind::Histogram:
            out += "\"kind\":\"histogram\",\"count\":" +
                   std::to_string(s.count) +
                   ",\"sum\":" + jsonNumber(s.value) +
                   ",\"buckets\":[";
            for (std::size_t i = 0; i < s.buckets.size(); ++i) {
                if (i != 0)
                    out += ",";
                // Mirror Prometheus text format: the overflow
                // bucket's bound serializes as the string "+Inf".
                const double le = s.buckets[i].first;
                out += "[";
                out += std::isfinite(le) ? jsonNumber(le)
                                         : "\"+Inf\"";
                out += "," +
                       std::to_string(s.buckets[i].second) + "]";
            }
            out += "]";
            break;
        }
        out += "}";
    }
    out += "}";
    return out;
}

} // namespace

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\r':
            out += "\\r";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

TelemetryWriter::TelemetryWriter(
    const std::string &path,
    const std::vector<std::pair<std::string, std::string>> &meta)
{
    file = std::fopen(path.c_str(), "w");
    if (file == nullptr) {
        warn("telemetry: cannot open '%s' for writing; telemetry "
             "disabled for this run",
             path.c_str());
        return;
    }

    std::string line = "{\"record\":\"header\",\"schema\":" +
                       std::to_string(telemetrySchemaVersion) +
                       ",\"commit\":\"" + jsonEscape(gitCommit) +
                       "\",\"unix_time\":" +
                       std::to_string(static_cast<long long>(
                           std::time(nullptr))) +
                       ",\"meta\":{";
    bool first = true;
    for (const auto &[k, v] : meta) {
        if (!first)
            line += ",";
        first = false;
        line += "\"" + jsonEscape(k) + "\":\"" + jsonEscape(v) +
                "\"";
    }
    line += "}}";
    writeLine(line);
}

TelemetryWriter::~TelemetryWriter()
{
    if (file != nullptr)
        std::fclose(file);
}

void
TelemetryWriter::writeStep(const StepRecord &rec)
{
    if (file == nullptr)
        return;
    std::string line =
        "{\"record\":\"step\",\"t\":" +
        jsonNumber(static_cast<double>(base::nowNsSinceStart()) /
                   1e9) +
        ",\"episode\":" + std::to_string(rec.episode) +
        ",\"env_step\":" + std::to_string(rec.envStep) +
        ",\"update_calls\":" + std::to_string(rec.updateCalls) +
        ",\"phase_ns\":{";
    for (std::size_t i = 0; i < rec.phaseNs.size(); ++i) {
        if (i != 0)
            line += ",";
        line += "\"" + jsonEscape(rec.phaseNs[i].first) +
                "\":" + std::to_string(rec.phaseNs[i].second);
    }
    line += "}";
    if (rec.haveLosses) {
        line += ",\"critic_loss\":" + jsonNumber(rec.criticLoss) +
                ",\"actor_loss\":" + jsonNumber(rec.actorLoss) +
                ",\"mean_abs_td\":" + jsonNumber(rec.meanAbsTd) +
                ",\"critic_grad_norm\":" +
                jsonNumber(rec.criticGradNorm) +
                ",\"actor_grad_norm\":" +
                jsonNumber(rec.actorGradNorm);
    }
    line += ",\"metrics\":" + metricsJson() + "}";
    writeLine(line);
}

void
TelemetryWriter::writeSummary(
    const std::vector<std::pair<std::string, double>> &results)
{
    if (file == nullptr)
        return;
    std::string line =
        "{\"record\":\"summary\",\"t\":" +
        jsonNumber(static_cast<double>(base::nowNsSinceStart()) /
                   1e9) +
        ",\"results\":{";
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (i != 0)
            line += ",";
        line += "\"" + jsonEscape(results[i].first) +
                "\":" + jsonNumber(results[i].second);
    }
    line += "},\"metrics\":" + metricsJson() + "}";
    writeLine(line);
}

void
TelemetryWriter::writeLine(const std::string &line)
{
    std::fwrite(line.data(), 1, line.size(), file);
    std::fputc('\n', file);
    // One flush per record bounds crash loss to the current line.
    std::fflush(file);
    ++records;
}

} // namespace marlin::obs
