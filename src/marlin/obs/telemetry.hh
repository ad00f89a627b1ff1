/**
 * @file
 * Per-step run telemetry: one JSONL record per training step.
 *
 * The file starts with a schema-versioned header record (build
 * commit, free-form run metadata), followed by step records carrying
 * episode/step counters, per-phase wall-time deltas, losses and grad
 * norms, and a merged snapshot of every registered metric, and ends
 * with a summary record. Each record is one line, flushed as soon as
 * it is written, so a crash mid-run loses at most the line being
 * formatted — everything before it parses.
 *
 * The writer is a pure observer: it reads timers, stats and metric
 * counters and never feeds anything back, so a run with telemetry on
 * is bit-identical to the same run with it off (tests enforce this).
 *
 * Layering: obs does not know about profile::Phase or UpdateStats;
 * callers hand over (name, value) pairs. core::makeStepRecord owns
 * the mapping for both training loops. Everything else a record
 * reports (ring, supervision and latency accounting included) is a
 * registry metric and travels in the embedded snapshot.
 */

#ifndef MARLIN_OBS_TELEMETRY_HH
#define MARLIN_OBS_TELEMETRY_HH

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace marlin::obs
{

/**
 * Version of the JSONL layout; bump on incompatible change.
 * v2: step records may carry async transition-ring accounting
 * (ring_depth / ring_dropped / ring_seq_gaps).
 * v3: step records may carry supervisor accounting (sup_restarts /
 * sup_degradations / sup_watchdog_trips / sup_quarantined).
 * v4: step records may carry cross-tier latency attribution
 * (transit_p50_us / transit_p99_us / policy_staleness), an
 * all-or-nothing group like the ring and supervisor groups.
 * v5: the three groups are gone; each value is read from the
 * record's own metrics snapshot instead. ring_depth, ring_dropped
 * and ring_seq_gaps are async.ring.depth / .dropped / .seq_gaps;
 * sup_restarts, sup_degradations and sup_watchdog_trips are
 * supervisor.restarts / .degradations / .watchdog_trips, now live
 * from the supervisor's construction; sup_quarantined is
 * async.quarantined; transit_p50_us / transit_p99_us are quantiles
 * of the async.ring.transit_us histogram; policy_staleness is
 * async.policy.staleness.
 */
inline constexpr int telemetrySchemaVersion = 5;

/** Everything one step record carries; fill what you have. */
struct StepRecord
{
    std::uint64_t episode = 0;
    std::uint64_t envStep = 0;
    std::uint64_t updateCalls = 0;
    /** (phase name, nanoseconds spent since the last record). */
    std::vector<std::pair<const char *, std::uint64_t>> phaseNs;
    /** Losses/norms are absent until the first trainer update. */
    bool haveLosses = false;
    double criticLoss = 0.0;
    double actorLoss = 0.0;
    double meanAbsTd = 0.0;
    double criticGradNorm = 0.0;
    double actorGradNorm = 0.0;
};

/**
 * JSONL telemetry stream. Construction opens the file and writes the
 * header record; destruction closes it (writeSummary is the caller's
 * job — TrainLoop and the CLI call it so the summary can carry final
 * results). Not thread-safe: exactly one thread (the training loop)
 * writes records.
 */
class TelemetryWriter
{
  public:
    /**
     * @param meta Free-form (key, value) string pairs recorded in
     *        the header (env name, algorithm, thread count, ISA...).
     */
    TelemetryWriter(
        const std::string &path,
        const std::vector<std::pair<std::string, std::string>> &meta);

    TelemetryWriter(const TelemetryWriter &) = delete;
    TelemetryWriter &operator=(const TelemetryWriter &) = delete;

    ~TelemetryWriter();

    /** False when the file could not be opened (already warned). */
    bool ok() const { return file != nullptr; }

    /**
     * Append one step record plus the current merged snapshot of the
     * metrics registry. Flushes the line before returning.
     */
    void writeStep(const StepRecord &rec);

    /**
     * Append the closing summary record: final (key, value) numeric
     * results plus a last metrics snapshot.
     */
    void writeSummary(
        const std::vector<std::pair<std::string, double>> &results);

    /** Records written so far (header and summary included). */
    std::uint64_t recordsWritten() const { return records; }

  private:
    void writeLine(const std::string &line);

    std::FILE *file = nullptr;
    std::uint64_t records = 0;
};

/** Escape a string for embedding inside a JSON string literal. */
std::string jsonEscape(const std::string &s);

} // namespace marlin::obs

#endif // MARLIN_OBS_TELEMETRY_HH
