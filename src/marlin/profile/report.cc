#include "marlin/profile/report.hh"

#include "marlin/base/string_utils.hh"

namespace marlin::profile
{

namespace
{

double
pct(double part, double whole)
{
    return whole > 0 ? 100.0 * part / whole : 0.0;
}

} // namespace

TopLevelBreakdown
topLevelBreakdown(const PhaseTimer &timer)
{
    TopLevelBreakdown b;
    b.totalSeconds = timer.totalSeconds();
    const double update = timer.updateAllTrainersSeconds();
    const double action = timer.seconds(Phase::ActionSelection);
    const double other = b.totalSeconds - update - action;
    b.actionSelectionPct = pct(action, b.totalSeconds);
    b.updateAllTrainersPct = pct(update, b.totalSeconds);
    b.otherPct = pct(other, b.totalSeconds);
    return b;
}

UpdateBreakdown
updateBreakdown(const PhaseTimer &timer)
{
    UpdateBreakdown b;
    b.totalSeconds = timer.updateAllTrainersSeconds();
    b.samplingPct = pct(timer.seconds(Phase::Sampling), b.totalSeconds);
    b.targetQPct = pct(timer.seconds(Phase::TargetQ), b.totalSeconds);
    b.qpLossPct = pct(timer.seconds(Phase::QPLoss), b.totalSeconds);
    return b;
}

std::string
formatTopLevel(const TopLevelBreakdown &b)
{
    return csprintf("total %.2fs | action_selection %.1f%% | "
                    "update_all_trainers %.1f%% | other %.1f%%",
                    b.totalSeconds, b.actionSelectionPct,
                    b.updateAllTrainersPct, b.otherPct);
}

std::string
formatUpdate(const UpdateBreakdown &b)
{
    return csprintf("update %.2fs | sampling %.1f%% | target_q %.1f%% "
                    "| q_p_loss %.1f%%",
                    b.totalSeconds, b.samplingPct, b.targetQPct,
                    b.qpLossPct);
}

std::string
formatPhaseTable(const PhaseTimer &timer)
{
    std::string out =
        csprintf("%-22s %12s %12s\n", "phase", "seconds", "count");
    for (std::size_t i = 0; i < numPhases; ++i) {
        const Phase p = static_cast<Phase>(i);
        out += csprintf("%-22s %12.4f %12llu\n", phaseName(p),
                        timer.seconds(p),
                        static_cast<unsigned long long>(
                            timer.count(p)));
    }
    return out;
}

std::string
formatPhaseCsv(const PhaseTimer &timer)
{
    std::string out = "phase,seconds,count\n";
    for (std::size_t i = 0; i < numPhases; ++i) {
        const Phase p = static_cast<Phase>(i);
        out += csprintf("%s,%.9f,%llu\n", phaseName(p),
                        timer.seconds(p),
                        static_cast<unsigned long long>(
                            timer.count(p)));
    }
    return out;
}

} // namespace marlin::profile
