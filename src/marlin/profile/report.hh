/**
 * @file
 * Rendering of phase breakdowns in the shape of the paper's figures.
 */

#ifndef MARLIN_PROFILE_REPORT_HH
#define MARLIN_PROFILE_REPORT_HH

#include <string>

#include "marlin/profile/timer.hh"

namespace marlin::profile
{

/** Figure-2-style top-level breakdown of one training run. */
struct TopLevelBreakdown
{
    double actionSelectionPct = 0;
    double updateAllTrainersPct = 0;
    double otherPct = 0;
    double totalSeconds = 0;
};

/** Figure-3-style breakdown within update-all-trainers. */
struct UpdateBreakdown
{
    double samplingPct = 0;
    double targetQPct = 0;
    double qpLossPct = 0;
    double totalSeconds = 0;
};

/** Compute the Figure-2 percentages from a timer. */
TopLevelBreakdown topLevelBreakdown(const PhaseTimer &timer);

/** Compute the Figure-3 percentages from a timer. */
UpdateBreakdown updateBreakdown(const PhaseTimer &timer);

/** One-line rendering of a top-level breakdown. */
std::string formatTopLevel(const TopLevelBreakdown &b);

/** One-line rendering of an update breakdown. */
std::string formatUpdate(const UpdateBreakdown &b);

/** Full multi-line phase table for a timer. */
std::string formatPhaseTable(const PhaseTimer &timer);

/**
 * CSV rendering of a timer ("phase,seconds,count" rows with a
 * header), for piping bench output into plotting scripts.
 */
std::string formatPhaseCsv(const PhaseTimer &timer);

} // namespace marlin::profile

#endif // MARLIN_PROFILE_REPORT_HH
