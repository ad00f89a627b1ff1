/**
 * @file
 * Tests for the profiling substrate: phase timers and breakdown
 * math.
 */

#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "marlin/profile/report.hh"

namespace marlin::profile
{
namespace
{

TEST(PhaseTimer, AccumulatesAndCounts)
{
    PhaseTimer t;
    t.add(Phase::Sampling, 1'000'000);  // 1 ms
    t.add(Phase::Sampling, 2'000'000);
    t.add(Phase::TargetQ, 500'000);
    EXPECT_NEAR(t.seconds(Phase::Sampling), 0.003, 1e-9);
    EXPECT_EQ(t.count(Phase::Sampling), 2u);
    EXPECT_NEAR(t.totalSeconds(), 0.0035, 1e-9);
}

TEST(PhaseTimer, UpdateAllTrainersAggregates)
{
    PhaseTimer t;
    t.add(Phase::Sampling, 1'000'000);
    t.add(Phase::TargetQ, 2'000'000);
    t.add(Phase::QPLoss, 3'000'000);
    t.add(Phase::ActionSelection, 100'000'000); // Not included.
    t.add(Phase::BufferAdd, 4'000'000);         // Not included.
    EXPECT_NEAR(t.updateAllTrainersSeconds(), 0.006, 1e-9);
}

TEST(PhaseTimer, MergeAndReset)
{
    PhaseTimer a, b;
    a.add(Phase::Sampling, 1000);
    b.add(Phase::Sampling, 2000);
    b.add(Phase::EnvStep, 500);
    a.merge(b);
    EXPECT_NEAR(a.seconds(Phase::Sampling), 3e-6, 1e-12);
    EXPECT_EQ(a.count(Phase::Sampling), 2u);
    a.reset();
    EXPECT_EQ(a.totalSeconds(), 0.0);
}

TEST(ScopedPhase, MeasuresEnclosedScope)
{
    PhaseTimer t;
    {
        ScopedPhase sp(t, Phase::EnvStep);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    EXPECT_GE(t.seconds(Phase::EnvStep), 0.0015);
    EXPECT_EQ(t.count(Phase::EnvStep), 1u);
}

TEST(Report, TopLevelPercentagesSumTo100)
{
    PhaseTimer t;
    t.add(Phase::ActionSelection, 20'000'000);
    t.add(Phase::Sampling, 50'000'000);
    t.add(Phase::TargetQ, 10'000'000);
    t.add(Phase::QPLoss, 10'000'000);
    t.add(Phase::EnvStep, 10'000'000);
    auto b = topLevelBreakdown(t);
    EXPECT_NEAR(b.actionSelectionPct + b.updateAllTrainersPct +
                    b.otherPct,
                100.0, 1e-6);
    EXPECT_NEAR(b.actionSelectionPct, 20.0, 1e-6);
    EXPECT_NEAR(b.updateAllTrainersPct, 70.0, 1e-6);
}

TEST(Report, UpdateBreakdownPercentages)
{
    PhaseTimer t;
    t.add(Phase::Sampling, 60'000'000);
    t.add(Phase::TargetQ, 30'000'000);
    t.add(Phase::QPLoss, 10'000'000);
    auto b = updateBreakdown(t);
    EXPECT_NEAR(b.samplingPct, 60.0, 1e-6);
    EXPECT_NEAR(b.targetQPct, 30.0, 1e-6);
    EXPECT_NEAR(b.qpLossPct, 10.0, 1e-6);
    EXPECT_NEAR(b.samplingPct + b.targetQPct + b.qpLossPct, 100.0,
                1e-6);
}

TEST(Report, EmptyTimerYieldsZeros)
{
    PhaseTimer t;
    auto top = topLevelBreakdown(t);
    EXPECT_EQ(top.totalSeconds, 0.0);
    EXPECT_EQ(top.actionSelectionPct, 0.0);
    auto up = updateBreakdown(t);
    EXPECT_EQ(up.samplingPct, 0.0);
}

TEST(Report, FormattersProduceOutput)
{
    PhaseTimer t;
    t.add(Phase::Sampling, 1'000'000);
    EXPECT_NE(formatTopLevel(topLevelBreakdown(t)).find("total"),
              std::string::npos);
    EXPECT_NE(formatUpdate(updateBreakdown(t)).find("sampling"),
              std::string::npos);
    EXPECT_NE(formatPhaseTable(t).find("mini_batch_sampling"),
              std::string::npos);
}

TEST(Phase, NamesAreDistinct)
{
    std::set<std::string> names;
    for (std::size_t i = 0; i < numPhases; ++i)
        names.insert(phaseName(static_cast<Phase>(i)));
    EXPECT_EQ(names.size(), numPhases);
}

} // namespace
} // namespace marlin::profile
