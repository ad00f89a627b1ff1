/**
 * @file
 * Greedy policy evaluation: roll out the current policies without
 * exploration or training and summarize the returns. Used to report
 * the "mean score" style results of the paper's reward figures
 * without the exploration noise baked into training curves.
 */

#ifndef MARLIN_CORE_EVALUATOR_HH
#define MARLIN_CORE_EVALUATOR_HH

#include "marlin/core/maddpg.hh"
#include "marlin/env/environment.hh"

namespace marlin::core
{

/** Summary statistics over evaluation episodes. */
struct EvalResult
{
    /** Mean (over agents) return per episode. */
    std::vector<Real> episodeReturns;
    Real mean = 0;
    Real stddev = 0;
    Real min = 0;
    Real max = 0;
    /** Per-agent mean returns (length = numAgents). */
    std::vector<Real> perAgentMean;
};

/**
 * Run @p episodes greedy episodes of @p trainer in @p environment.
 *
 * @param episode_length Steps per episode (paper: 25).
 */
EvalResult evaluate(env::Environment &environment,
                    CtdeTrainerBase &trainer, std::size_t episodes,
                    std::size_t episode_length = 25);

} // namespace marlin::core

#endif // MARLIN_CORE_EVALUATOR_HH
