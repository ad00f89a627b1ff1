#include "marlin/core/evaluator.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "marlin/base/logging.hh"

namespace marlin::core
{

EvalResult
evaluate(env::Environment &environment, CtdeTrainerBase &trainer,
         std::size_t episodes, std::size_t episode_length)
{
    MARLIN_ASSERT(episodes > 0, "evaluate needs at least one episode");
    MARLIN_ASSERT(trainer.numAgents() == environment.numAgents(),
                  "trainer/environment agent count mismatch");

    EvalResult result;
    result.episodeReturns.reserve(episodes);
    const std::size_t n = environment.numAgents();
    result.perAgentMean.assign(n, Real(0));

    std::vector<std::vector<Real>> obs;
    env::StepResult step;
    for (std::size_t e = 0; e < episodes; ++e) {
        environment.resetInto(obs);
        Real episode_return = 0;
        std::vector<Real> agent_return(n, Real(0));
        for (std::size_t t = 0; t < episode_length; ++t) {
            environment.stepInto(trainer.greedyActions(obs), step);
            for (std::size_t i = 0; i < n; ++i) {
                agent_return[i] += step.rewards[i];
                episode_return +=
                    step.rewards[i] / static_cast<Real>(n);
            }
            std::swap(obs, step.observations);
        }
        result.episodeReturns.push_back(episode_return);
        for (std::size_t i = 0; i < n; ++i)
            result.perAgentMean[i] += agent_return[i];
    }

    for (Real &v : result.perAgentMean)
        v /= static_cast<Real>(episodes);

    double total = 0;
    result.min = result.episodeReturns.front();
    result.max = result.episodeReturns.front();
    for (Real r : result.episodeReturns) {
        total += r;
        result.min = std::min(result.min, r);
        result.max = std::max(result.max, r);
    }
    result.mean =
        static_cast<Real>(total / static_cast<double>(episodes));
    double var = 0;
    for (Real r : result.episodeReturns) {
        const double d = r - result.mean;
        var += d * d;
    }
    result.stddev = episodes > 1
                        ? static_cast<Real>(std::sqrt(
                              var / static_cast<double>(episodes - 1)))
                        : Real(0);
    return result;
}

} // namespace marlin::core
