/**
 * @file
 * The traced run's layer attribution, done from outside the library:
 * decorators around the public layer boundaries that time each call
 * on the calling thread (wall time, never the summed-over-threads
 * PhaseTimer) and record one span per call into obs::TraceRing.
 *
 *   TimedMaddpg   core::MaddpgTrainer: selectActionsInto, update
 *   TimedSampler  replay::Sampler::planInto (via the SamplerFactory)
 *   TimedStore    replay::ReplayStore::gatherAll / gatherAgent, a
 *                 read-only view TimedMaddpg::update wraps around the
 *                 store it is handed
 *
 * With Probes::on false every wrapper forwards without reading the
 * clock, which is how an untraced run, and all but the timed third of
 * a traced run, execute.
 */

#ifndef MARLIN_E2EBENCH_TIMED_HH
#define MARLIN_E2EBENCH_TIMED_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "marlin/core/maddpg.hh"
#include "marlin/obs/trace.hh"
#include "marlin/replay/replay_store.hh"
#include "marlin/replay/sampler.hh"
#include "marlin/replay/uniform_sampler.hh"
#include "report.hh"

namespace e2e
{

/** Wall time and call count at one layer boundary. */
struct alignas(64) Probe
{
    std::atomic<std::uint64_t> ns{0};
    std::atomic<std::uint64_t> calls{0};

    double s() const { return seconds(ns.load()); }
    std::uint64_t n() const { return calls.load(); }

    /** Mean seconds per call (0 without calls). */
    double
    mean() const
    {
        return n() > 0 ? s() / static_cast<double>(n()) : 0;
    }
};

/** The boundaries one trainer (or one workload loop) crosses. */
struct Probes
{
    std::atomic<bool> on{false};
    Probe select;
    Probe update;
    Probe plan;
    Probe gather;
    Probe append;
    /**
     * When set, update() appends its completion time here whether or
     * not probes are on: the async workload's end-to-end latency is
     * the learner's cycle, the interval between update completions.
     * The owner reserves capacity; only one thread updates.
     */
    std::vector<std::uint64_t> *updateDone = nullptr;
};

/** Time @p fn into @p probe (and a span) when probes are on. */
template <typename Fn>
inline void
timed(const Probes &probes, Probe &probe, const char *span, Fn &&fn)
{
    if (!probes.on.load(std::memory_order_relaxed)) {
        fn();
        return;
    }
    const std::uint64_t start = nowNs();
    fn();
    const std::uint64_t dur = nowNs() - start;
    probe.ns.fetch_add(dur, std::memory_order_relaxed);
    probe.calls.fetch_add(1, std::memory_order_relaxed);
    marlin::obs::recordSpan(span, "e2e", start, dur);
}

/** Sampler decorator timing planInto. */
class TimedSampler : public marlin::replay::Sampler
{
  public:
    TimedSampler(std::unique_ptr<marlin::replay::Sampler> inner_in,
                 Probes &probes_in)
        : inner(std::move(inner_in)), probes(probes_in)
    {
    }

    std::string name() const override { return inner->name(); }

    void
    planInto(marlin::BufferIndex buffer_size, std::size_t batch,
             marlin::Rng &rng, marlin::replay::IndexPlan &out) override
    {
        timed(probes, probes.plan, "plan", [&] {
            inner->planInto(buffer_size, batch, rng, out);
        });
    }

    void reserve(marlin::BufferIndex c) override { inner->reserve(c); }
    void onAdd(marlin::BufferIndex idx) override { inner->onAdd(idx); }

    void
    updatePriorities(const std::vector<marlin::BufferIndex> &ids,
                     const std::vector<marlin::Real> &td) override
    {
        inner->updatePriorities(ids, td);
    }

    void saveState(std::ostream &os) const override
    {
        inner->saveState(os);
    }
    void loadState(std::istream &is) override { inner->loadState(is); }

  private:
    std::unique_ptr<marlin::replay::Sampler> inner;
    Probes &probes;
};

/** Read-only ReplayStore view timing the gathers. */
class TimedStore : public marlin::replay::ReplayStore
{
  public:
    TimedStore(const marlin::replay::ReplayStore &inner_in,
               Probes &probes_in)
        : inner(inner_in), probes(probes_in)
    {
    }

    const char *backendName() const override
    {
        return inner.backendName();
    }
    std::size_t numAgents() const override { return inner.numAgents(); }
    const marlin::replay::TransitionShape &
    agentShape(std::size_t agent) const override
    {
        return inner.agentShape(agent);
    }
    marlin::BufferIndex capacity() const override
    {
        return inner.capacity();
    }
    marlin::BufferIndex size() const override { return inner.size(); }
    marlin::BufferIndex writeCursor() const override
    {
        return inner.writeCursor();
    }

    void append(const std::vector<std::vector<marlin::Real>> &,
                const std::vector<std::vector<marlin::Real>> &,
                const std::vector<marlin::Real> &,
                const std::vector<std::vector<marlin::Real>> &,
                const std::vector<bool> &) override
    {
        marlin::panic("TimedStore is a read-only view");
    }

    void appendRecord(const marlin::replay::JointTransitionLayout &,
                      const marlin::Real *) override
    {
        marlin::panic("TimedStore is a read-only view");
    }

    void
    gatherAgent(std::size_t agent,
                const marlin::replay::IndexPlan &plan,
                marlin::replay::AgentBatch &out,
                marlin::replay::AccessTrace *trace) const override
    {
        timed(probes, probes.gather, "gather", [&] {
            inner.gatherAgent(agent, plan, out, trace);
        });
    }

    void
    gatherAll(const marlin::replay::IndexPlan &plan,
              std::vector<marlin::replay::AgentBatch> &out,
              marlin::replay::AccessTrace *trace) const override
    {
        timed(probes, probes.gather, "gather",
              [&] { inner.gatherAll(plan, out, trace); });
    }

    std::size_t storageBytes() const override
    {
        return inner.storageBytes();
    }
    void saveState(std::ostream &os) const override
    {
        inner.saveState(os);
    }
    marlin::replay::StoreLoadResult loadState(std::istream &) override
    {
        marlin::panic("TimedStore is a read-only view");
    }

  private:
    const marlin::replay::ReplayStore &inner;
    Probes &probes;
};

/**
 * MADDPG with its two public hot-path entry points timed. Samplers
 * come from a factory of TimedSampler over UniformSampler, and every
 * update sees the store through a TimedStore, so plan and gather time
 * nest inside update time on the same thread.
 */
class TimedMaddpg : public marlin::core::MaddpgTrainer
{
  public:
    TimedMaddpg(std::vector<std::size_t> obs_dims, std::size_t act_dim,
                marlin::core::TrainConfig config, Probes &probes_in)
        : MaddpgTrainer(
              std::move(obs_dims), act_dim, std::move(config),
              [&probes_in] {
                  return std::make_unique<TimedSampler>(
                      std::make_unique<marlin::replay::UniformSampler>(),
                      probes_in);
              }),
          probes(probes_in)
    {
    }

    void selectActionsInto(
        const std::vector<std::vector<marlin::Real>> &obs,
        std::size_t episode, std::vector<int> &out) override
    {
        timed(probes, probes.select, "select", [&] {
            MaddpgTrainer::selectActionsInto(obs, episode, out);
        });
    }

    marlin::core::UpdateStats
    update(const marlin::replay::ReplayStore &store,
           marlin::profile::PhaseTimer &timer) override
    {
        const TimedStore view(store, probes);
        marlin::core::UpdateStats stats;
        timed(probes, probes.update, "update", [&] {
            stats = MaddpgTrainer::update(view, timer);
        });
        if (probes.updateDone != nullptr)
            probes.updateDone->push_back(nowNs());
        return stats;
    }

  private:
    Probes &probes;
};

} // namespace e2e

#endif // MARLIN_E2EBENCH_TIMED_HH
