/**
 * @file
 * replay-pp6-512k: the learner's serial sampling prologue at paper scale
 * with the NN removed. A MultiAgentBuffer for predator-prey with 6
 * agents is prefilled to 2^19 joint transitions (~740 MB, well past
 * the last-level cache), then, until the window closes, each round
 * appends 100 transitions (with the samplers' onAdd) and draws one
 * uniform batch of 1024 per agent trainer: 6 x (planInto +
 * gatherAll). Gather dominates, so layout, locality and prefetch
 * changes show here and nowhere else.
 *
 * Every stored value is a hash of (write sequence, agent, field), so
 * any gathered row can be checked against the write that produced it
 * without keeping a copy of the buffer.
 */

#include <memory>

#include "marlin/base/thread_pool.hh"
#include "marlin/env/environment.hh"
#include "marlin/replay/gather.hh"
#include "marlin/replay/replay_buffer.hh"
#include "timed.hh"
#include "workloads.hh"

namespace e2e
{

namespace
{

using namespace marlin;

constexpr std::size_t kAgents = 6;
constexpr std::size_t kBatch = 1024;
constexpr std::size_t kAppendsPerRound = 100;
/** Rounds per throughput segment (120 batches, ~0.1 s). */
constexpr std::size_t kRoundsPerSegment = 20;
constexpr std::size_t kVerifyBatches = 200;

// Field keys within one (sequence, agent) record.
constexpr std::uint64_t kAction = 1000;
constexpr std::uint64_t kReward = 2000;
constexpr std::uint64_t kNextObs = 3000;
constexpr std::uint64_t kDone = 4000;

BufferIndex
capacityFor(const Options &opt)
{
    return opt.smoke ? BufferIndex(1) << 14 : BufferIndex(1) << 19;
}

/** The joint transition written at each sequence number. */
class RowSource
{
  public:
    RowSource(std::uint64_t seed,
              const std::vector<replay::TransitionShape> &shapes)
        : salt(mix64(seed)), obs(shapes.size()), act(shapes.size()),
          next(shapes.size()), rew(shapes.size()), done(shapes.size())
    {
        for (std::size_t a = 0; a < shapes.size(); ++a) {
            obs[a].resize(shapes[a].obsDim);
            next[a].resize(shapes[a].obsDim);
            act[a].resize(shapes[a].actDim);
        }
    }

    Real
    value(std::uint64_t seq, std::size_t agent,
          std::uint64_t field) const
    {
        return hashValue(salt + ((seq * kAgents + agent) << 13) +
                         field);
    }

    bool
    doneAt(std::uint64_t seq, std::size_t agent) const
    {
        return value(seq, agent, kDone) < 0;
    }

    /** Stage the transition for @p seq (appendTo stores it). */
    void
    fill(std::uint64_t seq)
    {
        for (std::size_t a = 0; a < obs.size(); ++a) {
            for (std::size_t j = 0; j < obs[a].size(); ++j) {
                obs[a][j] = value(seq, a, j);
                next[a][j] = value(seq, a, kNextObs + j);
            }
            for (std::size_t j = 0; j < act[a].size(); ++j)
                act[a][j] = value(seq, a, kAction + j);
            rew[a] = value(seq, a, kReward);
            done[a] = doneAt(seq, a);
        }
    }

    void
    appendTo(replay::ReplayStore &store) const
    {
        store.append(obs, act, rew, next, done);
    }

  private:
    std::uint64_t salt;
    std::vector<std::vector<Real>> obs, act, next;
    std::vector<Real> rew;
    std::vector<bool> done;
};

/** Rows of @p batches that differ from what their slot last stored. */
std::size_t
mismatchedRows(const RowSource &source, const replay::IndexPlan &plan,
               const std::vector<replay::AgentBatch> &batches,
               std::uint64_t written, BufferIndex capacity)
{
    std::size_t bad = 0;
    for (std::size_t r = 0; r < plan.indices.size(); ++r) {
        const std::uint64_t slot = plan.indices[r];
        // Sequence w lands in slot w % capacity; the last one wins.
        const std::uint64_t seq =
            slot + (written - 1 - slot) / capacity * capacity;
        bool ok = true;
        for (std::size_t a = 0; a < batches.size() && ok; ++a) {
            const replay::AgentBatch &b = batches[a];
            for (std::size_t j = 0; j < b.obs.cols(); ++j)
                ok = ok && b.obs.row(r)[j] == source.value(seq, a, j) &&
                     b.nextObs.row(r)[j] ==
                         source.value(seq, a, kNextObs + j);
            for (std::size_t j = 0; j < b.actions.cols(); ++j)
                ok = ok && b.actions.row(r)[j] ==
                               source.value(seq, a, kAction + j);
            ok = ok && b.rewards(r, 0) == source.value(seq, a, kReward) &&
                 b.dones(r, 0) == (source.doneAt(seq, a) ? 1 : 0);
        }
        bad += ok ? 0 : 1;
    }
    return bad;
}

} // namespace

Report
runReplay(const Options &opt)
{
    Report rep("replay-pp6-512k");
    base::ThreadPool::setGlobalThreads(1);
    const BufferIndex capacity = capacityFor(opt);
    rep.config("pool_threads", 1);
    rep.config("agents", kAgents);
    rep.config("buffer_capacity", static_cast<double>(capacity));
    rep.config("batch", kBatch);

    std::vector<replay::TransitionShape> shapes;
    {
        const auto environment = env::makePredatorPreyEnv(kAgents, 1);
        for (std::size_t i = 0; i < kAgents; ++i)
            shapes.push_back(
                {environment->obsDim(i), environment->actionDim()});
    }
    RowSource source(opt.seed, shapes);

    std::unique_ptr<replay::MultiAgentBuffer> buffer;
    std::uint64_t written = 0;
    rep.metric("setup_s", timeSetups(3, [&] {
                   buffer.reset();
                   buffer = std::make_unique<replay::MultiAgentBuffer>(
                       shapes, capacity);
                   for (written = 0; written < capacity; ++written) {
                       source.fill(written);
                       source.appendTo(*buffer);
                   }
               }),
               "s", 3);

    Probes probes;
    std::vector<std::unique_ptr<TimedSampler>> samplers;
    for (std::size_t a = 0; a < kAgents; ++a)
        samplers.push_back(std::make_unique<TimedSampler>(
            std::make_unique<replay::UniformSampler>(), probes));
    const TimedStore view(*buffer, probes);
    Rng rng(opt.seed);
    replay::IndexPlan plan;
    std::vector<replay::AgentBatch> batches;

    PerPart<std::vector<double>> rates;
    PerPart<double> walls{};
    PerPart<double> ops{};
    std::vector<double> batch_us;
    Window window(opt);
    while (window.open()) {
        window.advance({&probes});
        const std::uint64_t t0 = nowNs();
        for (std::size_t round = 0; round < kRoundsPerSegment; ++round) {
            for (std::size_t i = 0; i < kAppendsPerRound; ++i) {
                const BufferIndex slot = buffer->writeCursor();
                source.fill(written);
                timed(probes, probes.append, "append", [&] {
                    source.appendTo(*buffer);
                    for (auto &s : samplers)
                        s->onAdd(slot);
                });
                ++written;
            }
            for (std::size_t a = 0; a < kAgents; ++a) {
                const std::uint64_t b0 = nowNs();
                samplers[a]->planInto(buffer->size(), kBatch, rng, plan);
                view.gatherAll(plan, batches, nullptr);
                batch_us.push_back(static_cast<double>(nowNs() - b0) *
                                   1e-3);
            }
        }
        const double wall = seconds(nowNs() - t0);
        const double n = kRoundsPerSegment * kAgents;
        const std::size_t part = idx(window.part());
        rates[part].push_back(n / wall);
        walls[part] += wall;
        ops[part] += n;
        rep.attempted += static_cast<std::uint64_t>(n);
    }
    window.close();

    const std::vector<double> all = allParts(rates);
    rep.metric("throughput", median(all), "1/s", all.size());
    rep.metric("latency_p50", quantile(batch_us, 0.50), "us",
               batch_us.size());
    rep.metric("latency_p95", quantile(batch_us, 0.95), "us",
               batch_us.size());

    if (opt.traced) {
        const double wall =
            walls[idx(Part::Timed)] > 0 ? walls[idx(Part::Timed)] : 1;
        reportProbeLayers(rep, probes, wall, buffer->storageBytes());
        rep.layer("unattributed_share",
                  1 - (probes.plan.s() + probes.gather.s() +
                       probes.append.s()) /
                          wall,
                  "share");
        reportWindowLayers(rep, window, ops, probes.gather.s(),
                           overheadShare(rates));
        finishTracing(opt, rep);
    }

    // Row-for-row check of fresh batches against the hash source.
    std::size_t bad_batches = 0;
    for (std::size_t i = 0; i < kVerifyBatches; ++i) {
        samplers[i % kAgents]->planInto(buffer->size(), kBatch, rng, plan);
        buffer->gatherAll(plan, batches);
        if (mismatchedRows(source, plan, batches, written, capacity) > 0)
            ++bad_batches;
    }
    rep.attempted += kVerifyBatches;
    rep.check("gathered_rows_match_writes", bad_batches == 0,
              std::to_string(bad_batches) + " of " +
                  std::to_string(kVerifyBatches) +
                  " batches had a mismatched row",
              bad_batches);
    return rep;
}

} // namespace e2e
