#include "marlin/serve/batcher.hh"

#include <cstring>

#include "marlin/base/instant.hh"
#include "marlin/obs/metrics.hh"
#include "marlin/obs/trace.hh"

namespace marlin::serve
{

namespace
{

/** Microsecond "le" bounds shared by the serving histograms. */
std::vector<double>
latencyBoundsUs()
{
    return {50,    100,   250,    500,    1000,  2500,
            5000,  10000, 25000,  50000,  100000};
}

obs::Histogram &
batchInferHistogram()
{
    static obs::Histogram &h = obs::Registry::instance().histogram(
        "serve.batch.infer_us", latencyBoundsUs());
    return h;
}

obs::Gauge &
batchSizeGauge()
{
    static obs::Gauge &g =
        obs::Registry::instance().gauge("serve.batch_size");
    return g;
}

obs::Counter &
requestCounter()
{
    static obs::Counter &c =
        obs::Registry::instance().counter("serve.requests");
    return c;
}

obs::Histogram &
queueWaitHistogram()
{
    static obs::Histogram &h = obs::Registry::instance().histogram(
        "serve.request.queue_wait_us", latencyBoundsUs());
    return h;
}

} // namespace

MicroBatcher::MicroBatcher(std::size_t batch_max,
                           std::uint64_t deadline_us)
    : batchMax(batch_max > 0 ? batch_max : 1),
      deadlineNs(deadline_us * 1000)
{
}

void
MicroBatcher::add(std::uint64_t conn_id, std::uint16_t agent_id,
                  const void *obs, std::size_t count,
                  std::uint64_t now_ns)
{
    PendingRequest req;
    req.connId = conn_id;
    req.agentId = agent_id;
    req.obsOffset = obsFlat.size();
    req.enqueueNs = now_ns;
    if (obs::TraceRing *tr = obs::TraceRing::active()) {
        // Flow out: the response-write span for this request (in
        // the server's sink) carries the matching id, so a trace
        // shows accept → enqueue → infer → write per request.
        req.traceId = nextTraceId++;
        tr->record("serve_enqueue", "serve", now_ns, 0,
                   req.traceId, obs::FlowDir::Out);
    }
    obsFlat.resize(req.obsOffset + count);
    std::memcpy(obsFlat.data() + req.obsOffset, obs,
                count * sizeof(Real));
    pending.push_back(req);
    requestCounter().add();
}

bool
MicroBatcher::deadlineExpired(std::uint64_t now_ns) const
{
    if (pending.empty())
        return false;
    return now_ns - pending.front().enqueueNs >= deadlineNs;
}

void
MicroBatcher::flush(ServePolicy &policy, const Sink &sink,
                    std::uint64_t now_ns)
{
    if (pending.empty())
        return;

    const std::size_t agents = policy.numAgents();
    agentRows.resize(agents);
    for (auto &rows : agentRows)
        rows.clear();
    inputs.resize(agents);
    outputs.resize(agents);
    rowInBatch.resize(pending.size());

    // Group requests by agent, preserving arrival order per agent.
    for (std::size_t i = 0; i < pending.size(); ++i) {
        rowInBatch[i] = agentRows[pending[i].agentId].size();
        agentRows[pending[i].agentId].push_back(i);
    }

    // One batched forward per agent with queued work.
    for (std::size_t a = 0; a < agents; ++a) {
        const auto &rows = agentRows[a];
        if (rows.empty())
            continue;
        const std::size_t obs_dim = policy.obsDim(a);
        inputs[a].reshape(rows.size(), obs_dim);
        for (std::size_t r = 0; r < rows.size(); ++r) {
            std::memcpy(inputs[a].row(r),
                        obsFlat.data() +
                            pending[rows[r]].obsOffset,
                        obs_dim * sizeof(Real));
        }
        policy.forward(a, inputs[a], outputs[a]);
    }

    const std::uint64_t done_ns = base::nowNsSinceStart();
    batchInferHistogram().observe(
        static_cast<double>(done_ns - now_ns) / 1000.0);
    batchSizeGauge().set(static_cast<double>(pending.size()));
    // Queue wait is the other half of the end-to-end latency: time
    // from enqueue to this flush starting, per request.
    for (const PendingRequest &req : pending)
        queueWaitHistogram().observe(
            static_cast<double>(now_ns - req.enqueueNs) / 1000.0);
    obs::recordSpan("serve_infer", "serve", now_ns, done_ns - now_ns);

    const std::size_t act_dim = policy.actDim();
    for (std::size_t i = 0; i < pending.size(); ++i) {
        const PendingRequest &req = pending[i];
        sink(req.connId, outputs[req.agentId].row(rowInBatch[i]),
             act_dim, req.enqueueNs, req.traceId);
    }

    pending.clear();
    obsFlat.clear();
}

} // namespace marlin::serve
