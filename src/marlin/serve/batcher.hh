/**
 * @file
 * Dynamic micro-batcher: pending requests coalesce until the server
 * flushes them, on the first loop turn that finds no new request,
 * once batchMax requests are queued, or once the oldest request has
 * waited batchDeadlineUs. One flush runs a single batched actor
 * forward per agent and hands the action rows back in arrival
 * order, so a batch holds what arrived together, not what a fixed
 * wait collected.
 *
 * Everything on the flush path is retained scratch — the flat
 * observation store, per-agent row plans and the input/output
 * matrices — so a warm flush performs no heap allocation and the
 * inference cost is one workspace-owned Mlp forward per agent with
 * a row count equal to that agent's share of the batch.
 */

#ifndef MARLIN_SERVE_BATCHER_HH
#define MARLIN_SERVE_BATCHER_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "marlin/serve/policy.hh"

namespace marlin::serve
{

/** One queued inference request. */
struct PendingRequest
{
    std::uint64_t connId = 0;   ///< Owning connection.
    std::uint16_t agentId = 0;  ///< Policy to query.
    std::size_t obsOffset = 0;  ///< Into the flat obs store.
    std::uint64_t enqueueNs = 0; ///< For the latency histogram.
    /** Trace flow id linking this request's enqueue span to its
     *  response-write span (0 when tracing is off). */
    std::uint64_t traceId = 0;
};

/**
 * Collects requests and flushes them through a ServePolicy.
 * Single-threaded, like the server loop that owns it.
 */
class MicroBatcher
{
  public:
    /**
     * @param batch_max full() once this many are queued.
     * @param deadline_us deadlineExpired() once the oldest request
     *        has waited this long (0 = at once).
     */
    MicroBatcher(std::size_t batch_max, std::uint64_t deadline_us);

    /**
     * Queue one request. @p obs must hold the agent's obsDim floats
     * (validated by the caller against the policy); it may be
     * unaligned — bytes straight out of the wire buffer — and is
     * copied here.
     */
    void add(std::uint64_t conn_id, std::uint16_t agent_id,
             const void *obs, std::size_t count,
             std::uint64_t now_ns);

    std::size_t size() const { return pending.size(); }
    bool empty() const { return pending.empty(); }

    /** True when size() reached the batch-max watermark. */
    bool full() const { return pending.size() >= batchMax; }

    /** True when the oldest queued request has expired. */
    bool deadlineExpired(std::uint64_t now_ns) const;

    /**
     * Response sink: called once per queued request, in arrival
     * order, with that request's action row. @p trace_id is the
     * request's flow id (0 when tracing was off at enqueue) so the
     * writer can close the enqueue → write flow arrow.
     */
    using Sink = std::function<void(
        std::uint64_t conn_id, const Real *actions,
        std::size_t count, std::uint64_t enqueue_ns,
        std::uint64_t trace_id)>;

    /**
     * Run one batched forward per agent present in the queue and
     * emit every response through @p sink, then clear the queue.
     * Publishes serve.batch_size, the queue-wait histogram (enqueue
     * to flush start, per request) and the batch-inference
     * histogram (one forward pass, per flush) — the two halves of
     * the request latency the server's end-to-end histogram sums.
     */
    void flush(ServePolicy &policy, const Sink &sink,
               std::uint64_t now_ns);

  private:
    std::size_t batchMax;
    std::uint64_t deadlineNs;
    /** Per-process request trace ids; 0 is reserved for "none". */
    std::uint64_t nextTraceId = 1;

    std::vector<PendingRequest> pending;
    std::vector<Real> obsFlat; ///< Concatenated observations.

    // Flush scratch, retained across flushes (indexed by agent).
    std::vector<std::vector<std::size_t>> agentRows;
    std::vector<Matrix> inputs;
    std::vector<Matrix> outputs;
    /** Row of each pending request inside its agent's batch. */
    std::vector<std::size_t> rowInBatch;
};

} // namespace marlin::serve

#endif // MARLIN_SERVE_BATCHER_HH
