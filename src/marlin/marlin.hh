/**
 * @file
 * Umbrella header: include everything a downstream MARLin user
 * typically needs.
 */

#ifndef MARLIN_MARLIN_HH
#define MARLIN_MARLIN_HH

#include "marlin/async/async_train_loop.hh"
#include "marlin/base/alloc_guard.hh"
#include "marlin/base/args.hh"
#include "marlin/base/cpu.hh"
#include "marlin/base/crc32.hh"
#include "marlin/base/fault_injector.hh"
#include "marlin/base/instant.hh"
#include "marlin/base/logging.hh"
#include "marlin/base/random.hh"
#include "marlin/base/spsc_ring.hh"
#include "marlin/base/string_utils.hh"
#include "marlin/base/thread_pool.hh"
#include "marlin/base/worker_thread.hh"
#include "marlin/core/checkpoint.hh"
#include "marlin/core/config.hh"
#include "marlin/core/evaluator.hh"
#include "marlin/core/maddpg.hh"
#include "marlin/core/matd3.hh"
#include "marlin/core/train_loop.hh"
#include "marlin/env/cooperative_navigation.hh"
#include "marlin/env/environment.hh"
#include "marlin/env/physical_deception.hh"
#include "marlin/env/predator_prey.hh"
#include "marlin/env/vector_env.hh"
#include "marlin/memsim/platform.hh"
#include "marlin/memsim/trace_replay.hh"
#include "marlin/numeric/kernels.hh"
#include "marlin/obs/exposition.hh"
#include "marlin/obs/metrics.hh"
#include "marlin/obs/telemetry.hh"
#include "marlin/obs/trace.hh"
#include "marlin/profile/report.hh"
#include "marlin/replay/info_prioritized_sampler.hh"
#include "marlin/replay/locality_sampler.hh"
#include "marlin/replay/prioritized_sampler.hh"
#include "marlin/replay/rank_sampler.hh"
#include "marlin/replay/reuse_sampler.hh"
#include "marlin/replay/sharded_store.hh"
#include "marlin/replay/transition_ring.hh"
#include "marlin/replay/uniform_sampler.hh"
#include "marlin/serve/client.hh"
#include "marlin/serve/metrics_http.hh"
#include "marlin/serve/reload.hh"
#include "marlin/serve/server.hh"

#endif // MARLIN_MARLIN_HH
