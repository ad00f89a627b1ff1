/**
 * @file
 * Scalar reference kernels and the runtime ISA dispatch.
 *
 * This TU is compiled with -ffp-contract=off and vectorization
 * disabled (see src/CMakeLists.txt): the scalar table must execute
 * literally the written IEEE op sequence so it (a) reproduces the
 * pre-kernel-layer numerics bit-for-bit and (b) measures true
 * scalar throughput when benches compare ISAs.
 */

#include "marlin/numeric/kernels.hh"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "marlin/base/cpu.hh"
#include "marlin/base/logging.hh"
#include "marlin/obs/metrics.hh"

namespace marlin::numeric::kernels
{

namespace
{

void
axpyScalar(Real a, const Real *x, Real *y, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        y[i] += a * x[i];
}

void
addScalar(const Real *x, Real *y, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        y[i] += x[i];
}

void
subScalar(const Real *x, Real *y, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        y[i] -= x[i];
}

void
scaleScalar(Real a, Real *y, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        y[i] *= a;
}

void
clampScalar(Real lo, Real hi, Real *y, std::size_t n)
{
    // Mirrors std::clamp: (v < lo) ? lo : (hi < v) ? hi : v, so NaN
    // passes through and -0 is preserved.
    for (std::size_t i = 0; i < n; ++i) {
        const Real v = y[i];
        y[i] = (v < lo) ? lo : (hi < v) ? hi : v;
    }
}

void
reluBackwardScalar(const Real *y, const Real *gy, Real *gx,
                   std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        gx[i] = (y[i] <= Real(0)) ? Real(0) : gy[i];
}

void
adamStepScalar(const AdamParams &p, const Real *g, Real *w, Real *m,
               Real *v, std::size_t n)
{
    const Real omb1 = Real(1) - p.beta1;
    const Real omb2 = Real(1) - p.beta2;
    for (std::size_t j = 0; j < n; ++j) {
        m[j] = p.beta1 * m[j] + omb1 * g[j];
        v[j] = p.beta2 * v[j] + omb2 * g[j] * g[j];
        const Real mhat = m[j] / p.biasCorr1;
        const Real vhat = v[j] / p.biasCorr2;
        w[j] -= p.lr * mhat / (std::sqrt(vhat) + p.epsilon);
    }
}

void
softUpdateScalar(Real tau, const Real *s, Real *d, std::size_t n)
{
    const Real omt = Real(1) - tau;
    for (std::size_t j = 0; j < n; ++j)
        d[j] = tau * s[j] + omt * d[j];
}

void
copyScalar(const Real *s, Real *d, std::size_t n)
{
    std::memcpy(d, s, n * sizeof(Real));
}

/**
 * The reference per-element chain: each c row starts at +0 and takes
 * one coefficient at a time in ascending t order, then the epilogue
 * runs over the finished row. Whether a zero coefficient is skipped
 * or added cannot change a bit when b is finite (see
 * KernelTable::gemmPanel), so this twin honours skip_zeros exactly
 * as asked rather than second-guessing it.
 */
void
gemmPanelScalar(const Real *a, std::size_t a_row, std::size_t a_k,
                const Real *b, std::size_t ldb, std::size_t k, Real *c,
                std::size_t ldc, std::size_t m, std::size_t n,
                bool skip_zeros, const Real *bias, bool relu)
{
    for (std::size_t i = 0; i < m; ++i) {
        Real *crow = c + i * ldc;
        for (std::size_t j = 0; j < n; ++j)
            crow[j] = Real(0);
        for (std::size_t t = 0; t < k; ++t) {
            const Real coef = a[i * a_row + t * a_k];
            if (skip_zeros && coef == Real(0))
                continue;
            const Real *brow = b + t * ldb;
            for (std::size_t j = 0; j < n; ++j)
                crow[j] += coef * brow[j];
        }
        if (bias != nullptr)
            for (std::size_t j = 0; j < n; ++j)
                crow[j] += bias[j];
        if (relu)
            for (std::size_t j = 0; j < n; ++j)
                crow[j] = (crow[j] < Real(0)) ? Real(0) : crow[j];
    }
}

constexpr KernelTable scalarTable = {
    Isa::Scalar,      axpyScalar,         addScalar,
    subScalar,        scaleScalar,        clampScalar,
    reluBackwardScalar, adamStepScalar,   softUpdateScalar,
    copyScalar,       gemmPanelScalar,
};

} // namespace

} // namespace marlin::numeric::kernels

#if defined(MARLIN_HAVE_AVX2_TU)
namespace marlin::numeric::kernels
{
/** Defined in kernels_avx2.cc (built with -mavx2 -mfma). */
const KernelTable &avx2Table();
} // namespace marlin::numeric::kernels
#endif

namespace marlin::numeric::kernels
{

namespace
{

const KernelTable *
tableFor(Isa isa)
{
#if defined(MARLIN_HAVE_AVX2_TU)
    if (isa == Isa::Avx2)
        return &avx2Table();
#endif
    return isa == Isa::Scalar ? &scalarTable : nullptr;
}

std::atomic<const KernelTable *> currentTable{nullptr};

/**
 * Counting shim. When enabled, currentTable points at countingTable
 * (below), whose entries bump per-kernel call/element counters and
 * forward to the real ISA table held in underlyingTable. When
 * disabled — the default — currentTable points straight at the real
 * table and none of this code runs, so the detached-sink kernel path
 * is byte-for-byte the uninstrumented dispatch.
 */
std::atomic<const KernelTable *> underlyingTable{nullptr};
std::atomic<bool> countingOn{false};

const KernelTable &
real()
{
    return *underlyingTable.load(std::memory_order_relaxed);
}

/** Registers kernels.<name>.{calls,elems} once per wrapper. */
#define MARLIN_KERNEL_COUNT(kernel, nelems)                            \
    do {                                                               \
        static obs::Counter &calls_ =                                  \
            obs::Registry::instance().counter("kernels." kernel        \
                                              ".calls");               \
        static obs::Counter &elems_ =                                  \
            obs::Registry::instance().counter("kernels." kernel        \
                                              ".elems");               \
        calls_.add();                                                  \
        elems_.add(nelems);                                            \
    } while (0)

void
axpyCounting(Real a, const Real *x, Real *y, std::size_t n)
{
    MARLIN_KERNEL_COUNT("axpy", n);
    real().axpy(a, x, y, n);
}

void
addCounting(const Real *x, Real *y, std::size_t n)
{
    MARLIN_KERNEL_COUNT("add", n);
    real().add(x, y, n);
}

void
subCounting(const Real *x, Real *y, std::size_t n)
{
    MARLIN_KERNEL_COUNT("sub", n);
    real().sub(x, y, n);
}

void
scaleCounting(Real a, Real *y, std::size_t n)
{
    MARLIN_KERNEL_COUNT("scale", n);
    real().scale(a, y, n);
}

void
clampCounting(Real lo, Real hi, Real *y, std::size_t n)
{
    MARLIN_KERNEL_COUNT("clamp", n);
    real().clamp(lo, hi, y, n);
}

void
reluBackwardCounting(const Real *y, const Real *gy, Real *gx,
                     std::size_t n)
{
    MARLIN_KERNEL_COUNT("relu_backward", n);
    real().reluBackward(y, gy, gx, n);
}

void
adamStepCounting(const AdamParams &p, const Real *g, Real *w, Real *m,
                 Real *v, std::size_t n)
{
    MARLIN_KERNEL_COUNT("adam_step", n);
    real().adamStep(p, g, w, m, v, n);
}

void
softUpdateCounting(Real tau, const Real *s, Real *d, std::size_t n)
{
    MARLIN_KERNEL_COUNT("soft_update", n);
    real().softUpdate(tau, s, d, n);
}

void
copyCounting(const Real *s, Real *d, std::size_t n)
{
    MARLIN_KERNEL_COUNT("copy", n);
    real().copy(s, d, n);
}

void
gemmPanelCounting(const Real *a, std::size_t a_row, std::size_t a_k,
                  const Real *b, std::size_t ldb, std::size_t k,
                  Real *c, std::size_t ldc, std::size_t m,
                  std::size_t n, bool skip_zeros, const Real *bias,
                  bool relu)
{
    MARLIN_KERNEL_COUNT("gemm_panel", m * k * n);
    real().gemmPanel(a, a_row, a_k, b, ldb, k, c, ldc, m, n,
                     skip_zeros, bias, relu);
}

#undef MARLIN_KERNEL_COUNT

/** isa mirrors the underlying table; rewritten on every install. */
KernelTable countingTable = {
    Isa::Scalar,        axpyCounting,         addCounting,
    subCounting,        scaleCounting,        clampCounting,
    reluBackwardCounting, adamStepCounting,   softUpdateCounting,
    copyCounting,       gemmPanelCounting,
};

/** 0 = scalar, 1 = avx2; lets telemetry record the dispatch. */
void
publishIsaGauge(Isa isa)
{
    static obs::Gauge &gauge =
        obs::Registry::instance().gauge("kernels.active_isa");
    gauge.set(static_cast<double>(static_cast<int>(isa)));
}

/** Best ISA the binary carries and the CPU can run. */
Isa
bestIsa()
{
    return isaAvailable(Isa::Avx2) ? Isa::Avx2 : Isa::Scalar;
}

const KernelTable *
resolveStartupTable()
{
    const char *env = std::getenv("MARLIN_ISA");
    if (env == nullptr || *env == '\0')
        return tableFor(bestIsa());
    const std::optional<Isa> isa = isaFromString(env);
    if (!isa.has_value())
        fatal("MARLIN_ISA='%s' is not 'scalar' or 'avx2'", env);
    if (!isaAvailable(*isa))
        fatal("MARLIN_ISA=%s requested but this build/CPU cannot "
              "run it",
              env);
    return tableFor(*isa);
}

} // namespace

const KernelTable &
active()
{
    const KernelTable *table =
        currentTable.load(std::memory_order_acquire);
    if (MARLIN_LIKELY(table != nullptr))
        return *table;
    // Magic-static so concurrent first calls resolve exactly once.
    static const KernelTable *resolved = [] {
        const KernelTable *t = resolveStartupTable();
        underlyingTable.store(t, std::memory_order_release);
        publishIsaGauge(t->isa);
        currentTable.store(t, std::memory_order_release);
        return t;
    }();
    return *resolved;
}

Isa
activeIsa()
{
    return active().isa;
}

const char *
isaName(Isa isa)
{
    return isa == Isa::Avx2 ? "avx2" : "scalar";
}

bool
isaAvailable(Isa isa)
{
    if (isa == Isa::Scalar)
        return true;
#if defined(MARLIN_HAVE_AVX2_TU)
    return base::cpuSupportsAvx2();
#else
    return false;
#endif
}

std::optional<Isa>
isaFromString(const std::string &name)
{
    if (name == "scalar")
        return Isa::Scalar;
    if (name == "avx2")
        return Isa::Avx2;
    return std::nullopt;
}

void
setIsa(Isa isa)
{
    if (!isaAvailable(isa))
        fatal("ISA '%s' is not available in this build/CPU",
              isaName(isa));
    const KernelTable *table = tableFor(isa);
    underlyingTable.store(table, std::memory_order_release);
    publishIsaGauge(isa);
    if (countingOn.load(std::memory_order_relaxed)) {
        countingTable.isa = isa;
        currentTable.store(&countingTable,
                           std::memory_order_release);
    } else {
        currentTable.store(table, std::memory_order_release);
    }
}

void
setCounting(bool enabled)
{
    // Resolve first so underlyingTable is valid before the shim can
    // be entered.
    const KernelTable &resolved = active();
    countingOn.store(enabled, std::memory_order_relaxed);
    if (enabled) {
        countingTable.isa = resolved.isa;
        currentTable.store(&countingTable,
                           std::memory_order_release);
    } else {
        currentTable.store(
            underlyingTable.load(std::memory_order_acquire),
            std::memory_order_release);
    }
}

bool
countingEnabled()
{
    return countingOn.load(std::memory_order_relaxed);
}

} // namespace marlin::numeric::kernels
