/**
 * @file
 * ISA-dispatched vector kernel layer for the training hot paths.
 *
 * Every dense inner loop the paper's characterization blames for
 * training time — GEMM panels, elementwise ops, Adam's
 * per-parameter update, soft target-network updates and the replay
 * gather copies — funnels through one table of function pointers
 * selected at startup: a portable scalar reference, and an AVX2+FMA
 * implementation entered only after cpuid confirms the hardware
 * supports it (the main binary stays baseline x86-64).
 *
 * Determinism contract, extending PR 1's thread-count guarantee:
 *  - For a fixed ISA, results are bit-identical across thread
 *    counts; callers partition work over disjoint outputs and every
 *    kernel processes each output element with the same IEEE op
 *    sequence regardless of partition.
 *  - The scalar table is the reproducibility reference: it performs
 *    exactly the pre-kernel-layer arithmetic (same ops, same
 *    order), so MARLIN_ISA=scalar reproduces historical numerics
 *    bit-for-bit.
 *  - The AVX2 table is lane-parallel only: each output element is
 *    computed by one SIMD lane running the identical mul/add/sqrt
 *    sequence as the scalar reference (the TU is built with
 *    -ffp-contract=off so mul+add never fuses), so scalar and AVX2
 *    results are bit-identical too. Order-dependent reductions
 *    (running sums, dot-product norms) stay scalar for this reason.
 *
 * Selection: best available ISA at startup, overridable with the
 * MARLIN_ISA=scalar|avx2 environment variable, the --isa CLI/bench
 * flag, or setIsa() from code.
 */

#ifndef MARLIN_NUMERIC_KERNELS_HH
#define MARLIN_NUMERIC_KERNELS_HH

#include <cstddef>
#include <optional>
#include <string>

#include "marlin/base/types.hh"

namespace marlin::numeric::kernels
{

/** Instruction sets a kernel table can be compiled for. */
enum class Isa { Scalar, Avx2 };

/** Per-step constants for the Adam update kernel. */
struct AdamParams
{
    Real beta1;
    Real beta2;
    /** 1 - beta1^t, the first-moment bias correction. */
    Real biasCorr1;
    /** 1 - beta2^t, the second-moment bias correction. */
    Real biasCorr2;
    Real lr;
    Real epsilon;
};

/**
 * The kernel table. All pointers are non-null in every table; sizes
 * of zero are no-ops. Pointer arguments must not alias unless a
 * kernel's contract says otherwise (in-place operands are explicit).
 */
struct KernelTable
{
    Isa isa;

    /** y[i] += a * x[i]. */
    void (*axpy)(Real a, const Real *x, Real *y, std::size_t n);

    /** y[i] += x[i]. */
    void (*add)(const Real *x, Real *y, std::size_t n);

    /** y[i] -= x[i]. */
    void (*sub)(const Real *x, Real *y, std::size_t n);

    /** y[i] *= a. */
    void (*scale)(Real a, Real *y, std::size_t n);

    /** y[i] = (y[i] < lo) ? lo : (hi < y[i]) ? hi : y[i]. */
    void (*clamp)(Real lo, Real hi, Real *y, std::size_t n);

    /** y[i] = (x[i] < 0) ? 0 : x[i]. Preserves NaN and -0. */
    void (*reluForward)(const Real *x, Real *y, std::size_t n);

    /** g[i] = (pre[i] <= 0) ? 0 : g[i]. */
    void (*reluBackward)(const Real *pre, Real *g, std::size_t n);

    /**
     * One Adam step over a parameter block:
     *   m[i] = beta1 * m[i] + (1 - beta1) * g[i]
     *   v[i] = beta2 * v[i] + (1 - beta2) * g[i] * g[i]
     *   w[i] -= lr * (m[i] / biasCorr1)
     *          / (sqrt(v[i] / biasCorr2) + epsilon)
     * exactly in that order per element.
     */
    void (*adamStep)(const AdamParams &p, const Real *g, Real *w,
                     Real *m, Real *v, std::size_t n);

    /** Polyak update: d[i] = tau * s[i] + (1 - tau) * d[i]. */
    void (*softUpdate)(Real tau, const Real *s, Real *d,
                       std::size_t n);

    /** d[i] = s[i] (gather/scatter copy loop). */
    void (*copy)(const Real *s, Real *d, std::size_t n);

    /**
     * Register-tiled GEMM panel, the one entry every gemm variant
     * runs through:
     *   c[i * ldc + j] = sum_{t < k} a[i * a_row + t * a_k]
     *                                * b[t * ldb + j]
     * for i < m and j < n. The (row, k) strides let one entry read
     * A row-major (gemm, gemmNT: a_row = lda, a_k = 1) or as a
     * transpose (gemmTN: a_row = 1, a_k = lda). Every c element
     * starts at +0 and adds its k terms in ascending t order, one
     * mul then one add per term — the bit-exactness invariant every
     * caller relies on, independent of how an implementation tiles
     * rows and columns. What c held before the call is never read.
     *
     * When skip_zeros, a coefficient exactly equal to 0 contributes
     * nothing, so 0 * Inf or 0 * NaN in b never reaches c: the
     * forward pass's one-hot/ReLU sparsity shortcut. Without it the
     * zero terms are added; since an accumulator that starts at +0
     * can never become -0, a skipped ±0 term changes no bit, so
     * callers drop the skip whenever b is all finite.
     */
    void (*gemmPanel)(const Real *a, std::size_t a_row,
                      std::size_t a_k, const Real *b, std::size_t ldb,
                      std::size_t k, Real *c, std::size_t ldc,
                      std::size_t m, std::size_t n, bool skip_zeros);
};

/**
 * The active table. First use resolves it: MARLIN_ISA if set (fatal
 * on unknown names or ISAs the host can't run), else the best ISA
 * the binary has compiled in and the CPU supports.
 */
const KernelTable &active();

/** ISA of the active table. */
Isa activeIsa();

/** "scalar" or "avx2". */
const char *isaName(Isa isa);

/**
 * Whether @p isa can run here: compiled into this binary and
 * supported by the host CPU. Scalar is always available.
 */
bool isaAvailable(Isa isa);

/** Parse "scalar" / "avx2"; empty optional on anything else. */
std::optional<Isa> isaFromString(const std::string &name);

/**
 * Force the active table. fatal() if the ISA is unavailable. Not
 * synchronized against in-flight kernels — call at startup or
 * between training phases, like ThreadPool::setGlobalThreads().
 */
void setIsa(Isa isa);

/**
 * Route every kernel call through counting wrappers that bump
 * per-kernel invocation and element counters in the obs registry
 * ("kernels.<name>.calls" / "kernels.<name>.elems"; gemmPanel counts
 * one call per panel and m * k * n multiply-accumulates). Off by
 * default, and the off state is free: the dispatched table *is* the
 * real ISA table, so kernel calls carry exactly zero instrumentation
 * cost until the CLI or a bench enables counting for a
 * telemetry/trace run. Not synchronized against
 * in-flight kernels — same caveat as setIsa().
 */
void setCounting(bool enabled);

/** Whether the counting shim is currently installed. */
bool countingEnabled();

/** RAII ISA override for tests and benches comparing ISAs. */
class ScopedIsa
{
  public:
    explicit ScopedIsa(Isa isa) : previous(activeIsa())
    {
        setIsa(isa);
    }
    ~ScopedIsa() { setIsa(previous); }
    ScopedIsa(const ScopedIsa &) = delete;
    ScopedIsa &operator=(const ScopedIsa &) = delete;

  private:
    Isa previous;
};

} // namespace marlin::numeric::kernels

#endif // MARLIN_NUMERIC_KERNELS_HH
