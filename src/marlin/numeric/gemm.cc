#include "marlin/numeric/gemm.hh"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "marlin/base/compiler.hh"
#include "marlin/base/thread_pool.hh"
#include "marlin/numeric/kernels.hh"

namespace marlin::numeric
{

namespace
{

// Parallel chunks are whole multiples of this many output rows, a
// multiple of the AVX2 panel's 6-row tile, so only the last chunk of
// a product runs a short tile. Chunking never changes a bit: every C
// element is one ascending-k chain wherever its row lands.
constexpr std::size_t rowBlock = 48;

// Products below this FLOP count (2*m*k*n) run serially: the pool
// dispatch costs more than the arithmetic. Single-row action
// selection stays inline; mini-batch forward/backward crosses it.
constexpr std::size_t parallelFlopThreshold = 1u << 18;

// Products with fewer rows keep the zero skip even when B is finite:
// the finite check reads all of B, which for a one-row product costs
// as much as the product itself.
constexpr std::size_t skipFreeMinRows = 16;

/**
 * Whether a product of this size should fan out. The partition is
 * over disjoint output rows, and within a row every kernel below
 * performs the same additions in the same order as its serial loop,
 * so the result is bit-identical for any thread count.
 */
bool
useParallel(base::ThreadPool &pool, std::size_t m, std::size_t k,
            std::size_t n)
{
    return pool.numThreads() > 1 && !base::ThreadPool::inWorker() &&
           2 * m * k * n >= parallelFlopThreshold;
}

/**
 * Whether every element of @p x is finite. Branch-free so it
 * vectorizes: an exponent of all ones (Inf or NaN) is the only one
 * that carries into bit 31 when 2^23 is added to the masked exponent.
 */
bool
allFinite(const Matrix &x)
{
    static_assert(sizeof(Real) == sizeof(std::uint32_t),
                  "the exponent test assumes 32-bit floats");
    const Real *d = x.data();
    std::uint32_t carry = 0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        std::uint32_t bits;
        std::memcpy(&bits, d + i, sizeof(bits));
        carry |= (bits & 0x7f800000u) + 0x00800000u;
    }
    return (carry & 0x80000000u) == 0;
}

/**
 * Whether a product with these rows should skip zero coefficients.
 * The skip only matters where 0 * Inf or 0 * NaN would add a NaN (see
 * KernelTable::gemmPanel), so the AVX2 panel drops its per-row mask
 * when B is all finite, except in short products where checking B
 * costs more than the mask does. The scalar twin keeps it: there the
 * skip is a branch that saves a whole row update.
 */
bool
skipZeros(const kernels::KernelTable &kt, std::size_t m,
          const Matrix &b)
{
    return kt.isa == kernels::Isa::Scalar || m < skipFreeMinRows ||
           !allFinite(b);
}

/**
 * Run @p rows(i0, i1) over output rows [0, m): inline for small
 * products, else in rowBlock-aligned chunks on the global pool. One
 * kernel table serves the whole product, so a concurrent setIsa()
 * cannot mix ISAs across row chunks.
 */
template <typename Rows>
void
forRowChunks(std::size_t m, std::size_t k, std::size_t n,
             const Rows &rows)
{
    base::ThreadPool &pool = base::ThreadPool::global();
    if (!useParallel(pool, m, k, n)) {
        rows(0, m);
        return;
    }
    const std::size_t blocks = (m + rowBlock - 1) / rowBlock;
    pool.parallelFor(0, blocks, 1,
                     [&](std::size_t b0, std::size_t b1) {
                         rows(b0 * rowBlock,
                              std::min(b1 * rowBlock, m));
                     });
}

} // namespace

void
gemm(const Matrix &a, const Matrix &b, Matrix &c, const Matrix *bias,
     bool relu)
{
    const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
    MARLIN_ASSERT(b.rows() == k, "gemm inner dimension mismatch");
    MARLIN_ASSERT(bias == nullptr ||
                      (bias->rows() == 1 && bias->cols() == n),
                  "gemm bias shape mismatch");
    MARLIN_ASSERT(&c != &a && &c != &b, "gemm output aliases an input");
    // The panel writes every element, so no zero fill.
    c.reshape(m, n);
    if (m == 0 || n == 0)
        return;
    // Forward inputs carry one-hot action blocks and ReLU zeros.
    const kernels::KernelTable &kt = kernels::active();
    const bool skip = skipZeros(kt, m, b);
    const Real *bias_row = bias != nullptr ? bias->data() : nullptr;
    forRowChunks(m, k, n, [&](std::size_t i0, std::size_t i1) {
        kt.gemmPanel(a.row(i0), k, 1, b.data(), n, k, c.row(i0), n,
                     i1 - i0, n, skip, bias_row, relu);
    });
}

void
gemmTN(const Matrix &a, const Matrix &b, Matrix &c)
{
    const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
    MARLIN_ASSERT(b.rows() == k, "gemmTN inner dimension mismatch");
    c.reshape(m, n);
    if (m == 0 || n == 0)
        return;
    // C(m,n) = A(k,m)^T B(k,n): output row i takes its coefficients
    // from column i of A, i.e. (row, k) strides (1, m). A is a
    // layer's forward input (ReLU activations, one-hot action blocks).
    const kernels::KernelTable &kt = kernels::active();
    const bool skip = skipZeros(kt, m, b);
    forRowChunks(m, k, n, [&](std::size_t i0, std::size_t i1) {
        kt.gemmPanel(a.data() + i0, 1, m, b.data(), n, k, c.row(i0), n,
                     i1 - i0, n, skip, nullptr, false);
    });
}

void
gemmNT(const Matrix &a, const Matrix &b, Matrix &c,
       std::vector<Real> &pack)
{
    const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
    MARLIN_ASSERT(b.cols() == k, "gemmNT inner dimension mismatch");
    c.reshape(m, n);
    if (m == 0 || n == 0)
        return;

    // C(i,j) = dot(A.row(i), B.row(j)), accumulated in ascending k —
    // the order of the sequential dot product. Packing B^T (pure data
    // movement, so exact) gives the panel contiguous rows to stream.
    // The caller owns the buffer, so it grows on the first call with
    // this B shape and is reused after, on whichever pool worker the
    // call happens to run.
    if (pack.size() < k * n)
        pack.resize(k * n);
    for (std::size_t j = 0; j < n; ++j) {
        const Real *brow = b.row(j);
        for (std::size_t kk = 0; kk < k; ++kk)
            pack[kk * n + j] = brow[kk];
    }
    const Real *bt = pack.data();

    // Both operands are dense gradients and weights: no zero skip.
    const kernels::KernelTable &kt = kernels::active();
    forRowChunks(m, k, n, [&](std::size_t i0, std::size_t i1) {
        kt.gemmPanel(a.row(i0), k, 1, bt, n, k, c.row(i0), n, i1 - i0,
                     n, false, nullptr, false);
    });
}

} // namespace marlin::numeric
