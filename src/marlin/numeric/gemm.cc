#include "marlin/numeric/gemm.hh"

#include <cstring>
#include <vector>

#include "marlin/base/compiler.hh"
#include "marlin/base/thread_pool.hh"
#include "marlin/numeric/kernels.hh"

namespace marlin::numeric
{

namespace
{

// Block sizes tuned for ~32 KiB L1d with Real = float.
constexpr std::size_t blockM = 64;
constexpr std::size_t blockK = 64;
// gemmNT j-tile: with blockK coefficient rows live, a blockK x
// blockN packed-B^T tile is 128 KiB — L2-resident and reused across
// a full row block — while each c-row chunk (2 KiB) stays in L1.
constexpr std::size_t blockN = 512;

// Products below this FLOP count (2*m*k*n) run serially: the pool
// dispatch costs more than the arithmetic. Single-row action
// selection stays inline; mini-batch forward/backward crosses it.
constexpr std::size_t parallelFlopThreshold = 1u << 18;

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
 * Blocked i-k kernel over output rows [i_begin, i_end). The inner
 * j loop lives in the ISA-dispatched gemmBlock kernel; each C
 * element still accumulates its k terms in ascending order, so the
 * result is bit-identical for any thread count and any ISA. The
 * skip_zeros flag pays off because forward inputs carry one-hot
 * action blocks and ReLU activations.
 */
void
gemmRows(const kernels::KernelTable &kt, const Matrix &a,
         const Matrix &b, Matrix &c, std::size_t i_begin,
         std::size_t i_end)
{
    const std::size_t k = a.cols(), n = b.cols();
    for (std::size_t i0 = i_begin; i0 < i_end; i0 += blockM) {
        const std::size_t i1 = std::min(i0 + blockM, i_end);
        for (std::size_t k0 = 0; k0 < k; k0 += blockK) {
            const std::size_t k1 = std::min(k0 + blockK, k);
            for (std::size_t i = i0; i < i1; ++i)
                kt.gemmBlock(a.row(i) + k0, 1, b.row(k0), n,
                             k1 - k0, c.row(i), n, true);
        }
    }
}

void
gemmKernel(const Matrix &a, const Matrix &b, Matrix &c, bool accumulate)
{
    const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
    MARLIN_ASSERT(b.rows() == k, "gemm inner dimension mismatch");
    if (!accumulate)
        c.resize(m, n);
    MARLIN_ASSERT(c.rows() == m && c.cols() == n,
                  "gemm output shape mismatch");

    // One table for the whole product, so a concurrent setIsa()
    // cannot mix ISAs across row partitions.
    const kernels::KernelTable &kt = kernels::active();
    base::ThreadPool &pool = base::ThreadPool::global();
    if (!useParallel(pool, m, k, n)) {
        gemmRows(kt, a, b, c, 0, m);
        return;
    }
    // Partition whole row blocks: chunks own disjoint C rows and
    // run the identical per-row loop nest as the serial path.
    const std::size_t row_blocks = (m + blockM - 1) / blockM;
    pool.parallelFor(0, row_blocks, 1,
                     [&](std::size_t b0, std::size_t b1) {
                         gemmRows(kt, a, b, c, b0 * blockM,
                                  std::min(b1 * blockM, m));
                     });
}

} // namespace

void
gemm(const Matrix &a, const Matrix &b, Matrix &c)
{
    gemmKernel(a, b, c, false);
}

void
gemmAcc(const Matrix &a, const Matrix &b, Matrix &c)
{
    gemmKernel(a, b, c, true);
}

namespace
{

/** gemmTN restricted to output rows [i_begin, i_end). */
void
gemmTNRows(const kernels::KernelTable &kt, const Matrix &a,
           const Matrix &b, Matrix &c, std::size_t i_begin,
           std::size_t i_end)
{
    const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
    // C(m,n) = A(k,m)^T B(k,n). Per output row i the coefficients
    // are column i of A (stride m), handed to gemmBlock in blockK
    // slabs so a blockK x n slice of B stays cache-resident across
    // all rows of the partition. kk slabs ascend and gemmBlock
    // accumulates ascending within a slab, so each C element sums
    // its terms in ascending-kk order — the same order for every
    // row partition, hence bit-identical under any thread count.
    // A here is a cached forward input (ReLU activations / one-hot
    // action blocks), so the zero skip earns its branch.
    for (std::size_t k0 = 0; k0 < k; k0 += blockK) {
        const std::size_t k1 = std::min(k0 + blockK, k);
        for (std::size_t i = i_begin; i < i_end; ++i)
            kt.gemmBlock(a.data() + k0 * m + i, m, b.row(k0), n,
                         k1 - k0, c.row(i), n, true);
    }
}

} // namespace

void
gemmTN(const Matrix &a, const Matrix &b, Matrix &c)
{
    const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
    MARLIN_ASSERT(b.rows() == k, "gemmTN inner dimension mismatch");
    c.resize(m, n);

    const kernels::KernelTable &kt = kernels::active();
    base::ThreadPool &pool = base::ThreadPool::global();
    if (!useParallel(pool, m, k, n)) {
        gemmTNRows(kt, a, b, c, 0, m);
        return;
    }
    pool.parallelFor(0, m, blockM,
                     [&](std::size_t i0, std::size_t i1) {
                         gemmTNRows(kt, a, b, c, i0, i1);
                     });
}

namespace
{

/**
 * gemmNT restricted to output rows [i_begin, i_end), reading B^T
 * from the packed k x n buffer @p bt.
 *
 * C(i,j) = dot(A.row(i), B.row(j)) mathematically, but the loops
 * run vertically over j so the inner loop is the same ISA-dispatched
 * row kernel as gemm: for each kk, c[j] += a[kk] * bt[kk][j]. Each
 * C element accumulates its k terms in ascending-kk order — exactly
 * the order the sequential dot product uses — so the packed form is
 * bit-identical to the historical kernel while giving the vector
 * ISA contiguous rows to stream. Tiling (i by blockM, kk by blockK,
 * j by blockN) keeps a packed tile L2-resident across a row block
 * and each c-row chunk in L1; it never reorders the kk chain. Both
 * operands are dense gradients and weights, so the zero skip is off.
 */
void
gemmNTRows(const kernels::KernelTable &kt, const Matrix &a,
           const Real *bt, Matrix &c, std::size_t i_begin,
           std::size_t i_end)
{
    const std::size_t k = a.cols(), n = c.cols();
    for (std::size_t i0 = i_begin; i0 < i_end; i0 += blockM) {
        const std::size_t i1 = std::min(i0 + blockM, i_end);
        for (std::size_t k0 = 0; k0 < k; k0 += blockK) {
            const std::size_t k1 = std::min(k0 + blockK, k);
            for (std::size_t j0 = 0; j0 < n; j0 += blockN) {
                const std::size_t j1 = std::min(j0 + blockN, n);
                for (std::size_t i = i0; i < i1; ++i)
                    kt.gemmBlock(a.row(i) + k0, 1,
                                 bt + k0 * n + j0, n, k1 - k0,
                                 c.row(i) + j0, j1 - j0, false);
            }
        }
    }
}

} // namespace

void
gemmNT(const Matrix &a, const Matrix &b, Matrix &c,
       std::vector<Real> &pack)
{
    const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
    MARLIN_ASSERT(b.cols() == k, "gemmNT inner dimension mismatch");
    c.resize(m, n);
    if (m == 0 || k == 0 || n == 0)
        return;

    // Pack B^T once (pure data movement, so exact); amortized over
    // the m output rows. The caller owns the buffer, so it grows on
    // the first call with this B shape and is reused after, on
    // whichever pool worker the call happens to run.
    if (pack.size() < k * n)
        pack.resize(k * n);
    for (std::size_t j = 0; j < n; ++j) {
        const Real *brow = b.row(j);
        for (std::size_t kk = 0; kk < k; ++kk)
            pack[kk * n + j] = brow[kk];
    }
    const Real *bt = pack.data();

    const kernels::KernelTable &kt = kernels::active();
    base::ThreadPool &pool = base::ThreadPool::global();
    if (!useParallel(pool, m, k, n)) {
        gemmNTRows(kt, a, bt, c, 0, m);
        return;
    }
    pool.parallelFor(0, m, blockM,
                     [&](std::size_t i0, std::size_t i1) {
                         gemmNTRows(kt, a, bt, c, i0, i1);
                     });
}

} // namespace marlin::numeric
