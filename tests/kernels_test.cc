/**
 * @file
 * Unit tests for marlin/numeric/kernels: the ISA-dispatched kernel
 * table. The load-bearing property is the determinism contract —
 * every kernel must produce bit-identical output under the scalar
 * reference and the AVX2 path, for every tail length and for the
 * IEEE special values (-0.0, NaN, Inf) the branch-free vector code
 * is most likely to mishandle. GEMM shapes deliberately avoid
 * multiples of the 8-float vector width so the tail loops run.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "marlin/base/random.hh"
#include "marlin/base/thread_pool.hh"
#include "marlin/numeric/gemm.hh"
#include "marlin/numeric/kernels.hh"
#include "marlin/numeric/matrix.hh"
#include "marlin/numeric/ops.hh"

namespace marlin::numeric
{
namespace
{

using kernels::Isa;
using kernels::KernelTable;

/** Edge lengths straddling the 8-lane width and its unroll blocks. */
const std::vector<std::size_t> kEdgeSizes = {
    0, 1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65};

std::vector<Real>
randomVec(std::size_t n, Rng &rng, Real lo = Real(-2),
          Real hi = Real(2))
{
    std::vector<Real> v(n);
    for (auto &x : v)
        x = lo + (hi - lo) * rng.uniformf();
    return v;
}

/** Values the compare/blend kernels must not normalize away. */
std::vector<Real>
specialVec(std::size_t n)
{
    const Real pool[] = {Real(-0.0),
                         Real(0.0),
                         Real(1.5),
                         Real(-1.5),
                         std::numeric_limits<Real>::infinity(),
                         -std::numeric_limits<Real>::infinity(),
                         std::numeric_limits<Real>::quiet_NaN(),
                         std::numeric_limits<Real>::denorm_min()};
    std::vector<Real> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = pool[i % (sizeof(pool) / sizeof(pool[0]))];
    return v;
}

bool
bitEqual(const std::vector<Real> &a, const std::vector<Real> &b)
{
    return a.size() == b.size() &&
           (a.empty() || std::memcmp(a.data(), b.data(),
                                     a.size() * sizeof(Real)) == 0);
}

bool
bitEqual(const Matrix &a, const Matrix &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           (a.size() == 0 ||
            std::memcmp(a.data(), b.data(),
                        a.size() * sizeof(Real)) == 0);
}

bool
avx2Available()
{
    return kernels::isaAvailable(Isa::Avx2);
}

#define SKIP_WITHOUT_AVX2()                                           \
    do {                                                              \
        if (!avx2Available())                                         \
            GTEST_SKIP() << "AVX2 kernels unavailable on this host";  \
    } while (0)

/**
 * Run @p op once under each ISA on identical inputs and require
 * bit-identical output. @p op receives the kernel table and the
 * in/out vectors it should use.
 */
template <typename Op>
void
expectIsaParity(std::size_t n, std::uint64_t seed, Op op)
{
    Rng rng_a(seed), rng_b(seed);
    kernels::ScopedIsa pin(Isa::Scalar);
    auto ref = op(kernels::active(), rng_a);
    kernels::setIsa(Isa::Avx2);
    auto vec = op(kernels::active(), rng_b);
    EXPECT_TRUE(bitEqual(ref, vec)) << "n=" << n;
}

// --- Dispatch plumbing ----------------------------------------------

TEST(Kernels, ScalarAlwaysAvailable)
{
    EXPECT_TRUE(kernels::isaAvailable(Isa::Scalar));
    EXPECT_STREQ(kernels::isaName(Isa::Scalar), "scalar");
    EXPECT_STREQ(kernels::isaName(Isa::Avx2), "avx2");
}

TEST(Kernels, IsaFromString)
{
    EXPECT_EQ(kernels::isaFromString("scalar"), Isa::Scalar);
    EXPECT_EQ(kernels::isaFromString("avx2"), Isa::Avx2);
    EXPECT_FALSE(kernels::isaFromString("sse9").has_value());
    EXPECT_FALSE(kernels::isaFromString("").has_value());
}

TEST(Kernels, SetIsaSwitchesActiveTable)
{
    kernels::ScopedIsa pin(Isa::Scalar);
    EXPECT_EQ(kernels::activeIsa(), Isa::Scalar);
    EXPECT_EQ(kernels::active().isa, Isa::Scalar);
    if (avx2Available()) {
        kernels::setIsa(Isa::Avx2);
        EXPECT_EQ(kernels::activeIsa(), Isa::Avx2);
        EXPECT_EQ(kernels::active().isa, Isa::Avx2);
    }
}

TEST(Kernels, ScopedIsaRestores)
{
    const Isa before = kernels::activeIsa();
    {
        kernels::ScopedIsa pin(Isa::Scalar);
        EXPECT_EQ(kernels::activeIsa(), Isa::Scalar);
    }
    EXPECT_EQ(kernels::activeIsa(), before);
}

// --- Elementwise kernels: scalar vs AVX2 bit parity -----------------

TEST(Kernels, AxpyParityAllTails)
{
    SKIP_WITHOUT_AVX2();
    for (std::size_t n : kEdgeSizes) {
        expectIsaParity(n, 11, [n](const KernelTable &kt, Rng &rng) {
            auto x = randomVec(n, rng);
            auto y = randomVec(n, rng);
            kt.axpy(Real(0.37), x.data(), y.data(), n);
            return y;
        });
    }
}

TEST(Kernels, AddSubScaleParityAllTails)
{
    SKIP_WITHOUT_AVX2();
    for (std::size_t n : kEdgeSizes) {
        expectIsaParity(n, 12, [n](const KernelTable &kt, Rng &rng) {
            auto x = randomVec(n, rng);
            auto y = randomVec(n, rng);
            kt.add(x.data(), y.data(), n);
            kt.sub(x.data(), y.data(), n);
            kt.scale(Real(1.25), y.data(), n);
            return y;
        });
    }
}

TEST(Kernels, ClampParitySpecialValues)
{
    SKIP_WITHOUT_AVX2();
    for (std::size_t n : kEdgeSizes) {
        expectIsaParity(n, 13, [n](const KernelTable &kt, Rng &) {
            auto y = specialVec(n);
            kt.clamp(Real(-1), Real(1), y.data(), n);
            return y;
        });
    }
}

TEST(Kernels, ReluForwardParitySpecialValues)
{
    SKIP_WITHOUT_AVX2();
    for (std::size_t n : kEdgeSizes) {
        expectIsaParity(n, 14, [n](const KernelTable &kt, Rng &) {
            auto x = specialVec(n);
            std::vector<Real> y(n, Real(7));
            kt.reluForward(x.data(), y.data(), n);
            return y;
        });
    }
}

TEST(Kernels, ReluForwardKeepsNegativeZero)
{
    // The reference branch `x < 0 ? 0 : x` passes -0.0 through
    // unchanged; vmaxps(x, 0) would return +0.0 instead, which is
    // why the AVX2 kernel uses compare+andnot. Every ISA must keep
    // the sign bit the branch keeps.
    const std::vector<Real> x = {Real(-0.0), Real(0.0), Real(-1),
                                 Real(2)};
    for (Isa isa : {Isa::Scalar, Isa::Avx2}) {
        if (!kernels::isaAvailable(isa))
            continue;
        kernels::ScopedIsa pin(isa);
        std::vector<Real> y(x.size());
        kernels::active().reluForward(x.data(), y.data(), x.size());
        EXPECT_TRUE(std::signbit(y[0])) << kernels::isaName(isa);
        EXPECT_FALSE(std::signbit(y[1])) << kernels::isaName(isa);
        EXPECT_EQ(y[2], Real(0)) << kernels::isaName(isa);
        EXPECT_EQ(y[3], Real(2)) << kernels::isaName(isa);
    }
}

TEST(Kernels, ReluBackwardParitySpecialValues)
{
    SKIP_WITHOUT_AVX2();
    for (std::size_t n : kEdgeSizes) {
        expectIsaParity(n, 15, [n](const KernelTable &kt, Rng &rng) {
            auto pre = specialVec(n);
            auto g = randomVec(n, rng);
            kt.reluBackward(pre.data(), g.data(), n);
            return g;
        });
    }
}

TEST(Kernels, AdamStepParityAllTails)
{
    SKIP_WITHOUT_AVX2();
    kernels::AdamParams p{};
    p.beta1 = Real(0.9);
    p.beta2 = Real(0.999);
    p.biasCorr1 = Real(1) - Real(std::pow(0.9, 3));
    p.biasCorr2 = Real(1) - Real(std::pow(0.999, 3));
    p.lr = Real(0.01);
    p.epsilon = Real(1e-8);
    for (std::size_t n : kEdgeSizes) {
        expectIsaParity(n, 16, [&, n](const KernelTable &kt,
                                      Rng &rng) {
            auto g = randomVec(n, rng);
            auto w = randomVec(n, rng);
            auto m = randomVec(n, rng, Real(-0.1), Real(0.1));
            auto v = randomVec(n, rng, Real(0), Real(0.1));
            kt.adamStep(p, g.data(), w.data(), m.data(), v.data(),
                        n);
            // Fold the moment vectors in so their bits are checked
            // too, not just the weights.
            w.insert(w.end(), m.begin(), m.end());
            w.insert(w.end(), v.begin(), v.end());
            return w;
        });
    }
}

TEST(Kernels, SoftUpdateParityAllTails)
{
    SKIP_WITHOUT_AVX2();
    for (std::size_t n : kEdgeSizes) {
        expectIsaParity(n, 17, [n](const KernelTable &kt, Rng &rng) {
            auto s = randomVec(n, rng);
            auto d = randomVec(n, rng);
            kt.softUpdate(Real(0.01), s.data(), d.data(), n);
            return d;
        });
    }
}

TEST(Kernels, CopyParityAllTails)
{
    SKIP_WITHOUT_AVX2();
    // Include sizes around the 32-float unrolled copy block.
    for (std::size_t n :
         {std::size_t(0), std::size_t(1), std::size_t(7),
          std::size_t(8), std::size_t(31), std::size_t(32),
          std::size_t(33), std::size_t(40), std::size_t(97)}) {
        expectIsaParity(n, 18, [n](const KernelTable &kt, Rng &rng) {
            auto s = randomVec(n, rng);
            std::vector<Real> d(n, Real(-9));
            kt.copy(s.data(), d.data(), n);
            return d;
        });
    }
}

// --- Scalar reference semantics -------------------------------------

TEST(Kernels, ScalarAdamMatchesWrittenOpOrder)
{
    // The documented reference sequence, spelled out longhand. The
    // scalar kernel must reproduce it exactly — the AVX2 parity
    // tests then anchor the vector path to the same bits.
    kernels::ScopedIsa pin(Isa::Scalar);
    kernels::AdamParams p{};
    p.beta1 = Real(0.9);
    p.beta2 = Real(0.999);
    p.biasCorr1 = Real(0.271);
    p.biasCorr2 = Real(0.002997);
    p.lr = Real(0.01);
    p.epsilon = Real(1e-8);

    Rng rng(19);
    const std::size_t n = 13;
    auto g = randomVec(n, rng);
    auto w = randomVec(n, rng);
    auto m = randomVec(n, rng, Real(-0.1), Real(0.1));
    auto v = randomVec(n, rng, Real(0), Real(0.1));
    auto wr = w, mr = m, vr = v;
    for (std::size_t j = 0; j < n; ++j) {
        mr[j] = p.beta1 * mr[j] + (Real(1) - p.beta1) * g[j];
        vr[j] = p.beta2 * vr[j] + (Real(1) - p.beta2) * g[j] * g[j];
        const Real mhat = mr[j] / p.biasCorr1;
        const Real vhat = vr[j] / p.biasCorr2;
        wr[j] -= p.lr * mhat / (std::sqrt(vhat) + p.epsilon);
    }
    kernels::active().adamStep(p, g.data(), w.data(), m.data(),
                               v.data(), n);
    EXPECT_TRUE(bitEqual(w, wr));
    EXPECT_TRUE(bitEqual(m, mr));
    EXPECT_TRUE(bitEqual(v, vr));
}

// --- GEMM variants: scalar vs AVX2 bit parity -----------------------

/** Shapes that stress vector tails: none are multiples of 8. */
struct GemmShape {
    std::size_t m, k, n;
};

const std::vector<GemmShape> kGemmShapes = {
    {0, 0, 0}, {1, 1, 1},  {1, 7, 1},  {1, 1, 9},  {3, 5, 7},
    {2, 3, 1}, {5, 9, 13}, {7, 17, 3}, {9, 8, 15}, {13, 31, 33},
    {1, 64, 65}, {17, 23, 129},
};

template <typename Product>
void
gemmParity(Product product)
{
    SKIP_WITHOUT_AVX2();
    for (const GemmShape &s : kGemmShapes) {
        Rng rng(21);
        Matrix a(s.m, s.k), b(s.k, s.n);
        fillUniform(a, rng, -1, 1);
        fillUniform(b, rng, -1, 1);

        Matrix ref, vec;
        {
            kernels::ScopedIsa pin(Isa::Scalar);
            product(a, b, ref);
        }
        {
            kernels::ScopedIsa pin(Isa::Avx2);
            product(a, b, vec);
        }
        EXPECT_TRUE(bitEqual(ref, vec))
            << s.m << "x" << s.k << "x" << s.n;
    }
}

TEST(Kernels, GemmParityEdgeShapes)
{
    gemmParity([](const Matrix &a, const Matrix &b, Matrix &c) {
        gemm(a, b, c);
    });
}

TEST(Kernels, GemmTNParityEdgeShapes)
{
    // gemmTN computes a^T * b where a is (k x m): reuse the shape
    // list with a stored transposed.
    SKIP_WITHOUT_AVX2();
    for (const GemmShape &s : kGemmShapes) {
        Rng rng(23);
        Matrix a(s.k, s.m), b(s.k, s.n);
        fillUniform(a, rng, -1, 1);
        fillUniform(b, rng, -1, 1);
        Matrix ref, vec;
        {
            kernels::ScopedIsa pin(Isa::Scalar);
            gemmTN(a, b, ref);
        }
        {
            kernels::ScopedIsa pin(Isa::Avx2);
            gemmTN(a, b, vec);
        }
        EXPECT_TRUE(bitEqual(ref, vec))
            << s.m << "x" << s.k << "x" << s.n;
    }
}

TEST(Kernels, GemmNTParityEdgeShapes)
{
    // gemmNT computes a * b^T where b is (n x k).
    SKIP_WITHOUT_AVX2();
    for (const GemmShape &s : kGemmShapes) {
        Rng rng(24);
        Matrix a(s.m, s.k), b(s.n, s.k);
        fillUniform(a, rng, -1, 1);
        fillUniform(b, rng, -1, 1);
        Matrix ref, vec;
        std::vector<Real> pack;
        {
            kernels::ScopedIsa pin(Isa::Scalar);
            gemmNT(a, b, ref, pack);
        }
        {
            kernels::ScopedIsa pin(Isa::Avx2);
            gemmNT(a, b, vec, pack);
        }
        EXPECT_TRUE(bitEqual(ref, vec))
            << s.m << "x" << s.k << "x" << s.n;
    }
}

TEST(Kernels, GemmSizeOneRowsAndEmpty)
{
    // Degenerate shapes must not crash and must agree across ISAs:
    // empty product, single-element, and size-1 rows against wide
    // operands.
    for (Isa isa : {Isa::Scalar, Isa::Avx2}) {
        if (!kernels::isaAvailable(isa))
            continue;
        kernels::ScopedIsa pin(isa);
        Matrix a(0, 5), b(5, 3), c;
        gemm(a, b, c);
        EXPECT_EQ(c.rows(), 0u);
        EXPECT_EQ(c.cols(), 3u);

        Matrix a1(1, 1), b1(1, 1), c1;
        a1(0, 0) = Real(3);
        b1(0, 0) = Real(-2);
        gemm(a1, b1, c1);
        EXPECT_EQ(c1(0, 0), Real(-6));

        Matrix a2(1, 9), b2(1, 9), c2;
        for (std::size_t j = 0; j < 9; ++j) {
            a2(0, j) = Real(1);
            b2(0, j) = Real(2);
        }
        std::vector<Real> pack;
        gemmNT(a2, b2, c2, pack);
        EXPECT_EQ(c2(0, 0), Real(18));
    }
}

// --- GEMM variants against a naive ascending-k loop ----------------

/**
 * The numerics every GEMM variant must reproduce bit for bit, on any
 * ISA: C(i, j) starts at +0 and adds a(i, t) * b(t, j) in ascending
 * t, skipping a coefficient exactly equal to 0 when @p skip_zeros
 * (gemm and gemmTN skip; gemmNT never does).
 */
Matrix
naiveProduct(const Matrix &a, const Matrix &b, bool skip_zeros)
{
    Matrix c(a.rows(), b.cols());
    for (std::size_t i = 0; i < a.rows(); ++i) {
        for (std::size_t j = 0; j < b.cols(); ++j) {
            Real acc = Real(0);
            for (std::size_t t = 0; t < a.cols(); ++t) {
                const Real coef = a(i, t);
                if (skip_zeros && coef == Real(0))
                    continue;
                acc += coef * b(t, j);
            }
            c(i, j) = acc;
        }
    }
    return c;
}

/** Columns t with t % 4 == 1 are all zero in sparseCoefficients. */
bool
deadColumn(std::size_t t)
{
    return t % 4 == 1;
}

/**
 * m x k coefficients shaped like forward inputs: ReLU outputs (about
 * half exact zeros, of both signs) in the first columns, one-hot
 * 5-wide action blocks after them, and every deadColumn() all zero,
 * like a unit no row of the batch activates.
 */
Matrix
sparseCoefficients(std::size_t m, std::size_t k, Rng &rng)
{
    Matrix a(m, k);
    const std::size_t relu_cols = k - k / 3;
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t t = 0; t < relu_cols; ++t) {
            const Real x = Real(2) * rng.uniformf() - Real(1);
            a(i, t) = x > Real(0) ? x : (t % 2 ? Real(-0.0) : Real(0));
        }
        for (std::size_t t = relu_cols; t < k; t += 5)
            a(i, t + rng.randint(std::min<std::size_t>(5, k - t))) =
                Real(1);
        for (std::size_t t = 0; t < k; ++t)
            if (deadColumn(t))
                a(i, t) = (i % 2) ? Real(-0.0) : Real(0);
    }
    return a;
}

/**
 * k x n values; rows at deadColumn() indices hold Inf, -Inf and NaN
 * when @p poison, so only a skipped zero coefficient keeps them out.
 */
Matrix
denseValues(std::size_t k, std::size_t n, Rng &rng, bool poison)
{
    const Real specials[] = {std::numeric_limits<Real>::infinity(),
                             -std::numeric_limits<Real>::infinity(),
                             std::numeric_limits<Real>::quiet_NaN()};
    Matrix b(k, n);
    fillUniform(b, rng, -1, 1);
    for (std::size_t t = 0; poison && t < k; ++t)
        if (deadColumn(t))
            for (std::size_t j = 0; j < n; ++j)
                b(t, j) = specials[(t + j) % 3];
    return b;
}

/** Row counts of action selection, serve batches and mini-batches. */
const std::size_t kNaiveRows[] = {1, 2, 3, 5, 7, 13, 17, 50};
/** Depths: empty, rank-1, odd, CN-3 obs width, CN-3 joint width. */
const std::size_t kNaiveDepths[] = {0, 1, 7, 18, 69};

/** Widths 0-17 (every column tail), then 64 and 69. */
std::vector<std::size_t>
naiveWidths()
{
    std::vector<std::size_t> widths;
    for (std::size_t n = 0; n <= 17; ++n)
        widths.push_back(n);
    widths.push_back(64);
    widths.push_back(69);
    return widths;
}

/** Every ISA this host runs, so the scalar twin is pinned too. */
std::vector<Isa>
availableIsas()
{
    std::vector<Isa> isas = {Isa::Scalar};
    if (avx2Available())
        isas.push_back(Isa::Avx2);
    return isas;
}

/** Stale output contents a product must overwrite, never read. */
Matrix
staleOutput(std::size_t rows, std::size_t cols)
{
    Matrix c(rows, cols);
    c.fill(std::numeric_limits<Real>::quiet_NaN());
    return c;
}

TEST(Kernels, GemmMatchesNaiveSkippingLoop)
{
    for (Isa isa : availableIsas()) {
        kernels::ScopedIsa pin(isa);
        for (std::size_t m : kNaiveRows)
            for (std::size_t k : kNaiveDepths)
                for (std::size_t n : naiveWidths())
                    for (bool poison : {false, true}) {
                        Rng rng(m * 1000 + k * 100 + n);
                        const Matrix a = sparseCoefficients(m, k, rng);
                        const Matrix b = denseValues(k, n, rng, poison);
                        Matrix c = staleOutput(m, n);
                        gemm(a, b, c);
                        EXPECT_TRUE(bitEqual(c, naiveProduct(a, b, true)))
                            << kernels::isaName(isa) << " " << m << "x"
                            << k << "x" << n << " poison=" << poison;
                    }
    }
}

TEST(Kernels, GemmTNMatchesNaiveSkippingLoop)
{
    // gemmTN(at, b) = at^T b: its coefficients are the columns of at,
    // so a dead coefficient row of at^T meets a poisoned row of b.
    for (Isa isa : availableIsas()) {
        kernels::ScopedIsa pin(isa);
        for (std::size_t m : kNaiveRows)
            for (std::size_t k : kNaiveDepths)
                for (std::size_t n : naiveWidths())
                    for (bool poison : {false, true}) {
                        Rng rng(m * 1000 + k * 100 + n + 7);
                        const Matrix a = sparseCoefficients(m, k, rng);
                        const Matrix at = a.transposed();
                        const Matrix b = denseValues(k, n, rng, poison);
                        Matrix c = staleOutput(m, n);
                        gemmTN(at, b, c);
                        EXPECT_TRUE(bitEqual(c, naiveProduct(a, b, true)))
                            << kernels::isaName(isa) << " " << m << "x"
                            << k << "x" << n << " poison=" << poison;
                    }
    }
}

TEST(Kernels, GemmNTMatchesNaiveNonSkippingLoop)
{
    // gemmNT never skips: dL/dy times weights, both dense. Exact ±0
    // coefficients still add their ±0 terms.
    for (Isa isa : availableIsas()) {
        kernels::ScopedIsa pin(isa);
        std::vector<Real> pack;
        for (std::size_t m : kNaiveRows)
            for (std::size_t k : kNaiveDepths)
                for (std::size_t n : naiveWidths()) {
                    Rng rng(m * 1000 + k * 100 + n + 13);
                    const Matrix a = sparseCoefficients(m, k, rng);
                    const Matrix bn = denseValues(n, k, rng, false);
                    Matrix c = staleOutput(m, n);
                    gemmNT(a, bn, c, pack);
                    EXPECT_TRUE(bitEqual(
                        c, naiveProduct(a, bn.transposed(), false)))
                        << kernels::isaName(isa) << " " << m << "x" << k
                        << "x" << n;
                }
    }
}

// --- Thread-count invariance under AVX2 -----------------------------

TEST(Kernels, Avx2GemmBitIdenticalAcrossThreadCounts)
{
    SKIP_WITHOUT_AVX2();
    kernels::ScopedIsa pin(Isa::Avx2);
    Rng rng(25);
    // Big enough to clear the parallel-dispatch FLOP threshold.
    Matrix a(96, 130), b(130, 70);
    fillUniform(a, rng, -1, 1);
    fillUniform(b, rng, -1, 1);

    base::ThreadPool::setGlobalThreads(1);
    Matrix c1, c1nt, c1tn;
    std::vector<Real> pack;
    gemm(a, b, c1);
    Matrix bt(70, 130);
    fillUniform(bt, rng, -1, 1);
    gemmNT(a, bt, c1nt, pack);
    Matrix at(130, 96);
    fillUniform(at, rng, -1, 1);
    gemmTN(at, b, c1tn);

    base::ThreadPool::setGlobalThreads(3);
    Matrix c3, c3nt, c3tn;
    gemm(a, b, c3);
    gemmNT(a, bt, c3nt, pack);
    gemmTN(at, b, c3tn);
    base::ThreadPool::setGlobalThreads(0);

    EXPECT_TRUE(bitEqual(c1, c3));
    EXPECT_TRUE(bitEqual(c1nt, c3nt));
    EXPECT_TRUE(bitEqual(c1tn, c3tn));
}

} // namespace
} // namespace marlin::numeric
