/**
 * @file
 * Unit tests for marlin/numeric: Matrix, GEMM kernels, and ops.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "marlin/base/random.hh"
#include "marlin/numeric/gemm.hh"
#include "marlin/numeric/matrix.hh"
#include "marlin/numeric/ops.hh"

namespace marlin::numeric
{
namespace
{

Matrix
randomMatrix(std::size_t r, std::size_t c, Rng &rng)
{
    Matrix m(r, c);
    fillUniform(m, rng, -1, 1);
    return m;
}

/** Naive reference product. */
Matrix
refGemm(const Matrix &a, const Matrix &b)
{
    Matrix c(a.rows(), b.cols());
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t k = 0; k < a.cols(); ++k)
            for (std::size_t j = 0; j < b.cols(); ++j)
                c(i, j) += a(i, k) * b(k, j);
    return c;
}

void
expectNear(const Matrix &a, const Matrix &b, Real tol = Real(1e-4))
{
    ASSERT_EQ(a.rows(), b.rows());
    ASSERT_EQ(a.cols(), b.cols());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_NEAR(a.data()[i], b.data()[i], tol) << "at " << i;
}

TEST(Matrix, ConstructionAndIndexing)
{
    Matrix m(2, 3);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    EXPECT_EQ(m.size(), 6u);
    m(1, 2) = Real(5);
    EXPECT_EQ(m(1, 2), Real(5));
    EXPECT_EQ(m(0, 0), Real(0));
}

TEST(Matrix, InitializerList)
{
    Matrix m{{1, 2, 3}, {4, 5, 6}};
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    EXPECT_EQ(m(0, 1), Real(2));
    EXPECT_EQ(m(1, 0), Real(4));
}

TEST(Matrix, RowPointersAreContiguous)
{
    Matrix m(3, 4);
    EXPECT_EQ(m.row(1), m.data() + 4);
    EXPECT_EQ(m.row(2), m.data() + 8);
}

TEST(Matrix, ElementwiseOps)
{
    Matrix a{{1, 2}, {3, 4}};
    Matrix b{{10, 20}, {30, 40}};
    a += b;
    EXPECT_EQ(a(1, 1), Real(44));
    a -= b;
    EXPECT_EQ(a(0, 0), Real(1));
    a *= Real(2);
    EXPECT_EQ(a(1, 0), Real(6));
}

TEST(Matrix, Transposed)
{
    Matrix a{{1, 2, 3}, {4, 5, 6}};
    Matrix t = a.transposed();
    EXPECT_EQ(t.rows(), 3u);
    EXPECT_EQ(t.cols(), 2u);
    EXPECT_EQ(t(2, 1), Real(6));
    EXPECT_EQ(t(0, 0), Real(1));
}

TEST(Matrix, CopyRowFrom)
{
    Matrix a(2, 3);
    Matrix b{{7, 8, 9}, {1, 1, 1}};
    a.copyRowFrom(1, b, 0);
    EXPECT_EQ(a(1, 0), Real(7));
    EXPECT_EQ(a(1, 2), Real(9));
    EXPECT_EQ(a(0, 0), Real(0));
}

TEST(Matrix, FillAndZero)
{
    Matrix m(2, 2);
    m.fill(Real(3));
    EXPECT_EQ(m(1, 1), Real(3));
    m.zero();
    EXPECT_EQ(m(0, 0), Real(0));
}

class GemmShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(GemmShapes, MatchesReference)
{
    const auto [m, k, n] = GetParam();
    Rng rng(m * 10007 + k * 101 + n);
    Matrix a = randomMatrix(m, k, rng);
    Matrix b = randomMatrix(k, n, rng);
    Matrix c;
    gemm(a, b, c);
    expectNear(c, refGemm(a, b));
}

TEST_P(GemmShapes, TNMatchesReference)
{
    const auto [m, k, n] = GetParam();
    Rng rng(m * 7 + k * 11 + n * 13);
    Matrix at = randomMatrix(k, m, rng); // A^T stored
    Matrix b = randomMatrix(k, n, rng);
    Matrix c;
    gemmTN(at, b, c);
    expectNear(c, refGemm(at.transposed(), b));
}

TEST_P(GemmShapes, NTMatchesReference)
{
    const auto [m, k, n] = GetParam();
    Rng rng(m * 3 + k * 5 + n * 17);
    Matrix a = randomMatrix(m, k, rng);
    Matrix bt = randomMatrix(n, k, rng); // B^T stored
    Matrix c;
    std::vector<Real> pack;
    gemmNT(a, bt, c, pack);
    expectNear(c, refGemm(a, bt.transposed()));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapes,
    ::testing::Values(std::make_tuple(1, 1, 1),
                      std::make_tuple(2, 3, 4),
                      std::make_tuple(16, 16, 16),
                      std::make_tuple(7, 65, 9),
                      std::make_tuple(64, 64, 1),
                      std::make_tuple(128, 70, 33),
                      std::make_tuple(1, 100, 1)));

TEST(Ops, AddSubScale)
{
    Matrix a{{1, 2}};
    Matrix b{{3, 4}};
    expectNear(add(a, b), Matrix{{4, 6}});
    expectNear(sub(b, a), Matrix{{2, 2}});
    expectNear(scale(a, 3), Matrix{{3, 6}});
}

TEST(Ops, GemmAddsRowBias)
{
    // The forward layer's bias and ReLU ride in gemm's epilogue.
    Matrix m{{1, 1}, {2, 2}};
    const Matrix eye{{1, 0}, {0, 1}};
    Matrix out;
    const Matrix bias{{10, 20}};
    gemm(m, eye, out, &bias);
    expectNear(out, Matrix{{11, 21}, {12, 22}});
    const Matrix shift{{-1.5f, 20}};
    gemm(m, eye, out, &shift, true);
    expectNear(out, Matrix{{0, 21}, {0.5f, 22}});
}

TEST(Ops, SumRowsMeanSum)
{
    Matrix m{{1, 2}, {3, 4}};
    Matrix rows;
    sumRowsInto(m, rows);
    expectNear(rows, Matrix{{4, 6}});
    EXPECT_NEAR(mean(m), 2.5, 1e-6);
    EXPECT_NEAR(sum(m), 10.0, 1e-6);
}

TEST(Ops, HasNonFinite)
{
    Matrix m{{-3, 2}};
    EXPECT_FALSE(hasNonFinite(m));
    m(0, 0) = std::numeric_limits<Real>::infinity();
    EXPECT_TRUE(hasNonFinite(m));
    m(0, 0) = std::numeric_limits<Real>::quiet_NaN();
    EXPECT_TRUE(hasNonFinite(m));
}

TEST(Ops, SoftmaxRowsSumToOne)
{
    Rng rng(3);
    Matrix m = randomMatrix(8, 5, rng);
    m *= Real(10);
    softmaxRows(m);
    for (std::size_t r = 0; r < m.rows(); ++r) {
        Real total = 0;
        for (std::size_t c = 0; c < m.cols(); ++c) {
            EXPECT_GE(m(r, c), Real(0));
            total += m(r, c);
        }
        EXPECT_NEAR(total, 1.0, 1e-5);
    }
}

TEST(Ops, SoftmaxIsShiftInvariantAndStable)
{
    Matrix a{{1000, 1001, 1002}};
    softmaxRows(a);
    EXPECT_FALSE(hasNonFinite(a));
    Matrix b{{0, 1, 2}};
    softmaxRows(b);
    expectNear(a, b, Real(1e-5));
}

TEST(Ops, SoftmaxBackwardMatchesFiniteDifference)
{
    Rng rng(11);
    Matrix x = randomMatrix(4, 6, rng);
    Matrix g = randomMatrix(4, 6, rng);

    Matrix s = x;
    softmaxRows(s);
    Matrix analytic;
    softmaxBackwardRows(s, g, analytic);

    const Real eps = Real(1e-3);
    for (std::size_t r = 0; r < x.rows(); ++r) {
        for (std::size_t c = 0; c < x.cols(); ++c) {
            Matrix xp = x, xm = x;
            xp(r, c) += eps;
            xm(r, c) -= eps;
            softmaxRows(xp);
            softmaxRows(xm);
            // L = sum(g * softmax(x)) restricted to row r.
            Real lp = 0, lm = 0;
            for (std::size_t j = 0; j < x.cols(); ++j) {
                lp += g(r, j) * xp(r, j);
                lm += g(r, j) * xm(r, j);
            }
            const Real numeric = (lp - lm) / (2 * eps);
            EXPECT_NEAR(analytic(r, c), numeric, 2e-3);
        }
    }
}

TEST(Ops, ArgmaxRows)
{
    Matrix m{{1, 5, 2}, {9, 0, 3}};
    auto idx = argmaxRows(m);
    EXPECT_EQ(idx[0], 1u);
    EXPECT_EQ(idx[1], 0u);
}

TEST(Ops, GumbelArgmaxFollowsLogits)
{
    // With one dominant logit, the Gumbel draw should pick it the
    // vast majority of the time.
    Rng rng(17);
    Matrix logits{{0, 8, 0, 0, 0}};
    int hits = 0;
    for (int i = 0; i < 1000; ++i)
        hits += gumbelArgmaxRow(logits, 0, rng) == 1;
    EXPECT_GT(hits, 950);
}

TEST(Ops, GumbelArgmaxSamplesDistribution)
{
    // Uniform logits -> roughly uniform picks.
    Rng rng(19);
    Matrix logits(1, 4);
    std::array<int, 4> counts{};
    for (int i = 0; i < 8000; ++i)
        ++counts[gumbelArgmaxRow(logits, 0, rng)];
    for (int c : counts)
        EXPECT_NEAR(c, 2000, 250);
}

TEST(Ops, Hconcat)
{
    Matrix a{{1, 2}, {3, 4}};
    Matrix b{{5}, {6}};
    Matrix c{{7, 8, 9}, {10, 11, 12}};
    Matrix out;
    hconcatInto({&a, &b, &c}, out);
    EXPECT_EQ(out.cols(), 6u);
    expectNear(out, Matrix{{1, 2, 5, 7, 8, 9}, {3, 4, 6, 10, 11, 12}});
}

TEST(Ops, ClampInPlace)
{
    Matrix m{{-5, 0, 5}};
    clampInPlace(m, -1, 1);
    expectNear(m, Matrix{{-1, 0, 1}});
}

} // namespace
} // namespace marlin::numeric
