#include "marlin/numeric/ops.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "marlin/numeric/kernels.hh"

namespace marlin::numeric
{

Matrix
add(const Matrix &a, const Matrix &b)
{
    Matrix out = a;
    out += b;
    return out;
}

Matrix
sub(const Matrix &a, const Matrix &b)
{
    Matrix out = a;
    out -= b;
    return out;
}

Matrix
scale(const Matrix &a, Real factor)
{
    Matrix out = a;
    out *= factor;
    return out;
}

void
sumRowsInto(const Matrix &m, Matrix &out)
{
    out.resize(1, m.cols());
    // Column-wise reduction: each output lane sums its own column
    // in ascending row order, so the vector path is bit-identical
    // to the scalar one.
    const kernels::KernelTable &kt = kernels::active();
    Real *acc = out.row(0);
    for (std::size_t r = 0; r < m.rows(); ++r)
        kt.add(m.row(r), acc, m.cols());
}

Real
mean(const Matrix &m)
{
    if (m.empty())
        return Real(0);
    return sum(m) / static_cast<Real>(m.size());
}

Real
sum(const Matrix &m)
{
    // Kahan-free double accumulation is plenty for our sizes.
    double acc = 0.0;
    const Real *d = m.data();
    for (std::size_t i = 0; i < m.size(); ++i)
        acc += d[i];
    return static_cast<Real>(acc);
}

bool
hasNonFinite(const Matrix &m)
{
    const Real *d = m.data();
    for (std::size_t i = 0; i < m.size(); ++i)
        if (!std::isfinite(d[i]))
            return true;
    return false;
}

void
softmaxRows(Matrix &m)
{
    for (std::size_t r = 0; r < m.rows(); ++r) {
        Real *row = m.row(r);
        Real mx = -std::numeric_limits<Real>::infinity();
        for (std::size_t c = 0; c < m.cols(); ++c)
            mx = std::max(mx, row[c]);
        Real total = 0;
        for (std::size_t c = 0; c < m.cols(); ++c) {
            row[c] = std::exp(row[c] - mx);
            total += row[c];
        }
        const Real inv = Real(1) / total;
        for (std::size_t c = 0; c < m.cols(); ++c)
            row[c] *= inv;
    }
}

void
softmaxBackwardRows(const Matrix &softmax_out, const Matrix &grad_out,
                    Matrix &grad_in)
{
    MARLIN_ASSERT(softmax_out.rows() == grad_out.rows() &&
                      softmax_out.cols() == grad_out.cols(),
                  "softmax backward shape mismatch");
    grad_in.resize(softmax_out.rows(), softmax_out.cols());
    for (std::size_t r = 0; r < softmax_out.rows(); ++r) {
        const Real *s = softmax_out.row(r);
        const Real *g = grad_out.row(r);
        Real dot = 0;
        for (std::size_t c = 0; c < softmax_out.cols(); ++c)
            dot += s[c] * g[c];
        Real *out = grad_in.row(r);
        for (std::size_t c = 0; c < softmax_out.cols(); ++c)
            out[c] = s[c] * (g[c] - dot);
    }
}

std::size_t
gumbelArgmaxRow(const Matrix &logits, std::size_t row, Rng &rng)
{
    const Real *vals = logits.row(row);
    Real best = -std::numeric_limits<Real>::infinity();
    std::size_t best_c = 0;
    for (std::size_t c = 0; c < logits.cols(); ++c) {
        double u = std::max(rng.uniform(),
                            std::numeric_limits<double>::min());
        Real g = static_cast<Real>(-std::log(-std::log(u)));
        Real v = vals[c] + g;
        if (v > best) {
            best = v;
            best_c = c;
        }
    }
    return best_c;
}

std::vector<std::size_t>
argmaxRows(const Matrix &m)
{
    std::vector<std::size_t> picks(m.rows());
    for (std::size_t r = 0; r < m.rows(); ++r) {
        const Real *row = m.row(r);
        picks[r] = static_cast<std::size_t>(
            std::max_element(row, row + m.cols()) - row);
    }
    return picks;
}

void
hconcatInto(const std::vector<const Matrix *> &parts, Matrix &out)
{
    MARLIN_ASSERT(!parts.empty(), "hconcat of zero matrices");
    const std::size_t rows = parts.front()->rows();
    std::size_t cols = 0;
    for (const Matrix *p : parts) {
        MARLIN_ASSERT(p->rows() == rows, "hconcat row mismatch");
        cols += p->cols();
    }
    out.reshape(rows, cols); // Fully overwritten below.
    for (std::size_t r = 0; r < rows; ++r) {
        Real *dst = out.row(r);
        for (const Matrix *p : parts) {
            const Real *src = p->row(r);
            std::copy(src, src + p->cols(), dst);
            dst += p->cols();
        }
    }
}

void
fillUniform(Matrix &m, Rng &rng, Real lo, Real hi)
{
    Real *d = m.data();
    for (std::size_t i = 0; i < m.size(); ++i)
        d[i] = lo + (hi - lo) * rng.uniformf();
}

void
clampInPlace(Matrix &m, Real lo, Real hi)
{
    kernels::active().clamp(lo, hi, m.data(), m.size());
}

} // namespace marlin::numeric
