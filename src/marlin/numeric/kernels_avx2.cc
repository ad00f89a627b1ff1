/**
 * @file
 * AVX2 kernel table. This is the only TU built with -mavx2 -mfma;
 * it is entered strictly behind the cpuid check in isaAvailable(),
 * so the rest of the binary stays runnable on baseline x86-64.
 *
 * Bit-exactness with the scalar reference is a hard contract here:
 * every kernel maps one output element to one SIMD lane and runs
 * the identical IEEE op sequence the scalar table runs. That means
 *  - separate _mm256_mul_ps / _mm256_add_ps, never _mm256_fmadd_ps
 *    (FMA's single rounding would diverge), and the TU is compiled
 *    with -ffp-contract=off so the compiler cannot re-fuse them;
 *  - compare+blend instead of min/max for ReLU and clamp, because
 *    vmaxps(-0, +0) returns +0 where the scalar branch keeps -0;
 *  - _mm256_sqrt_ps / _mm256_div_ps only, which are IEEE
 *    correctly-rounded — no rsqrt/rcp approximations.
 * Tail elements fall back to the same scalar expressions, compiled
 * in this TU under the same -ffp-contract=off; the GEMM panel masks
 * its column tails instead, so every C element still gets one lane.
 */

#include <cmath>
#include <cstring>
#include <immintrin.h>

#include "marlin/numeric/kernels.hh"

namespace marlin::numeric::kernels
{

namespace
{

constexpr std::size_t lanes = 8; // 256-bit / float32

void
axpyAvx2(Real a, const Real *x, Real *y, std::size_t n)
{
    const __m256 va = _mm256_set1_ps(a);
    std::size_t i = 0;
    for (; i + lanes <= n; i += lanes) {
        const __m256 vx = _mm256_loadu_ps(x + i);
        const __m256 vy = _mm256_loadu_ps(y + i);
        _mm256_storeu_ps(y + i,
                         _mm256_add_ps(vy, _mm256_mul_ps(va, vx)));
    }
    for (; i < n; ++i)
        y[i] += a * x[i];
}

void
addAvx2(const Real *x, Real *y, std::size_t n)
{
    std::size_t i = 0;
    for (; i + lanes <= n; i += lanes) {
        const __m256 vx = _mm256_loadu_ps(x + i);
        const __m256 vy = _mm256_loadu_ps(y + i);
        _mm256_storeu_ps(y + i, _mm256_add_ps(vy, vx));
    }
    for (; i < n; ++i)
        y[i] += x[i];
}

void
subAvx2(const Real *x, Real *y, std::size_t n)
{
    std::size_t i = 0;
    for (; i + lanes <= n; i += lanes) {
        const __m256 vx = _mm256_loadu_ps(x + i);
        const __m256 vy = _mm256_loadu_ps(y + i);
        _mm256_storeu_ps(y + i, _mm256_sub_ps(vy, vx));
    }
    for (; i < n; ++i)
        y[i] -= x[i];
}

void
scaleAvx2(Real a, Real *y, std::size_t n)
{
    const __m256 va = _mm256_set1_ps(a);
    std::size_t i = 0;
    for (; i + lanes <= n; i += lanes) {
        const __m256 vy = _mm256_loadu_ps(y + i);
        _mm256_storeu_ps(y + i, _mm256_mul_ps(vy, va));
    }
    for (; i < n; ++i)
        y[i] *= a;
}

void
clampAvx2(Real lo, Real hi, Real *y, std::size_t n)
{
    const __m256 vlo = _mm256_set1_ps(lo);
    const __m256 vhi = _mm256_set1_ps(hi);
    std::size_t i = 0;
    for (; i + lanes <= n; i += lanes) {
        __m256 v = _mm256_loadu_ps(y + i);
        // (v < lo) ? lo : v, then (hi < v) ? hi : v — ordered-quiet
        // compares leave NaN lanes untouched, like std::clamp.
        const __m256 below = _mm256_cmp_ps(v, vlo, _CMP_LT_OQ);
        v = _mm256_blendv_ps(v, vlo, below);
        const __m256 above = _mm256_cmp_ps(vhi, v, _CMP_LT_OQ);
        v = _mm256_blendv_ps(v, vhi, above);
        _mm256_storeu_ps(y + i, v);
    }
    for (; i < n; ++i) {
        const Real v = y[i];
        y[i] = (v < lo) ? lo : (hi < v) ? hi : v;
    }
}

void
reluForwardAvx2(const Real *x, Real *y, std::size_t n)
{
    const __m256 zero = _mm256_setzero_ps();
    std::size_t i = 0;
    for (; i + lanes <= n; i += lanes) {
        const __m256 vx = _mm256_loadu_ps(x + i);
        const __m256 neg = _mm256_cmp_ps(vx, zero, _CMP_LT_OQ);
        _mm256_storeu_ps(y + i, _mm256_andnot_ps(neg, vx));
    }
    for (; i < n; ++i)
        y[i] = (x[i] < Real(0)) ? Real(0) : x[i];
}

void
reluBackwardAvx2(const Real *pre, Real *g, std::size_t n)
{
    const __m256 zero = _mm256_setzero_ps();
    std::size_t i = 0;
    for (; i + lanes <= n; i += lanes) {
        const __m256 vp = _mm256_loadu_ps(pre + i);
        const __m256 vg = _mm256_loadu_ps(g + i);
        const __m256 dead = _mm256_cmp_ps(vp, zero, _CMP_LE_OQ);
        _mm256_storeu_ps(g + i, _mm256_andnot_ps(dead, vg));
    }
    for (; i < n; ++i)
        if (pre[i] <= Real(0))
            g[i] = Real(0);
}

void
adamStepAvx2(const AdamParams &p, const Real *g, Real *w, Real *m,
             Real *v, std::size_t n)
{
    const Real omb1s = Real(1) - p.beta1;
    const Real omb2s = Real(1) - p.beta2;
    const __m256 b1 = _mm256_set1_ps(p.beta1);
    const __m256 b2 = _mm256_set1_ps(p.beta2);
    const __m256 omb1 = _mm256_set1_ps(omb1s);
    const __m256 omb2 = _mm256_set1_ps(omb2s);
    const __m256 corr1 = _mm256_set1_ps(p.biasCorr1);
    const __m256 corr2 = _mm256_set1_ps(p.biasCorr2);
    const __m256 lr = _mm256_set1_ps(p.lr);
    const __m256 eps = _mm256_set1_ps(p.epsilon);
    std::size_t j = 0;
    for (; j + lanes <= n; j += lanes) {
        const __m256 vg = _mm256_loadu_ps(g + j);
        __m256 vm = _mm256_loadu_ps(m + j);
        __m256 vv = _mm256_loadu_ps(v + j);
        vm = _mm256_add_ps(_mm256_mul_ps(b1, vm),
                           _mm256_mul_ps(omb1, vg));
        // Matches the scalar (omb2 * g) * g association.
        vv = _mm256_add_ps(
            _mm256_mul_ps(b2, vv),
            _mm256_mul_ps(_mm256_mul_ps(omb2, vg), vg));
        const __m256 mhat = _mm256_div_ps(vm, corr1);
        const __m256 vhat = _mm256_div_ps(vv, corr2);
        const __m256 denom =
            _mm256_add_ps(_mm256_sqrt_ps(vhat), eps);
        const __m256 step =
            _mm256_div_ps(_mm256_mul_ps(lr, mhat), denom);
        _mm256_storeu_ps(m + j, vm);
        _mm256_storeu_ps(v + j, vv);
        _mm256_storeu_ps(
            w + j, _mm256_sub_ps(_mm256_loadu_ps(w + j), step));
    }
    for (; j < n; ++j) {
        m[j] = p.beta1 * m[j] + omb1s * g[j];
        v[j] = p.beta2 * v[j] + omb2s * g[j] * g[j];
        const Real mhat = m[j] / p.biasCorr1;
        const Real vhat = v[j] / p.biasCorr2;
        w[j] -= p.lr * mhat / (std::sqrt(vhat) + p.epsilon);
    }
}

void
softUpdateAvx2(Real tau, const Real *s, Real *d, std::size_t n)
{
    const Real omts = Real(1) - tau;
    const __m256 vt = _mm256_set1_ps(tau);
    const __m256 omt = _mm256_set1_ps(omts);
    std::size_t j = 0;
    for (; j + lanes <= n; j += lanes) {
        const __m256 vs = _mm256_loadu_ps(s + j);
        const __m256 vd = _mm256_loadu_ps(d + j);
        _mm256_storeu_ps(d + j,
                         _mm256_add_ps(_mm256_mul_ps(vt, vs),
                                       _mm256_mul_ps(omt, vd)));
    }
    for (; j < n; ++j)
        d[j] = tau * s[j] + omts * d[j];
}

void
copyAvx2(const Real *s, Real *d, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 4 * lanes <= n; i += 4 * lanes) {
        const __m256 a = _mm256_loadu_ps(s + i);
        const __m256 b = _mm256_loadu_ps(s + i + lanes);
        const __m256 c = _mm256_loadu_ps(s + i + 2 * lanes);
        const __m256 e = _mm256_loadu_ps(s + i + 3 * lanes);
        _mm256_storeu_ps(d + i, a);
        _mm256_storeu_ps(d + i + lanes, b);
        _mm256_storeu_ps(d + i + 2 * lanes, c);
        _mm256_storeu_ps(d + i + 3 * lanes, e);
    }
    if (i < n)
        std::memcpy(d + i, s + i, (n - i) * sizeof(Real));
}

// ---- GEMM panel -------------------------------------------------
//
// A tile of MR rows x NV vectors of C lives in registers for the
// whole k range: per t it loads NV vectors of one B row, broadcasts
// MR coefficients, and runs one mul then one add per accumulator,
// in ascending t — each lane's chain is exactly the scalar twin's.
// C is stored once at the end instead of loaded and stored per t.
//
// The zero skip is a compare and a mask instead of a branch: a dead
// coefficient (== 0) turns its products into +0, and adding +0 to an
// accumulator that started at +0 (so is never -0) leaves every bit
// as it was, NaN payloads included. NaN coefficients compare
// unordered and so stay live, as in the scalar `coef == 0` test.

/** Rows per full tile; 6 x 2 vectors keeps 12 accumulators live. */
constexpr std::size_t panelRows = 6;

/**
 * Vectors per tile for an MR-row tile: 8 to 12 accumulators hide
 * the add latency, and a short tile gets wider columns so one-row
 * products (action selection, serve batches) keep that many chains.
 */
template <int MR>
constexpr int
panelVectors()
{
    return MR == 1 ? 8 : MR <= 3 ? 4 : MR == 4 ? 3 : 2;
}

/** Lanes [0, w) set: the mask of a w-wide column tail, 0 < w < 8. */
__m256i
tailMask(std::size_t w)
{
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(w)),
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6,
                                                7));
}

/**
 * One MR x (8 * NV) tile of C over the full k range; with Tail, the
 * last vector covers only the lanes set in @p tail. The unroll
 * pragmas are load-bearing: fully unrolled before register
 * allocation, acc stays in registers instead of being stored to the
 * stack on every t.
 */
template <int MR, int NV, bool Skip, bool Tail>
void
panelTile(const Real *a, std::size_t a_row, std::size_t a_k,
          const Real *b, std::size_t ldb, std::size_t k, Real *c,
          std::size_t ldc, __m256i tail)
{
    __m256 acc[MR][NV];
#pragma GCC unroll 8
    for (int r = 0; r < MR; ++r)
#pragma GCC unroll 8
        for (int v = 0; v < NV; ++v)
            acc[r][v] = _mm256_setzero_ps();
    const __m256 zero = _mm256_setzero_ps();
    for (std::size_t t = 0; t < k; ++t) {
        const Real *brow = b + t * ldb;
        __m256 vb[NV];
#pragma GCC unroll 8
        for (int v = 0; v < NV; ++v) {
            vb[v] = (Tail && v == NV - 1)
                        ? _mm256_maskload_ps(brow + v * lanes, tail)
                        : _mm256_loadu_ps(brow + v * lanes);
        }
        const Real *acol = a + t * a_k;
#pragma GCC unroll 8
        for (int r = 0; r < MR; ++r) {
            const __m256 va = _mm256_broadcast_ss(acol + r * a_row);
            if constexpr (Skip) {
                const __m256 live = _mm256_cmp_ps(va, zero, _CMP_NEQ_UQ);
#pragma GCC unroll 8
                for (int v = 0; v < NV; ++v)
                    acc[r][v] = _mm256_add_ps(
                        acc[r][v],
                        _mm256_and_ps(live, _mm256_mul_ps(va, vb[v])));
            } else {
#pragma GCC unroll 8
                for (int v = 0; v < NV; ++v)
                    acc[r][v] = _mm256_add_ps(acc[r][v],
                                              _mm256_mul_ps(va, vb[v]));
            }
        }
    }
#pragma GCC unroll 8
    for (int r = 0; r < MR; ++r) {
        Real *crow = c + r * ldc;
#pragma GCC unroll 8
        for (int v = 0; v < NV; ++v) {
            if (Tail && v == NV - 1)
                _mm256_maskstore_ps(crow + v * lanes, tail, acc[r][v]);
            else
                _mm256_storeu_ps(crow + v * lanes, acc[r][v]);
        }
    }
}

/** The last 0 < w < 8 * NV columns of an MR-row strip. */
template <int MR, int NV, bool Skip>
void
panelTail(const Real *a, std::size_t a_row, std::size_t a_k,
          const Real *b, std::size_t ldb, std::size_t k, Real *c,
          std::size_t ldc, std::size_t w)
{
    if constexpr (NV > 1) {
        if (w <= (NV - 1) * lanes) {
            panelTail<MR, NV - 1, Skip>(a, a_row, a_k, b, ldb, k, c,
                                        ldc, w);
            return;
        }
    }
    if (w == NV * lanes) {
        panelTile<MR, NV, Skip, false>(a, a_row, a_k, b, ldb, k, c,
                                       ldc, _mm256_setzero_si256());
    } else {
        panelTile<MR, NV, Skip, true>(a, a_row, a_k, b, ldb, k, c, ldc,
                                      tailMask(w - (NV - 1) * lanes));
    }
}

/** All n columns of an MR-row strip, full tiles then the tail. */
template <int MR, bool Skip>
void
panelStrip(const Real *a, std::size_t a_row, std::size_t a_k,
           const Real *b, std::size_t ldb, std::size_t k, Real *c,
           std::size_t ldc, std::size_t n)
{
    constexpr int nv = panelVectors<MR>();
    constexpr std::size_t width = nv * lanes;
    std::size_t j = 0;
    for (; j + width <= n; j += width) {
        panelTile<MR, nv, Skip, false>(a, a_row, a_k, b + j, ldb, k,
                                       c + j, ldc,
                                       _mm256_setzero_si256());
    }
    if (j < n) {
        panelTail<MR, nv, Skip>(a, a_row, a_k, b + j, ldb, k, c + j,
                                ldc, n - j);
    }
}

template <bool Skip>
void
panel(const Real *a, std::size_t a_row, std::size_t a_k, const Real *b,
      std::size_t ldb, std::size_t k, Real *c, std::size_t ldc,
      std::size_t m, std::size_t n)
{
    std::size_t i = 0;
    for (; i + panelRows <= m; i += panelRows) {
        panelStrip<panelRows, Skip>(a + i * a_row, a_row, a_k, b, ldb,
                                    k, c + i * ldc, ldc, n);
    }
    const Real *ar = a + i * a_row;
    Real *cr = c + i * ldc;
    switch (m - i) {
    case 1:
        panelStrip<1, Skip>(ar, a_row, a_k, b, ldb, k, cr, ldc, n);
        break;
    case 2:
        panelStrip<2, Skip>(ar, a_row, a_k, b, ldb, k, cr, ldc, n);
        break;
    case 3:
        panelStrip<3, Skip>(ar, a_row, a_k, b, ldb, k, cr, ldc, n);
        break;
    case 4:
        panelStrip<4, Skip>(ar, a_row, a_k, b, ldb, k, cr, ldc, n);
        break;
    case 5:
        panelStrip<5, Skip>(ar, a_row, a_k, b, ldb, k, cr, ldc, n);
        break;
    default:
        break;
    }
}

void
gemmPanelAvx2(const Real *a, std::size_t a_row, std::size_t a_k,
              const Real *b, std::size_t ldb, std::size_t k, Real *c,
              std::size_t ldc, std::size_t m, std::size_t n,
              bool skip_zeros)
{
    if (skip_zeros)
        panel<true>(a, a_row, a_k, b, ldb, k, c, ldc, m, n);
    else
        panel<false>(a, a_row, a_k, b, ldb, k, c, ldc, m, n);
}

constexpr KernelTable avx2TableInstance = {
    Isa::Avx2,       axpyAvx2,       addAvx2,
    subAvx2,         scaleAvx2,      clampAvx2,
    reluForwardAvx2, reluBackwardAvx2, adamStepAvx2,
    softUpdateAvx2,  copyAvx2,       gemmPanelAvx2,
};

} // namespace

const KernelTable &
avx2Table()
{
    return avx2TableInstance;
}

} // namespace marlin::numeric::kernels
