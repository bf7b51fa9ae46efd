"""C provider of the ``fast`` backend: stacked stages in a compiled C library.

The paper's GAP9 port wins by restructuring the per-particle likelihood
loop into one fused C pass (Sec. III-B/C of the paper), and this module
does the same on the host — transform -> EDT gather -> squared-distance
reduction fused per particle, no ``(R, N, K)`` temporaries.  The
``fast`` backend is :class:`~repro.engine.batched.BatchedBackend`
handed a :class:`CProvider`; its :class:`~repro.engine.batched.ParticleStack`
runs every filter stage here.

One call per stage
------------------
Each filter stage is one exported C entry point (``stage_*`` in
:data:`C_SOURCE`): it takes the stack's 2-D base pointers, the row
stride N and an int64 array of the stack rows to process, and loops
those rows in C over ``static`` row kernels.  A stack step therefore
costs one library call per stage (the beam pass: one per work item,
since its rows share a distance field), however many rows it packs.
:class:`StackKernels` wraps a stack's ten arrays once.  The pointers
stay valid because the stack writes its arrays only in place;
``ParticleStack.ensure_capacity`` is the one place that rebinds them,
and it builds a new :class:`StackKernels`.

Bitwise discipline:

* Only IEEE-exact arithmetic crosses the C boundary: ``+ - * /``,
  ``floor``, ``fmod``/``copysign`` (the wrap), integer casts, compares
  and gathers.  Transcendentals (``sin``/``cos``/``exp``) are **never**
  evaluated in C — numpy's SIMD implementations may differ from libm by
  one ulp, so the Python side precomputes them and passes arrays in.
* Every reduction follows the deterministic chunk-of-8 tree of
  :mod:`repro.engine.reductions` (``det_sum_inplace`` below is the
  scalar-loop statement of the same spec).
* The resampling wheel is the sequential scan of
  :func:`repro.engine.kernels.systematic_resample`: float64 cumulative
  sum, last entry clamped to 1.0, ``side="right"`` index resolution
  (the monotone two-pointer walk equals numpy's binary search because
  the clamped final entry exceeds every arrow position).
* Rows share no arithmetic, so a row's bits never depend on which rows
  a call carries or in what order.
* The motion and weight-update row kernels are written once and
  instantiated per storage type: ``float`` rows, and float16 rows held
  as ``uint16_t`` binary16 bit patterns.  Each store narrows a double
  straight to the storage type in one IEEE round to nearest even, like
  numpy's ``astype``; a double -> float -> half path would round twice.
  Widening back to double is exact.  The half conversions are two
  portable ``static inline`` functions on the bits, so the library
  needs no ``_Float16`` and one build serves every storage dtype on
  every C compiler.

The kernels build into a plain shared library — one ``cc -shared -fPIC``
call, no ``Python.h``, no generated wrapper, no setuptools — cached under
``$REPRO_FAST_CACHE`` (default ``~/.cache/repro-fastc``) by source,
declarations, flags, compiler and CPU, and are called through cffi's ABI
mode (``ffi.dlopen`` over :data:`C_DECLARATIONS`).  Concurrent builds
race benignly: each compiles in its own directory inside the cache and
publishes by atomic rename.  A missing dependency (cffi, or a compiler
when the cache holds no library) raises :class:`MissingDependency`, on
which the backend registry (:mod:`repro.engine.backend`) falls back to
the ``reference`` backend; any other failure is a broken build and
surfaces there as a ``ConfigurationError``.
"""

from __future__ import annotations

import functools
import hashlib
import os
import platform
import shlex
import shutil
import subprocess
import sysconfig
import tempfile
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .batched import ParticleStack

C_SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <string.h>

#define DET_CHUNK 8

/* ------------------------------------------------------------------
 * Row kernels: one particle row of n entries each.
 * ------------------------------------------------------------------ */

/* Deterministic chunk-of-8 tree sum (repro.engine.reductions spec),
 * destroying the input buffer: each level writes its partials into the
 * buffer prefix it has already consumed. */
static double det_sum_inplace(double *v, int64_t n)
{
    int64_t m = n;
    while (m > 1) {
        int64_t out = (m + DET_CHUNK - 1) / DET_CHUNK;
        for (int64_t j = 0; j < out; ++j) {
            int64_t lo = j * DET_CHUNK;
            int64_t hi = lo + DET_CHUNK < m ? lo + DET_CHUNK : m;
            double acc = v[lo];
            for (int64_t i = lo + 1; i < hi; ++i) acc += v[i];
            v[j] = acc;
        }
        m = out;
    }
    return m == 1 ? v[0] : 0.0;
}

/* det_dot: elementwise product into scratch, then the tree. */
static double det_dot_scratch(const double *w, const double *v, int64_t n,
                              double *scratch)
{
    for (int64_t i = 0; i < n; ++i) scratch[i] = w[i] * v[i];
    return det_sum_inplace(scratch, n);
}

/* The flat EDT cell of each of one particle's k beam end points, or -1
 * outside the grid.  Pure elementwise IEEE operations (safe to
 * vectorize — no reassociation). */
static void beam_indices(
    double xi, double yi, double ci, double si,
    const double *restrict end_x, const double *restrict end_y,
    int64_t rows, int64_t cols,
    double origin_x, double origin_y, double resolution,
    int64_t k, int64_t *restrict idx_scratch)
{
    for (int64_t b = 0; b < k; ++b) {
        double wx = (ci * end_x[b] + xi) - si * end_y[b];
        double wy = (si * end_x[b] + yi) + ci * end_y[b];
        double fcol = floor((wx - origin_x) / resolution);
        double frow = floor((wy - origin_y) / resolution);
        int inside = (frow >= 0.0) & (frow < (double)rows)
                   & (fcol >= 0.0) & (fcol < (double)cols);
        idx_scratch[b] = inside
            ? (int64_t)frow * cols + (int64_t)fcol
            : (int64_t)-1;
    }
}

/* Fused transform -> EDT gather -> det-tree beam reduction over one row
 * of n particles sharing k body-frame beam end points.  Mirrors
 * kernels.transform_endpoints + DistanceField.lookup_squared_world +
 * det_sum exactly: the transform and index arithmetic are elementwise,
 * the table gather stays scalar, and only the final tree is
 * order-sensitive.  `codes` is NULL for a float field, whose `table`
 * holds squared metres per cell; a quantized field passes its uint8
 * codes, and `table` is then the 256-entry decode LUT
 * (DistanceField.squared_lut).  Out-of-grid beams encode as index -1;
 * numpy's take(mode="clip") gathers a clipped value for them too, but
 * it is overwritten with the border value either way, so skipping the
 * dead gather is value-identical. */
static void beam_sums_row(
    const double *restrict x, const double *restrict y,
    const double *restrict cos_t, const double *restrict sin_t, int64_t n,
    const double *restrict end_x, const double *restrict end_y, int64_t k,
    const uint8_t *restrict codes, const double *restrict table,
    int64_t rows, int64_t cols,
    double origin_x, double origin_y, double resolution, double border_sq,
    int64_t *restrict idx_scratch, double *restrict beam_scratch,
    double *restrict out)
{
    for (int64_t i = 0; i < n; ++i) {
        beam_indices(x[i], y[i], cos_t[i], sin_t[i], end_x, end_y,
                     rows, cols, origin_x, origin_y, resolution,
                     k, idx_scratch);
        for (int64_t b = 0; b < k; ++b) {
            int64_t f = idx_scratch[b];
            beam_scratch[b] = f < 0 ? border_sq
                            : codes ? table[codes[f]] : table[f];
        }
        out[i] = det_sum_inplace(beam_scratch, k);
    }
}

/* Weighted-mean estimate reductions of one row (kernels.weighted_mean
 * pose semantics): the det-tree total of w, then — unless that total is
 * not positive and finite, which the caller handles with the scalar
 * kernel and is flagged by a NaN total — normalize by it and det-dot
 * against x, y and the numpy-computed sin/cos of yaw.  out =
 * {wn_total, mean_x, mean_y, sin_sum, cos_sum}; the caller does the
 * atan2 (Python math.atan2, identical to the scalar kernel). */
static void estimate_row(
    const double *x, const double *y,
    const double *sin_t, const double *cos_t,
    const double *w, int64_t n,
    double *wn, double *scratch, double *out)
{
    for (int64_t i = 0; i < n; ++i) scratch[i] = w[i];
    double total = det_sum_inplace(scratch, n);
    if (!(total > 0.0 && isfinite(total))) {
        out[0] = NAN;
        return;
    }
    for (int64_t i = 0; i < n; ++i) wn[i] = w[i] / total;
    for (int64_t i = 0; i < n; ++i) scratch[i] = wn[i];
    out[0] = det_sum_inplace(scratch, n);
    out[1] = det_dot_scratch(wn, x, n, scratch);
    out[2] = det_dot_scratch(wn, y, n, scratch);
    out[3] = det_dot_scratch(wn, sin_t, n, scratch);
    out[4] = det_dot_scratch(wn, cos_t, n, scratch);
}

/* kernels.effective_sample_size of one row: det-tree total, normalize,
 * det-tree sum of squares, guarded reciprocal.  The guards replicate
 * the numpy where() chain exactly: non-positive (or NaN) totals yield
 * 0.0; a valid row's square sum is >= 1/n > 0 so its guard never
 * fires, but it is kept for bit-faithfulness. */
static double ess_row(const double *w, int64_t n, double *scratch)
{
    for (int64_t i = 0; i < n; ++i) scratch[i] = w[i];
    double total = det_sum_inplace(scratch, n);
    if (!(total > 0.0)) return 0.0;
    for (int64_t i = 0; i < n; ++i) {
        double wn = w[i] / total;
        scratch[i] = wn * wn;
    }
    double sq = det_sum_inplace(scratch, n);
    return 1.0 / (sq > 0.0 ? sq : 1.0);
}

/* Systematic wheel: sequential float64 cumulative sum with the final
 * entry clamped to 1.0, arrows at u0 + i/n resolved side="right" by a
 * monotone scan.  Identical indices to kernels.systematic_resample
 * (normalized=True). */
static void wheel_resample(
    const double *w, int64_t n, double u0,
    double *cumulative, int64_t *idx)
{
    double acc = 0.0;
    for (int64_t i = 0; i < n; ++i) {
        acc += w[i];
        cumulative[i] = acc;
    }
    cumulative[n - 1] = 1.0;
    int64_t j = 0;
    for (int64_t i = 0; i < n; ++i) {
        double pos = u0 + (double)i / (double)n;
        while (cumulative[j] <= pos && j < n - 1) ++j;
        idx[i] = j;
    }
}

/* Gathers through a bounce buffer: idx[i] can exceed i, so an in-place
 * forward copy would corrupt.  A gather copies bits, so the stored rows
 * need only their element width — one routine serves float32 and
 * float16 storage — and a gather of exact shadows stays exact. */
static void gather_f64(double *row, const int64_t *idx, int64_t n,
                       double *bounce)
{
    for (int64_t i = 0; i < n; ++i) bounce[i] = row[idx[i]];
    for (int64_t i = 0; i < n; ++i) row[i] = bounce[i];
}

static void gather_stored(void *row, int64_t itemsize, const int64_t *idx,
                          int64_t n, void *bounce)
{
    if (itemsize == 4) {
        uint32_t *a = row, *s = bounce;
        for (int64_t i = 0; i < n; ++i) s[i] = a[idx[i]];
        for (int64_t i = 0; i < n; ++i) a[i] = s[i];
    } else {
        uint16_t *a = row, *s = bounce;
        for (int64_t i = 0; i < n; ++i) s[i] = a[idx[i]];
        for (int64_t i = 0; i < n; ++i) a[i] = s[i];
    }
}

/* wrap_angle: ((a + pi) % 2pi) - pi with numpy remainder semantics
 * (fmod, then sign adjustment toward the positive divisor; exact-zero
 * remainders take the divisor's sign).  fmod is IEEE-exact, so this is
 * bit-identical to the numpy expression. */
static double det_wrap(double a)
{
    double mod = fmod(a + M_PI, 2.0 * M_PI);
    if (mod != 0.0) {
        if (mod < 0.0) mod += 2.0 * M_PI;
    } else {
        mod = 0.0;  /* copysign(0, +2pi) */
    }
    return mod - M_PI;
}

/* ------------------------------------------------------------------
 * Storage conversions.  A float16 row is stored as uint16_t binary16
 * bit patterns, converted by portable C on the bits (no _Float16, so
 * every C compiler builds the same library).  half_from_double rounds a
 * double to the nearest half, ties to even, in one step, as numpy's
 * astype does: overflow gives a signed inf and a NaN stays a NaN with
 * its top payload bits.  double_from_half widens exactly.  Both are
 * branch-free, so the loops that call them vectorize.
 * ------------------------------------------------------------------ */

static inline uint64_t bits_of(double d)
{
    uint64_t bits;
    memcpy(&bits, &d, sizeof bits);
    return bits;
}

static inline double double_of(uint64_t bits)
{
    double d;
    memcpy(&d, &bits, sizeof d);
    return d;
}

static inline uint16_t half_from_double(double d)
{
    uint64_t bits = bits_of(d);
    uint64_t mag = bits & 0x7fffffffffffffffull;
    /* A normal half (|d| >= 2^-14) is the double's bits rebiased with 42
     * of them rounded off: the bias is one short of half a unit, plus
     * one when the kept part is odd.  A carry may reach 0x7c00, inf. */
    uint64_t rebiased = mag - ((uint64_t)1008 << 52);
    uint64_t normal =
        (rebiased + ((uint64_t)1 << 41) - 1 + ((rebiased >> 42) & 1)) >> 42;
    /* A subnormal half counts units of 2^-24.  Adding 2^52 rounds
     * |d| * 2^24 (exact) to an integer k, ties to even (the default
     * rounding mode, which numpy assumes too), and leaves k in the
     * sum's low bits. */
    uint64_t subnormal = bits_of(fabs(d) * 0x1p24 + 0x1p52) & 0x7ffu;
    uint64_t h = mag >= (uint64_t)1009 << 52 ? normal : subnormal;
    h = mag >= (uint64_t)1039 << 52 ? 0x7c00u : h;   /* |d| >= 2^16: inf */
    /* A NaN keeps its top payload bits, and stays a NaN. */
    uint64_t payload = (mag >> 42) & 0x3ffu;
    h = mag > 0x7ff0000000000000ull ? 0x7c00u | payload | (payload == 0) : h;
    return (uint16_t)((bits >> 48) & 0x8000u) | (uint16_t)h;
}

static inline double double_from_half(uint16_t h)
{
    uint64_t exp = (h >> 10) & 0x1fu, frac = h & 0x3ffu;
    uint64_t bits = exp == 0x1f ? 0x7ff0000000000000ull | frac << 42 /* inf, NaN */
                  : exp == 0 ? bits_of((double)frac * 0x1p-24)   /* exact */
                  : (exp + 1008) << 52 | frac << 42;
    return double_of(bits | (uint64_t)(h & 0x8000u) << 48);
}

static inline float float_from_double(double d) { return (float)d; }
static inline double double_from_float(float f) { return (double)f; }

/* ------------------------------------------------------------------
 * Storage-typed row kernels, defined once and instantiated below per
 * storage type T with its conversions: NARROW(double) -> T, a single
 * IEEE round-to-nearest-even like numpy's astype, and WIDEN(T) ->
 * double, exact.  `float` rows serve fp32 and fp32qm, binary16 rows
 * fp16qm.  The row kernels take the stored row as `void *` so the stage
 * entry points can pick an instantiation by the entry width
 * (STORAGE_KERNEL).
 *
 * update_weights_<S>: one row's posterior weight update, fused:
 * prior * likelihood (the numpy side supplies like = exp(...)), cast to
 * storage precision, then kernels.normalize_weights on that row —
 * float64 scratch, non-finite entries zeroed, det-tree total, divide or
 * reset-to-uniform, cast back — plus the float64 shadow refresh.  The
 * shadow is both the prior and the output: each index is read before it
 * is written.
 *
 * compose_store_<S>: one row's motion update: compose the noisy
 * body-frame increment (kernels.compose_increment op order; cos/sin of
 * the prior yaw come from numpy) and wrap yaw, then the store — wrap
 * again, cast to storage precision — and the shadow refresh.  The
 * shadow rows hold the pose inputs, then the composed poses, then their
 * stored values.  The store (store_row_<S>) is a loop of its own: the
 * wrap's fmod keeps the compose loop scalar, while the store loop
 * vectorizes.
 * ------------------------------------------------------------------ */
#define STORAGE_ROW_KERNELS(T, S, NARROW, WIDEN)                            \
static void store_row_##S(T *restrict stored, double *restrict shadow,     \
                          int64_t n)                                        \
{                                                                           \
    for (int64_t i = 0; i < n; ++i) {                                       \
        T o = NARROW(shadow[i]);                                            \
        stored[i] = o;                                                      \
        shadow[i] = WIDEN(o);                                               \
    }                                                                       \
}                                                                           \
                                                                            \
static void update_weights_##S(void *row, double *restrict shadow,         \
                               const double *restrict like, int64_t n,     \
                               double inv_count, double *restrict scratch) \
{                                                                           \
    T *restrict stored = row;                                               \
    for (int64_t i = 0; i < n; ++i) {                                       \
        double s = WIDEN(NARROW(shadow[i] * like[i]));                      \
        if (!isfinite(s)) s = 0.0;                                          \
        shadow[i] = s;                                                      \
        scratch[i] = s;                                                     \
    }                                                                       \
    double total = det_sum_inplace(scratch, n);                             \
    for (int64_t i = 0; i < n; ++i) {                                       \
        T o = NARROW(total > 0.0 ? shadow[i] / total : inv_count);          \
        stored[i] = o;                                                      \
        shadow[i] = WIDEN(o);                                               \
    }                                                                       \
}                                                                           \
                                                                            \
static void compose_store_##S(const double *cos_t, const double *sin_t,    \
                              const double *dx, const double *dy,          \
                              const double *dt, int64_t n,                 \
                              void *x_row, void *y_row, void *t_row,       \
                              double *x64, double *y64, double *t64)       \
{                                                                           \
    for (int64_t i = 0; i < n; ++i) {                                       \
        x64[i] = (x64[i] + cos_t[i] * dx[i]) - sin_t[i] * dy[i];            \
        y64[i] = (y64[i] + sin_t[i] * dx[i]) + cos_t[i] * dy[i];            \
        t64[i] = det_wrap(det_wrap(t64[i] + dt[i]));                        \
    }                                                                       \
    store_row_##S(x_row, x64, n);                                           \
    store_row_##S(y_row, y64, n);                                           \
    store_row_##S(t_row, t64, n);                                           \
}

STORAGE_ROW_KERNELS(float, f32, float_from_double, double_from_float)
STORAGE_ROW_KERNELS(uint16_t, f16, half_from_double, double_from_half)
#define STORAGE_KERNEL(kernel, itemsize) \
    ((itemsize) == 2 ? kernel##_f16 : kernel##_f32)

/* ------------------------------------------------------------------
 * Stage entry points: one call per stage per stack step.
 *
 * Each takes the stack's 2-D base pointers (row-major, row stride n)
 * and `rows`, the nrows stack rows to process.  Per-call inputs and
 * outputs are (nrows, n) blocks (or nrows-long vectors) in the order of
 * `rows`.  Rows share no arithmetic, so every row gets the bits of its
 * row kernel run alone.
 * ------------------------------------------------------------------ */

/* Motion: compose + wrap + store (`itemsize` bytes per stored entry:
 * 4 for float, 2 for binary16) + shadow refresh; dx/dy/dt are the
 * noisy increments drawn by numpy. */
void stage_compose_store(
    void *xs, void *ys, void *ts, int64_t itemsize,
    double *x64, double *y64, double *t64,
    const double *cos64, const double *sin64,
    const int64_t *rows, int64_t nrows, int64_t n,
    const double *dx, const double *dy, const double *dt)
{
    for (int64_t r = 0; r < nrows; ++r) {
        int64_t at = rows[r] * n, in = r * n, off = at * itemsize;
        STORAGE_KERNEL(compose_store, itemsize)(
            cos64 + at, sin64 + at, dx + in, dy + in, dt + in, n,
            (char *)xs + off, (char *)ys + off, (char *)ts + off,
            x64 + at, y64 + at, t64 + at);
    }
}

/* Observation: per-particle det-tree sums of squared EDT distances over
 * the k beams of one work item (its rows share the field). */
void stage_beam_sums(
    const double *x64, const double *y64,
    const double *cos64, const double *sin64,
    const int64_t *rows, int64_t nrows, int64_t n,
    const double *end_x, const double *end_y, int64_t k,
    const uint8_t *codes, const double *table,
    int64_t grid_rows, int64_t grid_cols,
    double origin_x, double origin_y, double resolution, double border_sq,
    int64_t *idx_scratch, double *beam_scratch, double *out)
{
    for (int64_t r = 0; r < nrows; ++r) {
        int64_t at = rows[r] * n;
        beam_sums_row(x64 + at, y64 + at, cos64 + at, sin64 + at, n,
                      end_x, end_y, k, codes, table, grid_rows, grid_cols,
                      origin_x, origin_y, resolution, border_sq,
                      idx_scratch, beam_scratch, out + r * n);
    }
}

/* Weight update at `itemsize` bytes per stored entry, given the
 * likelihood ratios. */
void stage_update_weights(
    void *ws, int64_t itemsize, double *w64,
    const int64_t *rows, int64_t nrows, int64_t n,
    const double *like, double inv_count, double *scratch)
{
    for (int64_t r = 0; r < nrows; ++r) {
        int64_t at = rows[r] * n;
        STORAGE_KERNEL(update_weights, itemsize)(
            (char *)ws + at * itemsize, w64 + at, like + r * n, n, inv_count,
            scratch);
    }
}

/* Effective sample size of each row's weights. */
void stage_ess(
    const double *w64,
    const int64_t *rows, int64_t nrows, int64_t n,
    double *scratch, double *out)
{
    for (int64_t r = 0; r < nrows; ++r)
        out[r] = ess_row(w64 + rows[r] * n, n, scratch);
}

/* Resampling: the wheel at offset u0[r], then the gather of the three
 * stored rows (`itemsize` bytes per entry) and their five float64
 * shadows (cos/sin of yaw included: a gather of exact values equals the
 * trig of the gathered yaw).  The caller resets the weights to uniform. */
void stage_resample(
    void *xs, void *ys, void *ts, int64_t itemsize,
    double *x64, double *y64, double *t64, double *cos64, double *sin64,
    const double *w64,
    const int64_t *rows, int64_t nrows, int64_t n,
    const double *u0, double *cumulative, int64_t *idx, void *bounce)
{
    for (int64_t r = 0; r < nrows; ++r) {
        int64_t at = rows[r] * n;
        wheel_resample(w64 + at, n, u0[r], cumulative, idx);
        void *stored[3] = {xs, ys, ts};
        for (int a = 0; a < 3; ++a)
            gather_stored((char *)stored[a] + at * itemsize, itemsize, idx,
                          n, bounce);
        double *shadows[5] = {x64, y64, t64, cos64, sin64};
        for (int a = 0; a < 5; ++a)
            gather_f64(shadows[a] + at, idx, n, cumulative);
    }
}

/* Pose estimate reductions: out is (nrows, 5), see estimate_row. */
void stage_estimate(
    const double *x64, const double *y64,
    const double *sin64, const double *cos64, const double *w64,
    const int64_t *rows, int64_t nrows, int64_t n,
    double *wn, double *scratch, double *out)
{
    for (int64_t r = 0; r < nrows; ++r) {
        int64_t at = rows[r] * n;
        estimate_row(x64 + at, y64 + at, sin64 + at, cos64 + at, w64 + at,
                     n, wn, scratch, out + 5 * r);
    }
}
"""

C_DECLARATIONS = """
void stage_compose_store(void *, void *, void *, int64_t, double *, double *,
    double *, const double *, const double *, const int64_t *, int64_t,
    int64_t, const double *, const double *, const double *);
void stage_beam_sums(const double *, const double *, const double *,
    const double *, const int64_t *, int64_t, int64_t, const double *,
    const double *, int64_t, const uint8_t *, const double *, int64_t,
    int64_t, double, double, double, double, int64_t *, double *, double *);
void stage_update_weights(void *, int64_t, double *, const int64_t *,
    int64_t, int64_t, const double *, double, double *);
void stage_ess(const double *, const int64_t *, int64_t, int64_t, double *,
    double *);
void stage_resample(void *, void *, void *, int64_t, double *, double *,
    double *, double *, double *, const double *, const int64_t *, int64_t,
    int64_t, const double *, double *, int64_t *, void *);
void stage_estimate(const double *, const double *, const double *,
    const double *, const double *, const int64_t *, int64_t, int64_t,
    double *, double *, double *);
"""

#: Keep the machine-specific flags IEEE-strict: no -ffast-math, ever —
#: it licenses reassociation, which breaks the bitwise contract.  GNU C
#: also defaults to ``-ffp-contract=fast``, which fuses ``a*b + c``
#: into FMA (one rounding instead of two) — numpy never contracts, so
#: contraction is a 1-ulp bitwise hazard in the pose transform and must
#: be off explicitly.  ``-fno-trapping-math`` is value-preserving (it
#: only stops gcc modelling FP exception *flags*, which nothing reads)
#: and is what lets the beam transform's floor/divide loop vectorize.
#: The two ``--param``s only make gcc collect its own garbage sooner,
#: which trims the compiler's peak RSS (gcc 12: about 46 to 39 MB); the
#: library is byte-identical without them.
COMPILE_ARGS = [
    "-O3",
    "-march=native",
    "-ffp-contract=off",
    "-fno-trapping-math",
    "--param",
    "ggc-min-expand=20",
    "--param",
    "ggc-min-heapsize=4096",
]


def _translation_unit() -> str:
    """What the compiler sees: the declarations cffi calls through, then
    the definitions.

    ABI mode has no compiled wrapper to check a call against its
    definition, so a declaration that drifts from its definition must
    fail here, as a conflicting prototype, rather than pass wrong
    arguments at run time.
    """
    return "#include <stdint.h>\n" + C_DECLARATIONS + C_SOURCE


class MissingDependency(ImportError):
    """cffi, or the C compiler the library needs, is not installed.

    ``name`` is the missing dependency.  This is the one failure on
    which the backend registry falls back to the ``reference`` backend.
    """


def _compiler_command() -> list[str]:
    """The C compiler: ``CC``, else the compiler Python was built with, else ``cc``."""
    command = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    return shlex.split(command) or ["cc"]


@functools.cache
def _cpu_identity() -> str:
    """The host CPU, as the library cache key names it.

    ``-march=native`` builds the library for the CPU that compiles it,
    so a cache shared by hosts with different CPUs (a network home
    directory, a cache baked into an image) must hold one library per
    CPU: a host that loaded another's could die with SIGILL.  On Linux
    this is the first ``model name`` and ``flags`` lines of
    ``/proc/cpuinfo``; elsewhere ``platform.machine()`` and
    ``platform.processor()``.  Read once per process, because pool
    workers resolve the provider on every campaign call.
    """
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as info:
            lines = info.read().splitlines()
    except OSError:
        lines = []
    first: dict[str, str] = {}
    for line in lines:
        first.setdefault(line.partition(":")[0].strip(), line)
    found = [first[name] for name in ("model name", "flags") if name in first]
    return "\n".join(found) or f"{platform.machine()} {platform.processor()}"


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_FAST_CACHE")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-fastc"


def library_path() -> Path:
    """The compiled kernel library, built into the cache on first use.

    Raises :class:`MissingDependency` when the cache has no library and
    no compiler is on ``PATH``, and ``RuntimeError`` (with the
    compiler's diagnostics) when compilation fails.  The build directory
    lives inside the cache, so publishing is a same-filesystem rename,
    and it is removed whatever happens.
    """
    compiler = _compiler_command()
    key = "\0".join(
        [C_SOURCE, C_DECLARATIONS, *COMPILE_ARGS, *compiler, _cpu_identity()]
    )
    cache = _cache_dir()
    target = cache / f"repro_fastc_{hashlib.sha256(key.encode()).hexdigest()[:16]}.so"
    if target.is_file():
        return target
    if shutil.which(compiler[0]) is None:
        raise MissingDependency(
            f"no C compiler ({' '.join(compiler)}) on PATH", name=compiler[0]
        )
    cache.mkdir(parents=True, exist_ok=True)
    build = Path(tempfile.mkdtemp(prefix=".build-", dir=cache))
    try:
        source = build / "kernels.c"
        source.write_text(_translation_unit())
        built = build / target.name
        command = [*compiler, *COMPILE_ARGS, "-shared", "-fPIC"]
        command += ["-o", str(built), str(source), "-lm"]
        result = subprocess.run(command, capture_output=True, text=True)
        if result.returncode != 0:
            raise RuntimeError(
                f"{' '.join(command)} exited {result.returncode}: "
                f"{result.stderr.strip()[-2000:]}"
            )
        os.replace(built, target)
    finally:
        shutil.rmtree(build, ignore_errors=True)
    return target


def load_library():
    """``(ffi, lib)`` over the kernel library, built on first use.

    Raises :class:`MissingDependency` without cffi, before anything is
    compiled.
    """
    try:
        import cffi
    except ImportError as exc:
        raise MissingDependency("cffi is not installed", name="cffi") from exc
    path = library_path()
    ffi = cffi.FFI()
    ffi.cdef(C_DECLARATIONS)
    return ffi, ffi.dlopen(str(path))


class CProvider:
    """The compiled kernel library, loaded once per backend.

    :meth:`bind` hands each stack its stage entry points.
    """

    name = "c"

    def __init__(self) -> None:
        self._ffi, self._lib = load_library()

    def bind(self, stack: ParticleStack) -> StackKernels:
        """The C stages over ``stack``'s current arrays."""
        return StackKernels(self._ffi, self._lib, stack)


class StackKernels:
    """One call per stage over rows of one stack's arrays.

    Holds cffi pointers to the stack's ten arrays (stored ``x, y, theta,
    weights``; float64 shadows ``x64, y64, theta64, w64``; trig shadows
    ``cos64, sin64``), wrapped once, and its own scratch rows.  ``rows``
    arguments are C-contiguous int64 arrays of stack rows, which C
    indexes unchecked (``ParticleStack.step`` rejects rows outside the
    stack); per-call inputs and outputs are ``(len(rows), N)`` float64
    blocks in that order.  The stored arrays are float32 or float16 (the
    stage kernels pick their storage type by the entry width).  Not
    thread-safe: the scratch rows are shared by every call.
    """

    def __init__(self, ffi, lib, stack: ParticleStack) -> None:
        self._ffi = ffi
        self._lib = lib
        self._double = partial(ffi.from_buffer, ffi.typeof("double[]"))
        self._int64 = partial(ffi.from_buffer, ffi.typeof("int64_t[]"))
        self.count = stack.count
        self._x64, self._y64, self._theta64, self._w64, self._cos64, self._sin64 = (
            self._double(array)
            for array in (
                stack.x64,
                stack.y64,
                stack.theta64,
                stack.w64,
                stack.cos64,
                stack.sin64,
            )
        )
        # The stored arrays cross as ``void *`` plus their itemsize.
        self._x, self._y, self._theta, self._weights = (
            ffi.from_buffer(array)
            for array in (stack.x, stack.y, stack.theta, stack.weights)
        )
        self._itemsize = stack.x.itemsize
        self._bounce = ffi.from_buffer(np.empty(stack.count, dtype=stack.dtype))
        self._scratch_size = 0
        self._scratch(stack.count)

    def _scratch(self, size: int):
        """Two float64 and one int64 scratch rows of at least ``size``
        entries, re-wrapped only when they grow."""
        if size > self._scratch_size:
            self._scratch_size = size
            self._scratch_rows = (
                self._double(np.empty(size)),
                self._double(np.empty(size)),
                self._int64(np.empty(size, dtype=np.int64)),
            )
        return self._scratch_rows

    def compose_store(
        self, rows: np.ndarray, dx: np.ndarray, dy: np.ndarray, dt: np.ndarray
    ) -> None:
        """Motion compose + wrap + store + shadow refresh."""
        self._lib.stage_compose_store(
            self._x, self._y, self._theta, self._itemsize,
            self._x64, self._y64, self._theta64, self._cos64, self._sin64,
            self._int64(rows), rows.size, self.count,
            self._double(dx), self._double(dy), self._double(dt),
        )

    def beam_squared_sums(
        self, rows: np.ndarray, end_x: np.ndarray, end_y: np.ndarray, field
    ) -> np.ndarray:
        """:func:`repro.engine.kernels.beam_squared_sums` of ``rows``,
        fused per particle: ``(len(rows), N)``."""
        from ..maps.distance_field import FieldKind

        out = np.empty((rows.size, self.count))
        k = end_x.size
        beams, _, cells = self._scratch(k)
        if field.kind is FieldKind.QUANTIZED_U8:
            codes = self._ffi.from_buffer("uint8_t[]", field.data)
            table = field.squared_lut()
        else:
            codes, table = self._ffi.NULL, field.squared_table()
        height, width = field.data.shape
        self._lib.stage_beam_sums(
            self._x64, self._y64, self._cos64, self._sin64,
            self._int64(rows), rows.size, self.count,
            self._double(np.ascontiguousarray(end_x, dtype=np.float64)),
            self._double(np.ascontiguousarray(end_y, dtype=np.float64)),
            k, codes, self._double(table), height, width,
            field.origin_x, field.origin_y, field.resolution,
            field.border_squared(), cells, beams, self._double(out),
        )
        return out

    def update_weights(self, rows: np.ndarray, like: np.ndarray) -> None:
        """Posterior multiply + store + normalize + shadow refresh."""
        scratch, _, _ = self._scratch(self.count)
        self._lib.stage_update_weights(
            self._weights, self._itemsize, self._w64,
            self._int64(rows), rows.size, self.count,
            self._double(like), 1.0 / self.count, scratch,
        )

    def ess(self, rows: np.ndarray) -> np.ndarray:
        """Effective sample size of each row, ``(len(rows),)``."""
        out = np.empty(rows.size)
        scratch, _, _ = self._scratch(self.count)
        self._lib.stage_ess(
            self._w64, self._int64(rows), rows.size, self.count,
            scratch, self._double(out),
        )
        return out

    def resample(self, rows: np.ndarray, u0: np.ndarray) -> None:
        """Wheel at offset ``u0[i]``, then the eight-array gather, of
        each row; the weights are left to the caller."""
        cumulative, _, index = self._scratch(self.count)
        self._lib.stage_resample(
            self._x, self._y, self._theta, self._itemsize,
            self._x64, self._y64, self._theta64, self._cos64, self._sin64,
            self._w64, self._int64(rows), rows.size, self.count,
            self._double(u0), cumulative, index, self._bounce,
        )

    def estimate(self, rows: np.ndarray) -> np.ndarray:
        """``(len(rows), 5)``: each row's normalized weight total, mean x,
        mean y and weighted sin and cos sums of yaw.

        A row whose weight total is not positive and finite gets a NaN
        total (its other entries are unset); the caller falls back to
        the scalar kernel for it.
        """
        out = np.empty((rows.size, 5))
        wn, scratch, _ = self._scratch(self.count)
        self._lib.stage_estimate(
            self._x64, self._y64, self._sin64, self._cos64, self._w64,
            self._int64(rows), rows.size, self.count,
            wn, scratch, self._double(out),
        )
        return out
