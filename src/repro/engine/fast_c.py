"""C provider of the ``fast`` backend: stacked stages in a compiled C library.

The paper's GAP9 port wins by restructuring the per-particle likelihood
loop into one fused C pass (Sec. III-B/C of the paper), and this module
does the same on the host — transform -> EDT gather -> squared-distance
reduction fused in one pass over the particles, no ``(R, N, K)``
temporaries.  The ``fast`` backend is :class:`~repro.engine.batched.BatchedBackend`
handed a :class:`CProvider`; its :class:`~repro.engine.batched.ParticleStack`
runs every filter stage here.

Four calls per update
---------------------
An update is the four stages of the paper's Table I
(:class:`repro.soc.perf.MclStep`), one exported C entry point each:
``stage_motion``, ``stage_observation`` (one call per work item, since
the item's rows share a distance field), ``stage_resampling`` and
``stage_pose``.  Each takes the stack's 2-D base pointers, the row
stride N and an int64 array of the stack rows to process, and loops
those rows in C over ``static`` row kernels, so an update costs four
library calls however many rows it packs.  Between the calls numpy
evaluates the update's transcendentals, each in one call over the whole
block: cos and sin of the posterior yaw after the motion call, and
``exp`` of the likelihood exponent before the resampling call.
:class:`StackKernels` wraps a stack's ten arrays and its rows' bit
generators once.  The pointers stay valid because the stack writes its
arrays only in place; ``ParticleStack.ensure_capacity`` is the one place
that rebinds them, and it builds a new :class:`StackKernels`.  A replay
step's beam end points and a distance field's table are wrapped once
as well, and kept on the step and the field.

Particle lanes in the observation stage
---------------------------------------
Observation is the costliest stage per particle (Table I), and its C is
particle-major: a row is cut into blocks of :data:`LANES` (64)
particles, and for each beam in turn one loop over the block's lanes
transforms the end point, takes ``floor((w - origin) / resolution)``,
tests the grid bounds and gathers the squared distance, so the compiler
vectorizes across particles (table gathers included) rather than across
one particle's few dozen beams.  The chunk-of-8 beam tree runs on the
same layout: a chunk's first beam stores into one partial row of the
block and its next seven add to it, then the upper levels sum partial
rows with the lanes in parallel.  Every lane adds its own beams in the
tree's order, so each particle keeps the bits of the scalar loop.
There is one gather path: a quantized field crosses as its decoded
float64 table (``DistanceField.squared_table``), like a float field.

The draws
---------
Each row's motion noise (3N normals) and wheel offset (one uniform) are
drawn in C from the row's own numpy bit generator, by numpy's compiled
``random_normal`` and ``random_uniform`` from
``numpy/random/lib/libnpyrandom.a``: the code that ``Generator.normal``
and ``Generator.uniform`` run, called in the order of
:func:`repro.engine.kernels.sample_motion_noise` and
:func:`~repro.engine.kernels.draw_wheel_offset`, so each row's stream
advances exactly as under the reference backend.  The library includes
only numpy's ``numpy/random/bitgen.h`` and declares the two prototypes
itself, because numpy's ``distributions.h`` includes ``Python.h``.  The
C draws do not take the bit generator's lock, so a stack never shares
its generators with another thread.

Bitwise discipline:

* This module's C evaluates only IEEE-exact arithmetic: ``+ - * /``,
  ``floor``, ``fabs``/``fmod`` (the wrap), integer casts, compares and
  gathers.  It never evaluates a transcendental
  (``sin``/``cos``/``exp``) — numpy's SIMD implementations may differ
  from libm by one ulp, so the Python side evaluates them and passes
  arrays in.  numpy's compiled sampler does call libm (``exp`` and
  ``log1p`` in the ziggurat's rare branches), exactly as
  ``Generator.normal`` does.
* Every reduction follows the deterministic chunk-of-8 tree of
  :mod:`repro.engine.reductions` (``det_sum_inplace`` below is the
  scalar-loop statement of the same spec).
* The resampling wheel is the sequential scan of
  :func:`repro.engine.kernels.systematic_resample`: float64 cumulative
  sum, last entry clamped to 1.0, ``side="right"`` index resolution
  (the monotone two-pointer walk equals numpy's binary search because
  the clamped final entry exceeds every arrow position).
* Rows share no arithmetic and each draws from its own generator, so a
  row's bits never depend on which rows a call carries or in what
  order.
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
call over the source and numpy's ``libnpyrandom.a``, no ``Python.h``, no
generated wrapper, no setuptools — cached under ``$REPRO_FAST_CACHE``
(default ``~/.cache/repro-fastc``) by source, declarations, flags,
compiler, CPU, numpy version and the archive's SHA-256, and are called
through cffi's ABI mode (``ffi.dlopen`` over :data:`C_DECLARATIONS`).
Concurrent builds race benignly: each compiles in its own directory
inside the cache and publishes by atomic rename.  A missing dependency
(cffi; numpy's ``bitgen.h`` or ``libnpyrandom.a``; or a compiler when
the cache holds no library) raises :class:`MissingDependency`, on which
the backend registry (:mod:`repro.engine.backend`) falls back to the
``reference`` backend; any other failure is a broken build and surfaces
there as a ``ConfigurationError``.
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

from ..common.errors import ConfigurationError
from .reductions import DET_CHUNK

if TYPE_CHECKING:
    from .batched import ParticleStack
    from .replay import ReplayStep

#: Particles per block of the observation stage: each block runs beam
#: after beam across this many lanes.  A constant of the library's source
#: (its ``LANES``), not an option; the bits do not depend on it.
LANES = 64

C_SOURCE = f"#define LANES {LANES}\n" + r"""
#include <math.h>
#include <stdint.h>
#include <string.h>

#include "numpy/random/bitgen.h"

/* numpy's compiled samplers (numpy/random/lib/libnpyrandom.a), the
 * functions Generator.normal and Generator.uniform call per entry.
 * Declared here because their header, distributions.h, includes
 * Python.h. */
double random_normal(bitgen_t *bitgen_state, double loc, double scale);
double random_uniform(bitgen_t *bitgen_state, double lower, double range);

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

/* One beam end point's squared EDT distance for each of m particles
 * (one lane each): the pose transform, floor((w - origin) / resolution),
 * the inside test and the gather from the field's float64 table of
 * squared metres per cell, run across the lanes.  This is the one gather
 * path, for float and quantized fields alike (DistanceField.squared_table
 * decodes a quantized field's cells).  Out-of-grid end points read cell
 * 0 and take border_sq instead; numpy's take(mode="clip") gathers a
 * clipped cell for them too, overwritten with the border value either
 * way.  Pure elementwise IEEE operations, so the lanes vectorize with no
 * reassociation.  `add` adds into out instead of storing: the running
 * sum of a det-tree chunk.  Kept out of line because gcc 12 vectorizes
 * the gather here but not once this loop is inlined into the block
 * loop of beam_sums_row. */
static __attribute__((noinline)) void beam_lanes(
    const double *restrict x, const double *restrict y,
    const double *restrict cos_t, const double *restrict sin_t, int64_t m,
    double end_x, double end_y, const double *restrict table,
    int64_t rows, int64_t cols,
    double origin_x, double origin_y, double resolution, double border_sq,
    int add, double *restrict out)
{
    for (int64_t l = 0; l < m; ++l) {
        double wx = (cos_t[l] * end_x + x[l]) - sin_t[l] * end_y;
        double wy = (sin_t[l] * end_x + y[l]) + cos_t[l] * end_y;
        double fcol = floor((wx - origin_x) / resolution);
        double frow = floor((wy - origin_y) / resolution);
        int inside = (frow >= 0.0) & (frow < (double)rows)
                   & (fcol >= 0.0) & (fcol < (double)cols);
        /* The flat cell in double (exact below 2^53), converted only
         * once it is a valid index: the load is then unconditional. */
        double flat = inside ? frow * (double)cols + fcol : 0.0;
        double cell = table[(int64_t)flat];
        double sq = inside ? cell : border_sq;
        out[l] = add ? out[l] + sq : sq;
    }
}

/* Fused transform -> EDT gather -> det-tree beam reduction over one row
 * of n particles sharing k body-frame beam end points: the beam sums of
 * kernels.beam_squared_sums.  Particle-major: the row is cut into blocks
 * of LANES particles, and each block runs beam after beam across its
 * lanes.  The tree's first level is the gather loop itself (a chunk's
 * first beam stores, the next seven add, left to right), leaving one
 * partial row of LANES doubles per chunk in `partials`; the upper levels
 * then sum those rows chunk by chunk with the lanes in parallel.  Each
 * lane adds its own beams in det_sum_inplace's order, so every
 * particle's sum has the bits of the scalar tree over its beams alone. */
static void beam_sums_row(
    const double *restrict x, const double *restrict y,
    const double *restrict cos_t, const double *restrict sin_t, int64_t n,
    const double *restrict end_x, const double *restrict end_y, int64_t k,
    const double *restrict table, int64_t rows, int64_t cols,
    double origin_x, double origin_y, double resolution, double border_sq,
    double *restrict partials, double *restrict out)
{
    for (int64_t lo = 0; lo < n; lo += LANES) {
        int64_t m = n - lo < LANES ? n - lo : LANES;
        int64_t len = 0;
        for (int64_t first = 0; first < k; first += DET_CHUNK, ++len) {
            int64_t last = first + DET_CHUNK < k ? first + DET_CHUNK : k;
            double *restrict acc = partials + len * LANES;
            for (int64_t b = first; b < last; ++b)
                beam_lanes(x + lo, y + lo, cos_t + lo, sin_t + lo, m,
                           end_x[b], end_y[b], table, rows, cols,
                           origin_x, origin_y, resolution, border_sq,
                           b != first, acc);
        }
        while (len > 1) {
            int64_t parts = (len + DET_CHUNK - 1) / DET_CHUNK;
            for (int64_t j = 0; j < parts; ++j) {
                int64_t first = j * DET_CHUNK;
                int64_t last = first + DET_CHUNK < len ? first + DET_CHUNK : len;
                double *restrict acc = partials + j * LANES;
                const double *restrict chunk = partials + first * LANES;
                /* acc is chunk for j == 0, else a row already consumed. */
                if (j) for (int64_t l = 0; l < m; ++l) acc[l] = chunk[l];
                for (int64_t i = 1; i < last - first; ++i)
                    for (int64_t l = 0; l < m; ++l)
                        acc[l] += chunk[i * LANES + l];
            }
            len = parts;
        }
        for (int64_t l = 0; l < m; ++l)
            out[lo + l] = len ? partials[l] : 0.0;
    }
}

/* One row's likelihood exponent, in place over its beam sums: the tail
 * of kernels.beam_log_likelihoods (negate, divide by 2 sigma^2), then
 * kernels.likelihood_ratios up to its exp (times the replication, minus
 * the row max).  The max propagates a NaN, as np.max does.  It may
 * differ from np.max only in the sign of a zero maximum, which leaves
 * no trace: exp maps both zeros to 1. */
static void exponent_row(double *v, int64_t n, double two_sigma_sq,
                         double replication)
{
    double top = -INFINITY;
    int nan = 0;
    for (int64_t i = 0; i < n; ++i) {
        double e = (-v[i] / two_sigma_sq) * replication;
        v[i] = e;
        nan |= isnan(e);
        top = e > top ? e : top;
    }
    if (nan) top = NAN;
    for (int64_t i = 0; i < n; ++i) v[i] -= top;
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
 * bit-identical to the numpy expression.  fmod returns its first
 * argument exactly when that is smaller in magnitude than the divisor,
 * so the common case skips the call (NaN and inf still take it). */
static double det_wrap(double a)
{
    double mod = a + M_PI;
    if (!(fabs(mod) < 2.0 * M_PI)) mod = fmod(mod, 2.0 * M_PI);
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
 * reset_uniform_<S>: one row's weights after resampling: 1/n at storage
 * precision, and its widened shadow.
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
static void reset_uniform_##S(void *row, double *restrict shadow,          \
                              int64_t n, double inv_count)                 \
{                                                                           \
    T *restrict stored = row;                                               \
    T o = NARROW(inv_count);                                                \
    for (int64_t i = 0; i < n; ++i) {                                       \
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
 * Stage entry points: the four stages of Table I (soc.perf.MclStep),
 * one call each per update.
 *
 * Each takes the stack's 2-D base pointers (row-major, row stride n),
 * then the constants and scratch of the stack, then `rows`, the nrows
 * stack rows to process.  Per-call inputs and outputs are (nrows, n)
 * blocks (or nrows-long vectors) in the order of `rows`.  `bitgens`
 * holds one numpy bit generator per stack row.  Rows share no
 * arithmetic and each draws from its own generator, so every row gets
 * the bits of its row kernels run alone.
 * ------------------------------------------------------------------ */

/* Motion: each listed row draws its 3n odometry normals from its bit
 * generator (x, then y, then yaw, as kernels.sample_motion_noise
 * does), adds them to its pending body-frame increment (pending[3r],
 * [3r + 1], [3r + 2]), then composes, wraps and stores the poses
 * (`itemsize` bytes per stored entry: 4 for float, 2 for binary16)
 * and refreshes their shadows.  Returns -1, or the first listed row
 * that has no bit generator, before anything is drawn or written. */
int64_t stage_motion(
    void *xs, void *ys, void *ts, int64_t itemsize,
    double *x64, double *y64, double *t64,
    const double *cos64, const double *sin64, int64_t n,
    void *const *bitgens, double sigma_xy, double sigma_theta, double *noise,
    const int64_t *rows, int64_t nrows, const double *pending)
{
    for (int64_t r = 0; r < nrows; ++r)
        if (bitgens[rows[r]] == NULL) return rows[r];
    double *dx = noise, *dy = noise + n, *dt = noise + 2 * n;
    for (int64_t r = 0; r < nrows; ++r) {
        bitgen_t *bitgen = bitgens[rows[r]];
        const double *inc = pending + 3 * r;
        for (int64_t i = 0; i < n; ++i)
            dx[i] = inc[0] + random_normal(bitgen, 0.0, sigma_xy);
        for (int64_t i = 0; i < n; ++i)
            dy[i] = inc[1] + random_normal(bitgen, 0.0, sigma_xy);
        for (int64_t i = 0; i < n; ++i)
            dt[i] = inc[2] + random_normal(bitgen, 0.0, sigma_theta);
        int64_t at = rows[r] * n, off = at * itemsize;
        STORAGE_KERNEL(compose_store, itemsize)(
            cos64 + at, sin64 + at, dx, dy, dt, n,
            (char *)xs + off, (char *)ys + off, (char *)ts + off,
            x64 + at, y64 + at, t64 + at);
    }
    return -1;
}

/* Observation: each particle's det-tree sum of squared EDT distances
 * over the k beams of one work item (its rows share the field), turned
 * in place into its likelihood exponent (exponent_row); numpy takes
 * the exp.  `table` is the field's squared metres per cell, row-major;
 * `partials` is scratch of ceil(k / DET_CHUNK) * LANES doubles. */
void stage_observation(
    const double *x64, const double *y64,
    const double *cos64, const double *sin64, int64_t n,
    double two_sigma_sq, double replication, double *partials,
    const int64_t *rows, int64_t nrows,
    const double *end_x, const double *end_y, int64_t k,
    const double *table, int64_t grid_rows, int64_t grid_cols,
    double origin_x, double origin_y, double resolution, double border_sq,
    double *out)
{
    for (int64_t r = 0; r < nrows; ++r) {
        int64_t at = rows[r] * n;
        beam_sums_row(x64 + at, y64 + at, cos64 + at, sin64 + at, n,
                      end_x, end_y, k, table, grid_rows, grid_cols,
                      origin_x, origin_y, resolution, border_sq,
                      partials, out + r * n);
        exponent_row(out + r * n, n, two_sigma_sq, replication);
    }
}

/* Resampling, per listed row: the weight update given its likelihood
 * ratios; then, if its effective sample size is at most `threshold`,
 * the wheel at an offset drawn from its bit generator (as
 * kernels.draw_wheel_offset draws it), the gather of the three stored
 * rows (`itemsize` bytes per entry) and their five float64 shadows
 * (cos/sin of yaw included: a gather of exact values equals the trig
 * of the gathered yaw), and uniform weights.  Returns how many rows
 * resampled. */
int64_t stage_resampling(
    void *ws, void *xs, void *ys, void *ts, int64_t itemsize,
    double *w64, double *x64, double *y64, double *t64,
    double *cos64, double *sin64, int64_t n,
    void *const *bitgens, double threshold,
    double *scratch, int64_t *idx, void *bounce,
    const int64_t *rows, int64_t nrows, const double *like)
{
    double inv_count = 1.0 / (double)n;
    int64_t resampled = 0;
    for (int64_t r = 0; r < nrows; ++r) {
        int64_t at = rows[r] * n, off = at * itemsize;
        STORAGE_KERNEL(update_weights, itemsize)(
            (char *)ws + off, w64 + at, like + r * n, n, inv_count, scratch);
        if (!(ess_row(w64 + at, n, scratch) <= threshold)) continue;
        double u0 = random_uniform(bitgens[rows[r]], 0.0, inv_count);
        wheel_resample(w64 + at, n, u0, scratch, idx);
        void *stored[3] = {xs, ys, ts};
        for (int a = 0; a < 3; ++a)
            gather_stored((char *)stored[a] + off, itemsize, idx, n, bounce);
        double *shadows[5] = {x64, y64, t64, cos64, sin64};
        for (int a = 0; a < 5; ++a)
            gather_f64(shadows[a] + at, idx, n, scratch);
        STORAGE_KERNEL(reset_uniform, itemsize)(
            (char *)ws + off, w64 + at, n, inv_count);
        ++resampled;
    }
    return resampled;
}

/* Pose computation: each listed row's weighted-mean reductions, out is
 * (nrows, 5) (see estimate_row). */
void stage_pose(
    const double *x64, const double *y64,
    const double *sin64, const double *cos64, const double *w64, int64_t n,
    double *wn, double *scratch,
    const int64_t *rows, int64_t nrows, double *out)
{
    for (int64_t r = 0; r < nrows; ++r) {
        int64_t at = rows[r] * n;
        estimate_row(x64 + at, y64 + at, sin64 + at, cos64 + at, w64 + at,
                     n, wn, scratch, out + 5 * r);
    }
}
"""

C_DECLARATIONS = """
int64_t stage_motion(void *, void *, void *, int64_t, double *, double *,
    double *, const double *, const double *, int64_t, void *const *, double,
    double, double *, const int64_t *, int64_t, const double *);
void stage_observation(const double *, const double *, const double *,
    const double *, int64_t, double, double, double *, const int64_t *,
    int64_t, const double *, const double *, int64_t, const double *,
    int64_t, int64_t, double, double, double, double, double *);
int64_t stage_resampling(void *, void *, void *, void *, int64_t, double *,
    double *, double *, double *, double *, double *, int64_t, void *const *,
    double, double *, int64_t *, void *, const int64_t *, int64_t,
    const double *);
void stage_pose(const double *, const double *, const double *,
    const double *, const double *, int64_t, double *, double *,
    const int64_t *, int64_t, double *);
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
    """cffi, numpy's random header or archive, or the C compiler the
    library needs, is not installed.

    ``name`` is the missing dependency (a missing file by its path).
    This is the one failure on which the backend registry falls back to
    the ``reference`` backend.
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


def _bitgen_header() -> Path:
    """numpy's ``bitgen.h``, the one numpy header the library includes."""
    return Path(np.get_include()) / "numpy" / "random" / "bitgen.h"


def _npyrandom_archive() -> Path:
    """numpy's compiled samplers, the static archive the library links."""
    return Path(np.__file__).parent / "random" / "lib" / "libnpyrandom.a"


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_FAST_CACHE")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-fastc"


def library_path() -> Path:
    """The compiled kernel library, built into the cache on first use.

    Raises :class:`MissingDependency` when numpy's ``bitgen.h`` or
    ``libnpyrandom.a`` is missing, or when the cache has no library and
    no compiler is on ``PATH``; and ``RuntimeError`` (with the
    compiler's diagnostics) when compilation fails.  The library links
    numpy's compiled samplers, so the numpy version and the archive's
    SHA-256 are part of its cache key.  The build directory lives
    inside the cache, so publishing is a same-filesystem rename, and it
    is removed whatever happens.
    """
    header, archive = _bitgen_header(), _npyrandom_archive()
    for path in (header, archive):
        if not path.is_file():
            raise MissingDependency(
                f"numpy's {path.name} is not installed (no {path})", name=str(path)
            )
    compiler = _compiler_command()
    key = "\0".join(
        [
            C_SOURCE,
            C_DECLARATIONS,
            *COMPILE_ARGS,
            *compiler,
            _cpu_identity(),
            np.__version__,
            hashlib.sha256(archive.read_bytes()).hexdigest(),
        ]
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
        # bitgen.h lives under numpy/random/ of numpy's include directory.
        include = header.parents[2]
        command = [*compiler, *COMPILE_ARGS, "-shared", "-fPIC", f"-I{include}"]
        command += ["-o", str(built), str(source), str(archive), "-lm"]
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
    """The four stage calls over rows of one stack's arrays.

    Binds, once, cffi pointers to the stack's ten arrays (stored ``x, y,
    theta, weights``; float64 shadows ``x64, y64, theta64, w64``; trig
    shadows ``cos64, sin64``) and to its rows' bit generators
    (``bitgens``), its config's constants and its own scratch rows.
    ``rows`` arguments are C-contiguous int64 arrays of stack rows,
    which C indexes unchecked (``ParticleStack.step`` rejects rows
    outside the stack); per-call inputs and outputs are ``(len(rows),
    N)`` float64 blocks in that order.  The stored arrays are float32 or
    float16 (the stage kernels pick their storage type by the entry
    width).  Not thread-safe: the scratch rows are shared by every call,
    and the draws take no generator lock.
    """

    def __init__(self, ffi, lib, stack: ParticleStack) -> None:
        double = self._double = partial(ffi.from_buffer, ffi.typeof("double[]"))
        self._int64 = partial(ffi.from_buffer, ffi.typeof("int64_t[]"))
        config = stack.config
        n = stack.count
        x64, y64, theta64, w64, cos64, sin64 = (
            double(array)
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
        x, y, theta, weights = (
            ffi.from_buffer(array)
            for array in (stack.x, stack.y, stack.theta, stack.weights)
        )
        self._itemsize = itemsize = stack.x.itemsize
        bitgens = ffi.from_buffer("void *[]", stack.bitgens)
        scratch = double(np.empty(n))
        self._motion = partial(
            lib.stage_motion,
            x, y, theta, itemsize, x64, y64, theta64, cos64, sin64, n,
            bitgens, config.sigma_odom_xy, config.sigma_odom_theta,
            double(np.empty(3 * n)),
        )
        self._observation = partial(
            lib.stage_observation,
            x64, y64, cos64, sin64, n,
            2.0 * config.sigma_obs**2, float(config.beam_replication),
        )
        self._resampling = partial(
            lib.stage_resampling,
            weights, x, y, theta, itemsize,
            w64, x64, y64, theta64, cos64, sin64, n,
            bitgens, config.resample_ess_fraction * n,
            scratch, self._int64(np.empty(n, dtype=np.int64)),
            ffi.from_buffer(np.empty(n, dtype=stack.dtype)),
        )
        self._pose = partial(
            lib.stage_pose,
            x64, y64, sin64, cos64, w64, n, double(np.empty(n)), scratch,
        )
        self._partial_rows = 0

    def _partials(self, k: int):
        """Scratch for the observation stage's chunk partials over ``k``
        beams: one row of :data:`LANES` doubles per chunk of
        :data:`~repro.engine.reductions.DET_CHUNK` beams, re-wrapped only
        when it grows."""
        rows = -(-k // DET_CHUNK)
        if rows > self._partial_rows:
            self._partial_rows = rows
            self._partial_scratch = self._double(np.empty(rows * LANES))
        return self._partial_scratch

    def motion(self, rows: np.ndarray, pending: np.ndarray) -> None:
        """Draw, compose, wrap and store each row's motion update, with
        ``pending`` each row's body-frame increment (x, y, yaw), row
        after row.

        Raises :class:`ConfigurationError` before anything is drawn or
        written when a row has no generator.
        """
        missing = self._motion(self._int64(rows), rows.size, self._double(pending))
        if missing >= 0:
            raise ConfigurationError(f"stack row {missing} was never initialized")

    def observation(
        self, rows: np.ndarray, step: ReplayStep, field, out: np.ndarray
    ) -> None:
        """Each row's likelihood exponents against ``step``'s beams and
        ``field``, into ``out`` (``(len(rows), N)``, C-contiguous): the
        beam sums of :func:`repro.engine.kernels.beam_squared_sums`,
        fused per particle, then :func:`~repro.engine.kernels.likelihood_ratios`
        up to its ``exp``."""
        ends = step.c_ends
        if ends is None:
            ends = step.c_ends = self._wrap_ends(step)
        tables = field.c_tables
        if tables is None:
            tables = field.c_tables = self._wrap_tables(field)
        self._observation(
            self._partials(ends[2]),
            self._int64(rows), rows.size, *ends, *tables, self._double(out),
        )

    def resampling(self, rows: np.ndarray, like: np.ndarray) -> int:
        """Each row's weight update given its likelihood ratios ``like``
        (``(len(rows), N)``); where the effective sample size is at most
        the config's fraction of N, the wheel, the gathers and uniform
        weights.  Returns how many rows resampled."""
        return self._resampling(self._int64(rows), rows.size, self._double(like))

    def pose(self, rows: np.ndarray) -> np.ndarray:
        """``(len(rows), 5)``: each row's normalized weight total, mean x,
        mean y and weighted sin and cos sums of yaw.

        A row whose weight total is not positive and finite gets a NaN
        total (its other entries are unset); the caller falls back to
        the scalar kernel for it.
        """
        out = np.empty((rows.size, 5))
        self._pose(self._int64(rows), rows.size, self._double(out))
        return out

    def _wrap_ends(self, step: ReplayStep) -> tuple:
        """A replay step's beam end points as the observation call takes them."""
        end_x, end_y = (
            np.ascontiguousarray(ends, dtype=np.float64)
            for ends in (step.end_x, step.end_y)
        )
        return self._double(end_x), self._double(end_y), end_x.size

    def _wrap_tables(self, field) -> tuple:
        """A distance field's squared metres per cell
        (``DistanceField.squared_table``, decoded for every storage kind)
        and its geometry, as the observation call takes them."""
        height, width = field.data.shape
        return (
            self._double(field.squared_table()), height, width,
            field.origin_x, field.origin_y, field.resolution, field.border_squared(),
        )
