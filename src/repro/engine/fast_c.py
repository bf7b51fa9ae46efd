"""C provider of the ``fast`` backend: fused kernels in a compiled C library.

The paper's GAP9 port wins by restructuring the per-particle likelihood
loop into one fused C pass (Sec. III-B/C of the paper), and this module
does the same on the host — transform -> EDT gather -> squared-distance
reduction fused per particle, no ``(R, N, K)`` temporaries.  The
``fast`` backend is :class:`~repro.engine.batched.BatchedBackend`
handed a :class:`CProvider`; its :class:`~repro.engine.batched.ParticleStack`
decides which stages dispatch here.

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

The kernels build into a plain shared library — one ``cc -shared -fPIC``
call, no ``Python.h``, no generated wrapper, no setuptools — cached under
``$REPRO_FAST_CACHE`` (default ``~/.cache/repro-fastc``) by source,
declarations, flags and compiler, and are called through cffi's ABI mode
(``ffi.dlopen`` over :data:`C_DECLARATIONS`).  Concurrent builds race
benignly: each compiles in its own directory inside the cache and
publishes by atomic rename.  A missing dependency (cffi, or a compiler
when the cache holds no library) raises :class:`MissingDependency`, on
which the backend registry (:mod:`repro.engine.backend`) falls back to
the numpy stages; any other failure is a broken build and surfaces there
as a ``ConfigurationError``.
"""

from __future__ import annotations

import hashlib
import os
import shlex
import shutil
import subprocess
import sysconfig
import tempfile
from pathlib import Path

import numpy as np

C_SOURCE = r"""
#include <math.h>
#include <stdint.h>

#define DET_CHUNK 8

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

/* Fused transform -> EDT gather -> det-tree beam reduction over a flat
 * batch of m particles sharing k body-frame beam end points.  Mirrors
 * kernels.transform_endpoints + DistanceField.lookup_squared_world +
 * det_sum exactly.  The beam loop is split into phases: the transform
 * and index arithmetic are pure elementwise IEEE operations (safe to
 * vectorize — no reassociation), the table gather stays scalar, and
 * only the final tree is order-sensitive.  Out-of-grid beams encode as
 * index -1; numpy's take(mode="clip") gathers a clipped value for them
 * too, but it is overwritten with the border value either way, so
 * skipping the dead gather is value-identical. */
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

void fused_loglik_f64(
    const double *restrict x, const double *restrict y,
    const double *restrict cos_t, const double *restrict sin_t,
    const double *restrict end_x, const double *restrict end_y,
    const double *restrict sq_table, int64_t rows, int64_t cols,
    double origin_x, double origin_y, double resolution,
    double border_sq,
    int64_t m, int64_t k,
    int64_t *restrict idx_scratch, double *restrict beam_scratch,
    double *restrict out)
{
    for (int64_t i = 0; i < m; ++i) {
        beam_indices(x[i], y[i], cos_t[i], sin_t[i], end_x, end_y,
                     rows, cols, origin_x, origin_y, resolution,
                     k, idx_scratch);
        for (int64_t b = 0; b < k; ++b) {
            int64_t f = idx_scratch[b];
            beam_scratch[b] = f >= 0 ? sq_table[f] : border_sq;
        }
        out[i] = det_sum_inplace(beam_scratch, k);
    }
}

/* Quantized-field variant: gather uint8 codes, decode squared metres
 * through the 256-entry float64 LUT (DistanceField.squared_lut). */
void fused_loglik_u8(
    const double *restrict x, const double *restrict y,
    const double *restrict cos_t, const double *restrict sin_t,
    const double *restrict end_x, const double *restrict end_y,
    const uint8_t *restrict codes, const double *restrict sq_lut,
    int64_t rows, int64_t cols,
    double origin_x, double origin_y, double resolution,
    double border_sq,
    int64_t m, int64_t k,
    int64_t *restrict idx_scratch, double *restrict beam_scratch,
    double *restrict out)
{
    for (int64_t i = 0; i < m; ++i) {
        beam_indices(x[i], y[i], cos_t[i], sin_t[i], end_x, end_y,
                     rows, cols, origin_x, origin_y, resolution,
                     k, idx_scratch);
        for (int64_t b = 0; b < k; ++b) {
            int64_t f = idx_scratch[b];
            beam_scratch[b] = f >= 0 ? sq_lut[codes[f]] : border_sq;
        }
        out[i] = det_sum_inplace(beam_scratch, k);
    }
}

/* Weighted-mean estimate reductions of one row (kernels.weighted_mean
 * pose semantics, stacked form): normalize by the caller-supplied total
 * (the det-tree sum of w), then det-dot against x, y and the
 * numpy-computed sin/cos of yaw.  out = {wn_total, mean_x, mean_y,
 * sin_sum, cos_sum}.  The caller handles degenerate totals and the
 * atan2 (Python math.atan2, identical to the scalar kernel). */
void estimate_row(
    const double *x, const double *y,
    const double *sin_t, const double *cos_t,
    const double *w, double total, int64_t n,
    double *wn, double *scratch, double *out)
{
    for (int64_t i = 0; i < n; ++i) wn[i] = w[i] / total;
    for (int64_t i = 0; i < n; ++i) scratch[i] = wn[i];
    out[0] = det_sum_inplace(scratch, n);
    out[1] = det_dot_scratch(wn, x, n, scratch);
    out[2] = det_dot_scratch(wn, y, n, scratch);
    out[3] = det_dot_scratch(wn, sin_t, n, scratch);
    out[4] = det_dot_scratch(wn, cos_t, n, scratch);
}

/* Systematic wheel: sequential float64 cumulative sum with the final
 * entry clamped to 1.0, arrows at u0 + i/n resolved side="right" by a
 * monotone scan.  Identical indices to kernels.systematic_resample
 * (normalized=True). */
void wheel_resample(
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

/* Per-row deterministic tree sums of an (r, n) row-major block. */
void det_sum_rows(const double *a, int64_t r, int64_t n,
                  double *scratch, double *out)
{
    for (int64_t row = 0; row < r; ++row) {
        const double *ar = a + row * n;
        for (int64_t i = 0; i < n; ++i) scratch[i] = ar[i];
        out[row] = det_sum_inplace(scratch, n);
    }
}

/* kernels.effective_sample_size, row by row: det-tree total, normalize,
 * det-tree sum of squares, guarded reciprocal.  The guards replicate
 * the numpy where() chain exactly: non-positive (or NaN) totals yield
 * 0.0; a valid row's square sum is >= 1/n > 0 so its guard never
 * fires, but it is kept for bit-faithfulness. */
void ess_rows(const double *w, int64_t r, int64_t n,
              double *scratch, double *out)
{
    for (int64_t row = 0; row < r; ++row) {
        const double *wr = w + row * n;
        for (int64_t i = 0; i < n; ++i) scratch[i] = wr[i];
        double total = det_sum_inplace(scratch, n);
        if (!(total > 0.0)) {
            out[row] = 0.0;
            continue;
        }
        for (int64_t i = 0; i < n; ++i) {
            double wn = wr[i] / total;
            scratch[i] = wn * wn;
        }
        double sq = det_sum_inplace(scratch, n);
        out[row] = 1.0 / (sq > 0.0 ? sq : 1.0);
    }
}

/* One row's posterior weight update at float32 storage, fused:
 * prior * likelihood (the numpy side supplies like = exp(...)), cast to
 * storage precision, then kernels.normalize_weights on that row —
 * float64 scratch, non-finite entries zeroed, det-tree total, divide or
 * reset-to-uniform, cast back — plus the float64 shadow refresh.
 * ``prior`` may alias ``shadow`` (the caller passes the same w64 row):
 * each index is read before it is written. */
void update_weights_f32(const double *prior, const double *like, int64_t n,
                        double inv_count, double *scratch,
                        float *stored, double *shadow)
{
    for (int64_t i = 0; i < n; ++i) {
        double u = prior[i] * like[i];
        float sf = (float)u;
        double s = (double)sf;
        if (!isfinite(s)) s = 0.0;
        shadow[i] = s;
        scratch[i] = s;
    }
    double total = det_sum_inplace(scratch, n);
    if (total > 0.0) {
        for (int64_t i = 0; i < n; ++i) {
            float o = (float)(shadow[i] / total);
            stored[i] = o;
            shadow[i] = (double)o;
        }
    } else {
        float o = (float)inv_count;
        double od = (double)o;
        for (int64_t i = 0; i < n; ++i) {
            stored[i] = o;
            shadow[i] = od;
        }
    }
}

/* One row's motion update at float32 storage, fused: compose the noisy
 * body-frame increment (kernels.compose_increment op order; cos/sin of
 * the prior yaw come from numpy), wrap yaw, then the _store step —
 * wrap again, cast to storage precision — and the shadow refresh.  The
 * shadow rows double as the pose inputs; index i is read before it is
 * written. */
void compose_store_f32(const double *cos_t, const double *sin_t,
                       const double *dx, const double *dy, const double *dt,
                       int64_t n,
                       float *xs, float *ys, float *ts,
                       double *x64, double *y64, double *t64)
{
    for (int64_t i = 0; i < n; ++i) {
        double nx = (x64[i] + cos_t[i] * dx[i]) - sin_t[i] * dy[i];
        double ny = (y64[i] + sin_t[i] * dx[i]) + cos_t[i] * dy[i];
        double nt = det_wrap(det_wrap(t64[i] + dt[i]));
        float fx = (float)nx;
        float fy = (float)ny;
        float ft = (float)nt;
        xs[i] = fx;
        ys[i] = fy;
        ts[i] = ft;
        x64[i] = (double)fx;
        y64[i] = (double)fy;
        t64[i] = (double)ft;
    }
}

/* One row's wheel resample at float32 storage, fused: wheel indices,
 * then gather the three stored rows, their three float64 shadows and
 * the two trig shadows (cos/sin of yaw: a gather of exact values equals
 * the trig of the gathered yaw) through bounce buffers (idx[i] can
 * exceed i, so in-place forward copies would corrupt).  The caller
 * resets the weight row to uniform afterward, exactly like the numpy
 * path. */
void resample_f32(const double *w, int64_t n, double u0,
                  double *cumulative, int64_t *idx,
                  float *xs, float *ys, float *ts,
                  double *x64, double *y64, double *t64,
                  double *c64, double *s64,
                  float *fscratch, double *dscratch)
{
    wheel_resample(w, n, u0, cumulative, idx);
    float *stored[3] = {xs, ys, ts};
    for (int a = 0; a < 3; ++a) {
        float *arr = stored[a];
        for (int64_t i = 0; i < n; ++i) fscratch[i] = arr[idx[i]];
        for (int64_t i = 0; i < n; ++i) arr[i] = fscratch[i];
    }
    double *shadows[5] = {x64, y64, t64, c64, s64};
    for (int a = 0; a < 5; ++a) {
        double *arr = shadows[a];
        for (int64_t i = 0; i < n; ++i) dscratch[i] = arr[idx[i]];
        for (int64_t i = 0; i < n; ++i) arr[i] = dscratch[i];
    }
}
"""

C_DECLARATIONS = """
void fused_loglik_f64(const double *, const double *, const double *,
    const double *, const double *, const double *, const double *,
    int64_t, int64_t, double, double, double, double, int64_t, int64_t,
    int64_t *, double *, double *);
void fused_loglik_u8(const double *, const double *, const double *,
    const double *, const double *, const double *, const uint8_t *,
    const double *, int64_t, int64_t, double, double, double, double,
    int64_t, int64_t, int64_t *, double *, double *);
void estimate_row(const double *, const double *, const double *,
    const double *, const double *, double, int64_t, double *, double *,
    double *);
void wheel_resample(const double *, int64_t, double, double *, int64_t *);
void det_sum_rows(const double *, int64_t, int64_t, double *, double *);
void ess_rows(const double *, int64_t, int64_t, double *, double *);
void update_weights_f32(const double *, const double *, int64_t, double,
    double *, float *, double *);
void compose_store_f32(const double *, const double *, const double *,
    const double *, const double *, int64_t, float *, float *, float *,
    double *, double *, double *);
void resample_f32(const double *, int64_t, double, double *, int64_t *,
    float *, float *, float *, double *, double *, double *, double *,
    double *, float *, double *);
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
    which the backend registry falls back to the numpy stages.
    """


def _compiler_command() -> list[str]:
    """The C compiler: ``CC``, else the compiler Python was built with, else ``cc``."""
    command = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    return shlex.split(command) or ["cc"]


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
    key = "\0".join([C_SOURCE, C_DECLARATIONS, *COMPILE_ARGS, *compiler])
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
    """Fused-kernel provider backed by the compiled kernel library.

    Scratch buffers are cached per length and reused across calls: the
    provider is driven by one single-threaded stack loop at a time.
    """

    name = "c"

    def __init__(self) -> None:
        self._ffi, self._lib = load_library()
        self._scratch: dict[tuple[str, int], np.ndarray] = {}

    def _buffer(self, slot: str, size: int, dtype=np.float64) -> np.ndarray:
        buffer = self._scratch.get((slot, size))
        if buffer is None:
            buffer = np.empty(max(size, 1), dtype=dtype)
            self._scratch[(slot, size)] = buffer
        return buffer

    # ``ffi.from_buffer`` is ~6x cheaper per call than casting
    # ``array.ctypes.data`` (no ctypes interface object), and the
    # returned cdata owns a reference to the source buffer, so
    # conversion copies stay alive for the duration of the call.
    def _dp(self, array: np.ndarray):
        return self._ffi.from_buffer("double[]", array)

    def _fp(self, array: np.ndarray):
        return self._ffi.from_buffer("float[]", array)

    def _ip(self, array: np.ndarray):
        return self._ffi.from_buffer("int64_t[]", array)

    def beam_squared_sums(
        self,
        x: np.ndarray,
        y: np.ndarray,
        cos_t: np.ndarray,
        sin_t: np.ndarray,
        end_x: np.ndarray,
        end_y: np.ndarray,
        field,
    ) -> np.ndarray:
        """:func:`repro.engine.kernels.beam_squared_sums`, fused per particle."""
        from ..maps.distance_field import FieldKind

        m = x.size
        k = end_x.size
        out = np.empty(x.shape, dtype=np.float64)
        rows, cols = field.data.shape
        end_x = np.ascontiguousarray(end_x, dtype=np.float64)
        end_y = np.ascontiguousarray(end_y, dtype=np.float64)
        args = (
            self._dp(x),
            self._dp(y),
            self._dp(cos_t),
            self._dp(sin_t),
            self._dp(end_x),
            self._dp(end_y),
        )
        tail = (
            rows,
            cols,
            field.origin_x,
            field.origin_y,
            field.resolution,
            field.border_squared(),
            m,
            k,
            self._ip(self._buffer("beam_index", k, np.int64)),
            self._dp(self._buffer("beam", k)),
            self._dp(out),
        )
        if field.kind is FieldKind.QUANTIZED_U8:
            self._lib.fused_loglik_u8(
                *args,
                self._ffi.from_buffer("uint8_t[]", field.data),
                self._dp(field.squared_lut()),
                *tail,
            )
        else:
            self._lib.fused_loglik_f64(
                *args, self._dp(field.squared_table()), *tail
            )
        return out

    def estimate_row(
        self,
        x: np.ndarray,
        y: np.ndarray,
        sin_t: np.ndarray,
        cos_t: np.ndarray,
        w: np.ndarray,
        total: float,
    ) -> tuple[float, float, float, float, float]:
        """One row's ``(normalized total, mean_x, mean_y, sin_sum, cos_sum)``."""
        out = np.empty(5, dtype=np.float64)
        self._lib.estimate_row(
            self._dp(x),
            self._dp(y),
            self._dp(sin_t),
            self._dp(cos_t),
            self._dp(w),
            float(total),
            x.size,
            self._dp(self._buffer("a", x.size)),
            self._dp(self._buffer("b", x.size)),
            self._dp(out),
        )
        return float(out[0]), float(out[1]), float(out[2]), float(out[3]), float(out[4])

    def resample_indices(self, w: np.ndarray, u0: float) -> np.ndarray:
        idx = np.empty(w.size, dtype=np.int64)
        self._lib.wheel_resample(
            self._dp(w),
            w.size,
            float(u0),
            self._dp(self._buffer("a", w.size)),
            self._ip(idx),
        )
        return idx

    def det_sum_row(self, a: np.ndarray) -> float:
        out = np.empty(1, dtype=np.float64)
        self._lib.det_sum_rows(
            self._dp(a), 1, a.size, self._dp(self._buffer("a", a.size)), self._dp(out)
        )
        return float(out[0])

    def ess_rows(self, w: np.ndarray) -> np.ndarray:
        """Per-row ESS of a C-contiguous ``(R, N)`` float64 block."""
        r, n = w.shape
        out = np.empty(r, dtype=np.float64)
        self._lib.ess_rows(
            self._dp(w), r, n, self._dp(self._buffer("a", n)), self._dp(out)
        )
        return out

    def update_weights_row(
        self,
        w64: np.ndarray,
        like: np.ndarray,
        stored: np.ndarray,
        inv_count: float,
    ) -> None:
        """Fused posterior multiply + normalize of one float32 row.

        ``w64`` is both the prior input and the shadow output.
        """
        self._lib.update_weights_f32(
            self._dp(w64),
            self._dp(like),
            w64.size,
            float(inv_count),
            self._dp(self._buffer("a", w64.size)),
            self._fp(stored),
            self._dp(w64),
        )

    def compose_store_row(
        self,
        cos_t: np.ndarray,
        sin_t: np.ndarray,
        dx: np.ndarray,
        dy: np.ndarray,
        dt: np.ndarray,
        xs: np.ndarray,
        ys: np.ndarray,
        ts: np.ndarray,
        x64: np.ndarray,
        y64: np.ndarray,
        t64: np.ndarray,
    ) -> None:
        """Fused motion compose + wrap + store of one float32 row.

        The shadow rows are the pose inputs and are updated in place.
        """
        self._lib.compose_store_f32(
            self._dp(cos_t),
            self._dp(sin_t),
            self._dp(dx),
            self._dp(dy),
            self._dp(dt),
            xs.size,
            self._fp(xs),
            self._fp(ys),
            self._fp(ts),
            self._dp(x64),
            self._dp(y64),
            self._dp(t64),
        )

    def resample_row(
        self,
        w64: np.ndarray,
        u0: float,
        xs: np.ndarray,
        ys: np.ndarray,
        ts: np.ndarray,
        x64: np.ndarray,
        y64: np.ndarray,
        t64: np.ndarray,
        c64: np.ndarray,
        s64: np.ndarray,
    ) -> None:
        """Fused wheel + eight-array gather of one float32 row."""
        n = w64.size
        self._lib.resample_f32(
            self._dp(w64),
            n,
            float(u0),
            self._dp(self._buffer("a", n)),
            self._ip(self._buffer("index", n, np.int64)),
            self._fp(xs),
            self._fp(ys),
            self._fp(ts),
            self._dp(x64),
            self._dp(y64),
            self._dp(t64),
            self._dp(c64),
            self._dp(s64),
            self._fp(self._buffer("f32", n, np.float32)),
            self._dp(self._buffer("b", n)),
        )
