"""The C kernel library: how it is built, cached, checked and loaded.

The kernels compile into a plain shared library in ``REPRO_FAST_CACHE``
with one compiler call and load through cffi's ABI mode.  These tests pin
the cache discipline (one library, no build directory left behind, no
second compile, one library per CPU and per numpy), the signature guard
that ABI mode needs, and that a build never pulls setuptools into the
process.  They also pin the storage-typed motion and weight stages to
the reference math of :mod:`repro.engine.kernels`: at float32 and
float16 storage they leave its bits on inputs at every rounding boundary
of half, and a library built where the compiler has no ``_Float16``
gives the same bits.  And they pin the C draws to numpy's: each row's
stream advances exactly as under ``Generator.normal`` and
``Generator.uniform``, a row without a generator is refused, and a
restored row draws from its restored generator.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import itertools
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.common.errors import ConfigurationError
from repro.common.geometry import Pose2D, wrap_angle
from repro.core.config import MclConfig
from repro.dataset.recorder import RecordedSequence
from repro.engine import fast_c, kernels
from repro.engine.backend import RunSpec, StepWork
from repro.engine.batched import BatchedBackend, ParticleStack
from repro.engine.reference import ReferenceBackend
from repro.engine.replay import ReplayStep
from repro.maps.distance_field import DistanceField, FieldKind
from repro.maps.maze import generate_maze
from repro.maps.planning import plan_tour, snap_to_clearance
from repro.vehicle.crazyflie import CrazyflieSimulator, SimConfig

pytestmark = pytest.mark.usefixtures("fast_backend")  # skips without cffi or cc


@pytest.fixture
def cache(tmp_path, monkeypatch):
    directory = tmp_path / "cache"
    monkeypatch.setenv("REPRO_FAST_CACHE", str(directory))
    return directory


def test_cold_build_leaves_one_library_and_no_build_directory(cache):
    provider = fast_c.CProvider()
    entries = sorted(cache.iterdir())
    assert len(entries) == 1, entries
    assert entries[0].suffix == ".so" and entries[0].is_file()
    # The loaded library computes: the pose sums of a uniform row at
    # x = 0.5 (N = 16, so every weight, product and sum is exact).
    stack = ParticleStack(MclConfig(particle_count=16), rows=3, provider=provider)
    stack.w64[:] = 1.0 / 16
    stack.x64[:] = 0.5
    sums = provider.bind(stack).pose(np.array([2, 0]))
    assert sums[:, :2].tolist() == [[1.0, 0.5], [1.0, 0.5]]


def test_second_provider_in_the_same_cache_spawns_no_compiler(cache, monkeypatch):
    fast_c.CProvider()

    def no_compiler(*args, **kwargs):
        raise AssertionError(f"compiler spawned: {args}")

    monkeypatch.setattr(fast_c.subprocess, "run", no_compiler)
    fast_c.CProvider()


def test_library_is_keyed_by_the_cpu(cache, monkeypatch):
    """``-march=native`` ties a library to the CPU that built it, so hosts
    sharing one cache must not share a library."""
    monkeypatch.setattr(fast_c, "_cpu_identity", lambda: "model name: cpu a")
    first = fast_c.library_path()
    monkeypatch.setattr(fast_c, "_cpu_identity", lambda: "model name: cpu b")
    second = fast_c.library_path()
    assert first != second
    assert sorted(cache.glob("*.so")) == sorted([first, second])

    def no_compiler(*args, **kwargs):
        raise AssertionError(f"compiler spawned: {args}")

    monkeypatch.setattr(fast_c.subprocess, "run", no_compiler)
    monkeypatch.setattr(fast_c, "_cpu_identity", lambda: "model name: cpu a")
    assert fast_c.library_path() == first


def test_library_is_keyed_by_numpy(cache, monkeypatch):
    """The library links numpy's compiled samplers, so another numpy
    version, or another ``libnpyrandom.a``, gets a library of its own."""
    first = fast_c.library_path()
    compiled = []

    def fake_compiler(command, **kwargs):
        compiled.append(command)
        Path(command[command.index("-o") + 1]).write_bytes(b"")
        return subprocess.CompletedProcess(command, 0, "", "")

    monkeypatch.setattr(fast_c.subprocess, "run", fake_compiler)
    version = np.__version__
    monkeypatch.setattr(np, "__version__", version + "+other")
    other_version = fast_c.library_path()
    monkeypatch.setattr(np, "__version__", version)

    archive = fast_c._npyrandom_archive()
    changed = cache.parent / "numpy-random" / archive.name
    changed.parent.mkdir()
    changed.write_bytes(archive.read_bytes() + b"\n")
    monkeypatch.setattr(fast_c, "_npyrandom_archive", lambda: changed)
    other_archive = fast_c.library_path()
    assert str(changed) in compiled[-1]  # the build links the archive it hashed

    paths = [first, other_version, other_archive]
    assert len(set(paths)) == 3 and len(compiled) == 2
    assert sorted(cache.glob("*.so")) == sorted(paths)
    monkeypatch.setattr(fast_c, "_npyrandom_archive", lambda: archive)
    assert fast_c.library_path() == first and len(compiled) == 2


def test_failed_compile_leaves_no_library_and_no_build_directory(cache, monkeypatch):
    monkeypatch.setenv("CC", "false")
    with pytest.raises(RuntimeError, match="exited 1"):
        fast_c.CProvider()
    assert list(cache.iterdir()) == []


def test_drifted_declaration_fails_the_build(cache, monkeypatch):
    """A declaration that no longer matches its definition must stop the
    build: ABI mode would otherwise pass wrong arguments silently."""
    drifted = fast_c.C_DECLARATIONS.replace(
        "void stage_pose(const double *, const double *, const double *,",
        "void stage_pose(const double *, const float *, const double *,",
    )
    assert drifted != fast_c.C_DECLARATIONS
    monkeypatch.setattr(fast_c, "C_DECLARATIONS", drifted)
    with pytest.raises(RuntimeError, match="conflicting types for .stage_pose"):
        fast_c.CProvider()
    assert list(cache.iterdir()) == []


def _python(code: str, **popen) -> subprocess.Popen:
    """A fresh interpreter running ``code`` against this checkout."""
    src = Path(fast_c.__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.Popen([sys.executable, "-c", code], env=env, **popen)


def test_concurrent_cold_builds_publish_one_library(cache):
    """Processes racing to build into one cold cache all load the kernels
    and leave exactly one library behind."""
    build = "from repro.engine.fast_c import CProvider; CProvider()"
    racers = [_python(build) for _ in range(3)]
    assert [racer.wait(timeout=120) for racer in racers] == [0, 0, 0]
    entries = sorted(cache.iterdir())
    assert len(entries) == 1 and entries[0].suffix == ".so", entries


def test_cold_build_imports_no_setuptools(cache):
    """A fresh interpreter compiles and loads the library without
    setuptools or distutils (startup hooks such as ``_distutils_hack``
    are not those packages)."""
    probe = (
        "import sys\n"
        "from repro.engine.fast_c import CProvider\n"
        "CProvider()\n"
        "print(sorted(m for m in sys.modules"
        " if m.split('.')[0] in ('setuptools', 'distutils')))\n"
    )
    process = _python(probe, stdout=subprocess.PIPE, text=True)
    out, _ = process.communicate(timeout=120)
    assert process.returncode == 0
    assert out.strip() == "[]"
    assert len(list(cache.glob("*.so"))) == 1


# ----------------------------------------------------------------------
# The motion and weight-update stages at both storage widths
# ----------------------------------------------------------------------
#: Particles per row in the stage tests: not a multiple of the det-tree
#: chunk, so every row ends in a partial chunk.
STAGE_N = 1000

DTYPES = [np.dtype(np.float32), np.dtype(np.float16)]


@pytest.fixture(scope="module", params=["default", "no-float16"])
def stage_provider(request, tmp_path_factory):
    """The default library, and one built with the compiler's
    ``__FLT16_MAX__`` undefined, as on a compiler without ``_Float16``:
    the library stores binary16 in portable C, so both must give the
    same bits."""
    if request.param == "default":
        return fast_c.CProvider()
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_FAST_CACHE", str(tmp_path_factory.mktemp("no-float16")))
        patch.setattr(fast_c, "COMPILE_ARGS", [*fast_c.COMPILE_ARGS, "-U__FLT16_MAX__"])
        return fast_c.CProvider()


def _stage_stack(provider, dtype, rows, n=STAGE_N, **config):
    """A C-stage stack of one storage dtype, ``config`` overriding the
    defaults, with a generator of its own on every row."""
    variant = "fp16qm" if dtype == np.float16 else "fp32"
    settings = dataclasses.replace(MclConfig(particle_count=n), **config)
    stack = ParticleStack(settings.with_variant(variant), rows, provider=provider)
    assert stack.dtype == dtype
    for row in range(rows):
        stack._set_rng(row, np.random.default_rng([dtype.itemsize, n, row]))
    return stack


def _assert_same_bits(expected, stack, names):
    for name in names:
        actual = getattr(stack, name)
        unsigned = f"u{actual.itemsize}"
        np.testing.assert_array_equal(
            actual.view(unsigned), expected[name].view(unsigned), err_msg=name
        )


MOTION_ARRAYS = ["x", "y", "theta", "x64", "y64", "theta64", "cos64", "sin64"]


def _reference_motion(stack, rows, dx, dy, dt):
    """The motion stage by the reference kernels, on copies of ``stack``'s
    arrays: compose, wrap, store at storage precision, shadow refresh."""
    out = {name: getattr(stack, name).copy() for name in MOTION_ARRAYS}
    new_x, new_y, new_theta = kernels.compose_increment(
        out["x64"][rows], out["y64"][rows], out["theta64"][rows], dx, dy, dt
    )
    out["x"][rows] = new_x.astype(stack.dtype)
    out["y"][rows] = new_y.astype(stack.dtype)
    out["theta"][rows] = wrap_angle(new_theta).astype(stack.dtype)
    for name in ("x", "y", "theta"):
        out[name + "64"][rows] = out[name][rows].astype(np.float64)
    out["cos64"][rows] = np.cos(out["theta64"][rows])
    out["sin64"][rows] = np.sin(out["theta64"][rows])
    return out


def _motion_work(rows, pending):
    """Work items without beams (a step of motion and pose computation
    only): ``rows`` split as evenly as they go into ``len(pending)``
    items, each with its own pending increment."""
    parts = np.array_split(np.asarray(rows), len(pending))
    return [
        StepWork(
            rows=part.tolist(), step=ReplayStep(fires=True, pending=inc), field=None
        )
        for part, inc in zip(parts, pending)
    ]


def _drawn_increments(stack, work, mirrors):
    """The noisy increments the motion stage composes, ``(3, rows, N)``
    in the order of the rows across ``work``: each row's pending
    increment plus :func:`kernels.sample_motion_noise` drawn from the
    row's mirror generator (a copy that the reference consumes)."""
    config = stack.config
    increments = []
    for item in work:
        inc = item.step.pending
        for row in item.rows:
            noise = kernels.sample_motion_noise(
                mirrors[row], stack.count, config.sigma_odom_xy, config.sigma_odom_theta
            )
            increments.append(
                [inc.x + noise[0], inc.y + noise[1], inc.theta + noise[2]]
            )
    return np.moveaxis(np.array(increments), 1, 0)


def _mirrors(stack):
    """A copy of every row's generator, for the reference to consume."""
    return [copy.deepcopy(rng) for rng in stack.rngs]


def _reference_weights(stack, rows, like):
    """The weight stage by the reference kernels, on copies of ``stack``'s
    arrays: prior multiply, storage cast, normalize, shadow refresh."""
    stored = (stack.w64[rows] * like).astype(stack.dtype)
    kernels.normalize_weights(stored, stack.dtype)
    out = {"weights": stack.weights.copy(), "w64": stack.w64.copy()}
    out["weights"][rows] = stored
    out["w64"][rows] = stored.astype(np.float64)
    return out


def _rows_of(values, rows):
    """``values`` laid out as ``(rows, STAGE_N)``, repeated to fill."""
    return np.resize(values, (rows, STAGE_N))


def _half_boundary_doubles() -> np.ndarray:
    """Every finite half, every midpoint between neighbouring finite
    halves (and between 65504 and the first overflow, 65536), the doubles
    one ulp either side of each midpoint, values that overflow half, and
    log-uniform random doubles from 2^-30 to 2^20; both signs."""
    halves = np.arange(0x7C00, dtype=np.uint16).view(np.float16).astype(np.float64)
    upper = np.append(halves[1:], 65536.0)
    midpoints = (halves + upper) / 2  # exact: halves carry 11 bits
    random = np.exp2(np.random.default_rng(7).uniform(-30, 20, 100_000))
    positive = np.concatenate(
        [
            halves,
            midpoints,
            np.nextafter(midpoints, 0.0),
            np.nextafter(midpoints, np.inf),
            [7e4, 1e5, 1e9, 1e30],
            random,
        ]
    )
    return np.concatenate([positive, -positive])


def _wrap_edge_yaws() -> np.ndarray:
    """Yaws on the edges of the C wrap's fmod-free path (taken while
    ``|a + π| < 2π``): the 17 doubles around each ``target - π``, so that
    ``a + π`` rounds to exactly ±2π, to ``nextafter(2π, 0)`` and to zero,
    and to the doubles around them.  (No yaw near -3π, where doubles are
    twice as far apart, lands on the odd ``nextafter(-2π, 0)``.)"""
    two_pi = 2 * np.pi
    targets = [two_pi, -two_pi, np.nextafter(two_pi, 0), np.nextafter(-two_pi, 0), 0.0]
    yaws = np.concatenate(
        [
            (target - np.pi) + np.spacing(target - np.pi) * np.arange(-8.0, 9.0)
            for target in targets
        ]
    )
    landed = set((yaws + np.pi).tolist())
    assert {two_pi, -two_pi, np.nextafter(two_pi, 0), 0.0} <= landed
    return yaws


def _yaw_doubles() -> np.ndarray:
    """±π, ±float16(π), ±float32(π), values several turns of 2π away, the
    half boundary doubles inside ±2π, the edges of the C wrap's fast path,
    NaN and ±inf."""
    specials = [np.pi, float(np.float16(np.pi)), float(np.float32(np.pi))]
    turns = [value + 2 * np.pi * k for value in (np.pi, 3.0, 0.25) for k in (3, 7, -5)]
    boundary = _half_boundary_doubles()
    yaws = np.concatenate([specials, turns, boundary[np.abs(boundary) < 2 * np.pi]])
    edges = _wrap_edge_yaws()
    return np.concatenate([yaws, -yaws, edges, -edges, [np.nan, np.inf, -np.inf]])


@pytest.mark.filterwarnings("ignore:overflow encountered in cast:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("dtype", DTYPES, ids=str)
def test_motion_stage_matches_numpy_bit_for_bit(stage_provider, dtype):
    """The C draw + compose + store leaves the stored bytes and float64
    shadows of the reference kernels on x/y at every half and half
    midpoint (with the doubles one ulp either side), half overflows and
    subnormals, and on yaws at and around ±π, many turns away, on the
    edges of the wrap's fmod-free path, NaN and ±inf."""
    values = _half_boundary_doubles()
    rows = -(-values.size // STAGE_N)
    # Noise of 1e-300 is below half an ulp of every nonzero value here,
    # so the composed poses are the prior poses, and the stores round
    # the boundary doubles themselves.
    stack = _stage_stack(
        stage_provider, dtype, rows, sigma_odom_xy=1e-300, sigma_odom_theta=1e-300
    )
    order = np.random.default_rng(1).permutation(rows)
    x = _rows_of(values, rows)
    yaws = _rows_of(_yaw_doubles(), rows)
    stack.x64[:] = x
    stack.y64[:] = _rows_of(values[::-1], rows)
    stack.theta64[:] = yaws
    stack.cos64[:] = np.cos(stack.theta64)
    stack.sin64[:] = np.sin(stack.theta64)
    stack.weights[:] = stack.w64[:] = 1.0 / STAGE_N
    work = _motion_work(order, [Pose2D(0.0, 0.0, 0.0)])
    increments = _drawn_increments(stack, work, _mirrors(stack))
    expected = _reference_motion(stack, order, *increments)
    stack.step(work)
    _assert_same_bits(expected, stack, MOTION_ARRAYS)
    # The stores round each double once, as numpy's astype does (where
    # the yaw's trig leaves x as it was).
    unsigned = f"u{dtype.itemsize}"
    kept = (x != 0) & np.isfinite(yaws)
    np.testing.assert_array_equal(
        stack.x[kept].view(unsigned), x[kept].astype(dtype).view(unsigned)
    )

    # Then steps from the stored poses, with real noise and yaw trig in
    # the compose, rows packed three to an item.
    moving = _stage_stack(
        stage_provider, dtype, rows, sigma_odom_xy=0.3, sigma_odom_theta=0.5
    )
    for name in MOTION_ARRAYS + ["weights", "w64"]:
        getattr(moving, name)[:] = getattr(stack, name)
    mirrors = _mirrors(moving)
    rng = np.random.default_rng(2)
    for _ in range(3):
        pending = [Pose2D(*rng.normal(0, 0.3, 3)) for _ in range(-(-rows // 3))]
        work = _motion_work(order, pending)
        increments = _drawn_increments(moving, work, mirrors)
        expected = _reference_motion(moving, order, *increments)
        moving.step(work)
        _assert_same_bits(expected, moving, MOTION_ARRAYS)


def _exact_pieces(total: float, dtype: np.dtype) -> list[float]:
    """Values of ``dtype`` that add up to ``total`` exactly, largest first
    (``total`` must be a multiple of the dtype's smallest subnormal)."""
    pieces = []
    while total > 0:
        piece = min(dtype.type(total), np.finfo(dtype).max)
        if piece > total:
            piece = np.nextafter(piece, dtype.type(0))
        assert piece > 0
        pieces.append(float(piece))
        total -= float(piece)
    return pieces


def _padded(values, n=STAGE_N) -> np.ndarray:
    row = np.zeros(n)
    row[: len(values)] = values
    return row


def _product_rows(dtype: np.dtype) -> list[np.ndarray]:
    """Likelihood rows (prior 1.0) holding the positive half boundary
    doubles, so each product is one of them exactly, topped up with
    exact filler to a power-of-two total.  Normalizing then scales each
    stored product exactly, so a product rounded any other way shows in
    its own weight."""
    values = np.sort(_half_boundary_doubles())
    values = values[values >= 0]
    rows = []
    for start in range(0, values.size, STAGE_N // 3):
        like = values[start : start + STAGE_N // 3]
        stored = like.astype(dtype).astype(np.float64)
        subtotal = stored[np.isfinite(stored)].sum()
        total = 2.0 ** np.ceil(np.log2(subtotal)) if subtotal > 0 else 1.0
        rows.append(_padded([*like, *_exact_pieces(total - subtotal, dtype)]))
    return rows


def _quotient_rows(count: int) -> list[np.ndarray]:
    """Likelihood rows (prior 1.0) whose normalized weights sit 2^-30
    (relative) to one side of a midpoint between neighbouring halves.
    A float rounds them onto the midpoint, so a double -> float -> half
    conversion rounds some of them the wrong way.

    Each row holds 1024 * 2^-j for j = 0..33 and exact filler that makes
    the total ``1024 / q``, with ``q`` the off-midpoint quotient of the
    first entry; the others are ``q * 2^-j``.
    """
    rng = np.random.default_rng(4)
    hard = 1024.0 * np.exp2(-np.arange(34.0))
    rows = []
    for _ in range(count):
        midpoint = (1 + (2 * int(rng.integers(1024)) + 1) * 2.0**-11) / 4
        quotient = midpoint * (1 + rng.choice([-1.0, 1.0]) * 2.0**-30)
        total = np.floor(1024.0 / quotient * 2.0**24) / 2.0**24
        filler = _exact_pieces(total - hard.sum(), np.dtype(np.float16))
        rows.append(_padded([*hard, *filler]))
    return rows


def _weight_cases(dtype: np.dtype) -> list[tuple[str, np.ndarray, np.ndarray]]:
    """``(name, prior, likelihood)`` rows covering every branch of the
    weight stage at ``dtype`` storage, and its conversions at the
    rounding boundaries of half."""
    n = STAGE_N
    rng = np.random.default_rng(3)
    uniform = np.full(n, 1.0 / n)
    ones = np.ones(n)
    random_prior = rng.uniform(0.1, 1.0, n)
    random_prior /= random_prior.sum()
    # Likelihoods falling by powers of two far enough to put the
    # normalized weights through this dtype's subnormals, down to zero.
    span = -np.log2(np.finfo(dtype).smallest_subnormal) + 8
    cascade = np.exp2(-np.linspace(0.0, span, n))
    one_nan, one_inf = rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 1.0, n)
    one_nan[17] = np.nan
    one_inf[400] = np.inf
    overflow = np.ones(n)
    overflow[::3] = 1e9  # prior * like above the largest half
    return [
        ("underflow-to-zero", uniform, np.full(n, 1e-300)),
        ("nan-likelihood", uniform, one_nan),
        ("inf-likelihood", random_prior, one_inf),
        ("all-nan", uniform, np.full(n, np.nan)),
        ("subnormal-weights", uniform, cascade),
        ("subnormal-weights-shuffled", random_prior, rng.permutation(cascade)),
        ("overflow", uniform, overflow),
        ("random", random_prior, np.exp(-rng.uniform(0.0, 40.0, n))),
        *(("products", ones, like) for like in _product_rows(dtype)),
        *(("quotients", ones, like) for like in _quotient_rows(32)),
    ]


@pytest.mark.filterwarnings("ignore:overflow encountered in cast:RuntimeWarning")
@pytest.mark.parametrize("dtype", DTYPES, ids=str)
def test_weight_stage_matches_numpy_bit_for_bit(stage_provider, dtype):
    """The C weight update leaves the stored bytes and float64 shadow of
    the reference kernels: rows that underflow to zero (reset to
    uniform), rows with a NaN or inf likelihood, rows whose normalized
    weights are subnormal at storage precision, rows that overflow it,
    and products and quotients at the rounding boundaries of half."""
    cases = _weight_cases(dtype)
    names = [name for name, _, _ in cases]
    # Every updated row keeps an ESS of at least 1 (a degenerate one is
    # reset to uniform), far above this threshold, so none resamples.
    stack = _stage_stack(
        stage_provider, dtype, len(cases) + 2, resample_ess_fraction=1e-9
    )
    order = np.arange(len(cases))[::-1] + 1  # rows 0 and len+1 stay unused
    prior = np.stack([case[1] for case in cases]).astype(dtype)
    like = np.stack([case[2] for case in cases])
    stack.weights[order] = prior
    stack.w64[order] = prior.astype(np.float64)
    expected = _reference_weights(stack, order, like)
    assert stack._kernels.resampling(order, like) == 0
    _assert_same_bits(expected, stack, ["weights", "w64"])

    weights = dict(zip(names, stack.weights[order]))
    uniform = np.asarray(1.0 / STAGE_N, dtype=dtype)
    assert (weights["underflow-to-zero"] == uniform).all()
    assert (weights["all-nan"] == uniform).all()
    subnormal = weights["subnormal-weights"]
    tiny = np.finfo(dtype).smallest_normal
    assert ((subnormal > 0) & (subnormal < tiny)).any()
    assert (subnormal == 0).any()
    assert weights["nan-likelihood"][17] == 0 and weights["inf-likelihood"][400] == 0
    # The quotient rows do reach the double-rounding hazard.
    quotients = like[np.array(names) == "quotients"]
    quotients = quotients / quotients.sum(axis=1, keepdims=True)  # exact totals
    via_float = quotients.astype(np.float32).astype(np.float16)
    assert (quotients.astype(np.float16) != via_float).sum() >= 100


# ----------------------------------------------------------------------
# The observation stage
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def observation_fields():
    """A small maze's float32 and quantized fields, and a C provider."""
    grid = generate_maze(size_m=1.5, cells=3, seed=2)
    fields = {
        kind: DistanceField.build(grid, MclConfig().r_max, kind)
        for kind in (FieldKind.FLOAT32, FieldKind.QUANTIZED_U8)
    }
    return fields, fast_c.CProvider()


def _observation_ends(field, k: int) -> tuple[np.ndarray, np.ndarray]:
    """``k`` body-frame end points, mixing three kinds in turn: points on
    the field's first, middle and last cell edges and one past each end
    (with the doubles either side) for a pose at the origin with zero
    yaw; points just off each side of the grid and far off it; and
    random points over it and its surroundings."""
    rng = np.random.default_rng(k)
    rows, cols = field.data.shape
    res = field.resolution
    width, height = cols * res, rows * res
    mid_x, mid_y = field.origin_x + width / 2, field.origin_y + height / 2

    def edges(origin, count):
        lines = origin + res * np.array([0.0, 1.0, count // 2, count - 1, count, -1.0])
        return np.concatenate(
            [lines, np.nextafter(lines, -np.inf), np.nextafter(lines, np.inf)]
        )

    xs, ys = edges(field.origin_x, cols), edges(field.origin_y, rows)
    on_edges = [(x, mid_y) for x in xs] + [(mid_x, y) for y in ys] + list(zip(xs, ys))
    left, right = field.origin_x - 0.01, field.origin_x + width + 0.01
    below, above = field.origin_y - 0.01, field.origin_y + height + 0.01
    off_grid = [(left, mid_y), (right, mid_y), (mid_x, below), (mid_x, above)]
    off_grid += [(-1e6, mid_y), (mid_x, 1e6), (right, above), (left, below)]
    random = rng.uniform(
        [field.origin_x - 0.3, field.origin_y - 0.3],
        [field.origin_x + width + 0.3, field.origin_y + height + 0.3],
        (k, 2),
    )
    kinds = [rng.permutation(on_edges), rng.permutation(off_grid), random]
    pool = [
        point
        for points in itertools.zip_longest(*kinds)
        for point in points
        if point is not None
    ]
    ends = np.array(pool[:k], dtype=np.float64)
    return ends[:, 0].copy(), ends[:, 1].copy()


def _observation_poses(field, n: int, seed: int):
    """``(x, y, theta)`` of ``n`` particles: the first at the origin with
    zero yaw (so the end points land where they were placed), the rest
    over the field and beyond it, every fourth with zero yaw."""
    rng = np.random.default_rng(seed)
    rows, cols = field.data.shape
    low = [field.origin_x - 0.5, field.origin_y - 0.5]
    high = [low[0] + cols * field.resolution + 1.0, low[1] + rows * field.resolution + 1.0]
    x, y = rng.uniform(low, high, (n, 2)).T
    theta = rng.uniform(-np.pi, np.pi, n)
    theta[::4] = 0.0
    x[0] = y[0] = 0.0
    return x, y, theta


def _reference_exponents(stack, rows, end_x, end_y, field) -> np.ndarray:
    """The observation stage by the reference kernels: the beam sums of
    :func:`kernels.beam_squared_sums`, then the ops of
    :func:`kernels.beam_log_likelihoods` and
    :func:`kernels.likelihood_ratios` up to the ``exp``."""
    config = stack.config
    log_lik = kernels.beam_squared_sums(
        stack.x64[rows], stack.y64[rows], stack.cos64[rows], stack.sin64[rows],
        end_x, end_y, field,
    )
    np.negative(log_lik, out=log_lik)
    log_lik /= 2.0 * config.sigma_obs**2
    log_lik = log_lik * float(config.beam_replication)
    return log_lik - log_lik.max(axis=-1, keepdims=True)


@pytest.mark.filterwarnings("ignore:invalid value encountered in cast:RuntimeWarning")
@pytest.mark.parametrize("kind", ["float32", "quantized_u8"])
@pytest.mark.parametrize("n", [1, 7, 63, 65, STAGE_N])
@pytest.mark.parametrize("k", [1, 7, 8, 9, 64, 65, 130])
def test_observation_stage_matches_numpy_bit_for_bit(observation_fields, kind, n, k):
    """The C observation stage gives the bits of the reference kernels'
    beam sums and likelihood exponent: for one-, two- and three-level
    beam trees (k up to 130), particle counts that leave a partial lane
    block, end points on cell edges and off every side of the grid,
    float32 and quantized fields, and a row with a NaN pose, its rows
    listed out of order."""
    fields, provider = observation_fields
    field = fields[FieldKind(kind)]
    stack = ParticleStack(MclConfig(particle_count=n), 4, provider=provider)
    for row, seed in ((0, 1), (2, 2), (3, 3)):
        x, y, theta = _observation_poses(field, n, seed)
        if row == 3:  # the NaN row: a NaN position, a NaN yaw
            x[-1] = np.nan
            theta[n // 2] = np.nan
        stack.x64[row], stack.y64[row] = x, y
        stack.cos64[row], stack.sin64[row] = np.cos(theta), np.sin(theta)
    end_x, end_y = _observation_ends(field, k)
    step = ReplayStep(fires=True, end_x=end_x, end_y=end_y)
    rows = np.array([3, 0, 2])
    expected = _reference_exponents(stack, rows, end_x, end_y, field)
    out = np.empty((rows.size, n))
    stack._kernels.observation(rows, step, field, out)
    np.testing.assert_array_equal(out.view(np.uint64), expected.view(np.uint64))
    assert np.isfinite(out).all()


# ----------------------------------------------------------------------
# A compiler without _Float16
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def flight():
    """A small maze and one 20 s flight through it."""
    grid = generate_maze(size_m=3.0, cells=4, seed=5)
    stops = [
        snap_to_clearance(grid, point, 0.15)
        for point in [(0.4, 0.4), (2.6, 0.4), (2.6, 2.6)]
    ]
    route = plan_tour(grid, stops, clearance_m=0.15)
    sim = CrazyflieSimulator(grid, route, seed=11, config=SimConfig(max_duration_s=20))
    return grid, RecordedSequence.from_sim_steps("no-f16", sim.run())


def test_library_without_float16_runs_fp16_motion_and_weights_in_c(
    cache, monkeypatch, flight
):
    """A library built where ``_Float16`` is missing (here: with the
    compiler's ``__FLT16_MAX__`` undefined) runs fp16qm's motion and
    weight stages in C on binary16 storage, fp32's on float storage, and
    both variants match the reference bit for bit."""
    monkeypatch.setattr(fast_c, "COMPILE_ARGS", [*fast_c.COMPILE_ARGS, "-U__FLT16_MAX__"])
    provider = fast_c.CProvider()

    widths = []
    for name in ("motion", "resampling"):
        def spy(self, *args, _stage=getattr(fast_c.StackKernels, name)):
            widths.append(self._itemsize)
            return _stage(self, *args)

        monkeypatch.setattr(fast_c.StackKernels, name, spy)

    grid, sequence = flight
    backend = BatchedBackend(provider)
    specs = [RunSpec(sequence, seed) for seed in (0, 1)]
    for variant, stage_widths in (("fp16qm", {2}), ("fp32", {4})):
        config = MclConfig(particle_count=128).with_variant(variant)
        field = DistanceField.build_for_mode(grid, config.r_max, config.precision)
        widths.clear()
        fast = backend.execute(grid, specs, config, field)
        assert set(widths) == stage_widths, variant
        reference = ReferenceBackend().execute(grid, specs, config, field)
        for ref, run in zip(reference, fast, strict=True):
            assert ref.update_count == run.update_count
            np.testing.assert_array_equal(ref.estimate_trace, run.estimate_trace)
            np.testing.assert_array_equal(ref.position_errors, run.position_errors)


# ----------------------------------------------------------------------
# The C draws
# ----------------------------------------------------------------------
#: numpy's ziggurat for the standard normal: a draw beyond this is from
#: its tail, the branch that calls log1p (and a rejected wedge draw
#: calls exp).
ZIGGURAT_R = 3.6541528853610088


@pytest.mark.parametrize("n", [1, 7, 64, 1024, 16384])
def test_c_draws_consume_each_rows_stream_as_numpy_does(n):
    """The motion and resampling stages draw from each row's PCG64
    stream exactly as :func:`kernels.sample_motion_noise` and
    :func:`kernels.draw_wheel_offset` do: eight of ten rows, packed in
    shuffled order three items to a step, get the reference's poses,
    weights and resampled rows for three rounds, and every generator
    ends in the reference's state.  At N = 16384 that is 1.2 million
    normals, enough to reach the ziggurat's tail."""
    provider = fast_c.CProvider()
    dtype = np.dtype(np.float32)
    stack = _stage_stack(
        provider, dtype, 10, n=n, sigma_odom_xy=1.0, sigma_odom_theta=1.0
    )
    stack.weights[:] = stack.w64[:] = 1.0 / n
    mirrors = _mirrors(stack)
    rng = np.random.default_rng(n)
    order = rng.permutation(10)[:8]
    tail = 0
    for _ in range(3):
        pending = [Pose2D(*rng.uniform(-0.1, 0.1, 3)) for _ in range(3)]
        work = _motion_work(order, pending)
        increments = _drawn_increments(stack, work, mirrors)
        # A pending increment moves a draw by less than 0.1.
        tail += int((np.abs(increments) > ZIGGURAT_R + 0.1).sum())
        expected = _reference_motion(stack, order, *increments)
        stack.step(work)
        _assert_same_bits(expected, stack, MOTION_ARRAYS)

        # Every row resamples (ESS <= N at fraction 1.0) and draws its
        # wheel offset; distinct x values show where each arrow landed.
        stack.x[order] = np.arange(n, dtype=dtype)
        stack.x64[order] = stack.x[order]
        like = rng.uniform(0.0, 1.0, (order.size, n))
        weights = _reference_weights(stack, order, like)
        gathered = stack.x64.copy()
        for row in order:
            u0 = kernels.draw_wheel_offset(mirrors[row], n)
            index = kernels.systematic_resample(
                weights["w64"][row], u0, normalized=True
            )
            gathered[row] = stack.x64[row][index]
        assert stack._kernels.resampling(order, like) == order.size
        np.testing.assert_array_equal(stack.x64, gathered)
        assert (stack.weights[order] == dtype.type(1.0 / n)).all()
    for row in range(10):
        assert stack.rngs[row].bit_generator.state == mirrors[row].bit_generator.state
    if n == 16384:
        assert tail > 0


@pytest.fixture(scope="module")
def stepped_flight(flight):
    """The fast backend, the flight, an fp32 config at N = 64, its field
    and the flight's first twelve steps with beams."""
    grid, sequence = flight
    backend = BatchedBackend(fast_c.CProvider())
    config = MclConfig(particle_count=64)
    field = DistanceField.build_for_mode(grid, config.r_max, config.precision)
    steps = backend.plan(sequence, config).steps
    steps = [step for step in steps if step.beams is not None]
    return backend, grid, sequence, config, field, steps[:12]


def _row_state(stack, row):
    arrays = [getattr(stack, name)[row].tobytes() for name in MOTION_ARRAYS]
    arrays += [stack.weights[row].tobytes(), stack.w64[row].tobytes()]
    rng = stack.rngs[row].bit_generator.state
    return arrays, rng, stack.estimate_array(row).tobytes(), stack.updates(row)


def test_a_row_without_a_generator_is_refused_before_anything_moves(stepped_flight):
    """Stepping a row that was never initialized raises
    ``ConfigurationError`` before any listed row draws or is written."""
    backend, grid, sequence, config, field, steps = stepped_flight
    stack = backend.open_stack(config, 3)
    for row in (0, 2):
        stack.init_row(row, grid, RunSpec(sequence, row))
    before = [_row_state(stack, row) for row in (0, 2)]
    for rows in ([0, 1, 2], [2, 0, 1]):
        with pytest.raises(ConfigurationError, match="row 1 was never initialized"):
            stack.step([StepWork(rows=rows, step=steps[0], field=field)])
        assert [_row_state(stack, row) for row in (0, 2)] == before


def test_a_restored_row_draws_from_its_restored_generator(stepped_flight):
    """``import_row`` hands the C draws the snapshot's generator: a row
    restored over another that had drawn from its own ends every later
    step with the bytes of the run it was exported from."""
    backend, grid, sequence, config, field, steps = stepped_flight
    source = backend.open_stack(config, 1)
    source.init_row(0, grid, RunSpec(sequence, 0))
    target = backend.open_stack(config, 2)
    for row, seed in enumerate((1, 2)):
        target.init_row(row, grid, RunSpec(sequence, seed))
    for step in steps[:6]:
        source.step([StepWork(rows=[0], step=step, field=field)])
        target.step([StepWork(rows=[1, 0], step=step, field=field)])
    target.import_row(1, source.export_row(0))
    for step in steps[6:]:
        source.step([StepWork(rows=[0], step=step, field=field)])
        target.step([StepWork(rows=[0, 1], step=step, field=field)])
        assert _row_state(target, 1) == _row_state(source, 0)
