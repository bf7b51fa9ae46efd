"""The C kernel library: how it is built, cached, checked and loaded.

The kernels compile into a plain shared library in ``REPRO_FAST_CACHE``
with one compiler call and load through cffi's ABI mode.  These tests pin
the cache discipline (one library, no build directory left behind, no
second compile), the signature guard that ABI mode needs, and that a
build never pulls setuptools into the process.  They also pin the
storage-typed motion and weight stages: at float32 and float16 storage
they leave the numpy stages' bits on inputs at every rounding boundary
of half, with hardware and with software half conversion, and a library
built without ``_Float16`` keeps fp16 stacks on the numpy stages.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import MclConfig
from repro.dataset.recorder import RecordedSequence
from repro.engine import fast_c
from repro.engine.backend import RunSpec
from repro.engine.batched import BatchedBackend, ParticleStack
from repro.engine.reference import ReferenceBackend
from repro.maps.distance_field import DistanceField
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
    # The loaded library computes: the ESS of a uniform row is exactly N
    # (N = 16, so every weight, square and sum is exact).
    stack = ParticleStack(MclConfig(particle_count=16), rows=3, provider=provider)
    stack.w64[:] = 1.0 / 16
    assert provider.bind(stack).ess(np.array([2, 0])).tolist() == [16.0, 16.0]


def test_second_provider_in_the_same_cache_spawns_no_compiler(cache, monkeypatch):
    fast_c.CProvider()

    def no_compiler(*args, **kwargs):
        raise AssertionError(f"compiler spawned: {args}")

    monkeypatch.setattr(fast_c.subprocess, "run", no_compiler)
    fast_c.CProvider()


def test_failed_compile_leaves_no_library_and_no_build_directory(cache, monkeypatch):
    monkeypatch.setenv("CC", "false")
    with pytest.raises(RuntimeError, match="exited 1"):
        fast_c.CProvider()
    assert list(cache.iterdir()) == []


def test_drifted_declaration_fails_the_build(cache, monkeypatch):
    """A declaration that no longer matches its definition must stop the
    build: ABI mode would otherwise pass wrong arguments silently."""
    drifted = fast_c.C_DECLARATIONS.replace(
        "void stage_ess(const double *, const int64_t *, int64_t,",
        "void stage_ess(const double *, const int64_t *, int32_t,",
    )
    assert drifted != fast_c.C_DECLARATIONS
    monkeypatch.setattr(fast_c, "C_DECLARATIONS", drifted)
    with pytest.raises(RuntimeError, match="conflicting types for .stage_ess"):
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


@pytest.fixture(scope="module", params=["default", "no-avx512fp16"])
def stage_provider(request, tmp_path_factory):
    """The default library, and one built with ``-mno-avx512fp16``.

    On a host with AVX512-FP16 the default build narrows double to half
    in hardware (``vcvtsd2sh``); the second build calls libgcc's
    ``__truncdfhf2``, which is what hosts without that extension run.
    """
    if request.param == "default":
        return fast_c.CProvider()
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_FAST_CACHE", str(tmp_path_factory.mktemp("no-fp16-hw")))
        patch.setattr(fast_c, "COMPILE_ARGS", [*fast_c.COMPILE_ARGS, "-mno-avx512fp16"])
        try:
            return fast_c.CProvider()
        except RuntimeError as exc:
            if "-mno-avx512fp16" not in str(exc):
                raise
            pytest.skip(f"the compiler rejects -mno-avx512fp16: {exc}")


def _stage_stacks(provider, dtype, rows):
    """A numpy-stage and a C-stage stack of one storage dtype."""
    if dtype not in provider.storage_dtypes:
        pytest.skip(f"the library has no {dtype} stages (no _Float16 in the compiler)")
    variant = "fp16qm" if dtype == np.float16 else "fp32"
    config = MclConfig(particle_count=STAGE_N).with_variant(variant)
    numpy_stack = ParticleStack(config, rows)
    c_stack = ParticleStack(config, rows, provider=provider)
    assert c_stack._fused and not numpy_stack._fused
    return numpy_stack, c_stack


def _assert_same_bits(numpy_stack, c_stack, names):
    for name in names:
        expected, actual = getattr(numpy_stack, name), getattr(c_stack, name)
        unsigned = f"u{expected.itemsize}"
        np.testing.assert_array_equal(
            actual.view(unsigned), expected.view(unsigned), err_msg=name
        )


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


def _yaw_doubles() -> np.ndarray:
    """±π, ±float16(π), ±float32(π), values several turns of 2π away, and
    the half boundary doubles inside ±2π."""
    specials = [np.pi, float(np.float16(np.pi)), float(np.float32(np.pi))]
    turns = [value + 2 * np.pi * k for value in (np.pi, 3.0, 0.25) for k in (3, 7, -5)]
    boundary = _half_boundary_doubles()
    yaws = np.concatenate([specials, turns, boundary[np.abs(boundary) < 2 * np.pi]])
    return np.concatenate([yaws, -yaws])


@pytest.mark.filterwarnings("ignore:overflow encountered in cast:RuntimeWarning")
@pytest.mark.parametrize("dtype", DTYPES, ids=str)
def test_motion_stage_matches_numpy_bit_for_bit(stage_provider, dtype):
    """The C compose + store leaves the stored bytes and float64 shadows
    of the numpy stage on x/y at every half and half midpoint (with the
    doubles one ulp either side), half overflows and subnormals, and on
    yaws at and around ±π and many turns away."""
    values = _half_boundary_doubles()
    rows = -(-values.size // STAGE_N)
    numpy_stack, c_stack = _stage_stacks(stage_provider, dtype, rows)
    # Fresh rows have zero poses and cos = 1, sin = 0, so the increments
    # land on x and y exactly: x = 0 + dx, y = 0 + dy.
    order = np.random.default_rng(1).permutation(rows)
    dx = _rows_of(values, rows)
    dy = _rows_of(values[::-1], rows)
    dt = _rows_of(_yaw_doubles(), rows)
    for stack in (numpy_stack, c_stack):
        stack._compose_store(order, dx, dy, dt)
    names = ["x", "y", "theta", "x64", "y64", "theta64", "cos64", "sin64"]
    _assert_same_bits(numpy_stack, c_stack, names)
    # The stores round each double once, as numpy's astype does.
    unsigned = f"u{dtype.itemsize}"
    np.testing.assert_array_equal(
        c_stack.x[order].view(unsigned), (dx + 0.0).astype(dtype).view(unsigned)
    )

    # Then steps from the stored poses, with real yaw trig in the compose.
    rng = np.random.default_rng(2)
    for _ in range(3):
        shape = (rows, STAGE_N)
        increments = [rng.normal(0, s, shape) for s in (0.3, 0.3, 0.5)]
        for stack in (numpy_stack, c_stack):
            stack._compose_store(order, *increments)
        _assert_same_bits(numpy_stack, c_stack, names)


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
    the numpy stage: rows that underflow to zero (reset to uniform), rows
    with a NaN or inf likelihood, rows whose normalized weights are
    subnormal at storage precision, rows that overflow it, and products
    and quotients at the rounding boundaries of half."""
    cases = _weight_cases(dtype)
    names = [name for name, _, _ in cases]
    numpy_stack, c_stack = _stage_stacks(stage_provider, dtype, len(cases) + 2)
    order = np.arange(len(cases))[::-1] + 1  # rows 0 and len+1 stay unused
    prior = np.stack([case[1] for case in cases]).astype(dtype)
    like = np.stack([case[2] for case in cases])
    for stack in (numpy_stack, c_stack):
        stack.weights[order] = prior
        stack.w64[order] = prior.astype(np.float64)
        stack._update_weights(order, like)
    _assert_same_bits(numpy_stack, c_stack, ["weights", "w64"])

    weights = dict(zip(names, c_stack.weights[order]))
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


def test_library_without_float16_keeps_fp16_motion_and_weights_in_numpy(
    cache, monkeypatch, flight
):
    """A library built where ``_Float16`` is missing (here: with the
    compiler's ``__FLT16_MAX__`` undefined) reports no float16 stages.  An
    fp16qm ``fast`` stack on it runs the numpy motion and weight stages,
    the C stages for the rest, and still matches the reference bit for
    bit; fp32 stacks keep every stage in C."""
    monkeypatch.setattr(fast_c, "COMPILE_ARGS", [*fast_c.COMPILE_ARGS, "-U__FLT16_MAX__"])
    provider = fast_c.CProvider()
    assert provider.storage_dtypes == (np.dtype(np.float32),)

    widths = []
    for name in ("compose_store", "update_weights"):
        def spy(self, *args, _stage=getattr(fast_c.StackKernels, name)):
            widths.append(self._itemsize)
            return _stage(self, *args)

        monkeypatch.setattr(fast_c.StackKernels, name, spy)

    grid, sequence = flight
    backend = BatchedBackend(provider)
    specs = [RunSpec(sequence, seed) for seed in (0, 1)]
    for variant, stage_widths in (("fp16qm", set()), ("fp32", {4})):
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
