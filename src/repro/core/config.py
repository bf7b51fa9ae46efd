"""Configuration of the Monte Carlo localization filter.

Defaults are the paper's experimental parameters (Sec. IV-A):

* ``sigma_odom = (0.1 m, 0.1 m, 0.1 rad)`` — motion-model sampling noise,
* ``sigma_obs = 2.0`` — beam-end-point likelihood width (Eq. 1),
* ``r_max = 1.5 m`` — EDT truncation,
* ``d_xy = 0.1 m``, ``d_theta = 0.1 rad`` — movement thresholds gating the
  filter updates ("we only consider new observations if the drone moves
  more than d_xy or rotates more than d_theta"),
* map resolution 0.05 m (owned by the grid, not this config).

The particle counts swept by the paper's figures are exposed as
:data:`PAPER_PARTICLE_COUNTS`.

Config identity
---------------
This module is also where **configuration identity** is defined, the way
:mod:`repro.scenarios.registry` defines scenario identity:

* :meth:`MclConfig.to_canonical_dict` / :meth:`MclConfig.from_canonical_dict`
  give every config one canonical (JSON-stable) serialization;
* :meth:`MclConfig.fingerprint` digests that serialization into a short
  stable id — the unit of config identity everywhere results are keyed
  (sweep cells, campaign content keys, serve cohorts).  The particle
  count is deliberately *excluded*: N is a first-class sweep axis of its
  own, so a full identity is always the pair ``(fingerprint, N)``;
* :class:`ConfigSpec` is the one parser of the config-spec grammar
  ``variant[+key=value...]`` (e.g. ``fp16qm+sigma=0.15+r_max=2.0``) that
  every CLI flag, fleet declaration and campaign axis accepts.  A spec
  with no overrides canonicalizes to the bare paper-variant name, which
  is what keeps default-param results keyed exactly as before the
  config axis existed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass

from ..common.errors import ConfigurationError
from ..common.precision import PrecisionMode

#: Particle counts used across Fig. 6, 7, 10 and Tab. I.
PAPER_PARTICLE_COUNTS: tuple[int, ...] = (64, 256, 1024, 4096, 16384)

#: The four configurations plotted in Fig. 6-8.
PAPER_VARIANTS: tuple[str, ...] = ("fp32", "fp321tof", "fp32qm", "fp16qm")


@dataclass(frozen=True)
class MclConfig:
    """All tunables of the localization filter.

    ``beam_rows`` selects which zone-matrix rows feed the observation
    model; the default middle-row pair keeps pure-Python sweeps tractable
    while preserving the full azimuth diversity (all 8 columns), see
    DESIGN.md.  ``use_rear_sensor=False`` reproduces the paper's
    single-ToF ablation (``fp321tof``).
    """

    particle_count: int = 4096
    sigma_odom_xy: float = 0.1
    sigma_odom_theta: float = 0.1
    sigma_obs: float = 2.0
    r_max: float = 1.5
    d_xy: float = 0.1
    d_theta: float = 0.1
    precision: PrecisionMode = PrecisionMode.FP32
    use_rear_sensor: bool = True
    beam_rows: tuple[int, ...] = (3, 4)
    #: Measurements at or beyond this range are discarded (sensor limit).
    max_beam_range_m: float = 4.0
    #: How many physical zone rows each configured beam row stands for.
    #: In the 2-D projection every row of a zone column shares the same
    #: azimuth, so feeding 2 rows with replication 4 is statistically
    #: equivalent to the paper's full 8-row (64 zone) update at a quarter
    #: of the compute: the observation log-likelihood scales linearly in
    #: the number of (conditionally independent) zone measurements.
    beam_replication: float = 4.0
    #: Resample only when the effective sample size falls below this
    #: fraction of N; ``1.0`` resamples on every correction (paper).
    resample_ess_fraction: float = 1.0

    def __post_init__(self) -> None:
        if self.particle_count < 1:
            raise ConfigurationError(f"particle_count must be >= 1, got {self.particle_count}")
        for name in ("sigma_odom_xy", "sigma_odom_theta", "sigma_obs"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")
        if self.r_max <= 0:
            raise ConfigurationError(f"r_max must be positive, got {self.r_max}")
        if self.d_xy < 0 or self.d_theta < 0:
            raise ConfigurationError("movement thresholds must be non-negative")
        if not self.beam_rows:
            raise ConfigurationError("beam_rows must select at least one row")
        if self.max_beam_range_m <= 0:
            raise ConfigurationError("max_beam_range_m must be positive")
        if self.beam_replication <= 0:
            raise ConfigurationError("beam_replication must be positive")
        if not 0.0 < self.resample_ess_fraction <= 1.0:
            raise ConfigurationError("resample_ess_fraction must be in (0, 1]")

    # ------------------------------------------------------------------
    # Paper variants
    # ------------------------------------------------------------------
    def with_variant(self, variant: str) -> "MclConfig":
        """Return a copy configured as one of the paper's four variants.

        ``"fp32"``, ``"fp32qm"``, ``"fp16qm"`` set the precision mode with
        both sensors; ``"fp321tof"`` is fp32 with the rear sensor disabled.
        """
        if variant == "fp321tof":
            return dataclasses.replace(
                self, precision=PrecisionMode.FP32, use_rear_sensor=False
            )
        mode = PrecisionMode.from_label(variant)
        return dataclasses.replace(self, precision=mode, use_rear_sensor=True)

    @property
    def variant_label(self) -> str:
        """The paper's figure-legend label for this configuration."""
        if not self.use_rear_sensor and self.precision is PrecisionMode.FP32:
            return "fp321tof"
        return self.precision.value

    def movement_trigger(self, dx: float, dy: float, dtheta: float) -> bool:
        """True when accumulated motion warrants a filter update."""
        return math.hypot(dx, dy) > self.d_xy or abs(dtheta) > self.d_theta

    # ------------------------------------------------------------------
    # Canonical serialization and fingerprinting
    # ------------------------------------------------------------------
    def to_canonical_dict(self) -> dict:
        """Every tunable as canonical JSON types (floats, ints, lists).

        The encoding is construction-order independent (the fingerprint
        sorts keys) and round-trips exactly through
        :meth:`from_canonical_dict`; the precision mode serializes as its
        paper label.
        """
        return {
            "particle_count": int(self.particle_count),
            "sigma_odom_xy": float(self.sigma_odom_xy),
            "sigma_odom_theta": float(self.sigma_odom_theta),
            "sigma_obs": float(self.sigma_obs),
            "r_max": float(self.r_max),
            "d_xy": float(self.d_xy),
            "d_theta": float(self.d_theta),
            "precision": self.precision.value,
            "use_rear_sensor": bool(self.use_rear_sensor),
            "beam_rows": [int(row) for row in self.beam_rows],
            "max_beam_range_m": float(self.max_beam_range_m),
            "beam_replication": float(self.beam_replication),
            "resample_ess_fraction": float(self.resample_ess_fraction),
        }

    @staticmethod
    def from_canonical_dict(payload: dict) -> "MclConfig":
        """Rebuild a config from :meth:`to_canonical_dict` output."""
        data = dict(payload)
        unknown = set(data) - {f.name for f in dataclasses.fields(MclConfig)}
        if unknown:
            raise ConfigurationError(
                f"unknown MclConfig fields in canonical dict: {sorted(unknown)}"
            )
        if "precision" in data:
            data["precision"] = PrecisionMode.from_label(data["precision"])
        if "beam_rows" in data:
            data["beam_rows"] = tuple(int(row) for row in data["beam_rows"])
        return MclConfig(**data)

    def fingerprint(self) -> str:
        """Short stable digest of the configuration, excluding N.

        SHA-256 of the canonical JSON (sorted keys) of
        :meth:`to_canonical_dict` minus ``particle_count``, truncated to
        12 hex characters.  Identical on every machine, process and
        session (no ``hash()`` salting), so it can key on-disk results:
        under the bitwise backend-equivalence contract, identical
        ``(fingerprint, N, scenario, seed)`` implies identical trace
        bytes across backends, jobs, resume and serving.  Particle count
        is excluded because N is its own sweep/cohort axis everywhere —
        a full config identity is the pair ``(fingerprint, N)``.
        """
        payload = self.to_canonical_dict()
        del payload["particle_count"]
        encoded = json.dumps(payload, sort_keys=True).encode("utf-8")
        return hashlib.sha256(encoded).hexdigest()[:12]

    def default_variant_label(self) -> str | None:
        """The paper-variant name this config is a pure instance of.

        Returns the variant whose default-parameter config (at this
        config's N) equals this config exactly, or ``None`` when any
        field was ablated away from the paper defaults.  This is what
        preserves legacy result keys: only configs recognized here may
        use the plain variant string as their identity.
        """
        for variant in PAPER_VARIANTS:
            if self == MclConfig(particle_count=self.particle_count).with_variant(
                variant
            ):
                return variant
        return None


# ----------------------------------------------------------------------
# The config-spec grammar: ``variant[+key=value...]``
# ----------------------------------------------------------------------
#: MclConfig fields the grammar may override with one numeric value.
#: ``particle_count`` is deliberately absent (N is its own axis
#: everywhere), as are ``precision``/``use_rear_sensor`` (named by the
#: variant).  ``beam_rows`` is the one tuple-valued override and has its
#: own ``/``-separated value grammar (see :data:`TUPLE_OVERRIDE_FIELDS`).
CONFIG_OVERRIDE_FIELDS: tuple[str, ...] = (
    "sigma_odom_xy",
    "sigma_odom_theta",
    "sigma_obs",
    "r_max",
    "d_xy",
    "d_theta",
    "max_beam_range_m",
    "beam_replication",
    "resample_ess_fraction",
)

#: Tuple-valued overrides: values are ``/``-separated integers, e.g.
#: ``fp32+beam_rows=2/3/4/5``.  Rows canonicalize to a sorted, deduped
#: tuple; the materialized config carries exactly that tuple, so row
#: gather order (and therefore the bitwise trace) is a function of the
#: canonical spec — every spelling of one row set shares one
#: fingerprint *and* one execution.
TUPLE_OVERRIDE_FIELDS: tuple[str, ...] = ("beam_rows",)

#: Grammar shorthands, resolved during parsing so aliased and full
#: spellings canonicalize (and fingerprint) identically.
CONFIG_OVERRIDE_ALIASES: dict[str, str] = {
    "sigma": "sigma_obs",
    "trigger_xy": "d_xy",
    "trigger_theta": "d_theta",
}

#: The paper-default tunables, used to drop no-op overrides during spec
#: canonicalization (``fp32+sigma_obs=2.0`` *is* ``fp32``).
_DEFAULT_CONFIG = MclConfig()


def _coerce_row_tuple(name: str, value: object) -> tuple[int, ...]:
    """Canonicalize a beam-row override to a sorted, deduped int tuple.

    Accepts the grammar's ``/``-separated string (``"2/3"``), an already
    materialized sequence of ints, or a lone integer.  Rows are bounded
    to the 8x8 sensor grid here; geometry-dependent validity for smaller
    frames stays in the observation model (``SensorError``), which sees
    the actual zone count.
    """
    if isinstance(value, str):
        parts = [part.strip() for part in value.split("/")]
        try:
            rows = [int(part) for part in parts]
        except ValueError as exc:
            raise ConfigurationError(
                f"config override {name!r} needs '/'-separated integer "
                f"rows (e.g. 2/3/4), got {value!r}"
            ) from exc
    elif isinstance(value, (tuple, list)):
        rows = []
        for item in value:
            if isinstance(item, bool) or int(item) != item:
                raise ConfigurationError(
                    f"config override {name!r} needs integer rows, "
                    f"got {value!r}"
                )
            rows.append(int(item))
    elif isinstance(value, int) and not isinstance(value, bool):
        rows = [value]
    else:
        raise ConfigurationError(
            f"config override {name!r} needs '/'-separated integer rows "
            f"(e.g. 2/3/4), got {value!r}"
        )
    if not rows:
        raise ConfigurationError(f"config override {name!r} needs >=1 row")
    if any(row < 0 or row > 7 for row in rows):
        raise ConfigurationError(
            f"config override {name!r} rows must be within 0..7, "
            f"got {value!r}"
        )
    return tuple(sorted(set(rows)))


def format_override_value(value: "float | tuple[int, ...] | list") -> str:
    """Render a canonical override value in the spec grammar's spelling.

    Used for :attr:`ConfigSpec.id` and anywhere an override value labels
    output (e.g. pivot-report columns): floats render as ``repr``, row
    tuples as the ``/``-joined form the grammar parses back.
    """
    if isinstance(value, (tuple, list)):
        return "/".join(str(row) for row in value)
    return repr(value)


@dataclass(frozen=True)
class ConfigSpec:
    """One parsed config spec: a paper variant plus canonical overrides.

    This is the single grammar every configuration axis speaks —
    ``variant[+key=value...]``, e.g. ``fp32``, ``fp16qm+sigma=0.15``,
    ``fp32+r_max=2.0+d_xy=0.05``.  Construction canonicalizes: aliases
    resolve to field names, values coerce to float — or, for
    :data:`TUPLE_OVERRIDE_FIELDS`, to a sorted ``/``-separated row tuple
    (``fp32+beam_rows=2/3``) — last spelling wins,
    overrides sort by name, and overrides equal to the paper default are
    dropped — so every spelling of one configuration shares one
    :attr:`id` and one :meth:`fingerprint`, and a spec with no effective
    overrides (:attr:`is_default`) is indistinguishable from the bare
    variant, keeping legacy keys and stores valid.

    Identity is therefore defined **relative to the paper defaults**:
    an override spelled at its default value is a no-op and does not
    survive canonicalization, even if :meth:`config` is later given a
    ``base`` whose field differs (``fp32+sigma=2.0`` over a
    ``sigma_obs=1.0`` base yields 1.0).  Every path in this repository
    — sweeps, campaigns, serving, the CLI — materializes specs over the
    paper defaults, where spec identity and materialized config agree
    exactly.  Only three primitives still take a ``base``, because
    ``perfbench/`` passes the paper defaults through them: this
    :meth:`config`, ``SessionSpec.config`` and
    ``CampaignCell.sweep_cell``.
    """

    variant: str
    overrides: tuple[tuple[str, "float | tuple[int, ...]"], ...] = ()

    def __post_init__(self) -> None:
        if self.variant not in PAPER_VARIANTS:
            raise ConfigurationError(
                f"unknown variant {self.variant!r}; expected from {PAPER_VARIANTS}"
            )
        canonical: dict[str, float | tuple[int, ...]] = {}
        for key, value in self.overrides:
            name = CONFIG_OVERRIDE_ALIASES.get(key, key)
            if name in TUPLE_OVERRIDE_FIELDS:
                value = _coerce_row_tuple(name, value)
            elif name in CONFIG_OVERRIDE_FIELDS:
                try:
                    value = float(value)
                except (TypeError, ValueError) as exc:
                    raise ConfigurationError(
                        f"config override {key!r} needs a numeric value, "
                        f"got {value!r}"
                    ) from exc
            else:
                valid = ", ".join(
                    sorted(
                        (
                            *CONFIG_OVERRIDE_FIELDS,
                            *TUPLE_OVERRIDE_FIELDS,
                            *CONFIG_OVERRIDE_ALIASES,
                        )
                    )
                )
                raise ConfigurationError(
                    f"unknown config override {key!r}; expected one of: {valid}"
                )
            if value == getattr(_DEFAULT_CONFIG, name):
                canonical.pop(name, None)  # no-op: equals the paper default
            else:
                canonical[name] = value
        object.__setattr__(self, "overrides", tuple(sorted(canonical.items())))
        self.config()  # validate eagerly (range checks live in MclConfig)

    @staticmethod
    def parse(text: "str | ConfigSpec") -> "ConfigSpec":
        """Parse ``variant[+key=value...]`` (specs pass through).

        Values stay raw strings here; canonicalization (float coercion,
        ``/``-separated row tuples, alias resolution, no-op dropping)
        happens in ``__post_init__`` so every construction path — parse,
        :meth:`with_override`, direct instantiation — speaks one rule.
        """
        if isinstance(text, ConfigSpec):
            return text
        parts = [part.strip() for part in text.strip().split("+")]
        if not parts or not parts[0]:
            raise ConfigurationError(f"empty config spec in {text!r}")
        overrides = []
        for item in parts[1:]:
            if "=" not in item:
                raise ConfigurationError(
                    f"config override {item!r} must look like key=value "
                    f"(in spec {text!r})"
                )
            key, raw = item.split("=", 1)
            overrides.append((key.strip(), raw.strip()))
        try:
            return ConfigSpec(parts[0], tuple(overrides))
        except ConfigurationError as exc:
            raise ConfigurationError(f"{exc} (in spec {text!r})") from exc

    @property
    def id(self) -> str:
        """Canonical spec string (round-trips through :meth:`parse`)."""
        if not self.overrides:
            return self.variant
        return self.variant + "".join(
            f"+{key}={format_override_value(value)}"
            for key, value in self.overrides
        )

    @property
    def is_default(self) -> bool:
        """True when this is a pure paper variant at default parameters."""
        return not self.overrides

    def with_override(
        self, key: str, value: "float | str | tuple[int, ...]"
    ) -> "ConfigSpec":
        """A copy with one more override (aliases and no-ops handled)."""
        return ConfigSpec(self.variant, (*self.overrides, (key, value)))

    def config(
        self,
        base: MclConfig | None = None,
        particle_count: int | None = None,
    ) -> MclConfig:
        """Materialize the full :class:`MclConfig` this spec names.

        Starting from ``base`` (paper defaults when omitted): apply the
        variant, then the overrides, then ``particle_count`` if given.
        """
        config = (base or _DEFAULT_CONFIG).with_variant(self.variant)
        if self.overrides:
            config = dataclasses.replace(config, **dict(self.overrides))
        if particle_count is not None:
            config = dataclasses.replace(config, particle_count=particle_count)
        return config

    def fingerprint(self) -> str:
        """The spec's config fingerprint under the paper-default base.

        Distinct canonical spec ids always map to distinct fingerprints
        (canonicalization already dropped every no-op override), so
        fingerprint equality is spec-identity equality.
        """
        return self.config().fingerprint()
