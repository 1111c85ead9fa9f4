"""Scenario configuration, user-pair roles, derived constants, and channel sampling.

All dB-valued inputs (transmit SNR, residual-interference variance) are converted
to linear units in exactly one place (:func:`db_to_linear`, via the ``SystemConfig``
properties); everything downstream works in linear units.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from .errors import ConfigError

_B_SUM_TOL = 1e-9


def db_to_linear(value_db: float) -> float:
    """Single conversion point for dB-valued inputs; infinity when the linear value overflows."""
    try:
        return 10.0 ** (value_db / 10.0)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class PairRoles:
    """Index map selecting which user plays which role.

    ``l``/``t`` are the pair whose uplink the relay decodes (strong first, then
    weak); ``k``/``r`` are the opposite pair that receives the relayed signals
    (``k`` runs interference cancellation, ``r`` only decodes the stronger
    signal). Only ``(1, 2, 3, 4)`` and ``(3, 4, 1, 2)`` are valid assignments.
    """

    l: int
    t: int
    k: int
    r: int

    def __post_init__(self) -> None:
        if (self.l, self.t, self.k, self.r) not in ((1, 2, 3, 4), (3, 4, 1, 2)):
            raise ConfigError(
                f"invalid role tuple (l={self.l}, t={self.t}, k={self.k}, r={self.r}); "
                "expected (1, 2, 3, 4) or (3, 4, 1, 2)"
            )


GROUP_ONE = PairRoles(1, 2, 3, 4)
GROUP_TWO = PairRoles(3, 4, 1, 2)

# signal -> (role view, whether it is the pair's stronger-decoded or weaker signal)
SIGNAL_ROLES: dict[str, tuple[PairRoles, str]] = {
    "x1": (GROUP_ONE, "l"),
    "x2": (GROUP_ONE, "t"),
    "x3": (GROUP_TWO, "l"),
    "x4": (GROUP_TWO, "t"),
}


def omega_from_distances(d1: float, d2: float, alpha: float) -> tuple[float, float, float, float]:
    """Channel variances from relay distances: near users (1, 3) at ``d1``, far (2, 4) at ``d2``."""
    if d1 <= 0 or d2 <= 0:
        raise ConfigError("distances must be positive")
    near = d1 ** (-alpha)
    far = d2 ** (-alpha)
    return (near, far, near, far)


@dataclass(frozen=True)
class SystemConfig:
    """Full scenario parameterization.

    Defaults reproduce the reference operating point used throughout the test
    presets: symmetric pairs at distances 2 m / 10 m with path-loss exponent 2,
    uplink splits 0.8/0.2, downlink splits 0.2/0.8, target rates 0.1/0.01 BPCU.

    ``rho_db`` is the transmit SNR (one value serves both hops) and
    ``omega_i_db`` the residual-cancellation variance; both are stored in dB
    and exposed in linear units through :attr:`rho` and :attr:`omega_i`.
    """

    rho_db: float = 30.0
    a: tuple[float, float, float, float] = (0.8, 0.2, 0.8, 0.2)
    b: tuple[float, float, float, float] = (0.2, 0.8, 0.2, 0.8)
    omega: tuple[float, float, float, float] = (0.25, 0.01, 0.25, 0.01)
    omega_i_db: float = -20.0
    varpi1: float = 0.01
    varpi2: float = 0.01
    rates: tuple[float, float, float, float] = (0.1, 0.01, 0.1, 0.01)
    sic_mode: str = "ipSIC"

    def __post_init__(self) -> None:
        for name, values in (("a", self.a), ("b", self.b), ("omega", self.omega), ("rates", self.rates)):
            if len(values) != 4:
                raise ConfigError(f"{name} must have exactly 4 entries, got {len(values)}")
            if not all(map(math.isfinite, values)):
                raise ConfigError(f"{name} entries must be finite")
        # every entry is finite from here on, so bounds on min and max bound them all
        if not (0.0 < min(self.a) and max(self.a) < 1.0):
            raise ConfigError("uplink power coefficients a must lie in (0, 1)")
        if not (0.0 < min(self.b) and max(self.b) < 1.0):
            raise ConfigError("downlink power coefficients b must lie in (0, 1)")
        if abs(self.b[0] + self.b[1] - 1.0) > _B_SUM_TOL or abs(self.b[2] + self.b[3] - 1.0) > _B_SUM_TOL:
            raise ConfigError("downlink splits must satisfy b1+b2 = 1 and b3+b4 = 1")
        if not (self.b[1] > self.b[0] and self.b[3] > self.b[2]):
            raise ConfigError("far users must get the larger downlink share (b2 > b1, b4 > b3)")
        if not min(self.omega) > 0.0:
            raise ConfigError("channel variances must be positive")
        if not (0.0 <= self.varpi1 <= 1.0 and 0.0 <= self.varpi2 <= 1.0):
            raise ConfigError("interference impact levels varpi1, varpi2 must lie in [0, 1]")
        if not min(self.rates) >= 0.0:
            raise ConfigError("target rates must be non-negative")
        if self.sic_mode not in ("ipSIC", "pSIC"):
            raise ConfigError(f"sic_mode must be 'ipSIC' or 'pSIC', got {self.sic_mode!r}")
        if not (math.isfinite(self.rho_db) and math.isfinite(self.omega_i_db)):
            raise ConfigError("rho_db and omega_i_db must be finite")
        for name, value_db in (("rho_db", self.rho_db), ("omega_i_db", self.omega_i_db)):
            linear = db_to_linear(value_db)
            if not math.isfinite(linear):
                raise ConfigError(f"{name} = {value_db:g} dB overflows in linear units")
            # the closed forms and the Monte Carlo events divide by these values
            if linear < sys.float_info.min:
                raise ConfigError(f"{name} = {value_db:g} dB underflows in linear units")

    @property
    def rho(self) -> float:
        """Transmit SNR in linear units."""
        return db_to_linear(self.rho_db)

    @property
    def omega_i(self) -> float:
        """Residual-cancellation variance in linear units."""
        return db_to_linear(self.omega_i_db)

    @property
    def epsilon(self) -> float:
        """Residual-interference switch: 1 under ipSIC, 0 under pSIC."""
        return 1.0 if self.sic_mode == "ipSIC" else 0.0


Gain = Union[float, np.ndarray]


@dataclass(frozen=True)
class ChannelSample:
    """One fading realization: four channel power gains plus the residual gain.

    Fields may hold scalars or equally shaped arrays (one entry per draw);
    ``gI`` is ``None`` when no residual is drawn (perfect cancellation).
    """

    g1: Gain
    g2: Gain
    g3: Gain
    g4: Gain
    gI: Gain | None = None

    def gain(self, user: int) -> Gain:
        return (self.g1, self.g2, self.g3, self.g4)[user - 1]


@dataclass(frozen=True)
class DerivedConstants:
    """Scalar constants feeding the outage evaluators, with feasibility flags.

    ``lam`` holds the exponential rates of the active relay-side interference
    terms (the in-pair term always, the two cross-pair terms only when
    ``varpi1 > 0``); ``lam_p`` the rates of the cross-pair-only sum.

    When a power split cannot support its target rate the corresponding
    feasibility flag is ``False`` and the dependent thresholds (``tau_l``,
    ``xi_t``, ``theta_l``) are ``None`` instead of negative numbers.
    """

    gamma_th: tuple[float, float, float, float]
    lam: tuple[float, ...]
    lam_p: tuple[float, ...]
    beta_l: float
    beta_t: float
    tau_l: float | None
    xi_t: float | None
    theta_l: float | None
    varphi_t: float
    feasible_l: bool
    feasible_t: bool


def sinr_threshold(rate: float) -> float:
    """Target SINR for a rate delivered over the two-slot exchange."""
    return 2.0 ** (2.0 * rate) - 1.0


def build_derived_constants(config: SystemConfig, roles: PairRoles) -> DerivedConstants:
    """Assemble every outage-evaluator constant in linear units."""
    rho = config.rho
    a_l, a_t = config.a[roles.l - 1], config.a[roles.t - 1]
    a_k, a_r = config.a[roles.k - 1], config.a[roles.r - 1]
    b_l, b_t = config.b[roles.l - 1], config.b[roles.t - 1]
    om_t, om_k, om_r = config.omega[roles.t - 1], config.omega[roles.k - 1], config.omega[roles.r - 1]
    om_l = config.omega[roles.l - 1]

    gamma_th = tuple(sinr_threshold(r) for r in config.rates)
    g_l, g_t = gamma_th[roles.l - 1], gamma_th[roles.t - 1]

    lam: tuple[float, ...] = (1.0 / (rho * a_t * om_t),)
    lam_p: tuple[float, ...] = ()
    if config.varpi1 > 0.0:
        cross = (1.0 / (rho * config.varpi1 * a_k * om_k), 1.0 / (rho * config.varpi1 * a_r * om_r))
        lam = lam + cross
        lam_p = cross

    beta_l = g_l / (rho * a_l)
    beta_t = g_t / (rho * a_t)

    feasible_l = b_l > config.varpi2 * g_l
    feasible_t = b_t > (b_l + config.varpi2) * g_t
    tau_l = g_l / (rho * (b_l - config.varpi2 * g_l)) if feasible_l else None
    xi_t = g_t / (rho * (b_t - (b_l + config.varpi2) * g_t)) if feasible_t else None
    theta_l = max(tau_l, xi_t) if (feasible_l and feasible_t) else None

    varphi_t = (om_l + rho * beta_l * a_t * om_t) / (om_l * om_t)

    return DerivedConstants(
        gamma_th=gamma_th,
        lam=lam,
        lam_p=lam_p,
        beta_l=beta_l,
        beta_t=beta_t,
        tau_l=tau_l,
        xi_t=xi_t,
        theta_l=theta_l,
        varphi_t=varphi_t,
        feasible_l=feasible_l,
        feasible_t=feasible_t,
    )


class RandomStream:
    """Counter-based random stream that splits into independent substreams.

    A stream is fully determined by ``(seed, spawn path)``, so any substream
    can be reconstructed without drawing from its parent; Monte Carlo chunks
    built on disjoint substreams give results independent of worker count.
    Instances are single-owner: share substreams, not the stream itself.
    """

    def __init__(self, seed: int, _spawn_key: tuple[int, ...] = ()):
        self.seed = int(seed)
        self._spawn_key = _spawn_key
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=_spawn_key)
        self.generator = np.random.Generator(np.random.Philox(seq))

    def substream(self, index: int) -> "RandomStream":
        return RandomStream(self.seed, self._spawn_key + (int(index),))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RandomStream(seed={self.seed}, path={self._spawn_key})"


# Every Monte Carlo chunk draws UNIT_ROWS rows of unit exponentials, in two
# halves. Under ipSIC the uplink (multiple-access) slot reads rows 0-4, g1..g4
# and then the residual gain gI, and the downlink (broadcast) slot rows 5-9.
# pSIC has no residual, so its slots read rows 0-3 and 4-7. A unit row scaled
# by a variance equals ``exponential(variance)`` drawn in its place bit for
# bit, so one draw serves both SIC modes and both role groups with the draws
# each would have made alone.
UNIT_ROWS = 10
UPLINK, DOWNLINK = 0, 1


def unit_rows(stream: RandomStream, count: int, out: list | None = None) -> list[np.ndarray]:
    """The stream's next half of a chunk: ``UNIT_ROWS // 2`` rows of ``count`` unit exponential draws.

    With ``out`` (``UNIT_ROWS // 2`` contiguous float64 rows of at least
    ``count`` entries) the draws are written into the first ``count`` entries
    of each row, bit for bit the values a fresh draw would return, and the
    returned rows are views of ``out``.
    """
    rng = stream.generator
    if out is None:
        return [rng.standard_exponential(count) for _ in range(UNIT_ROWS // 2)]
    return [rng.standard_exponential(out=row[:count]) for row in out]


def slot_sample(config: SystemConfig, rows: list, sic_mode: str, slot: int) -> ChannelSample:
    """One slot's fading under ``sic_mode``, scaled from a chunk's unit rows.

    ``rows`` is indexed by row number; only the rows the slot reads need to
    be present. ``gI`` is ``None`` under pSIC.
    """
    width = 5 if sic_mode == "ipSIC" else 4  # g1..g4, then gI under ipSIC
    first = slot * width
    g = [om * row for om, row in zip(config.omega, rows[first:first + 4])]
    gi = config.omega_i * rows[first + 4] if sic_mode == "ipSIC" else None
    return ChannelSample(g[0], g[1], g[2], g[3], gi)


@dataclass(frozen=True)
class RunSettings:
    """Simulation controls carried by config files next to the physics."""

    trials: int = 10**6
    seed: int = 1

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


_SCALAR_KEYS = {
    "rho_db", "omega_i_db", "varpi1", "varpi2",
    "a1", "a2", "a3", "a4", "b1", "b2", "b3", "b4",
    "omega1", "omega2", "omega3", "omega4",
    "d1", "d2", "alpha", "r1", "r2", "r3", "r4",
}
_KNOWN_KEYS = _SCALAR_KEYS | {"sic_mode", "trials", "seed"}

_SIC_ALIASES = {"ipsic": "ipSIC", "ip": "ipSIC", "psic": "pSIC", "p": "pSIC"}


def load_config_file(path: str | Path) -> tuple[SystemConfig, RunSettings]:
    """Parse a flat ``key=value`` config file (UTF-8, ``#`` comments allowed).

    Channel variances come either from ``omega1..omega4`` or from distances
    ``d1, d2`` with path-loss exponent ``alpha`` (never both). Unknown keys
    are an error; missing keys fall back to the defaults of
    :class:`SystemConfig` / :class:`RunSettings`.
    """
    raw: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line.strip()!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = value

    def number(key: str) -> float:
        try:
            return float(raw[key])
        except ValueError as exc:
            raise ConfigError(f"{path}: key {key!r} is not a number: {raw[key]!r}") from exc

    values: dict[str, object] = {}
    omega_keys = [k for k in ("omega1", "omega2", "omega3", "omega4") if k in raw]
    distance_keys = [k for k in ("d1", "d2", "alpha") if k in raw]
    if omega_keys and distance_keys:
        raise ConfigError(f"{path}: give either omega1..omega4 or d1,d2,alpha, not both")
    if omega_keys:
        if len(omega_keys) != 4:
            raise ConfigError(f"{path}: all four of omega1..omega4 are required")
        values["omega"] = tuple(number(f"omega{i}") for i in range(1, 5))
    elif distance_keys:
        if len(distance_keys) != 3:
            raise ConfigError(f"{path}: d1, d2 and alpha must be given together")
        values["omega"] = omega_from_distances(number("d1"), number("d2"), number("alpha"))

    for group, keys in (("a", ("a1", "a2", "a3", "a4")),
                        ("b", ("b1", "b2", "b3", "b4")),
                        ("rates", ("r1", "r2", "r3", "r4"))):
        present = [k for k in keys if k in raw]
        if present and len(present) != 4:
            raise ConfigError(f"{path}: all four of {', '.join(keys)} are required")
        if present:
            values[group] = tuple(number(k) for k in keys)

    for key in ("rho_db", "omega_i_db", "varpi1", "varpi2"):
        if key in raw:
            values[key] = number(key)
    if "sic_mode" in raw:
        mode = _SIC_ALIASES.get(raw["sic_mode"].lower())
        if mode is None:
            raise ConfigError(f"{path}: sic_mode must be ipSIC or pSIC, got {raw['sic_mode']!r}")
        values["sic_mode"] = mode

    settings_kwargs = {}
    for key in ("trials", "seed"):
        if key in raw:
            try:
                settings_kwargs[key] = int(raw[key])
            except ValueError as exc:
                raise ConfigError(f"{path}: key {key!r} is not an integer: {raw[key]!r}") from exc

    return SystemConfig(**values), RunSettings(**settings_kwargs)
