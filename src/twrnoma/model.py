"""Scenario configuration, user-pair roles, derived constants, and channel sampling.

All dB-valued inputs (transmit SNR, residual-interference variance) are converted
to linear units in exactly one place (:func:`db_to_linear`, via the ``SystemConfig``
properties); everything downstream works in linear units.

The SIC mode is not part of the scenario: every evaluator takes it as an
argument, one of :data:`SIC_MODES`, next to the config and the signal.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import NamedTuple, Union

import numpy as np

from .errors import ConfigError

_B_SUM_TOL = 1e-9

# Imperfect SIC (a residual of variance omega_i survives cancellation) and perfect SIC.
SIC_MODES = ("ipSIC", "pSIC")
# Phases of the TDMA baseline's round, each carrying one message at the full
# rate, so its SINR threshold is 2^(OMA_PHASES * R) - 1.
OMA_PHASES = 8


def check_sic_mode(mode: str) -> str:
    """``mode`` itself when it is one of :data:`SIC_MODES`; a ``ConfigError`` otherwise."""
    if mode not in SIC_MODES:
        raise ConfigError(f"unknown sic mode {mode!r}; expected one of {SIC_MODES}")
    return mode


def db_to_linear(value_db: float) -> float:
    """Single conversion point for dB-valued inputs."""
    return 10.0 ** (value_db / 10.0)


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


def signal_roles(signal: str) -> tuple[PairRoles, str]:
    """``SIGNAL_ROLES[signal]``, with a ``ConfigError`` for an unknown signal."""
    try:
        return SIGNAL_ROLES[signal]
    except KeyError:
        raise ConfigError(f"unknown signal {signal!r}; expected one of {tuple(SIGNAL_ROLES)}") from None


# The physical domain of a scenario: (field, lowest, highest, unit), entry by
# entry for the four-entry fields. varpi1 may also be exactly 0, no cross-pair
# leakage. Inside it the smallest exponential mean the closed forms divide by,
# rho·varpi1·a_i·omega_i, is 1e-34, the TDMA threshold 2^(8R) at most 2^64,
# and every linear value a normal float.
DOMAIN = (
    ("rho_db", -100.0, 200.0, " dB"),
    ("omega_i_db", -100.0, 30.0, " dB"),
    ("a", 1e-6, 1.0 - 1e-6, ""),
    ("b", 1e-6, 1.0 - 1e-6, ""),
    ("omega", 1e-6, 1e4, ""),
    ("varpi1", 1e-12, 1.0, ""),
    ("varpi2", 0.0, 1.0, ""),
    ("rates", 0.0, 8.0, " BPCU"),
)
# The four-entry fields, each with its config-file prefix numbered 1-4 (a1..a4,
# r1..r4); every other field of DOMAIN is its own config-file key.
_ENTRY_PREFIX = {"a": "a", "b": "b", "omega": "omega", "rates": "r"}
# config-file key -> (field, entry it sets), the entry None for a one-value field
_FILE_KEYS = {name: (name, None) for name, *_ in DOMAIN if name not in _ENTRY_PREFIX} | {
    f"{prefix}{i + 1}": (name, i) for name, prefix in _ENTRY_PREFIX.items() for i in range(4)}


def omega_from_distances(d1: float, d2: float, alpha: float) -> tuple[float, float, float, float]:
    """Channel variances from relay distances: near users (1, 3) at ``d1``, far (2, 4) at ``d2``."""
    if d1 <= 0 or d2 <= 0:
        raise ConfigError("distances must be positive")
    try:
        near, far = d1 ** (-alpha), d2 ** (-alpha)
    except OverflowError:
        raise ConfigError(f"d1 = {d1!r}, d2 = {d2!r} and alpha = {alpha!r} give a channel variance "
                          "beyond float range") from None
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

    def __post_init__(self) -> None:
        for name in _ENTRY_PREFIX:
            if len(getattr(self, name)) != 4:
                raise ConfigError(f"{name} must have exactly 4 entries, got {len(getattr(self, name))}")
        for name, low, high, unit in DOMAIN:
            value = getattr(self, name)
            zero_too = name == "varpi1"
            entries = value if name in _ENTRY_PREFIX else (value,)
            # a NaN fails every comparison, so it lies outside too
            if not all(low <= v <= high or (zero_too and v == 0.0) for v in entries):
                span = f"{'0 or ' * zero_too}[{low:g}, {high:g}]{unit}"
                span = f"each entry in {span}" if name in _ENTRY_PREFIX else span
                raise ConfigError(f"{name} = {value!r} is outside the domain: {span}")
        if abs(self.b[0] + self.b[1] - 1.0) > _B_SUM_TOL or abs(self.b[2] + self.b[3] - 1.0) > _B_SUM_TOL:
            raise ConfigError("downlink splits must satisfy b1+b2 = 1 and b3+b4 = 1")
        if not (self.b[1] > self.b[0] and self.b[3] > self.b[2]):
            raise ConfigError("far users must get the larger downlink share (b2 > b1, b4 > b3)")

    # Converted once per config, on first read; the cached values sit outside
    # the fields, so ``==``, ``hash`` and ``replace`` see the dB values only.
    @cached_property
    def rho(self) -> float:
        """Transmit SNR in linear units."""
        return db_to_linear(self.rho_db)

    @cached_property
    def omega_i(self) -> float:
        """Residual-cancellation variance in linear units."""
        return db_to_linear(self.omega_i_db)


# A float or an array of them: a value at one SNR point or at every point of
# an SNR grid, or a value of one Monte Carlo draw or of a row of draws.
Grid = Union[float, np.ndarray]


def exact_exp(x: Grid) -> Grid:
    """``math.exp`` of a float, or of every entry of an array.

    ``np.exp`` rounds differently from ``math.exp`` on some inputs, so a grid
    evaluated through it would not match its points evaluated one at a time.
    ``np.fromiter`` over ``map`` fills the array with no Python-level loop
    and no list of results: the same bits, about 30 % cheaper on a 900-point
    grid than a list comprehension.
    """
    if isinstance(x, np.ndarray):
        return np.fromiter(map(math.exp, x.tolist()), float, x.size)
    return math.exp(x)


class DerivedConstants(NamedTuple):
    """Constants feeding the outage evaluators, with feasibility flags.

    ``rho`` is the linear transmit SNR they were built for: a float, or an
    array over an SNR grid. Every constant that reads it has its shape; the
    thresholds ``gamma_th`` and the feasibility flags do not read it and
    stay plain values.

    ``lam`` holds the exponential rates of the active relay-side interference
    terms (the in-pair term always, the two cross-pair terms only when
    ``varpi1 > 0``); ``lam_p`` the rates of the cross-pair-only sum.

    When a power split cannot support its target rate the corresponding
    feasibility flag is ``False`` and the dependent thresholds (``tau_l``,
    ``xi_t``, ``theta_l``) are ``None`` instead of negative numbers.

    A named tuple builds in about a third of the time of a frozen dataclass
    of as many fields, and every per-point evaluation builds one.
    """

    rho: Grid
    gamma_th: tuple[float, float, float, float]
    lam: tuple[Grid, ...]
    lam_p: tuple[Grid, ...]
    beta_l: Grid
    beta_t: Grid
    tau_l: Grid | None
    xi_t: Grid | None
    theta_l: Grid | None
    varphi_t: Grid
    feasible_l: bool
    feasible_t: bool


def sinr_threshold(rate: float) -> float:
    """Target SINR for a rate delivered over the two-slot exchange."""
    return 2.0 ** (2.0 * rate) - 1.0


def build_derived_constants(config: SystemConfig, roles: PairRoles, rho: Grid | None = None) -> DerivedConstants:
    """Assemble every outage-evaluator constant in linear units.

    ``rho`` is the linear transmit SNR, ``config.rho`` when omitted; an array
    of them gives every point of an SNR grid at once, each entry bit for bit
    the constant built for that point alone.
    """
    if rho is None:
        rho = config.rho
    a_l, a_t = config.a[roles.l - 1], config.a[roles.t - 1]
    a_k, a_r = config.a[roles.k - 1], config.a[roles.r - 1]
    b_l, b_t = config.b[roles.l - 1], config.b[roles.t - 1]
    om_t, om_k, om_r = config.omega[roles.t - 1], config.omega[roles.k - 1], config.omega[roles.r - 1]
    om_l = config.omega[roles.l - 1]

    gamma_th = tuple(map(sinr_threshold, config.rates))
    g_l, g_t = gamma_th[roles.l - 1], gamma_th[roles.t - 1]

    lam: tuple[Grid, ...] = (1.0 / (rho * a_t * om_t),)
    lam_p: tuple[Grid, ...] = ()
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
    theta_l = None
    if feasible_l and feasible_t:
        # the larger threshold, chosen as max() chooses, entry by entry for a grid
        theta_l = np.where(xi_t > tau_l, xi_t, tau_l) if isinstance(rho, np.ndarray) else max(tau_l, xi_t)

    varphi_t = (om_l + rho * beta_l * a_t * om_t) / (om_l * om_t)

    return DerivedConstants(
        rho=rho,
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


def chunk_generator(seed: int, chunk: int) -> np.random.Generator:
    """The counter-based generator of Monte Carlo chunk ``chunk`` of a run seeded ``seed``.

    It is fully determined by ``(seed, chunk)``, so any chunk can be drawn
    without drawing the ones before it; chunks dealt to any number of workers
    give the same results.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(chunk,))))


# Every Monte Carlo chunk draws UNIT_ROWS rows of unit exponentials, in two
# halves. Under ipSIC the uplink (multiple-access) slot reads rows 0-4, g1..g4
# and then the residual gain gI, and the downlink (broadcast) slot rows 5-9.
# pSIC has no residual, so its slots read rows 0-3 and 4-7. ``sinr.event_table``
# reads rows by these numbers, with the variances in its coefficients. A unit
# row scaled by a variance equals ``exponential(variance)`` drawn in its place
# bit for bit, so one draw serves both SIC modes and both role groups with
# the draws each would have made alone.
UNIT_ROWS = 10
UPLINK, DOWNLINK = 0, 1


def unit_rows(rng: np.random.Generator, count: int, out: list | None = None) -> list[np.ndarray]:
    """The generator's next half of a chunk: ``UNIT_ROWS // 2`` rows of ``count`` unit exponential draws.

    With ``out`` (``UNIT_ROWS // 2`` contiguous float64 rows of at least
    ``count`` entries) the draws are written into the first ``count`` entries
    of each row, bit for bit the values a fresh draw would return, and the
    returned rows are views of ``out``.
    """
    if out is None:
        return [rng.standard_exponential(count) for _ in range(UNIT_ROWS // 2)]
    return [rng.standard_exponential(out=row[:count]) for row in out]


DEFAULT_TRIALS = 10**6  # reference iteration count for the numerical presets
DEFAULT_SEED = 1  # the seed of every seeded run that is not given one


def check_integer(value: int, what: str) -> None:
    """A ``ConfigError`` unless ``value`` is what ``operator.index`` accepts, so numpy integers and bools pass."""
    try:
        operator.index(value)
    except TypeError:
        raise ConfigError(f"{what} must be an integer, got {value!r}") from None


def check_seed(seed: int) -> None:
    """A ``ConfigError`` for a seed that no random generator accepts: a non-integer or a negative one."""
    check_integer(seed, "seed")
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")


@dataclass(frozen=True)
class RunSettings:
    """Simulation controls carried by config files next to the physics."""

    trials: int = DEFAULT_TRIALS
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        check_seed(self.seed)


# the keys outside _FILE_KEYS, each with the type its value is read as
_OTHER_KEYS = {"d1": float, "d2": float, "alpha": float, "trials": int, "seed": int}


def load_config_file(path: str | Path, **overrides: object) -> tuple[SystemConfig, RunSettings]:
    """Parse a flat ``key=value`` config file (UTF-8, a leading BOM and ``#`` comments allowed).

    A field of :data:`DOMAIN` is a key, a four-entry field four numbered keys
    (``a1..a4``, ``r1..r4``), all or none. ``d1, d2, alpha`` (distances and
    path-loss exponent) may replace ``omega1..omega4``; ``trials`` and ``seed``
    are the run settings. Any other key is an error, ``sic_mode`` among them:
    the SIC mode is chosen per command. Missing keys fall back to the defaults.
    ``overrides`` are :class:`SystemConfig` fields that replace the file's
    before the config is built, so a file value they replace is never checked
    against the domain. Of several faults, the first faulty line is reported
    (not ``key=value``, an unknown or duplicate key, a value ``float()`` or, for
    ``trials`` and ``seed``, ``int()`` rejects), then the omega/distance rules,
    then, of the four-key groups with a key missing, the one begun first.
    """
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    values: dict[str, object] = {}
    groups: dict[str, list] = {}
    other: dict[str, float | int] = {}
    seen = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line.strip()!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        kind = float if key in _FILE_KEYS else _OTHER_KEYS.get(key)
        if kind is None:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        seen.add(key)
        try:
            number = kind(value)
        except ValueError as exc:
            raise ConfigError(f"{path}: key {key!r} is not {'an integer' if kind is int else 'a number'}: "
                              f"{value!r}") from exc
        if key in _OTHER_KEYS:
            other[key] = number
            continue
        name, entry = _FILE_KEYS[key]
        if entry is None:
            values[name] = number
        else:
            groups.setdefault(name, [None] * 4)[entry] = number

    distances = [other[key] for key in ("d1", "d2", "alpha") if key in other]
    if distances:
        if "omega" in groups:
            raise ConfigError(f"{path}: give either omega1..omega4 or d1,d2,alpha, not both")
        if len(distances) != 3:
            raise ConfigError(f"{path}: d1, d2 and alpha must be given together")
        values["omega"] = omega_from_distances(*distances)
    for name, entries in groups.items():
        if None in entries:
            keys = ", ".join(f"{_ENTRY_PREFIX[name]}{i}" for i in range(1, 5))
            raise ConfigError(f"{path}: all four of {keys} are required")
        values[name] = tuple(entries)
    settings = RunSettings(**{key: other[key] for key in ("trials", "seed") if key in other})
    return SystemConfig(**{**values, **overrides}), settings
