"""Independent numerical-quadrature evaluation of the outage integrals.

Arbiter between the closed forms and the underlying probability integrals:
the survival stages that the closed forms express through Laplace-transform
products are recomputed here by adaptive Gauss-Kronrod quadrature of the
integral representations. Semi-infinite domains are mapped to (0, 1] via
``z = scale * (1 - u) / u``.

What is integrated is the oracle's own: the hypoexponential density
(:func:`~twrnoma.analysis.hypoexp_pdf`, unit-tested against analytic cases on
its own), which the closed forms never call; they use the Laplace transform
:func:`~twrnoma.analysis.interference_laplace`. What feeds the integrals is
shared: both paths read every threshold, interference rate and feasibility
flag from :func:`~twrnoma.model.build_derived_constants`, and the weaker
signal's relay prefactor and user-stage tails are the closed forms'
expressions, so a wrong derived constant passes their agreement.

Each panel is integrated by the 15-point Kronrod rule and its embedded
7-point Gauss rule (QUADPACK's ``qk15``, Piessens et al., 1983). The panel's
error estimate is ``|K15 - G7|``, floored at ``50 eps`` times the K15
integral of ``|f|`` so that round-off cannot keep a converged panel open.
The pass runs level by level, over many integrals at once: every panel still
open at one bisection depth, in every integral of the batch, is evaluated on
its 15 nodes in a single vectorised integrand call. A panel is accepted once
its error estimate is at most its share of its integral's tolerance,
``tol * (b - a)`` in ``u``, but never before depth 2, so a coarse panel whose
two rules agree by chance cannot end the refinement early. Only the levels
whose numbers are read are evaluated: depth 0, whose estimate anchors each
relative tolerance, and depth 2 onward. Depth 1 is bisected without being
evaluated, so an integral that converges at depth 2 costs 600 integrand
evaluations, not 840; the panel budget still counts it, and it is evaluated
only to name the worst panel when the budget runs out there. Each integral
keeps its own tolerance, depth limit and panel budget, and comes out bit for
bit as it would alone: the ``math.fsum`` of its accepted panels.

:func:`quad_outages` evaluates many ``(config, signal, SIC mode)`` outages:
it collects the distinct integrals of all its cases, orders them by kind
(relay, near user or relay pair, and density size) and integrates them in
passes of at most ``_GROUP`` integrals, whatever their kinds. Within a pass,
each kind's integrand evaluates the contiguous rows of that kind's members;
a density kind stacks its members' rate sets into one
:class:`~twrnoma.analysis.HypoexpSpec`, and each row reads its own member's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .analysis import CLAMP_GATE, HypoexpSpec, hypoexp_pdf
from .errors import ConfigError, OracleError
from .model import SystemConfig, build_derived_constants, check_sic_mode, signal_roles

_INITIAL_PANELS = 8
# Depth before which no panel is accepted. With acceptance from depth 1, the
# density of rates (2e5, 500, 5) was accepted with a true error of 6.3e-8.
_MIN_DEPTH = 2
_MAX_DEPTH = 60
# Panels per integral: those of the bisection, the initial ones and the
# level that is never evaluated included. An evaluated panel costs 15
# integrand evaluations.
_MAX_PANELS = 200_000
# Integrals per pass in quad_outages, so at most this many share an
# integrand call and the working set does not grow with the number of cases.
_GROUP = 32

# QUADPACK qk15 on [-1, 1]: the non-negative Kronrod abscissae in descending
# order, their Kronrod weights, and the Gauss weights of the abscissae
# 0.949..., 0.741..., 0.405... and 0.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)
# The full rule in ascending order; the G7 nodes are the odd-indexed ones.
_NODES = np.array([-x for x in _XGK[:-1]] + list(_XGK[::-1]))
_KRONROD_WEIGHTS = np.array(_WGK + _WGK[-2::-1])
_GAUSS_WEIGHTS = np.array(_WG + _WG[-2::-1])
_ROUNDOFF_FLOOR = 50.0 * np.finfo(float).eps


@dataclass(frozen=True)
class QuadSpec:
    """Quadrature tolerances; the panel budget is ``_MAX_PANELS`` per integral."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-9

    def __post_init__(self) -> None:
        if self.abs_tol <= 0.0 or self.rel_tol <= 0.0:
            raise ConfigError("quadrature tolerances must be positive")


def integrate_batch(
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
    lower: Sequence[float],
    scale: Sequence[float],
    spec: QuadSpec = QuadSpec(),
    name: str | Sequence[str] = "semi-infinite",
) -> np.ndarray:
    """Integrate ``n`` integrands, the i-th over [lower[i], infinity), in one pass.

    ``fn(z, owner)`` maps a ``(panels, 15)`` array of abscissae to integrand
    values; row ``j`` belongs to integral ``owner[j]``, so per-integral
    parameters broadcast over it as ``param[owner, None]``. ``owner`` is
    ascending: each integral's rows are contiguous. ``name`` is the name of
    every integral, or one name per integral, for the error raised when an
    integral does not converge. Every panel still
    open at one depth, in every integral, is evaluated in that one call. Each
    integral keeps its own tolerance, depth limit and ``_MAX_PANELS``
    budget, and its value is bit for bit what it would be alone: its panels
    stay together in the order they would have alone, and the two Kronrod
    sums, which BLAS rounds differently by row position, run on its own rows.
    """
    lower = np.asarray(lower, dtype=float)
    scale = np.asarray(scale, dtype=float)
    if not np.all((scale > 0.0) & np.isfinite(scale)):
        raise ConfigError("integration scale must be positive and finite")
    count = scale.size

    def gauss_kronrod(a, b, owner):
        # K15 estimate and error estimate of every panel [a, b], in one call of fn
        half = 0.5 * (b - a)
        u = (0.5 * (a + b))[:, None] + half[:, None] * _NODES
        panel_lower, panel_scale = lower[owner, None], scale[owner, None]
        f = fn(panel_lower + panel_scale * (1.0 - u) / u, owner) * panel_scale / (u * u)
        magnitude = np.abs(f)
        kronrod, absolute = np.empty(a.size), np.empty(a.size)
        rows = np.bincount(owner, minlength=count)
        ends = np.cumsum(rows)
        for first, last in zip((ends - rows)[rows > 0], ends[rows > 0]):
            kronrod[first:last] = f[first:last] @ _KRONROD_WEIGHTS
            absolute[first:last] = magnitude[first:last] @ _KRONROD_WEIGHTS
        kronrod *= half
        gauss = half * (f[:, 1::2] @ _GAUSS_WEIGHTS)
        floor = _ROUNDOFF_FLOOR * half * absolute
        return kronrod, np.maximum(np.abs(kronrod - gauss), floor)

    def unconverged(reason, member):
        # reads the current depth's open panels and their error estimates
        panels = np.flatnonzero(owner == member)
        worst = panels[np.argmax(err[panels])]
        lo, sc = float(lower[member]), float(scale[member])
        z_lo = lo + sc * (1.0 - b[worst]) / b[worst]
        z_hi = lo + sc * (1.0 - a[worst]) / a[worst] if a[worst] > 0.0 else math.inf
        return OracleError(
            f"quadrature of the {name if isinstance(name, str) else name[member]} integral {reason} "
            f"(lower={lo:.6g}, scale={sc:.6g}, worst open panel z in [{z_lo:.6g}, {z_hi:.6g}])"
        )

    # Initial uniform panelling: it seeds the adaptive pass and gives the
    # coarse estimate that anchors each relative tolerance.
    edges = np.linspace(0.0, 1.0, _INITIAL_PANELS + 1)
    a, b = np.tile(edges[:-1], count), np.tile(edges[1:], count)
    owner = np.repeat(np.arange(count), _INITIAL_PANELS)
    estimate, err = gauss_kronrod(a, b, owner)
    tol = np.array([
        max(spec.abs_tol, spec.rel_tol * abs(math.fsum(coarse)))
        for coarse in estimate.reshape(count, _INITIAL_PANELS)
    ])
    spent = np.full(count, _INITIAL_PANELS)
    accepted, accepted_owner = [], []
    depth = 0
    while True:
        if depth >= _MIN_DEPTH:
            done = err <= tol[owner] * (b - a)
            accepted.append(estimate[done])
            accepted_owner.append(owner[done])
            if done.all():
                break
            a, b, owner, err = a[~done], b[~done], owner[~done], err[~done]
        open_count = np.bincount(owner, minlength=count)
        if depth == _MAX_DEPTH:
            raise unconverged(
                f"exceeded the maximum bisection depth {_MAX_DEPTH} without converging",
                int(np.flatnonzero(open_count)[0]),
            )
        spent += 2 * open_count
        over = np.flatnonzero(spent > _MAX_PANELS)
        if over.size:
            if err is None:
                # a level above 0 and below _MIN_DEPTH is evaluated only to name its worst panel
                _, err = gauss_kronrod(a, b, owner)
            raise unconverged(
                f"did not converge within the subdivision budget of {_MAX_PANELS} panels",
                int(over[0]),
            )
        # each integral's left halves, then its right halves, as it would bisect alone
        start = np.cumsum(open_count) - open_count
        left = start[owner] + np.arange(owner.size)
        right = left + open_count[owner]
        middle = 0.5 * (a + b)
        halves = 2 * owner.size
        a_next, b_next, owner_next = np.empty(halves), np.empty(halves), np.empty(halves, dtype=owner.dtype)
        a_next[left], b_next[left], owner_next[left] = a, middle, owner
        a_next[right], b_next[right], owner_next[right] = middle, b, owner
        a, b, owner = a_next, b_next, owner_next
        depth += 1
        # no estimate after depth 0 and before _MIN_DEPTH is read, so those levels are bisected unevaluated
        estimate, err = gauss_kronrod(a, b, owner) if depth >= _MIN_DEPTH else (None, None)
    # each integral's accepted estimates, grouped in the order they were accepted
    owners = np.concatenate(accepted_owner)
    grouped = np.concatenate(accepted)[np.argsort(owners, kind="stable")]
    ends = np.cumsum(np.bincount(owners, minlength=count))
    return np.array([math.fsum(part) for part in np.split(grouped, ends[:-1])])


def integrate_semi_infinite(
    fn: Callable[[np.ndarray], np.ndarray],
    lower: float = 0.0,
    scale: float = 1.0,
    spec: QuadSpec = QuadSpec(),
) -> float:
    """Integrate ``fn`` over [lower, infinity) for exponentially decaying integrands.

    A batch of one for :func:`integrate_batch`. ``fn`` maps an array of
    abscissae to an array of integrand values. ``scale`` should match the
    integrand's decay length so the transformed mass sits mid-interval; the
    rule never evaluates the endpoint u = 0 (z = infinity).
    """
    return float(integrate_batch(lambda z, owner: fn(z), (lower,), (scale,), spec)[0])


def _decay_scale(rates: tuple[float, ...], s: float) -> float:
    # harmonic blend of the sum's mean and the weight's decay length
    mean = math.fsum(1.0 / r for r in rates) if rates else 0.0
    if mean == 0.0:
        return 1.0 / s if s > 0.0 else 1.0
    inv = 1.0 / mean + s
    return 1.0 / inv


def _relay_integrand(rates, s):
    pdf, s = HypoexpSpec(*rates), np.array(s)

    def integrand(z, owner):
        return hypoexp_pdf(pdf, z, owner) * np.exp(-(z + 1.0) * s[owner, None])

    return integrand


def _pair_integrand(rates, s):
    pdf, s = HypoexpSpec(*rates), np.array(s)

    def integrand(z, owner):
        return hypoexp_pdf(pdf, z, owner) * np.exp(-s[owner, None] * z)

    return integrand


def _user_integrand(om_k):
    om_k = np.array(om_k)

    def integrand(y, owner):
        om = om_k[owner, None]
        return np.exp(-y / om) / om

    return integrand


def _residual_user_integrand(om_k, tau, residual_scale):
    om_k, tau, residual_scale = np.array(om_k), np.array(tau), np.array(residual_scale)

    def integrand(y, owner):
        om = om_k[owner, None]
        survive_residual = 1.0 - np.exp(-(y - tau[owner, None]) / residual_scale[owner, None])
        return survive_residual * np.exp(-y / om) / om

    return integrand


def quad_outages(
    cases: Sequence[tuple[SystemConfig, str, str]], spec: QuadSpec = QuadSpec()
) -> list[float]:
    """Outage of each ``(config, signal, SIC mode)`` case by quadrature of its survival integrals.

    ``signal`` is ``"x1"``..``"x4"``; an unknown signal or mode raises
    ``ConfigError``. For the stronger signal of the transmitting pair
    (x1, x3), the relay stage
    integrates the hypoexponential interference density against the
    conditional decode probability, and the near-user stage integrates the
    joint tail over the decode threshold. For the weaker signal (x2, x4), the
    two-term cross-interference density is integrated against the joint
    relay decode probability; its two user-side stages are plain exponential
    tails and are evaluated exactly. Degenerate and reduced interference-term
    sets are handled natively by the density.

    The distinct integrals of all cases are ordered by kind and density size
    and integrated in :func:`integrate_batch` passes of at most ``_GROUP``
    integrals, which may mix kinds; an integral asked for twice, such as the
    relay integral of both SIC modes, is integrated once. An integrand call
    never sees more than ``_GROUP`` integrals, so its memory does not grow
    with the number of cases. Each value equals the case's value evaluated
    alone, bit for bit.
    """
    # (integrand factory, integral name, density size) -> {(lower, scale,
    # integrand parameters): index} of that kind's integrals
    kinds: dict[tuple, dict[tuple, int]] = {}

    def request(kind, lower, scale, *params):
        members = kinds.setdefault(kind, {})
        return kind, members.setdefault((lower, scale, params), len(members))

    plans = []
    for config, signal, mode in cases:
        roles, kind = signal_roles(signal)
        plan = _plan_xl if kind == "l" else _plan_xt
        plans.append(plan(config, roles, check_sic_mode(mode), build_derived_constants(config, roles), request))
    # ((kind, index), (lower, scale, params)) of every integral, ordered by kind
    integrals = [((kind, index), member) for kind, members in kinds.items() for index, member in enumerate(members)]
    value = {}
    for first in range(0, len(integrals), _GROUP):
        passed = integrals[first:first + _GROUP]
        value.update(zip((key for key, _ in passed), _integrate_pass(passed, spec).tolist()))
    return [plan(value) for plan in plans]


def _integrate_pass(integrals, spec):
    # the values of integrals, ordered by kind, from one integrate_batch pass
    kinds = [kind for (kind, _), _ in integrals]
    lowers, scales, params = zip(*(member for _, member in integrals))
    starts = [i for i, kind in enumerate(kinds) if i == 0 or kind != kinds[i - 1]]
    bounds = starts + [len(kinds)]
    integrands = [kinds[first][0](*zip(*params[first:last])) for first, last in zip(bounds, bounds[1:])]

    def integrand(z, owner):
        # each kind's rows are contiguous, as owner is ascending
        rows = np.searchsorted(owner, bounds)
        f = np.empty_like(z)
        for fn, first, lo, hi in zip(integrands, starts, rows, rows[1:]):
            if hi > lo:
                f[lo:hi] = fn(z[lo:hi], owner[lo:hi] - first)
        return f

    return integrate_batch(integrand, lowers, scales, spec, [kind[1] for kind in kinds])


def _plan_xl(config, roles, mode, dc, request):
    # requests the x_l integrals; returns the outage as a function of the integral values
    if not (dc.feasible_l and dc.feasible_t):
        return lambda value: 1.0
    g_l = dc.gamma_th[roles.l - 1]
    g_t = dc.gamma_th[roles.t - 1]
    if g_l == 0.0 and g_t == 0.0:
        return lambda value: 0.0
    om_l, om_k = config.omega[roles.l - 1], config.omega[roles.k - 1]
    s = dc.beta_l / om_l
    relay = request((_relay_integrand, "relay", len(dc.lam)), 0.0, _decay_scale(dc.lam, s), dc.lam, s)
    tau = dc.tau_l
    theta = dc.theta_l
    if mode == "pSIC" or tau == 0.0:
        user = request((_user_integrand, "near user"), theta, om_k, om_k)
    else:
        residual_scale = tau * config.rho * config.omega_i
        user = request((_residual_user_integrand, "near user"), theta, om_k, om_k, tau, residual_scale)
    return lambda value: _finish(1.0 - value[relay] * value[user])


def _plan_xt(config, roles, mode, dc, request):
    # requests the x_t integral; returns the outage as a function of the integral values
    if not dc.feasible_t:
        return lambda value: 1.0
    g_l = dc.gamma_th[roles.l - 1]
    g_t = dc.gamma_th[roles.t - 1]
    if g_l == 0.0 and g_t == 0.0:
        return lambda value: 0.0
    om_l, om_t = config.omega[roles.l - 1], config.omega[roles.t - 1]
    om_k, om_r = config.omega[roles.k - 1], config.omega[roles.r - 1]
    s = dc.beta_l / om_l + dc.beta_t * dc.varphi_t
    residual = 1.0 + config.rho * dc.beta_t * dc.varphi_t * config.omega_i if mode == "ipSIC" else 1.0
    prefactor = math.exp(-dc.beta_l / om_l - dc.beta_t * dc.varphi_t) / (dc.varphi_t * om_t * residual)
    users = math.exp(-dc.xi_t / om_k) * math.exp(-dc.xi_t / om_r)
    if not dc.lam_p:
        # no cross-pair leakage: the interference sum is identically zero
        return lambda value: _finish(1.0 - prefactor * users)
    pair = request((_pair_integrand, "relay pair", len(dc.lam_p)), 0.0, _decay_scale(dc.lam_p, s), dc.lam_p, s)
    return lambda value: _finish(1.0 - prefactor * value[pair] * users)


def _finish(raw: float) -> float:
    if not math.isfinite(raw):
        raise OracleError(f"quadrature produced a non-finite outage value: {raw!r}")
    if raw < -CLAMP_GATE or raw > 1.0 + CLAMP_GATE:
        raise OracleError(f"quadrature outage left [0, 1] by more than the clamp gate: {raw!r}")
    return min(max(raw, 0.0), 1.0)
