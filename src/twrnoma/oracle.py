"""Independent numerical-quadrature evaluation of the outage integrals.

Arbiter between the closed forms and the underlying probability integrals:
the survival stages that the closed forms express through Laplace-transform
products are recomputed here by adaptive Simpson quadrature of the integral
representations, sharing only the hypoexponential density (which is
unit-tested against analytic cases on its own). Semi-infinite domains are
mapped to (0, 1] via ``z = scale * (1 - u) / u``.

The adaptive Simpson pass runs level by level: every panel still open at one
bisection depth is refined in a single vectorised integrand call. A panel is
accepted once its refined and whole estimates agree, but never before depth
2, so a coarse panel whose two estimates agree by chance cannot end the
refinement early.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .analysis import CLAMP_GATE, HypoexpSpec, hypoexp_pdf
from .errors import ConfigError, OracleError
from .model import PairRoles, SystemConfig, build_derived_constants

_INITIAL_PANELS = 16
# Depth before which no panel is accepted. A depth-0 panel's whole and refined
# estimates can agree within a requested 1e-11 while its true error is 7.9e-10
# (tests/test_oracle.py keeps such a scenario).
_MIN_DEPTH = 2
_MAX_DEPTH = 60


@dataclass(frozen=True)
class QuadSpec:
    """Quadrature tolerances and the subdivision budget."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-9
    max_subdivisions: int = 200_000

    def __post_init__(self) -> None:
        if self.abs_tol <= 0.0 or self.rel_tol <= 0.0:
            raise ConfigError("quadrature tolerances must be positive")
        if self.max_subdivisions < _INITIAL_PANELS:
            raise ConfigError("subdivision budget too small")


def integrate_semi_infinite(
    fn: Callable[[np.ndarray], np.ndarray],
    lower: float = 0.0,
    scale: float = 1.0,
    spec: QuadSpec = QuadSpec(),
    name: str = "semi-infinite",
) -> float:
    """Integrate ``fn`` over [lower, infinity) for exponentially decaying integrands.

    ``fn`` maps an array of abscissae to an array of integrand values.
    ``scale`` should match the integrand's decay length so the transformed
    mass sits mid-interval; the endpoint u = 0 (z = infinity) evaluates to 0.
    ``name`` identifies the integral in the error raised when it does not
    converge within ``spec.max_subdivisions`` panels or ``_MAX_DEPTH``
    bisections.
    """
    if scale <= 0.0 or not math.isfinite(scale):
        raise ConfigError("integration scale must be positive and finite")

    def g(u: np.ndarray) -> np.ndarray:
        out = np.zeros_like(u)
        inside = u > 0.0
        v = u[inside]
        out[inside] = fn(lower + scale * (1.0 - v) / v) * scale / (v * v)
        return out

    def unconverged(reason: str, a: float, b: float) -> OracleError:
        z_lo = lower + scale * (1.0 - b) / b
        z_hi = lower + scale * (1.0 - a) / a if a > 0.0 else math.inf
        return OracleError(
            f"quadrature of the {name} integral {reason} "
            f"(lower={lower:.6g}, scale={scale:.6g}, worst open panel z in [{z_lo:.6g}, {z_hi:.6g}])"
        )

    # Initial uniform panelling: it seeds the adaptive pass and gives the
    # coarse estimate that anchors the relative tolerance.
    u = np.linspace(0.0, 1.0, 2 * _INITIAL_PANELS + 1)
    f = g(u)
    a, b = u[:-2:2], u[2::2]
    fa, fm, fb = f[:-2:2], f[1:-1:2], f[2::2]
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    tol = max(spec.abs_tol, spec.rel_tol * abs(math.fsum(whole))) / _INITIAL_PANELS
    spent = a.size
    accepted = []
    depth = 0
    while True:
        m = 0.5 * (a + b)
        f = g(np.concatenate((0.5 * (a + m), 0.5 * (m + b))))
        flm, frm = f[: a.size], f[a.size :]
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        refined = left + right
        err = refined - whole
        done = (np.abs(err) <= 15.0 * tol) & (depth >= _MIN_DEPTH)
        accepted.append(refined[done] + err[done] / 15.0)
        open_ = ~done
        if not open_.any():
            return math.fsum(np.concatenate(accepted))
        worst = int(np.argmax(np.where(open_, np.abs(err), -np.inf)))
        if depth == _MAX_DEPTH:
            raise unconverged(
                f"exceeded the maximum bisection depth {_MAX_DEPTH} without converging", a[worst], b[worst]
            )
        spent += 2 * int(np.count_nonzero(open_))
        if spent > spec.max_subdivisions:
            raise unconverged(
                f"did not converge within the subdivision budget of {spec.max_subdivisions} panels",
                a[worst], b[worst],
            )
        a, m, b = a[open_], m[open_], b[open_]
        fa, flm, fm, frm, fb = fa[open_], flm[open_], fm[open_], frm[open_], fb[open_]
        a, b = np.concatenate((a, m)), np.concatenate((m, b))
        fa, fm, fb = np.concatenate((fa, fm)), np.concatenate((flm, frm)), np.concatenate((fm, fb))
        whole = np.concatenate((left[open_], right[open_]))
        tol *= 0.5
        depth += 1


def _decay_scale(rates: tuple[float, ...], s: float) -> float:
    # harmonic blend of the sum's mean and the weight's decay length
    mean = math.fsum(1.0 / r for r in rates) if rates else 0.0
    if mean == 0.0:
        return 1.0 / s if s > 0.0 else 1.0
    inv = 1.0 / mean + s
    return 1.0 / inv


def quad_outage_xl(config: SystemConfig, roles: PairRoles, spec: QuadSpec = QuadSpec()) -> float:
    """Outage of the stronger signal via quadrature of its two survival integrals.

    The relay stage integrates the hypoexponential interference density
    against the conditional decode probability; the near-user stage
    integrates the joint tail over the decode threshold. Degenerate and
    reduced interference-term sets are handled natively by the density.
    """
    dc = build_derived_constants(config, roles)
    if not (dc.feasible_l and dc.feasible_t):
        return 1.0
    g_l = dc.gamma_th[roles.l - 1]
    g_t = dc.gamma_th[roles.t - 1]
    if g_l == 0.0 and g_t == 0.0:
        return 0.0
    om_l, om_k = config.omega[roles.l - 1], config.omega[roles.k - 1]

    pdf_spec = HypoexpSpec(dc.lam)
    s = dc.beta_l / om_l

    def relay_integrand(z: np.ndarray) -> np.ndarray:
        return hypoexp_pdf(pdf_spec, z) * np.exp(-(z + 1.0) * s)

    relay = integrate_semi_infinite(relay_integrand, 0.0, _decay_scale(dc.lam, s), spec, "relay")

    tau = dc.tau_l
    theta = dc.theta_l
    if config.epsilon == 0.0 or tau == 0.0:

        def user_integrand(y: np.ndarray) -> np.ndarray:
            return np.exp(-y / om_k) / om_k

    else:
        residual_scale = tau * config.rho * config.omega_i

        def user_integrand(y: np.ndarray) -> np.ndarray:
            survive_residual = 1.0 - np.exp(-(y - tau) / residual_scale)
            return survive_residual * np.exp(-y / om_k) / om_k

    user = integrate_semi_infinite(user_integrand, theta, om_k, spec, "near user")
    return _finish(1.0 - relay * user)


def quad_outage_xt(config: SystemConfig, roles: PairRoles, spec: QuadSpec = QuadSpec()) -> float:
    """Outage of the weaker signal via quadrature of the relay-pair integral.

    The two-term cross-interference density is integrated against the joint
    relay decode probability; the two user-side stages are plain exponential
    tails and are evaluated exactly.
    """
    dc = build_derived_constants(config, roles)
    if not dc.feasible_t:
        return 1.0
    g_l = dc.gamma_th[roles.l - 1]
    g_t = dc.gamma_th[roles.t - 1]
    if g_l == 0.0 and g_t == 0.0:
        return 0.0
    om_l, om_t = config.omega[roles.l - 1], config.omega[roles.t - 1]
    om_k, om_r = config.omega[roles.k - 1], config.omega[roles.r - 1]

    s = dc.beta_l / om_l + dc.beta_t * dc.varphi_t
    prefactor = math.exp(-dc.beta_l / om_l - dc.beta_t * dc.varphi_t) / (
        dc.varphi_t * om_t * (1.0 + config.epsilon * config.rho * dc.beta_t * dc.varphi_t * config.omega_i)
    )
    if dc.lam_p:
        pdf_spec = HypoexpSpec(dc.lam_p)

        def pair_integrand(z: np.ndarray) -> np.ndarray:
            return hypoexp_pdf(pdf_spec, z) * np.exp(-s * z)

        integral = integrate_semi_infinite(pair_integrand, 0.0, _decay_scale(dc.lam_p, s), spec, "relay pair")
    else:
        # no cross-pair leakage: the interference sum is identically zero
        integral = 1.0
    relay_pair = prefactor * integral
    users = math.exp(-dc.xi_t / om_k) * math.exp(-dc.xi_t / om_r)
    return _finish(1.0 - relay_pair * users)


def _finish(raw: float) -> float:
    if not math.isfinite(raw):
        raise OracleError(f"quadrature produced a non-finite outage value: {raw!r}")
    if raw < -CLAMP_GATE or raw > 1.0 + CLAMP_GATE:
        raise OracleError(f"quadrature outage left [0, 1] by more than the clamp gate: {raw!r}")
    return min(max(raw, 0.0), 1.0)
