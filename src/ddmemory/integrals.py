"""Decoupling-error integrals over the noise band.

The stored error of a sequence is the band-limited overlap

    chi = integral from omega_min to omega_max of
          S(omega) * F(omega) / omega^2  domega,

with S in rad/s and F the (dimensionless) filter function.  Spectra in
this package are normalized so that the free-evolution calibration
chi(free(T2)) = 1 holds under this convention; see the preset files.

m-fold repetition multiplies the base filter by the Dirichlet kernel
sin^2(m w T_p/2)/sin^2(w T_p/2), which oscillates on the scale
2 pi/(m T_p) and spikes as m^2 at the resonances w_k = 2 pi k/T_p.
A blind adaptive integrator misses those spikes, so integration panels
are aligned to the kernel nodes, the quiet region below 1/T is covered
by a log ladder, and the spectrum's cutoff is always a panel edge.
For m above a configurable crossover m0 (100 by default) the comb walk
(_chi_comb), whose cost does not depend on m, takes over.  The two paths
are cross-checked at m0 once per problem, in one memo that also keeps the
direct budget at m0, where a direct walk costs about as much as one of a
single run.  With m -> infinity the same comb walk, minus the masses that
grow with m, is the plateau level chi_plateau_limit.

m repeats make r = G X - Y per quadrature, G the repetition factor and Y
an odd base's junction pulses and a read delay; _repeat_nodes forms each
node's omega*y, X and Y from one pulse evaluation.  Every direct chi is one
_Walk.band walk (integrate_rows) of S |G X - Y|^2 / omega^2 (_ff_rows_factory),
every comb chi one _comb_walk of |X|^2, X conj(Y) and |Y|^2 (_repeat_terms),
so jitter_curve, and chi_with_jitter at one delay, take one comb walk per
delay.  Each walk keeps its panel budget, contributions, error, tail stop
and failure in one _Walk.  Panel integrals use a 7-point Gauss / 15-point Kronrod pair
derived at import, and _Walk.integrate splits panels on exactly the error its
panel rule charges (_k15, or _repeat_weighted on the comb walk with m given).

rel_tol is the only accuracy rule; no tolerance is absolute, so chi is
linear in the strength g.  _Walk.integrate holds each region to (1 - _TAIL_SHARE)
rel_tol of its total, a walk stops once its tail is within _TAIL_SHARE
rel_tol of its running total, and _assemble, which every result passes
through, raises AccuracyError where quad_error > rel_tol |chi_total|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial
from typing import Callable, List, NoReturn, Optional, Tuple

import numpy as np

from .errors import (
    AccuracyError, ConsistencyError, DomainError, require_count, require_nonnegative, require_positive,
)
from .filters import dirichlet_factor, dirichlet_ratio
from .noise import HARD, NoiseSpectrum, evaluate
from .pulses import BANG_BANG, PulseShape, bang_bang, quadrature_components
from .sequences import TimingPattern, truncate

__all__ = [
    "QuadratureConfig",
    "DEFAULT_CONFIG",
    "ErrorBudget",
    "chi",
    "chi_repeated",
    "chi_during",
    "chi_plateau_limit",
    "chi_with_jitter",
    "jitter_curve",
    "integrate_rows",
]


def _kronrod_rule() -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 15 Kronrod nodes on [-1, 1], ascending, with their K15 weights and G7 weights.

    The 7-point Gauss nodes are every second node; G7's weights are zero on
    the 8 others, the roots of the Stieltjes polynomial E_8 = P_8 + sum of
    c_j P_j (j < 8), whose integral against P_7 P_k vanishes for every k < 8
    (Laurie, Math. Comp. 66, 1133 (1997)).  The K15 weights solve the 15
    Legendre moment equations, so K15 is exact to degree 22: QUADPACK's
    qk15 pair.
    """
    leg = np.polynomial.legendre
    x_g, w_g = leg.leggauss(7)
    # integrals of P_7 P_k P_j, k < 8, j <= 8, by a Gauss rule exact to degree 79
    x, w = leg.leggauss(40)
    v = leg.legvander(x, 8)
    moments = (v[:, :8] * (w * v[:, 7])[:, None]).T @ v
    x_k = np.sort(leg.legroots(np.append(np.linalg.solve(moments[:, :8], -moments[:, 8]), 1.0)))
    # E_8 is even: mirror its roots exactly
    nodes = np.sort(np.concatenate([x_g, 0.5 * (x_k - x_k[::-1])]))
    w_k15 = np.linalg.solve(leg.legvander(nodes, 14).T, np.eye(15)[0] * 2.0)
    w_g7 = np.zeros(15)
    w_g7[1::2] = w_g
    return nodes, w_k15, w_g7


_NODES, _WK15, _WG7 = _kronrod_rule()

_LADDER_PER_DECADE = 8
_WALK_BLOCK_LOBES = 1024
_TAIL_SHARE = 0.25  # of rel_tol, spent on the truncated tail; the panels get the rest
_MAX_REFINE_ROUNDS = 60
_ROUNDING_ULPS = 2  # rounding charge of a comb walk whose terms cancel, in eps of their size
_FILON_SERIES = 2.0  # m T_p h up to which a comb panel integrates its weighted rows by K15
_FILON_RECURRENCE = 30.0  # m T_p h above which Legendre moments use the Bessel recurrence

# Legendre coefficients of the degree-14 interpolant on the 15 Kronrod nodes,
# and the 80-point Gauss-Legendre rule that gives its moments at small m T_p h
_TO_LEGENDRE = np.linalg.inv(np.polynomial.legendre.legvander(_NODES, 14))
_GL_X, _GL_W = np.polynomial.legendre.leggauss(80)
_GL_P = np.polynomial.legendre.legvander(_GL_X, 14) * _GL_W[:, None]

RowsFn = Callable[[np.ndarray], np.ndarray]
# a panel rule: integrals (R', P) and row 0's errors (P,) of panels [a_i, b_i] from node values (R, P, 15)
RuleFn = Callable[[np.ndarray, np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class QuadratureConfig:
    """Accuracy and resource knobs for the error integrals.

    rel_tol            every result has quad_error <= rel_tol * |chi_total|, or raises AccuracyError
    max_panels         evaluation budget per integral
    comb_crossover     repeat count above which the resonance-comb path runs
    validate_crossover cross-check comb vs direct at the crossover once

    Both paths evaluate the same integral; the crossover only picks the
    comb walk, whose cost does not depend on m, over the direct path,
    which resolves every kernel node and costs about m.  At the default
    m0 = 100 the direct walk of CDD4 (1 us slots, gaas) takes about as many
    panels as a single run: 2 162 against 2 111, and 4 923 at m = 1000.
    """

    rel_tol: float = 1e-6
    max_panels: int = 200_000
    comb_crossover: int = 100
    validate_crossover: bool = True

    def __post_init__(self) -> None:
        if not 0 < self.rel_tol < 1:
            raise DomainError(f"rel_tol must lie in (0, 1), got {self.rel_tol}")
        require_count("max_panels", self.max_panels, least=64)
        require_count("comb_crossover", self.comb_crossover, least=16)


DEFAULT_CONFIG = QuadratureConfig()


@dataclass(frozen=True)
class ErrorBudget:
    """Decoupling error and its decomposition for one stored-state scenario.

    chi_total = chi_low + chi_high (split at the spectrum's cutoff) and
    also chi_bb + chi_pul (ideal-pulse part vs finite-width excess).  The
    excess is signed: finite pulses can also lower the error, as 10 ns
    DCG pulses do for UDD5 on gaas, and then chi_pul < 0.  A plateau
    level's chi_low and chi_high are parts of an intercept and may be
    negative too.  coherence = exp(-chi_total).  m is the repeat count of
    the evaluated pattern (None for asymptotic estimates).  quad_error
    bounds the numerical error of chi_total.  growth_per_repeat, comb_path
    and comb_agreement are filled by the resonance-comb path; comb_agreement
    is the comb walk's relative gap from the direct walk at comb_crossover
    (m0), which chi_repeated reports on every m > m0 while validate_crossover is set.
    """

    chi_total: float
    chi_bb: float
    chi_pul: float
    chi_low: float
    chi_high: float
    coherence: float
    m: Optional[int] = 1
    quad_error: float = 0.0
    growth_per_repeat: Optional[float] = None
    comb_path: bool = False
    comb_agreement: Optional[float] = None


def _panel_nodes(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The 15 Kronrod nodes (P, 15) of panels [a_i, b_i]."""
    half = 0.5 * (b - a)
    return 0.5 * (a + b)[:, None] + half[:, None] * _NODES[None, :]


def _node_values(rows_fn: RowsFn, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """rows_fn at the Kronrod nodes of panels [a_i, b_i], as (R, P, 15)."""
    vals = rows_fn(_panel_nodes(a, b).ravel())
    return vals.reshape(vals.shape[0], len(a), 15)


def _k15(a: np.ndarray, b: np.ndarray, vals: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """K15 integrals (R, P) of panels [a_i, b_i] from node values (R, P, 15), and row 0's |K15 - G7|."""
    half = 0.5 * (b - a)
    k15 = vals @ _WK15 * half
    return k15, np.abs(k15[0] - vals[0] @ _WG7 * half)


def _ladder_and_lobes(w_lo: float, w_hi: float, lobe: float, walk: _Walk) -> np.ndarray:
    """Log ladder while spacing < lobe width, then half-lobe edges on the node grid."""
    w_switch = min(w_hi, max(w_lo, 3.0 * lobe))
    edges = [w_lo]
    if w_switch > w_lo:
        n_ladder = max(2, int(math.ceil(_LADDER_PER_DECADE * math.log10(w_switch / w_lo))))
        edges = list(np.geomspace(w_lo, w_switch, n_ladder + 1))
    if w_switch < w_hi:
        half = 0.5 * lobe
        j0 = int(math.floor(w_switch / half)) + 1
        j1 = int(math.ceil(w_hi / half))
        walk.check(j1 - j0 - 2)  # all but two edges start a panel: fail before building them
        grid = np.arange(j0, j1) * half
        edges.extend(grid[(grid > w_switch) & (grid < w_hi)])
        edges.append(w_hi)
    return np.asarray(edges)


def _with_breakpoint(edges: np.ndarray, x: float) -> np.ndarray:
    """edges with x added when strictly inside: an inner edge within 1e-12 moves onto x."""
    if not (edges[0] < x < edges[-1]):
        return edges
    i = int(np.searchsorted(edges, x))
    for j in (i - 1, i):
        if math.isclose(edges[j], x, rel_tol=1e-12):
            if 0 < j < len(edges) - 1:
                edges = edges.copy()
                edges[j] = x
            return edges
    return np.insert(edges, i, x)


def _band_top(spec: NoiseSpectrum) -> float:
    """Upper edge of the integrated band: omega_max, clamped at omega_c for a hard cutoff."""
    return min(spec.omega_max, spec.omega_c) if spec.rolloff == HARD else spec.omega_max


def _filter_bound(p: TimingPattern) -> float:
    """4 (n+1)^2, an upper bound of the bang-bang filter |omega*y|^2 of n pulses.

    omega*y sums n + 2 unit phasors with weights 1, 2, ..., 2, 1, so its
    modulus is at most 2 (n+1).  It does not bound the finite-pulse filter
    F_total: 10 ns DCG pulses on UDD5 exceed it 6.8 times near 2.3e8 rad/s.
    """
    return 4.0 * (p.n_pulses + 1) ** 2


@dataclass
class _Walk:
    """State of one band walk: panel budget, contributions, running error and tail stop.

    Contributions (R, P), R = 2, or 3 where a comb walk adds up |Y|^2 W,
    arrive at frequencies (P,) and are split at the cutoff.  The totals are
    math.fsum over each region, which is correctly rounded, so they depend
    neither on the order contributions arrive in nor on how the work was divided.
    """

    spec: NoiseSpectrum
    cfg: QuadratureConfig
    ff_bound: float  # bounds row 0 * w^2 / S(w): certifies the tail
    label: str = ""  # names the pattern in failure messages
    panels: int = 0
    total: float = 0.0  # running sum of row 0, for tail checks
    err: float = 0.0
    at: List[np.ndarray] = field(default_factory=lambda: [np.zeros(0)])
    rows: List[np.ndarray] = field(default_factory=lambda: [np.zeros((2, 0))])
    open: Tuple[float, float, float] = (0.0, 0.0, 0.0)  # the region integrate holds: row 0 total, error, top

    def tail(self, w: float) -> float:
        """Bound of what the walk would still add above w: twice ff_bound * integral of S/w^2."""
        if w >= self.spec.omega_max:
            return 0.0
        grid = np.geomspace(w, self.spec.omega_max, 257)
        return 2.0 * self.ff_bound * float(np.trapezoid(evaluate(self.spec, grid) / grid**2, grid))

    def check(self, count: int) -> None:
        """Fail if count more panels would overrun the budget."""
        if self.panels + count > self.cfg.max_panels:
            self.fail(f"quadrature budget of {self.cfg.max_panels} panels exhausted")

    def spend(self, count: int) -> None:
        self.check(count)
        self.panels += count

    def fail(self, msg: str) -> NoReturn:
        """Raise AccuracyError with the partial sum, the open region's too; the bound adds the tail above."""
        total, err, top = self.open
        bound = self.err + err + self.tail(max(top, self.spec.omega_min))
        raise AccuracyError(msg + self.label, self.total + total, bound)

    def add(self, at, rows: np.ndarray, err: float = 0.0) -> None:
        """Add contributions at frequencies at."""
        self.at.append(np.atleast_1d(at))
        self.rows.append(np.reshape(rows, (len(rows), -1)))
        self.total += float(np.sum(self.rows[-1][0]))
        self.err += err

    def integrate(self, rows_fn: RowsFn, edges: np.ndarray, top: float, rule: RuleFn = _k15):
        """Integrals of rows_fn by rule over the panels between edges, split to tolerance.

        Panels whose error by rule (see RuleFn) is large are halved, and rows_fn
        evaluates the halves, until the errors sum within (1 - _TAIL_SHARE)
        rel_tol of row 0's total, or of eps times the walk's running total if
        larger: a region too small to move that total is not refined to its size.
        Each batch of node values is integrated once, under the panel budget.
        While refined, the region, which reaches the frequency top, is the
        walk's open one.  Returns (left_edges, row_integrals (R', P),
        total_error), panels sorted by position.
        """
        a = np.asarray(edges[:-1], dtype=float)
        b = np.asarray(edges[1:], dtype=float)
        a, b = a[b > a], b[b > a]
        self.spend(a.size)
        integrals, err = rule(a, b, _node_values(rows_fn, a, b))
        for _ in range(_MAX_REFINE_ROUNDS):
            total = float(np.sum(integrals[0]))
            err_total = float(np.sum(err))
            self.open = (total, err_total, top)
            size = max(abs(total), np.finfo(float).eps * abs(self.total + total))
            if err_total <= (1.0 - _TAIL_SHARE) * self.cfg.rel_tol * size:
                break
            split = err > max(err_total / (4 * len(a)), 1e-3 * float(err.max()))
            if not split.any():
                split[int(np.argmax(err))] = True
            self.spend(int(split.sum()))
            mids = 0.5 * (a[split] + b[split])
            new_a = np.concatenate([a[split], mids])
            new_b = np.concatenate([mids, b[split]])
            new_integrals, new_err = rule(new_a, new_b, _node_values(rows_fn, new_a, new_b))
            a = np.concatenate([a[~split], new_a])
            b = np.concatenate([b[~split], new_b])
            integrals = np.concatenate([integrals[:, ~split], new_integrals], axis=1)
            err = np.concatenate([err[~split], new_err])
        else:
            self.fail(f"refinement did not converge within {_MAX_REFINE_ROUNDS} rounds")
        self.open = (0.0, 0.0, top)
        order = np.argsort(a, kind="stable")
        return a[order], integrals[:, order], float(np.sum(err))

    def region(self, rows_fn: RowsFn, edges: np.ndarray, rule: RuleFn = _k15) -> None:
        """Integrate rows_fn between edges by rule, with the cutoff as an extra edge, and add the rows."""
        a, rows, err = self.integrate(rows_fn, _with_breakpoint(edges, self.spec.omega_c), edges[-1], rule)
        self.add(a, rows, err)

    def band(self, rows_fn: RowsFn, t_osc: float) -> None:
        """Walk rows_fn up from omega_min until the tail is negligible.

        t_osc is the slowest coherent timescale of the rows and sets the
        panel width: a log ladder up to a few lobes pi/t_osc, then half-lobe
        panels in blocks of _WALK_BLOCK_LOBES lobes, with a tail check after each.
        """
        w_lo, w_hi = self.spec.omega_min, _band_top(self.spec)
        if not w_lo < w_hi:
            return
        lobe = math.pi / t_osc
        w = min(w_hi, max(1.25 * self.spec.omega_c, w_lo * 10.0, 6.0 * lobe))
        self.region(rows_fn, _ladder_and_lobes(w_lo, w, lobe, self))
        while w < w_hi:
            w_next = min(w_hi, w + _WALK_BLOCK_LOBES * lobe)
            self.region(rows_fn, _ladder_and_lobes(w, w_next, lobe, self))
            w = w_next
            if w < w_hi and self.stop(w):
                break

    def stop(self, w: float) -> bool:
        """Whether the tail above w is negligible; if it is, it joins the error."""
        tail = self.tail(w)
        if tail <= _TAIL_SHARE * self.cfg.rel_tol * abs(self.total):
            self.err += tail
            return True
        return False

    def totals(self) -> Tuple[np.ndarray, np.ndarray]:
        low = np.concatenate(self.at) < self.spec.omega_c
        rows = np.concatenate(self.rows, axis=1)
        return (
            np.array([math.fsum(r[low]) for r in rows]),
            np.array([math.fsum(r[~low]) for r in rows]),
        )


def _label(p: TimingPattern, m: Optional[int]) -> str:
    """Failure-message suffix naming the pattern and, when repeated, the repeat count."""
    return f" for {p.label!r}" + (f" repeated {m} times" if m not in (None, 1) else "")


def _repeat_nodes(p: TimingPattern, shape: PulseShape, w: np.ndarray, junction: bool, delay: float = 0.0):
    """(omega*y, X, Y) at nodes w from one quadrature_components call: m repeats make r = G X - Y.

    Per quadrature (z, y), G = e^{i(m-1)theta} sin(m theta)/sin(theta), theta = w T_p/2, X is
    (omega*y + b u_p, c_y u_p), b and c_y what one pulse of phasor 1 adds, and Y = 0.  An odd
    base's junction pulses add (b, c_y) to X, and Y = (b, c_y).  A read delay adds D (1 - e^{i w
    delay}) to r_z, D = end_sign e^{i w m T_p} = end_sign (1 + 2i sin(theta) e^{i theta} G): with
    E = end_sign (1 - e^{i w delay}), X_z gains 2i sin(theta) e^{i theta} E and Y_z loses E.
    Parts that vanish are 0.0.
    """
    base, u_p, b, c_y = quadrature_components(p, shape, w)
    x = [base, 0.0] if u_p is None else [base + b * u_p, c_y * u_p]
    y = [0.0, 0.0]
    if junction:
        x, y = [x[0] + b, x[1] + c_y], [b, c_y]
    if delay:
        e = -2j * p.end_sign * np.sin(0.5 * delay * w) * np.exp(0.5j * delay * w)
        theta = 0.5 * p.duration * w
        x[0] = x[0] + 2j * np.sin(theta) * np.exp(1j * theta) * e
        y[0] = y[0] - e
    return base, x, y


def _ff_rows_factory(p: TimingPattern, shape: PulseShape, spec: NoiseSpectrum, m: int = 1) -> RowsFn:
    """Rows [S*F_total/w^2, S*F_ideal/w^2] of m repeats: |G X - Y|^2 (_repeat_nodes), |G|^2 |X|^2 if Y = 0."""
    t_p = p.duration
    finite = shape.kind != BANG_BANG and bool(p.pulse_times)
    junction = m > 1 and finite and p.end_sign < 0

    def rows(w: np.ndarray) -> np.ndarray:
        base, x, y = _repeat_nodes(p, shape, w, junction)
        weight = evaluate(spec, w) / w**2
        f_bb = np.abs(base) ** 2
        if not junction:
            f_total = np.abs(x[0]) ** 2 + np.abs(x[1]) ** 2 if finite else f_bb
            if m > 1:
                weight = weight * dirichlet_factor(m, t_p, w)
            return np.stack([f_total * weight, f_bb * weight])
        theta = 0.5 * t_p * w
        ratio = dirichlet_ratio(m, theta)
        g_rep = np.exp(1j * (m - 1) * theta) * ratio
        f_total = np.abs(g_rep * x[0] - y[0]) ** 2 + np.abs(g_rep * x[1] - y[1]) ** 2
        return np.stack([f_total * weight, ratio**2 * f_bb * weight])

    return rows


def _repeat_terms(
    p: TimingPattern, shape: PulseShape, spec: NoiseSpectrum, delay: float = 0.0
) -> Optional[RowsFn]:
    """The comb walk's rows of one repeat in r = G X - Y (_repeat_nodes), W = S/w^2.

    Summed over both quadratures, they are [|X|^2 W, |omega*y|^2 W, X conj(Y) W, |Y|^2 W]
    (complex); None where Y = 0, as the rows of m = 1 are then the first two.
    """
    junction = p.end_sign < 0 and shape.kind != BANG_BANG and bool(p.pulse_times)
    if not (junction or delay):
        return None

    def rows(w: np.ndarray) -> np.ndarray:
        base, (xz, xy), (yz, yy) = _repeat_nodes(p, shape, w, junction, delay)
        terms = [np.abs(xz) ** 2 + np.abs(xy) ** 2, np.abs(base) ** 2]
        terms += [xz * np.conj(yz) + xy * np.conj(yy), np.abs(yz) ** 2 + np.abs(yy) ** 2]
        return np.stack(terms) * (evaluate(spec, w) / w**2)

    return rows


def _assemble(
    low: np.ndarray,
    high: np.ndarray,
    err: float,
    cfg: QuadratureConfig,
    label: str,
    m: Optional[int],
    growth: Optional[float] = None,
) -> ErrorBudget:
    chi_low = float(low[0])
    chi_high = float(high[0])
    chi_total = chi_low + chi_high
    bound = cfg.rel_tol * abs(chi_total)
    if err > bound:
        msg = f"quadrature error bound {err:.3e} exceeds the tolerance {bound:.3e}"
        raise AccuracyError(msg + label, chi_total, float(err))
    chi_bb = float(low[1] + high[1])
    return ErrorBudget(
        chi_total=chi_total,
        chi_bb=chi_bb,
        chi_pul=chi_total - chi_bb,
        chi_low=chi_low,
        chi_high=chi_high,
        coherence=math.exp(-chi_total),
        m=m,
        quad_error=float(err),
        growth_per_repeat=growth,
        comb_path=growth is not None,  # every comb walk reports its growth
    )


def integrate_rows(
    rows_fn: RowsFn,
    spec: NoiseSpectrum,
    t_osc: float,
    ff_bound: float,
    config: Optional[QuadratureConfig] = None,
    *,
    label: str = "",
) -> Tuple[np.ndarray, np.ndarray, float]:
    """Band integral of nonnegative rows [control, secondary]: the one direct band walk.

    Walks up from omega_min and stops once the tail is negligible.  t_osc is
    the slowest coherent timescale of the rows (sets panel width), ff_bound
    an upper bound of rows[0] * w^2 / S(w) that certifies the tail, label
    names the pattern in a failure message.  Returns (low, high, error),
    low/high the per-row sums below/above the cutoff.
    """
    require_positive("oscillation timescale t_osc", t_osc)
    require_nonnegative("tail bound ff_bound", ff_bound)
    walk = _Walk(spec, config or DEFAULT_CONFIG, ff_bound, label)
    walk.band(rows_fn, t_osc)
    return (*walk.totals(), walk.err)


def chi(
    p: TimingPattern,
    spec: NoiseSpectrum,
    shape: Optional[PulseShape] = None,
    config: Optional[QuadratureConfig] = None,
) -> ErrorBudget:
    """Decoupling error of a single run of the pattern over the noise band."""
    return _chi_direct(p, 1, spec, shape or bang_bang(), config or DEFAULT_CONFIG)


def chi_during(
    p: TimingPattern,
    t: float,
    spec: NoiseSpectrum,
    shape: Optional[PulseShape] = None,
    config: Optional[QuadratureConfig] = None,
) -> ErrorBudget:
    """Error seen by a readout at time t: pulses before t kept, duration t."""
    return chi(truncate(p, t), spec, shape, config)


def chi_repeated(
    p: TimingPattern,
    m: int,
    spec: NoiseSpectrum,
    shape: Optional[PulseShape] = None,
    config: Optional[QuadratureConfig] = None,
) -> ErrorBudget:
    """Error after m back-to-back runs of the pattern.

    The base filter picks up the Dirichlet factor sin^2(m w T_p/2) /
    sin^2(w T_p/2); up to comb_crossover (m0, 100 by default) panels are
    aligned to its nodes.  Every m > m0 takes the resonance-comb path, which
    evaluates the same integral from its m -> infinity structure at a cost
    that does not depend on m (see chi's module notes).  The first call at
    m >= m0 checks the two paths at m0 once per problem, and raises
    ConsistencyError where they disagree (see _crossover_agreement).

    A base pattern with odd pulse count restarts each repeat with a junction
    pulse, which finite-width pulses feel: both paths take those through the
    repetition factor (see _ff_rows_factory and _repeat_terms).
    """
    require_count("repeat count", m)
    shape = shape or bang_bang()
    cfg = config or DEFAULT_CONFIG
    if m == cfg.comb_crossover and cfg.validate_crossover:
        return _crossover_agreement(p, spec, shape, cfg)[0]
    if m <= cfg.comb_crossover:
        return _chi_direct(p, m, spec, shape, cfg)
    budget = _chi_comb(p, m, spec, shape, cfg)
    agreement = _crossover_agreement(p, spec, shape, cfg)[1] if cfg.validate_crossover else None
    return replace(budget, comb_agreement=agreement)


def _chi_direct(
    p: TimingPattern,
    m: int,
    spec: NoiseSpectrum,
    shape: PulseShape,
    cfg: QuadratureConfig,
) -> ErrorBudget:
    """chi of p repeated m times, by integrate_rows."""
    rows = _ff_rows_factory(p, shape, spec, m)
    # the kernel integrates to 2 pi m / T_p per period: F*D <= m * base bound per period
    bound = _filter_bound(p) * m
    label = _label(p, m)
    return _assemble(*integrate_rows(rows, spec, m * p.duration, bound, cfg, label=label), cfg, label, m=m)


def jitter_curve(
    p: TimingPattern,
    m: int,
    spec: NoiseSpectrum,
    shape: Optional[PulseShape] = None,
    config: Optional[QuadratureConfig] = None,
) -> Callable[[float], ErrorBudget]:
    """Error of m repeats followed by an unrefocused read delay, as a function of the delay.

    The delay appends coherently: r_z = R + D (1 - e^(i omega delta_t)), with
    R the repeat's r_z (an odd base adds its junction pulses through the
    repetition factor) and D = end_sign e^(i omega m T_p).  Each delay is one
    comb walk of r = G X - Y (see _repeat_terms), whose cost does not depend
    on m, and nothing is kept between delays.  chi_bb is the ideal-pulse
    value without the delay, so chi_pul carries pulse width and jitter excess
    together.  The returned function raises DomainError for a delay that is
    negative or not finite.
    """
    require_count("repeat count", m)
    shape = shape or bang_bang()
    cfg = config or DEFAULT_CONFIG

    def at(delta_t: float) -> ErrorBudget:
        require_nonnegative("read delay delta_t", delta_t)
        return _chi_comb(p, m, spec, shape, cfg, delta_t)

    return at


def chi_with_jitter(
    p: TimingPattern,
    m: int,
    delta_t: float,
    spec: NoiseSpectrum,
    shape: Optional[PulseShape] = None,
    config: Optional[QuadratureConfig] = None,
) -> ErrorBudget:
    """Error of m repeats followed by an unrefocused read delay delta_t (see jitter_curve)."""
    return jitter_curve(p, m, spec, shape, config)(delta_t)


@lru_cache(maxsize=64)  # problems whose crossover budget and agreement are kept
def _crossover_agreement(
    p: TimingPattern, spec: NoiseSpectrum, shape: PulseShape, cfg: QuadratureConfig
) -> Tuple[ErrorBudget, float]:
    """The direct budget at m0 = comb_crossover and the comb walk's relative gap from it; > 10% raises."""
    m0 = cfg.comb_crossover
    direct = _chi_direct(p, m0, spec, shape, cfg)
    walk, growth = _comb_walk(p, m0, spec, shape, cfg)
    comb = _assemble(*walk.totals(), walk.err, cfg, walk.label, m0, growth)  # its chi_low split is not read
    gap = abs(comb.chi_total - direct.chi_total)
    agreement = gap / direct.chi_total if direct.chi_total else 0.0  # 0 only at g = 0
    if agreement > 0.10:
        raise ConsistencyError(
            f"comb and direct evaluations disagree by {agreement:.1%} at the "
            f"crossover m={m0} for {p.label!r} (direct {direct.chi_total:.6e}, "
            f"comb {comb.chi_total:.6e})",
            estimate=comb.chi_total,
            error_bound=gap,
        )
    return direct, agreement


def _chi_comb(
    p: TimingPattern,
    m: Optional[int],
    spec: NoiseSpectrum,
    shape: PulseShape,
    cfg: QuadratureConfig,
    delay: float = 0.0,
) -> ErrorBudget:
    """Resonance-comb evaluation of the m-repeat integral, or its plateau part.

    By _comb_walk, followed by a read delay where one is given.  The cell
    masses grow linearly in m (reported as growth_per_repeat).  With m=None
    the result is the m -> infinity plateau level, which those masses do not
    enter.  A cell's finite part sits at its centre, so where the cutoff lies
    in a cell, chi_low is a walk of the band below it.
    """
    walk, growth = _comb_walk(p, m, spec, shape, cfg, delay)
    low, high = walk.totals()
    if m is None and low[0] + high[0] < 0.0:
        raise DomainError(
            f"no plateau level{walk.label}: chi grows by {growth:.3e} per repeat "
            f"from a negative intercept {low[0] + high[0]:.3e}"
        )
    budget = _assemble(low, high, walk.err, cfg, walk.label, m=m, growth=growth)
    if max(spec.omega_min, math.pi / p.duration) < spec.omega_c < _band_top(spec):
        below = sum(_comb_walk(p, m, replace(spec, omega_max=spec.omega_c), shape, cfg, delay)[0].totals())
        budget = replace(budget, chi_low=float(below[0]), chi_high=budget.chi_total - float(below[0]))
    return budget


def _comb_walk(
    p: TimingPattern,
    m: Optional[int],
    spec: NoiseSpectrum,
    shape: PulseShape,
    cfg: QuadratureConfig,
    delay: float = 0.0,
) -> Tuple[_Walk, float]:
    """The comb walk over spec's band, and its growth per repeat.

    With h, q, y the rows |X|^2 W, X conj(Y) W, |Y|^2 W of _repeat_terms, the
    integrand |G X - Y|^2 W is |G|^2 h - 2 Re(G q) + y.  |G|^2 is 1 - cos(m T_p x)
    times the de-oscillated kernel _deosc, and G is (e^{i m T_p x} - 1) times
    _order_one / 2, so each term but y is Re u (1 - e^{i m T_p x}) for a u
    free of m.  The walk integrates
      - u = h _deosc + q _order_one, x = w, up to the first resonance cell
        boundary pi/T_p;
      - per resonance cell k: the exact masses m (2 pi/T_p) h(w_k), from the
        period mean m of |G|^2, and -2 (2 pi/T_p) Re q(w_k), from that of G (1),
        plus the finite part u of the remainder, symmetrized in the distance
        x from the resonance;
    and y as it is, each u weighted by the panel rule _repeat_weighted, exact
    for u's interpolant, so the panels resolve u and not the weight and one
    walk costs about the same at every m.  With m=None the weight averages
    to 1 and the masses m (2 pi/T_p) h(w_k), the growth, do not enter.
    """
    bound = _filter_bound(p)
    if delay:  # a cell's mean of |G X - Y|^2 is at most 2 m |X|^2 + 2 |Y|^2; |2 sin(theta) E|, |Y| <= 4
        bound = 2.0 * (math.sqrt(bound) + 4.0) ** 2
    terms = _repeat_terms(p, shape, spec, delay)
    h_rows = terms or _ff_rows_factory(p, shape, spec)
    # the comb walk's filter bound is m + 1 times the base one, twice it for m = None;
    # where Y != 0 it adds up y in a third row
    walk = _Walk(spec, cfg, ((m + 1) if m is not None else 2) * bound, _label(p, m),
                 rows=[np.zeros((2 if terms is None else 3, 0))])
    t_p = p.duration
    w_lo, w_hi = spec.omega_min, _band_top(spec)
    if not w_lo < w_hi:
        return walk, 0.0
    mt = None if m is None else m * t_p
    rule = _k15 if mt is None else partial(_repeat_weighted, mt)

    def weighted(two: np.ndarray, one: np.ndarray, zero: np.ndarray) -> np.ndarray:
        """The rule's rows from the de-oscillated order-two rows, the order-one row and y."""
        u = two[0] + one
        return np.stack([u.real + zero if mt is None else u, two[1], zero])

    def deosc_rows(w: np.ndarray) -> np.ndarray:
        h = h_rows(w)
        two = h[:2].real * _deosc(t_p, w)
        return two if len(h) == 2 else weighted(two, _order_one(t_p, w) * h[2], h[3].real)

    # de-oscillated average up to the first cell
    w_b = min(math.pi / t_p, w_hi)
    if w_b > w_lo:
        ladder = _ladder_and_lobes(w_lo, w_b, w_b, walk)  # all ladder: its lobe is the span
        top = np.linspace(max(w_lo, 0.5 * w_b), w_b, 17)
        walk.region(deosc_rows, np.unique(np.concatenate([ladder, top])), rule)

    # resonance cells above pi/T_p
    w1 = 2.0 * math.pi / t_p
    growth = 0.0
    k = 1
    while k * w1 - 0.5 * w1 < w_hi:
        w_k = k * w1
        # zero when the cell centre lies past the band
        h_k = h_rows(np.array([w_k]))[:, 0]
        growth += w1 * float(h_k[0].real)
        mass = (m or 0) * w1 * h_k[:2].real
        if len(h_k) > 2:  # the order-one mass; y has none
            mass = np.array([mass[0] - 2.0 * w1 * h_k[2].real, mass[1], 0.0])
        walk.add(w_k, mass)

        def pv_rows(x: np.ndarray, w_center=w_k, h_center=h_k) -> np.ndarray:
            # x <= w1/2 <= w_center/2, so the lower node w_center - x stays positive
            plus, minus = h_rows(w_center + x), h_rows(w_center - x)
            two = (plus[:2] + minus[:2] - 2.0 * h_center[:2, None]).real * _deosc(t_p, x)
            if len(plus) == 2:
                return two
            # G(-x) = conj G(x): the pair's order-one part is Re u (1 - e^{i m T_p x})
            one = _order_one(t_p, x) * (plus[2] + np.conj(minus[2]) - 2.0 * h_center[2].real)
            return weighted(two, one, (plus[3] + minus[3]).real)

        d_min = 1e-6 * w1
        edges = np.geomspace(d_min, 0.5 * w1, 41)
        for crossing in (w_k - spec.omega_c, spec.omega_c - w_k, w_hi - w_k, w_k - w_lo):
            edges = _with_breakpoint(edges, crossing)
        _, rows_i, err_i = walk.integrate(pv_rows, edges, w_k + 0.5 * w1, rule)
        # the finite part is flat on [0, d_min]: its weighted length there
        flat = pv_rows(np.array([d_min]))[:, 0]
        patch = flat.real * (d_min if mt is None else d_min - math.sin(mt * d_min) / mt)
        if len(flat) > 2 and mt is not None:  # Im u sin(mt x) and y, unweighted
            patch[0] += flat[0].imag * 2.0 * math.sin(0.5 * mt * d_min) ** 2 / mt + flat[2].real * d_min
            patch[2] = flat[2].real * d_min
        # a cell centred past the band draws only on its lower half
        walk.add(w_k if w_k <= w_hi else w_k - 0.5 * w1, rows_i.sum(axis=1) + patch, err_i)

        k += 1
        if walk.stop((k - 0.5) * w1):
            break
    if terms is not None:
        # a node's |G|^2 h - 2 Re(G q) + y rounds to eps times its terms' sum, at most
        # 4 |G X - Y|^2 + 6 y: where the terms cancel, that can exceed the panels' error
        chi_total, _, y = sum(walk.totals())
        walk.err += _ROUNDING_ULPS * np.finfo(float).eps * (4.0 * abs(chi_total) + 6.0 * y)
    return walk, growth


def _deosc(t_p: float, x: np.ndarray) -> np.ndarray:
    """1/(2 sin^2(t_p x/2)): the de-oscillated kernel, the Dirichlet kernel's local average."""
    return 0.5 / np.sin(0.5 * t_p * x) ** 2


def _order_one(t_p: float, x: np.ndarray) -> np.ndarray:
    """-i e^{-i t_p x/2} / sin(t_p x/2): twice G/(e^{i m t_p x} - 1), G the repetition factor."""
    return -1j * np.exp(-0.5j * t_p * x) / np.sin(0.5 * t_p * x)


def _legendre_moments(lam: np.ndarray) -> np.ndarray:
    """Integrals over [-1, 1] of P_n(t) e^{i lam t}, n = 0..14, as (P, 15): 2 i^n j_n(lam).

    Gauss-Legendre up to lam = _FILON_RECURRENCE; above it the forward
    recurrence of the spherical Bessel functions, stable for n < lam.
    """
    out = np.empty((lam.size, 15), dtype=complex)
    low = lam <= _FILON_RECURRENCE
    out[low] = np.exp(1j * lam[low, None] * _GL_X) @ _GL_P
    x = lam[~low]
    j = [np.sin(x) / x, (np.sin(x) / x - np.cos(x)) / x]
    for n in range(1, 14):
        j.append((2 * n + 1) / x * j[n] - j[n - 1])
    out[~low] = 2.0 * np.stack(j, axis=1) * 1j ** np.arange(15)
    return out


def _repeat_weighted(mt: float, a: np.ndarray, b: np.ndarray, vals: np.ndarray):
    """Integrals (R, P) of rows Re u (1 - e^{i mt x}) over panels [a_i, b_i], and row 0's errors (P,).

    The comb walk's panel rule when m is given: vals are the rows' values at
    the panels' Kronrod nodes, (2, P, 15) real, or (3, P, 15) complex with a
    row 2, y, that is integrated unweighted into rows 0 and 2; _Walk.integrate
    splits on the errors it returns.  With h a panel's half-width and lam = mt h, a panel with
    lam <= _FILON_SERIES integrates the weighted rows by _k15, its error
    their K15-G7 gap.  A wider one subtracts from the K15 integral of the
    unweighted rows the integral of e^{i mt x} against u's degree-14 Legendre
    interpolant on the nodes (Filon's method, by the moments
    _legendre_moments); its error is the K15-G7 gap plus 2 h (|a_13| + |a_14|),
    a_n the interpolant's top coefficients.
    """
    half, centre = 0.5 * (b - a), 0.5 * (a + b)
    lam = mt * half
    u = vals[:2]
    plain = u.real if len(vals) == 2 else np.stack([u[0].real + vals[2].real, u[1].real, vals[2].real])
    out, gap = _k15(a, b, plain)
    narrow = lam <= _FILON_SERIES
    phase = mt * _panel_nodes(a[narrow], b[narrow])
    # Re u (1 - e^{i phase}) = Re u 2 sin^2(phase/2) + Im u sin(phase)
    product = u[:, narrow].real * (2.0 * np.sin(0.5 * phase) ** 2)
    if len(vals) > 2:
        product = product + u[:, narrow].imag * np.sin(phase)
        product[0] += vals[2, narrow].real
    out[:2, narrow], gap[narrow] = _k15(a[narrow], b[narrow], product)
    wide = ~narrow
    coef = u[:, wide] @ _TO_LEGENDRE.T
    phase = np.exp(1j * mt * centre[wide]) * half[wide]
    out[:2, wide] -= (phase * np.sum(coef * _legendre_moments(lam[wide]), axis=-1)).real
    gap[wide] += 2.0 * half[wide] * np.abs(coef[0, :, 13:]).sum(axis=-1)
    return out, gap


def chi_plateau_limit(
    p: TimingPattern,
    spec: NoiseSpectrum,
    shape: Optional[PulseShape] = None,
    config: Optional[QuadratureConfig] = None,
) -> ErrorBudget:
    """Repeat-count-independent part of the repeated error (the plateau level).

    The infinite-repetition limit of chi_repeated minus the linear resonance
    growth: the de-oscillated average below the first resonance plus the
    finite parts of every resonance cell, from the same comb walk as large-m
    chi_repeated.  For a hard cutoff meeting the plateau conditions the
    growth vanishes and this is the exact limit.  growth_per_repeat reports
    the linear term's slope for callers that need the full picture.  Raises
    DomainError where chi grows linearly from a negative intercept (no
    plateau level), and AccuracyError where quad_error exceeds rel_tol.
    """
    return _chi_comb(p, None, spec, shape or bang_bang(), config or DEFAULT_CONFIG)
