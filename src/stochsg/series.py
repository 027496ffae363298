"""Numeric perturbative coefficients of expectation values and correlators.

Evaluation happens at the zero field configuration: generator monomials with
free legs drop, the rest become integrals over powers of the spacetime
diamond, summed pointwise inside a single quadrature so that the exact
cancellations of the symbolic layer carry over to the integrand.

Propagator symbols are bound with the "paper" retarded sign, which is the
binding that makes the classical (hbar^0) stratum reproduce the SPDE
hierarchy with source sign s = -1; see the sign note in spde_mc.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace

import numpy as np

from . import algebra as alg
from . import kernels as ker
from . import quad as qd
from .algebra import KernelExpr
from .errors import ConfigError, NonFiniteValue
from .exact import CR_ONE
from .results import QuadResult

ALGEBRA_CONVENTION = "paper"
MAX_ORDER = 3   # highest classical order a coefficient pipeline evaluates


@dataclass(frozen=True)
class SeriesCoefficient:
    order: int
    observable: str
    value: QuadResult
    term_count: int
    hbar: float

    def csv_row(self) -> dict:
        v = complex(self.value.value)
        return {
            "order": self.order,
            "observable": self.observable,
            "value_re": v.real,
            "value_im": v.imag,
            "error": self.value.error,
            "samples": self.value.samples,
            "seed": self.value.seed,
            "hbar": self.hbar,
        }


class EvalContext:
    """Binds kernel symbols, the Q table and smearings for evaluation.

    Every vertex weight is the smearing named ``interaction``, whatever the
    vertex's symbolic label; legs are looked up in ``smearings`` by name.
    Every basis kernel is one two-point function (``kernel``).  Since every
    vertex carries that weight, a Q-smeared leg field at a vertex is read
    from a table over the interaction's support (``field_table``).

    One context serves every hbar of a run: ``evaluate_terms`` takes the
    hbar to evaluate at, and no table or memo of the context depends on it.
    Quadrature shifts evaluate integrands on several threads at once, so
    the memos they reach are safe to fill concurrently: a field table is
    built once under a lock, and the node memo keeps the first value
    stored (``dict.setdefault``).
    """

    def __init__(self, params: ker.ModelParams, table: ker.QTable,
                 smearings: dict[str, ker.SmearingFunction],
                 leg_nodes: int = 24, pair_nodes: int = 24,
                 interaction: str = "g"):
        self.params = params
        self.table = table
        self.smearings = smearings
        self.interaction = interaction
        self.leg_nodes = leg_nodes
        self.pair_nodes = pair_nodes
        self._kernel_params = params.with_(sign_convention=ALGEBRA_CONVENTION)
        self._node_cache: dict[tuple[str, int], tuple] = {}
        self._field_tables: dict[str, ker.FieldTable] = {}
        self._field_lock = threading.Lock()
        self._pairs: dict[tuple[str, str, str], QuadResult] = {}

    def kernel(self, basis: str):
        """K(t, x, t', x') of a basis kernel: Q is the table, every other
        basis the difference kernel of (t - t', x - x') in the algebra's
        sign convention."""
        if basis == "Q":
            return self.table.interp
        diff = ker.difference_kernel(basis, self._kernel_params)
        return lambda t, x, tp, xp: diff(t - tp, x - xp)

    def nodes(self, leg_name: str, order: int | None = None):
        order = order or self.leg_nodes
        key = (leg_name, order)
        if key not in self._node_cache:
            f = self.smearings[leg_name]
            self._node_cache.setdefault(key, f.weighted_nodes(order))
        return self._node_cache[key]

    # -- pointwise building blocks -----------------------------------------

    def smeared_kernel(self, basis: str, leg_name: str, t, x):
        """(K f)(z) = sum_j w_j K(z, y_j) for a single basis kernel."""
        pts, w = self.nodes(leg_name)
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        vals = self.kernel(basis)(t[..., None], x[..., None],
                                  pts[None, :, 0], pts[None, :, 1])
        return np.sum(w * vals, axis=-1)

    def field_table(self, leg_name: str) -> ker.FieldTable:
        """(Q f)(z) of a leg, tabulated once over the interaction's support
        box from the direct sums of smeared_kernel, one quadrature batch of
        grid nodes at a time.  Nodes of the padded grid are clipped to the
        region where the Q table covers every pairing with the leg's
        nodes."""
        with self._field_lock:
            tab = self._field_tables.get(leg_name)
            if tab is None:
                tg, dg = self.table.time_grid, self.table.space_offset_grid
                leg_box = self.smearings[leg_name].support_box()
                domain = (tg[0], tg[-1], dg[0] + leg_box[3],
                          dg[-1] + leg_box[2])
                tab = ker.tabulate_field(
                    lambda t, x: self.smeared_kernel("Q", leg_name, t, x),
                    self.smearings[self.interaction].support_box(), domain,
                    self.table.spline_order, qd.MIN_BUDGET)
                self._field_tables[leg_name] = tab
        return tab

    def scalar_pair(self, basis: str, p_name: str, q_name: str) -> QuadResult:
        """<f_p, K f_q> by tensor Gauss-Legendre with a two-resolution error,
        computed once per (basis, p, q)."""
        key = (basis, p_name, q_name)
        if key in self._pairs:
            return self._pairs[key]

        def val(order):
            ppts, pw = self.nodes(p_name, order)
            qpts, qw = self.nodes(q_name, order)
            mat = self.kernel(basis)(ppts[:, None, 0], ppts[:, None, 1],
                                     qpts[None, :, 0], qpts[None, :, 1])
            return complex(pw @ mat @ qw)
        fine = val(2 * self.pair_nodes)
        coarse = val(self.pair_nodes)
        err = abs(fine - coarse) + 1e-15 * abs(fine)
        res = self._pairs[key] = QuadResult(fine, err,
                                            (2 * self.pair_nodes) ** 2)
        return res

def _q_dressing_weight(expr: KernelExpr) -> float:
    """Real Q coefficient of a dressing exponent (only Q dressings occur)."""
    total = 0.0
    for b, h, c in expr.terms:
        if b != "Q" or h != 0:
            raise ConfigError("only hbar^0 Q dressings are evaluable")
        total += c.as_complex().real
    return total


class _BatchCache:
    """Memoizes table lookups and smeared fields within one point batch.

    Terms of a summed integrand share vertices, so the kernel values at
    vertex pairs (the diagonal Q included) and the smeared leg fields are
    computed once per batch.  Q fields are read from the context's field
    tables; the discontinuous retarded and the Hadamard fields are direct
    node sums.
    """

    def __init__(self, ctx: EvalContext, pts: np.ndarray):
        self.ctx = ctx
        self.t = pts[:, :, 0]
        self.x = pts[:, :, 1]
        self._store: dict = {}

    def _memo(self, key: tuple, compute):
        if key not in self._store:
            self._store[key] = compute()
        return self._store[key]

    def pair(self, basis: str, i: int, j: int):
        """K(z_i, z_j); i == j gives the diagonal."""
        return self._memo(("pair", basis, i, j), lambda: self.ctx.kernel(
            basis)(self.t[:, i], self.x[:, i], self.t[:, j], self.x[:, j]))

    def smeared(self, basis: str, leg: str, v: int):
        def compute():
            if basis == "Q":
                return self.ctx.field_table(leg)(self.t[:, v], self.x[:, v])
            return self.ctx.smeared_kernel(basis, leg, self.t[:, v],
                                           self.x[:, v])
        return self._memo(("smear", basis, leg, v), compute)

    def field_bound(self, leg: str, v: int):
        """Local error bound of the tabulated Q field of a leg at vertex v."""
        return self._memo(("bound", leg, v), lambda: self.ctx.field_table(
            leg).bound(self.t[:, v], self.x[:, v]))

    def vertex_weight(self, i: int):
        """The interaction smearing at vertex i."""
        g = self.ctx.smearings[self.ctx.interaction]
        return self._memo(("w", i), lambda: g(self.t[:, i], self.x[:, i]))


def _linear(parts, value):
    """Sum of weight * value(x) over the (weight, x) parts; a weight of None
    means the factor enters unweighted, so real factors stay real."""
    total = None
    for w, x in parts:
        v = value(x) if w is None else w * value(x)
        total = v if total is None else total + v
    return total


def _slot_parts(expr: KernelExpr, hbar: float, graded: bool = True):
    """(weight, basis) parts of a kernel expression at finite hbar.

    A graded slot (an attached factor or scalar pair of a term) is taken
    over the real basis with its lowest hbar power factored out, since
    alg.hbar_grade puts that power in the term's prefactor; a pair
    exponent is taken as it is.  A lone kernel of coefficient 1 enters
    unweighted (weight None), so real factors stay real.
    """
    low = expr.min_hbar() if graded else 0
    if graded:
        expr = expr.real_basis()
    if len(expr.terms) == 1 and expr.terms[0][1:] == (low, CR_ONE):
        return [(None, expr.terms[0][0])]
    return [(c.as_complex() * hbar ** (h - low), b) for b, h, c in expr.terms]


def _integrand(ctx: EvalContext, p: ker.ModelParams, term: alg.Generator):
    """Integrand ``fn(cache)`` of one term at the hbar, charge and coupling
    of ``p``.

    The term is turned once into weighted factor lists: vertex weights,
    exponentiated pairs, edge powers and attached smeared kernels, and
    scalar pairs, whose product is folded into the complex prefactor, which
    carries hbar to the term's grade (alg.hbar_grade).

    Scalar pairs and tabulated Q fields carry an error estimate.  fn returns
    (values, derivatives, higher): ``derivatives`` lists (key, delta,
    d values / d factor) for each such factor, keyed by what shares its
    error (the pair, or the leg field at a vertex), so that terms sharing a
    factor add their derivatives before the bound delta applies; ``higher``
    bounds the products of two or more such errors.  A term without such a
    factor returns ((), 0.0).
    """
    a = p.a
    pair_parts = [(i, j, _slot_parts(e, p.hbar, graded=False))
                  for (i, j), e in term.pair_exps]
    attached = [(v, l, _slot_parts(e, p.hbar)) for v, e, l in term.attached]
    scalars = [(pn, qn, _slot_parts(e, p.hbar))
               for e, pn, qn in term.scalar_pairs]

    def unit(w):
        return 1.0 if w is None else w

    grade = alg.hbar_grade(term)
    rest = replace(term.coeff, hbar_pow=grade).value(p.a, p.hbar, p.lam)
    coeff = rest
    constants = []  # (scalar value, its error parts (key, weight, delta))
    for pn, qn, parts in scalars:
        pairs = [(w, b, ctx.scalar_pair(b, pn, qn)) for w, b in parts]
        value = _linear([(w, r) for w, b, r in pairs],
                        lambda r: complex(r.value))
        coeff *= value
        constants.append((value, [(("pair", b, pn, qn), unit(w), r.error)
                                  for w, b, r in pairs]))
    # the weights of the tabulated Q field in each attached factor
    attached = [(v, l, parts, [unit(w) for w, b in parts if b == "Q"])
                for v, l, parts in attached]

    vertices = []
    for i in range(term.n_vertices):
        dress = None
        if not term.dressings[i].is_zero():
            dress = (-0.5 * (term.charges[i] * a) ** 2
                     * _q_dressing_weight(term.dressings[i]))
        vertices.append((i, dress))
    exp_pairs = [(-term.charges[i] * term.charges[j] * a ** 2, i, j, parts)
                 for i, j, parts in pair_parts]

    def fn(cache: _BatchCache):
        factors = []    # (pointwise value, its error parts)
        for i, dress in vertices:
            w = cache.vertex_weight(i)
            if dress is not None:
                w = w * np.exp(dress * cache.pair("Q", i, i))
            factors.append((w, ()))
        for scale, i, j, parts in exp_pairs:
            factors.append((np.exp(scale * _linear(
                parts, lambda b: cache.pair(b, i, j))), ()))
        for i, j, b, h, pw in term.edges:
            factors.append((cache.pair(b, i, j) ** pw, ()))
        for v, l, parts, qw in attached:
            errs = ()
            if qw:
                errs = [(("field", l, v), sum(qw), cache.field_bound(l, v))]
            factors.append((_linear(
                parts, lambda b: cache.smeared(b, l, v)), errs))
        out = np.full(cache.t.shape[0], coeff, dtype=complex)
        for f, _ in factors:
            out *= f
        every = constants + factors
        if not any(errs for _, errs in every):
            return out, (), 0.0
        derivatives = []
        for k, (_, errs) in enumerate(every):
            if errs:
                others = rest
                for j, (f, _) in enumerate(every):
                    if j != k:
                        others = others * f
                derivatives += [(key, delta, w * others)
                                for key, w, delta in errs]
        # none, exactly one and at least two of the errors, in magnitude
        c0, c1, c2 = abs(rest), 0.0, 0.0
        for f, errs in every:
            m = np.abs(f)
            d = sum(abs(w) * delta for _, w, delta in errs)
            c0, c1, c2 = c0 * m, c1 * m + c0 * d, c2 * (m + d) + c1 * d
        return out, derivatives, c2

    return fn


def _sum_spec(ctx: EvalContext, integrands, n_vertices: int,
              alpha: float | None) -> qd.IntegrandSpec:
    """The summed integrand of terms with n_vertices vertices, with the
    |z_0 - z_1|^(-2 alpha) pair mapped if alpha is given.  Its envelope is
    the first-order error sum_key delta |sum of the derivatives| plus the
    higher-order bounds."""
    def fn(pts):
        cache = _BatchCache(ctx, pts)
        total = np.zeros(pts.shape[0], dtype=complex)
        envelope = np.zeros(pts.shape[0])
        derivatives: dict[tuple, list] = {}
        for g in integrands:
            out, parts, higher = g(cache)
            total = total + out
            for key, delta, d in parts:
                derivatives.setdefault(key, [delta, 0.0])[1] += d
            envelope += higher
        for delta, d in derivatives.values():
            envelope += delta * np.abs(d)
        return total, envelope
    pairs = ()
    if alpha is not None and n_vertices >= 2:
        pairs = (qd.SingularPair(0, 1, alpha),)
    return qd.IntegrandSpec(n_vertices, fn, mu=ctx.params.mu,
                            singular_pairs=pairs)


def evaluate_terms(ctx: EvalContext, terms, budget: int, seed: int,
                   singular: bool = False, p_hat: float = 1.5,
                   hbar: float | None = None) -> QuadResult:
    """phi = 0 value of a sum of terms at ``hbar`` (default: the context's):
    free-leg terms drop, the rest are summed into one integrand per vertex
    count.  Vertex-free terms are that integrand at a single (empty) point;
    the others are integrated.  The error adds the envelope of the factors
    that carry an error estimate (see _integrand) to the quadrature error.
    NonFiniteValue if the value or the error is not finite."""
    p = ctx.params if hbar is None else ctx.params.with_(hbar=hbar)
    by_n: dict[int, list] = {}
    for term in terms:
        if not term.free_legs:
            by_n.setdefault(term.n_vertices, []).append(
                _integrand(ctx, p, term))
    total = QuadResult(0.0 + 0.0j, 0.0, 0, seed)
    for n, fns in sorted(by_n.items()):
        spec = _sum_spec(ctx, fns, n, p.alpha if singular else None)
        if n == 0:
            value, envelope = spec.fn(np.zeros((1, 0, 2)))
            total = total + QuadResult(complex(value[0]), float(envelope[0]),
                                       0, seed)
        else:
            total = total + qd.integrate(spec, budget, seed, p_hat)
    if not (np.isfinite(total.value) and np.isfinite(total.error)):
        raise NonFiniteValue(f"non-finite series value {total.value} "
                             f"+- {total.error}")
    if abs(complex(total.value).imag) == 0.0:
        total = QuadResult(complex(total.value).real, total.error,
                           total.samples, seed)
    return total


# ---------------------------------------------------------------------------
# public coefficient pipelines
# ---------------------------------------------------------------------------

def _coefficient(n: int, hbar: float, ctx: EvalContext, legs: list[str],
                 budget: int, seed: int,
                 p_hat: float = 1.5) -> SeriesCoefficient:
    """lambda^n coefficient of Gamma_Q R_{n,m} at phi = 0, m = len(legs):
    its hbar^0 stratum at hbar = 0, all hbar strata at finite hbar.

    Orders beyond ``MAX_ORDER`` are refused: the cost grows with the
    2n-dimensional quadrature.
    """
    if not 0 <= n <= MAX_ORDER:
        raise ConfigError(f"series order {n} outside [0, {MAX_ORDER}]")
    name = ("expect:" if len(legs) == 1 else "corr:") + ":".join(legs)
    if hbar == 0.0:
        terms = alg.classical_term(n, len(legs), legs)
        res = evaluate_terms(ctx, terms, budget, seed)
    else:
        alpha = ctx.params.with_(hbar=hbar).alpha
        if alpha >= 1.0:
            raise ConfigError(f"alpha = {alpha} >= 1: outside the finite "
                              "ultraviolet regime")
        terms = alg.collected_raw_list(alg.bogoliubov_generators(n, legs))
        res = evaluate_terms(ctx, terms, budget, seed, singular=n >= 2,
                             p_hat=p_hat, hbar=hbar)
    pref = ctx.params.lam ** n / math.factorial(n)
    return SeriesCoefficient(n, name, res.scaled(pref), len(terms), hbar)


def expectation_coefficient(n: int, ctx: EvalContext, leg: str,
                            budget: int, seed: int) -> SeriesCoefficient:
    """lambda^n coefficient of E[psi(f)] (classical strata).

    Every order is consistent with zero by the phi -> -phi symmetry; the
    numeric value with its error quantifies that.
    """
    return _coefficient(n, 0.0, ctx, [leg], budget, seed)


def correlation_coefficient(n: int, ctx: EvalContext, leg1: str, leg2: str,
                            budget: int, seed: int) -> SeriesCoefficient:
    """lambda^n coefficient of E[psi(f1) psi(f2)] (classical strata)."""
    return _coefficient(n, 0.0, ctx, [leg1, leg2], budget, seed)


def quantum_coefficient(n: int, hbar: float, ctx: EvalContext,
                        legs: list[str], budget: int, seed: int,
                        p_hat: float = 1.5) -> SeriesCoefficient:
    """lambda^n coefficient of Gamma_Q R_{n,m} at phi = 0, all hbar strata;
    hbar = 0 is the classical coefficient."""
    return _coefficient(n, hbar, ctx, legs, budget, seed, p_hat)


def order1_correction_oracle(ctx: EvalContext, leg1: str, leg2: str,
                             interaction: str, budget: int,
                             seed: int) -> QuadResult:
    """Independent closed-form check of correlation_coefficient(1).

    Based on the Gaussian identity E[X sin(aY)] = a Cov(X, Y)
    exp(-a^2 Var(Y)/2) for centered jointly Gaussian (X, Y):

        s a^2 [ int f2(x') D^R(x' - y) Q(f1, y) g_Q(y) + (f1 <-> f2) ]

    with D^R the params-convention retarded kernel and the single ledger
    sign s = +1 ("paper") / -1 ("green"); the product s * D^R is convention
    independent.
    """
    p = ctx.params
    s = 1.0 if p.sign_convention == "paper" else -1.0
    g = ctx.smearings[interaction]
    ret = ker.difference_kernel("DeltaR", p)

    def smeared_adv(leg_name, t, x):
        pts, w = ctx.nodes(leg_name)
        vals = ret(pts[None, :, 0] - t[..., None], pts[None, :, 1] - x[..., None])
        return np.sum(w * vals, axis=-1)

    def fn(pts):
        t, x = pts[:, 0, 0], pts[:, 0, 1]
        gq = ker.gq_weight_arrays(t, x, p, ctx.table, g)
        live = gq != 0.0
        out = np.zeros(t.shape)
        if np.any(live):
            tt, xx = t[live], x[live]
            q1, q2 = (ctx.smeared_kernel("Q", l, tt, xx) for l in (leg1, leg2))
            term = (q1 * smeared_adv(leg2, tt, xx)
                    + q2 * smeared_adv(leg1, tt, xx))
            out[live] = s * p.a ** 2 * gq[live] * term
        return out

    spec = qd.IntegrandSpec(1, fn, mu=p.mu)
    return qd.integrate(spec, budget, seed).scaled(p.lam)


def qs_term_magnitude(ctx: EvalContext, n: int, budget: int, seed: int,
                      p_hat: float = 1.5) -> QuadResult:
    """|[Gamma_Q S(lambda V_g)]_n| at phi = 0, coupling and 1/n! included."""
    if n == 0:
        return QuadResult(1.0, 0.0, 0, seed)
    gens = alg.qs_term(n)   # coupling powers carried by the coefficients
    res = evaluate_terms(ctx, gens, budget, seed, singular=n >= 2,
                         p_hat=p_hat)
    return QuadResult(abs(complex(res.value)), res.error, res.samples, seed)
