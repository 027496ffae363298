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
# (point, node) pairs per block of a direct node sum (512 KiB per array).
# Blocks of 2^20 pairs map every kernel temporary afresh and fault its
# pages in on each call: a 1024 x 576 DeltaR sum took 7.6 ms against
# 4.0 ms at 2^16 (two threads on a 2-vCPU Xeon); a block of points gives
# each point's sum bit for bit
_NODE_SUM_BLOCK = 2 ** 16


@dataclass(frozen=True)
class SeriesCoefficient:
    order: int
    observable: str
    value: QuadResult
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
    Terms are read over the real basis {Q, H, H0, DeltaR, DeltaA}, and each
    real-basis kernel is one two-point function (``kernel``); the composite
    kernels are labels of the algebra only.  A leg field (K f)(z) and its
    local error bound come from ``field``, the one place that decides how
    a field is computed: a table of Q leg sums for Q, and a null-grid
    table (kernels.tabulate_leg_field) for the other kernels.

    One context serves every hbar of a run: ``evaluate_terms`` takes the
    hbar to evaluate at, and no table or memo of the context depends on it.
    Every field and node set an integral reads is built on the calling
    thread before the quadrature starts, so the quadrature threads only
    read the memos.
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
        self._folds: dict[str, tuple] = {}
        self._fields: dict[tuple[str, str, str],
                           ker.FieldTable | ker.FieldSum] = {}
        self._pairs: dict[tuple[str, str, str], QuadResult] = {}

    def kernel(self, basis: str):
        """K(t, x, t', x') of a real-basis kernel: Q is the table, H, H0,
        DeltaR and DeltaA the difference kernel of (t - t', x - x') in the
        algebra's sign convention."""
        if basis == "Q":
            return self.table.interp
        diff = ker.difference_kernel(basis, self._kernel_params)
        return lambda t, x, tp, xp: diff(t - tp, x - xp)

    def nodes(self, leg_name: str, order: int | None = None):
        key = (leg_name, order or self.leg_nodes)
        if key not in self._node_cache:
            self._node_cache[key] = self.smearings[leg_name].weighted_nodes(
                key[1])
        return self._node_cache[key]

    def q_fold(self, leg_name: str):
        """The Q table's fold of a leg's nodes (QTable.leg_fold), built
        once per leg; None where it would hold more than
        kernels.MAX_FOLD_ENTRIES floats, and QTable.leg_sum then folds one
        node position at a time as it reads it, to the same bits."""
        if leg_name not in self._folds:
            pts, w = self.nodes(leg_name)
            size = np.unique(pts[:, 1]).size * self.table.values[0].size
            self._folds[leg_name] = (self.table.leg_fold(pts, w)
                                     if size <= ker.MAX_FOLD_ENTRIES
                                     else None)
        return self._folds[leg_name]

    # -- pointwise building blocks -----------------------------------------

    def node_sum(self, basis: str, t, x, pts, w):
        """sum_j w_j K(z, y_j) at z = (t, x) over the rows y_j of ``pts``:
        Q reads one 2D spline per distinct node position
        (QTable.leg_sum), the other kernels are summed node by node, in
        blocks of query points of at most _NODE_SUM_BLOCK (point, node)
        pairs."""
        if basis == "Q":
            return self.table.leg_sum(t, x, pts, w)
        t, x = np.broadcast_arrays(np.asarray(t, dtype=float),
                                   np.asarray(x, dtype=float))
        shape, t, x = t.shape, t.ravel(), x.ravel()
        kernel = self.kernel(basis)
        rows = max(1, _NODE_SUM_BLOCK // max(1, len(w)))
        out = np.empty(t.size)
        for lo in range(0, t.size, rows):
            sl = slice(lo, lo + rows)
            vals = kernel(t[sl, None], x[sl, None], pts[None, :, 0],
                          pts[None, :, 1])
            out[sl] = np.sum(w * vals, axis=-1)
        return out.reshape(shape)

    def smeared_kernel(self, basis: str, leg_name: str, t, x):
        """(K f)(z) = sum_j w_j K(z, y_j) for a single basis kernel over
        the leg's nodes; Q reads the leg's memoized fold."""
        if basis == "Q":
            return self.table.leg_sum(t, x, *self.nodes(leg_name),
                                      fold=self.q_fold(leg_name))
        return self.node_sum(basis, t, x, *self.nodes(leg_name))

    def _table(self, basis: str, leg_name: str, cover: str):
        """The FieldTable of (K f)(z) over the supports of the leg and of
        the smearing ``cover``, built once.  Q tabulates smeared_kernel over
        the cover's support box (at nodes clipped to where the Q table
        covers every pairing with the leg's nodes); the other kernels come
        from kernels.tabulate_leg_field."""
        key = (basis, leg_name, cover)
        if key not in self._fields:
            leg, box = self.smearings[leg_name], self.smearings[cover]
            if basis == "Q":
                tg, dg = self.table.time_grid, self.table.space_offset_grid
                leg_box = leg.support_box()
                domain = (tg[0], tg[-1], dg[0] + leg_box[3],
                          dg[-1] + leg_box[2])
                self._fields[key] = ker.tabulate_field(
                    lambda t, x: self.smeared_kernel("Q", leg_name, t, x),
                    box.support_box(), domain, self.table.spline_order)
            else:
                self._fields[key] = ker.tabulate_leg_field(
                    basis, self._kernel_params, leg, [box])
        return self._fields[key]

    def field(self, basis: str, leg_name: str):
        """(field, bound) of the leg field (K f)(z) over the interaction's
        support, with its local error bound."""
        tab = self._table(basis, leg_name, self.interaction)
        return tab, tab.bound

    def scalar_pair(self, basis: str, p_name: str, q_name: str) -> QuadResult:
        """<f_p, K f_q> by tensor Gauss-Legendre over f_p's nodes with a
        two-resolution error, computed once per (basis, p, q).  Q sums the
        kernel over f_q's nodes too; the other kernels read the table of
        K f_q over f_p's support, whose bound adds to the error."""
        key = (basis, p_name, q_name)
        if key in self._pairs:
            return self._pairs[key]
        table = None if basis == "Q" else self._table(basis, q_name, p_name)

        def val(order):
            ppts, pw = self.nodes(p_name, order)
            t, x = ppts[:, 0], ppts[:, 1]
            if table is None:
                return complex(np.sum(pw * self.node_sum(
                    "Q", t, x, *self.nodes(q_name, order)))), 0.0
            return (complex(np.sum(pw * table(t, x))),
                    float(np.sum(np.abs(pw) * table.bound(t, x))))
        (fine, bound), (coarse, _) = val(2 * self.pair_nodes), \
            val(self.pair_nodes)
        err = abs(fine - coarse) + 1e-15 * abs(fine) + bound
        res = self._pairs[key] = QuadResult(fine, err,
                                            (2 * self.pair_nodes) ** 2)
        return res


class _BatchCache:
    """Memoizes table lookups and smeared fields within one point batch.

    Terms of a summed integrand share vertices, so the kernel values at
    vertex pairs (the diagonal Q included) and the leg fields at vertices
    are computed once per batch, the fields through ``EvalContext.field``.
    ``weights`` (N, n) holds the interaction smearing at each vertex.
    """

    def __init__(self, ctx: EvalContext, pts: np.ndarray,
                 weights: np.ndarray):
        self.ctx = ctx
        self.t = pts[:, :, 0]
        self.x = pts[:, :, 1]
        self.weights = weights
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
        """(K f)(z_v) of a leg."""
        return self._memo(("smear", basis, leg, v), lambda: self.ctx.field(
            basis, leg)[0](self.t[:, v], self.x[:, v]))

    def field_bound(self, basis: str, leg: str, v: int):
        """Local error bound of a leg field at vertex v."""
        return self._memo(("bound", basis, leg, v), lambda: self.ctx.field(
            basis, leg)[1](self.t[:, v], self.x[:, v]))

    def vertex_weight(self, i: int):
        """The interaction smearing at vertex i."""
        return self.weights[:, i]


def _linear(parts, value):
    """Sum of weight * value(x) over the (weight, x) parts."""
    total = None
    for w, x in parts:
        v = w * value(x)
        total = v if total is None else total + v
    return total


def _slot_parts(expr: KernelExpr, hbar: float, graded: bool = True):
    """(weight, basis) parts of a kernel expression at finite hbar, over the
    real basis.

    A graded slot (an attached factor or scalar pair of a term) has its
    lowest hbar power factored out, since alg.hbar_grade puts that power in
    the term's prefactor; an exponent (a pair or a self-dressing) keeps
    every power.  A lone kernel of coefficient 1 has the real weight 1.0,
    so real factors stay real.
    """
    low = expr.min_hbar() if graded else 0
    expr = expr.real_basis()
    if len(expr.terms) == 1 and expr.terms[0][1:] == (low, CR_ONE):
        return [(1.0, expr.terms[0][0])]
    return [(c.as_complex() * hbar ** (h - low), b) for b, h, c in expr.terms]


def _integrand(ctx: EvalContext, p: ker.ModelParams, term: alg.Generator):
    """Integrand ``fn(cache)`` of one term at the hbar, charge and coupling
    of ``p``.

    The term is turned once into weighted factor lists over the real basis:
    vertex weights with their self-dressings, exponentiated pairs, edge
    powers and attached smeared kernels, and scalar pairs, whose product is
    folded into the complex prefactor, which carries hbar to the term's
    grade (alg.hbar_grade).  A pair (i, j) and a self-dressing (i, i) are
    one exponent exp(scale * sum_b w_b K_b(z_i, z_j)).

    Scalar pairs and leg fields carry an error estimate.  fn returns
    (values, derivatives, higher): ``derivatives`` lists (key, delta,
    d values / d part) for each such part, keyed by what shares its error
    (the pair, or the leg field at a vertex), so that terms sharing a part
    add their derivatives before the bound delta applies; ``higher`` bounds
    the products of two or more such errors.  A term without such a part
    returns ((), 0.0).  Every scalar pair and leg field is resolved here,
    so fn only reads the memos.
    """
    a = p.a
    attached = [(v, l, _slot_parts(e, p.hbar)) for v, e, l in term.attached]
    scalars = [(pn, qn, _slot_parts(e, p.hbar))
               for e, pn, qn in term.scalar_pairs]

    grade = alg.hbar_grade(term)
    rest = replace(term.coeff, hbar_pow=grade).value(p.a, p.hbar, p.lam)
    coeff = rest
    constants = []  # (scalar value, its error parts (key, weight, delta))
    for pn, qn, parts in scalars:
        pairs = [(w, b, ctx.scalar_pair(b, pn, qn)) for w, b in parts]
        value = _linear([(w, r) for w, b, r in pairs],
                        lambda r: complex(r.value))
        coeff *= value
        constants.append((value, [(("pair", b, pn, qn), w, r.error)
                                  for w, b, r in pairs]))
    for v, l, parts in attached:
        for w, b in parts:
            ctx.field(b, l)

    # exponents (scale, i, j, parts); a vertex's self-dressing has i == j
    dressings = {i: (-0.5 * (c * a) ** 2, i, i,
                     _slot_parts(d, p.hbar, graded=False))
                 for i, (c, d) in enumerate(zip(term.charges, term.dressings))
                 if not d.is_zero()}
    exp_pairs = [(-term.charges[i] * term.charges[j] * a ** 2, i, j,
                  _slot_parts(e, p.hbar, graded=False))
                 for (i, j), e in term.pair_exps]

    def fn(cache: _BatchCache):
        def exponent(scale, i, j, parts):
            return np.exp(scale * _linear(parts,
                                          lambda b: cache.pair(b, i, j)))
        factors = []    # (pointwise value, its error parts)
        for i in range(term.n_vertices):
            w = cache.vertex_weight(i)
            if i in dressings:
                w = w * exponent(*dressings[i])
            factors.append((w, ()))
        for e in exp_pairs:
            factors.append((exponent(*e), ()))
        for i, j, b, h, pw in term.edges:
            factors.append((cache.pair(b, i, j) ** pw, ()))
        for v, l, parts in attached:
            errs = [(("field", b, l, v), w, cache.field_bound(b, l, v))
                    for w, b in parts]
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
    higher-order bounds.

    Every term carries the interaction smearing of each vertex as a factor,
    so the terms are evaluated only on the live rows, where every vertex
    lies in supp g; value and envelope are exactly 0 on the other rows.
    A non-finite term value at a dead row (an overflow far from supp g)
    therefore contributes 0 rather than making evaluate_terms raise."""
    g = ctx.smearings[ctx.interaction]

    def fn(pts):
        weights = g(pts[:, :, 0], pts[:, :, 1])
        live = np.all(weights != 0.0, axis=1)
        cache = _BatchCache(ctx, pts[live], weights[live])
        total = np.zeros(cache.t.shape[0], dtype=complex)
        envelope = np.zeros(cache.t.shape[0])
        derivatives: dict[tuple, list] = {}
        for term in integrands:
            out, parts, higher = term(cache)
            total = total + out
            for key, delta, d in parts:
                derivatives.setdefault(key, [delta, 0.0])[1] += d
            envelope += higher
        for delta, d in derivatives.values():
            envelope += delta * np.abs(d)
        value = np.zeros(pts.shape[0], dtype=complex)
        bound = np.zeros(pts.shape[0])
        value[live], bound[live] = total, envelope
        return value, bound
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
    return SeriesCoefficient(n, name, res.scaled(pref), hbar)


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

        a^2 [ int (Delta^A f2)(y) (Q f1)(y) g_Q(y) dy + (f1 <-> f2) ]

    with Delta^A bound as the evaluator binds it (the "paper" retarded
    sign), which makes the product convention independent.  Every leg
    sum is a direct sum over the leg's nodes (smeared_kernel), not one of
    the evaluator's field tables: the DeltaA legs are node sums of the
    kernel, independent of the null-grid tables, and the Q legs read the
    context's fold of the Q table, so the oracle checks the tables.
    """
    p = ctx.params
    g = ctx.smearings[interaction]

    def fn(pts):
        t, x = pts[:, 0, 0], pts[:, 0, 1]
        gq = ker.gq_weight_arrays(t, x, p, ctx.table, g)
        live = gq != 0.0
        out = np.zeros(t.shape)
        if np.any(live):
            tt, xx = t[live], x[live]
            q1, q2 = (ctx.smeared_kernel("Q", l, tt, xx) for l in (leg1, leg2))
            a1, a2 = (ctx.smeared_kernel("DeltaA", l, tt, xx)
                      for l in (leg1, leg2))
            out[live] = p.a ** 2 * gq[live] * (q1 * a2 + q2 * a1)
        return out

    for leg in (leg1, leg2):
        ctx.q_fold(leg)   # built here, so the quadrature threads only read
    spec = qd.IntegrandSpec(1, fn, mu=p.mu)
    return qd.integrate(spec, budget, seed).scaled(p.lam)


def qs_term_magnitude(ctx: EvalContext, n: int, budget: int, seed: int,
                      p_hat: float = 1.5) -> QuadResult:
    """|[Gamma_Q S(lambda V_g)]_n| at phi = 0, coupling and 1/n! included."""
    gens = alg.qs_term(n)   # coupling powers carried by the coefficients
    res = evaluate_terms(ctx, gens, budget, seed, singular=n >= 2,
                         p_hat=p_hat)
    return QuadResult(abs(complex(res.value)), res.error, res.samples, seed)
