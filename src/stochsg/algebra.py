"""Exact symbolic engine for the vertex-generator algebra.

Functionals are finite sums of *generator monomials*: products of charged
exponential vertices ``e^{i c_k a phi(x_k)}`` with smeared weights, linear
field legs, pairwise exponential kernel weights ``e^{-c_i c_j a^2 E(x_i,x_j)}``,
per-vertex coincidence dressings, attached smeared-kernel factors and scalar
pairings.  Exponential (star) products, deformation maps and time-ordered
products act on this class in closed form.

All combinatorial data is exact: coefficients are complex rationals times
integer powers of a, hbar and lambda; kernel labels live in the basis
{Q, H, H0, DeltaR, DeltaA, Delta, Omega, DeltaF, DeltaAF} with per-term
integer hbar powers.  Comparisons rewrite everything over the real kernels
{Q, H, H0, DeltaR, DeltaA}:

    Delta   = DeltaR - DeltaA
    Omega   = H + (i/2) DeltaR - (i/2) DeltaA
    DeltaF  = H + (i/2) DeltaR + (i/2) DeltaA
    DeltaAF = H - (i/2) DeltaR - (i/2) DeltaA

Argument swaps map DeltaR <-> DeltaA and fix Q, H, H0.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import CancellationFailure, NegativeGrade, SingularCoincidence
from .exact import CR_I, CR_ONE, COEFF_ONE, Coeff, CRat

BASIS = ("Q", "H", "H0", "DeltaR", "DeltaA", "Delta", "Omega", "DeltaF", "DeltaAF")

_HALF_I = CRat.of(0, Fraction(1, 2))
_REWRITE = {
    "Delta": (("DeltaR", CR_ONE), ("DeltaA", -CR_ONE)),
    "Omega": (("H", CR_ONE), ("DeltaR", _HALF_I), ("DeltaA", -_HALF_I)),
    "DeltaF": (("H", CR_ONE), ("DeltaR", _HALF_I), ("DeltaA", _HALF_I)),
    "DeltaAF": (("H", CR_ONE), ("DeltaR", -_HALF_I), ("DeltaA", -_HALF_I)),
}
_SWAP = {"DeltaR": "DeltaA", "DeltaA": "DeltaR"}
# kernels with a finite coincidence limit (self-dressing is allowed)
_COINCIDENCE_OK = {"Q", "DeltaR", "DeltaA", "Delta"}


@dataclass(frozen=True)
class KernelExpr:
    """Normalized linear combination of basis kernels with hbar powers.

    The hash is computed once per instance, and the derived expressions
    (real basis, transpose, hbar split) once per distinct value, so equal
    expressions share them.
    """

    terms: tuple[tuple[str, int, CRat], ...] = ()

    @staticmethod
    def of(*terms) -> "KernelExpr":
        """Build from (basis, hbar_power, coeff) triples; coeff may be int."""
        acc: dict[tuple[str, int], CRat] = {}
        for basis, hbar, coeff in terms:
            if basis not in BASIS:
                raise KeyError(f"unknown kernel basis {basis!r}")
            c = coeff if isinstance(coeff, CRat) else CRat.of(coeff)
            key = (basis, hbar)
            acc[key] = acc[key] + c if key in acc else c
        kept = tuple(sorted((b, h, c) for (b, h), c in acc.items()
                            if not c.is_zero()))
        return KernelExpr(kept)

    def __add__(self, other: "KernelExpr") -> "KernelExpr":
        return KernelExpr.of(*self.terms, *other.terms)

    def scaled(self, c) -> "KernelExpr":
        c = c if isinstance(c, CRat) else CRat.of(c)
        return KernelExpr.of(*((b, h, cc * c) for b, h, cc in self.terms))

    @functools.cached_property
    def _hash(self) -> int:
        return hash(self.terms)

    def __hash__(self) -> int:
        return self._hash

    def is_zero(self) -> bool:
        return not self.terms

    @functools.cache
    def real_basis(self) -> "KernelExpr":
        out = []
        for b, h, c in self.terms:
            if b in _REWRITE:
                out.extend((nb, h, c * nc) for nb, nc in _REWRITE[b])
            else:
                out.append((b, h, c))
        return KernelExpr.of(*out)

    @functools.cache
    def transpose(self) -> "KernelExpr":
        """Swap the two kernel arguments (expressed over the real basis)."""
        return KernelExpr.of(*((_SWAP.get(b, b), h, c)
                               for b, h, c in self.real_basis().terms))

    def is_symmetric(self) -> bool:
        return self.real_basis() == self.transpose()

    @functools.cache
    def hbar_split(self) -> tuple["KernelExpr", "KernelExpr"]:
        lo = KernelExpr.of(*(t for t in self.terms if t[1] == 0))
        hi = KernelExpr.of(*(t for t in self.terms if t[1] > 0))
        return lo, hi

    def min_hbar(self) -> int:
        return min((h for _, h, _ in self.terms), default=0)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return " + ".join(f"{c}*hbar^{h}*{b}" for b, h, c in self.terms) or "0"


KE_ZERO = KernelExpr()
KE_Q = KernelExpr.of(("Q", 0, 1))
KE_DELTA_H = KernelExpr.of(("Delta", 1, 1))
KE_OMEGA_H = KernelExpr.of(("Omega", 1, 1))
KE_F_H = KernelExpr.of(("DeltaF", 1, 1))
KE_AF_H = KernelExpr.of(("DeltaAF", 1, 1))
KE_Q_F = KE_Q + KE_F_H          # Q + hbar Delta_F
KE_Q_AF = KE_Q + KE_AF_H        # Q + hbar Delta_AF
KE_Q_OMEGA = KE_Q + KE_OMEGA_H  # Q + hbar omega


# ---------------------------------------------------------------------------
# generator monomials
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Generator:
    """One monomial of the generator algebra, at finite hbar or in one hbar
    stratum.

    vertices: per-vertex integer charge (multiple of the base charge a),
    smearing id and dressing exponent D (weight factor
    e^{-(c^2 a^2/2) D(x,x)}).  ``pair_exps[(i, j)]`` with i < j is the
    exponent kernel E in e^{-c_i c_j a^2 E(x_i, x_j)}; the first kernel slot
    is x_i.  ``edges`` (i, j, basis, hbar, power) are Taylor-expanded
    quantum contractions, the factor (hbar^h K_b(x_i, x_j))^power.
    ``attached`` entries (v, E, leg) multiply the vertex weight by the
    smeared kernel (E leg)(x_v) = int E(x_v, y) leg(y) dy, x_v in the first
    slot; the derivative factor i c_v a is already folded into ``coeff``.
    A kernel slot term (b, h, c) always means c hbar^h K_b.
    """

    coeff: Coeff = COEFF_ONE
    charges: tuple[int, ...] = ()
    smearings: tuple[str, ...] = ()
    dressings: tuple[KernelExpr, ...] = ()
    pair_exps: tuple[tuple[tuple[int, int], KernelExpr], ...] = ()
    edges: tuple[tuple[int, int, str, int, int], ...] = ()
    attached: tuple[tuple[int, KernelExpr, str], ...] = ()
    scalar_pairs: tuple[tuple[KernelExpr, str, str], ...] = ()
    free_legs: tuple[str, ...] = ()

    @property
    def n_vertices(self) -> int:
        return len(self.charges)

    def scaled(self, factor) -> "Generator":
        return replace(self, coeff=self.coeff * factor)


def unit() -> Generator:
    return Generator()


def vertex(charge: int, smearing: str = "g", dressing: KernelExpr = KE_ZERO,
           coeff: Coeff = COEFF_ONE) -> Generator:
    return Generator(coeff=coeff, charges=(charge,), smearings=(smearing,),
                     dressings=(dressing,))


def leg(name: str, coeff: Coeff = COEFF_ONE) -> Generator:
    return Generator(coeff=coeff, free_legs=(name,))


def sg_vertex(smearing: str = "g",
              dressing: KernelExpr = KE_ZERO) -> list[Generator]:
    """The sine-Gordon interaction V = (V_{+a} + V_{-a}) / 2."""
    half = Coeff(CRat.of(Fraction(1, 2)))
    return [vertex(+1, smearing, dressing, half),
            vertex(-1, smearing, dressing, half)]


def _as_list(x) -> list[Generator]:
    if isinstance(x, Generator):
        return [x]
    return list(x)


# ---------------------------------------------------------------------------
# pointwise product, star product, deformation map
# ---------------------------------------------------------------------------

def _merge_pair_exps(pairs: dict, key: tuple[int, int], expr: KernelExpr):
    if key in pairs:
        pairs[key] = pairs[key] + expr
    else:
        pairs[key] = expr
    if pairs[key].is_zero():
        del pairs[key]


def _pointwise_two(A: Generator, B: Generator) -> Generator:
    off = A.n_vertices
    pairs = dict(A.pair_exps)
    for (i, j), e in B.pair_exps:
        pairs[(i + off, j + off)] = e
    return Generator(
        coeff=A.coeff * B.coeff,
        charges=A.charges + B.charges,
        smearings=A.smearings + B.smearings,
        dressings=A.dressings + B.dressings,
        pair_exps=tuple(sorted(pairs.items())),
        edges=A.edges + tuple((i + off, j + off, b, h, p)
                              for i, j, b, h, p in B.edges),
        attached=A.attached + tuple((v + off, e, l) for v, e, l in B.attached),
        scalar_pairs=A.scalar_pairs + B.scalar_pairs,
        free_legs=A.free_legs + B.free_legs)


def pointwise(*factors) -> list[Generator]:
    """Pointwise (classical) product of generator sums."""
    out = [unit()]
    for f in factors:
        out = [_pointwise_two(a, b) for a in out for b in _as_list(f)]
    return out


def _leg_fates(targets, partners):
    """Every way the free legs 0..m-1 can end, walked leg by leg.

    Leg i stays free, attaches to each vertex in targets[i], or pairs with
    each later leg in partners[i] that no earlier leg has taken, in that
    order.  Yields (free, attached, paired): leg indices, (leg, vertex)
    pairs and (leg, leg) pairs, each in leg order.
    """
    m = len(targets)

    def rec(i, used, free, att, pairs):
        if i == m:
            yield free, att, pairs
            return
        if i in used:
            yield from rec(i + 1, used, free, att, pairs)
            return
        yield from rec(i + 1, used, free + (i,), att, pairs)
        for v in targets[i]:
            yield from rec(i + 1, used, free, att + ((i, v),), pairs)
        for q in partners[i]:
            if q not in used:
                yield from rec(i + 1, used | {q}, free, att,
                               pairs + ((i, q),))

    yield from rec(0, frozenset(), (), (), ())


def _contracted(g: Generator, targets, partners, attach,
                pair_kernel: KernelExpr) -> list[Generator]:
    """g with its free legs contracted in every way _leg_fates allows.

    A leg attached to vertex v contributes i c_v a (K f)(x_v) with
    K = attach(v); paired legs contribute <f, pair_kernel f'>.
    """
    legs = g.free_legs
    out = []
    for free, att, pairs in _leg_fates(targets, partners):
        coeff = g.coeff
        attached = list(g.attached)
        for p, v in att:
            coeff = coeff * Coeff(CR_I * g.charges[v], a_pow=1)
            attached.append((v, attach(v), legs[p]))
        out.append(replace(
            g, coeff=coeff, attached=tuple(attached),
            scalar_pairs=g.scalar_pairs + tuple(
                (pair_kernel, legs[p], legs[q]) for p, q in pairs),
            free_legs=tuple(legs[p] for p in free)))
    return out


def _star_two(A: Generator, B: Generator, K: KernelExpr) -> list[Generator]:
    """A-legs attach to charged B vertices through K^T or pair with B-legs
    through K; B-legs attach to charged A vertices through K."""
    g = _pointwise_two(A, B)
    off, n_a, m = A.n_vertices, len(A.free_legs), len(g.free_legs)
    pairs = dict(g.pair_exps)
    for i in range(off):
        for j in range(off, g.n_vertices):
            if g.charges[i] != 0 and g.charges[j] != 0:
                _merge_pair_exps(pairs, (i, j), K)
    g = replace(g, pair_exps=tuple(sorted(pairs.items())))
    into_b = tuple(v for v in range(off, g.n_vertices) if g.charges[v] != 0)
    into_a = tuple(v for v in range(off) if g.charges[v] != 0)
    return _contracted(g, [into_b] * n_a + [into_a] * (m - n_a),
                       [range(n_a, m)] * n_a + [()] * (m - n_a),
                       lambda v: K if v < off else K.transpose(), K)


def star_product(A, B, K: KernelExpr) -> list[Generator]:
    """Exponential product A *_K B, exact on generator sums."""
    out = []
    for a in _as_list(A):
        for b in _as_list(B):
            out.extend(_star_two(a, b, K))
    return out


def time_ordered(factors, K: KernelExpr) -> list[Generator]:
    """Multi-factor exponential product; T_0 = 1, T_1 = id."""
    factors = list(factors)
    if not factors:
        return [unit()]
    out = _as_list(factors[0])
    for f in factors[1:]:
        out = star_product(out, f, K)
    return out


def gamma_deform(A, K: KernelExpr) -> list[Generator]:
    """Deformation map Gamma_K = e^{(1/2) <K, d^2/dphi^2>}.

    Adds self-weights and symmetrized cross exponents on vertices and expands
    over partial leg contractions (leg-leg pairings and leg-vertex
    attachments).  Raises SingularCoincidence if a self-weight would involve
    a kernel that diverges at coincidence.
    """
    K_sym = K if K.is_symmetric() else (K.real_basis() + K.transpose()).scaled(Fraction(1, 2))
    singular_self = any(b not in _COINCIDENCE_OK for b, _, _ in K.terms)
    out = []
    for a in _as_list(A):
        if singular_self and any(c != 0 for c in a.charges):
            raise SingularCoincidence(
                "self-dressing with a coincidence-singular kernel")
        pairs = dict(a.pair_exps)
        for i in range(a.n_vertices):
            for j in range(i + 1, a.n_vertices):
                if a.charges[i] != 0 and a.charges[j] != 0:
                    _merge_pair_exps(pairs, (i, j), K_sym)
        dressings = tuple(d + K_sym if c != 0 else d
                          for d, c in zip(a.dressings, a.charges))
        base = replace(a, pair_exps=tuple(sorted(pairs.items())),
                       dressings=dressings)
        charged = tuple(v for v in range(a.n_vertices) if a.charges[v] != 0)
        m = len(a.free_legs)
        out.extend(_contracted(base, [charged] * m,
                               [range(i + 1, m) for i in range(m)],
                               lambda v: K_sym, K_sym))
    return out


def gamma_inverse(A, K: KernelExpr) -> list[Generator]:
    return gamma_deform(A, K.scaled(-1))


def wick_expand(p: int, smearings: list[str]) -> list[Generator]:
    """Gamma_Q applied to a product of p linear legs."""
    if p < 1 or len(smearings) != p:
        raise ValueError("need one smearing per leg")
    prod = pointwise(*[leg(s) for s in smearings])
    return gamma_deform(prod, KE_Q)


def leibniz_expand(A, B, fields: list[str], K: KernelExpr) -> list[Generator]:
    """A *_K (B . Phi_1 ... Phi_m) organized by which legs contract into A."""
    out = []
    for a in _as_list(A):
        for subset_size in range(len(fields) + 1):
            for subset in itertools.combinations(range(len(fields)), subset_size):
                rest = [fields[i] for i in range(len(fields)) if i not in subset]
                lifted = replace(a, free_legs=a.free_legs)
                # attach the chosen legs into A in every way (vertices or A legs)
                pieces = [lifted]
                for i in subset:
                    new_pieces = []
                    for g in pieces:
                        for v in range(g.n_vertices):
                            if g.charges[v] != 0:
                                new_pieces.append(replace(
                                    g,
                                    coeff=g.coeff * Coeff(CR_I * g.charges[v], a_pow=1),
                                    attached=g.attached + ((v, K, fields[i]),)))
                        for p_idx, aleg in enumerate(g.free_legs):
                            kept = tuple(l for k, l in enumerate(g.free_legs)
                                         if k != p_idx)
                            new_pieces.append(replace(
                                g, free_legs=kept,
                                scalar_pairs=g.scalar_pairs + ((K, aleg, fields[i]),)))
                    pieces = new_pieces
                for g in pieces:
                    for term in star_product(g, B, K):
                        out.append(replace(term,
                                           free_legs=term.free_legs + tuple(rest)))
    return out


# ---------------------------------------------------------------------------
# canonical form and collection
# ---------------------------------------------------------------------------

@functools.cache
def _expr_key(expr: KernelExpr, transposed: bool = False) -> tuple:
    """Key over the real basis of a kernel slot or of its transpose.
    Coefficients enter as integer numerators and denominators, which hash
    natively."""
    if transposed:
        expr = expr.transpose()
    return tuple((b, h, *c.re.as_integer_ratio(), *c.im.as_integer_ratio())
                 for b, h, c in expr.real_basis().terms)


@functools.cache
def _unit_kernel(basis: str, hbar: int) -> KernelExpr:
    """The one-term slot 1 * hbar^h * K_basis, built once per (basis, h)."""
    return KernelExpr.of((basis, hbar, 1))


def _linear_choices(factors, crat: CRat, k_max: int):
    """Expand a product of factors that are linear in their kernels.

    Each factor is a list of options (h, entry, c): one term with hbar
    power h and coefficient c, a CRat.  Returns (entries, crat times the
    chosen c, hbar) for every choice of one option per factor whose hbar
    total stays <= k_max, the first factor varying slowest.
    """
    partial = [([], crat, 0)]
    for options in factors:
        partial = [(chosen + [entry], prod * c, h_tot + h)
                   for chosen, prod, h_tot in partial
                   for h, entry, c in options if h_tot + h <= k_max]
    return partial


def _linearize(g: Generator):
    """Expand the linear kernel factors into single real-basis terms.

    Attached factors and scalar pairs are linear in their kernel, so a
    generator with a multi-term kernel there is a sum of single-term
    generators.  Scalar pairs are normalized to sorted leg order.  Yields
    generators whose attached/scalar kernels are single real-basis terms
    with unit coefficient (coefficients folded into coeff).
    """
    def options(e: KernelExpr, entry):
        return [(0, entry(_unit_kernel(b, h)), c)
                for b, h, c in e.real_basis().terms]

    factors = [options(e, lambda k: (v, k, l)) for v, e, l in g.attached]
    for e, p, q in g.scalar_pairs:
        if p > q:
            e, p, q = e.transpose(), q, p
        factors.append(options(e, lambda k: (k, p, q)))
    n_att = len(g.attached)
    for chosen, crat, _ in _linear_choices(factors, g.coeff.crat, 0):
        if not crat.is_zero():
            yield replace(g, coeff=replace(g.coeff, crat=crat),
                          attached=tuple(chosen[:n_att]),
                          scalar_pairs=tuple(chosen[n_att:]))


def _vertex_classes(g: Generator) -> list[tuple]:
    """Per-vertex (charge, smearing, dressing key): relabellings may only
    permute equal classes."""
    return [(g.charges[i], g.smearings[i], _expr_key(g.dressings[i]))
            for i in range(g.n_vertices)]


def _min_over_relabellings(classes: list[tuple], key_for) -> tuple:
    """Smallest key_for(vkey, inv) over the vertex relabellings that put the
    classes in sorted order; vkey is the sorted class tuple and inv maps old
    vertex indices to new ones.  n = 0 has the single empty relabelling."""
    target = sorted(classes, key=repr)
    vkey = tuple(target)
    return min(key_for(vkey, {old: new for new, old in enumerate(perm)})
               for perm in itertools.permutations(range(len(classes)))
               if [classes[i] for i in perm] == target)


def _canonical_key(g: Generator) -> tuple:
    """Canonical structural key, minimized over vertex relabelings.

    An endpoint swap transposes a pair exponent and maps DeltaR <-> DeltaA
    on an edge.  Slot keys do not depend on the relabelling, so each is
    computed once, a pair exponent's in both orientations.
    """
    pairs = [(i, j, _expr_key(e), _expr_key(e, True))
             for (i, j), e in g.pair_exps]
    att = [(v, l, _expr_key(e)) for v, e, l in g.attached]
    scal = tuple(sorted((p, q, _expr_key(e)) if p <= q
                        else (q, p, _expr_key(e, True))
                        for e, p, q in g.scalar_pairs))
    rest = (scal, tuple(sorted(g.free_legs)), g.coeff.powers_key())

    def key_for(vkey, inv):
        exps = tuple(sorted((inv[i], inv[j], k) if inv[i] < inv[j]
                            else (inv[j], inv[i], kt)
                            for i, j, k, kt in pairs))
        edges = tuple(sorted((inv[i], inv[j], b, h, p) if inv[i] < inv[j]
                             else (inv[j], inv[i], _SWAP.get(b, b), h, p)
                             for i, j, b, h, p in g.edges))
        return (vkey, exps, edges,
                tuple(sorted((inv[v], l, k) for v, l, k in att))) + rest

    return _min_over_relabellings(_vertex_classes(g), key_for)


def _sum_by_key(items) -> dict:
    """Running sums of exact coefficients over a stream of (key, CRat, rep).

    Keeps the first representative seen for each key and the order in which
    keys first appear; keys whose sum is exactly zero are dropped.
    """
    acc: dict[tuple, tuple[CRat, object]] = {}
    for key, c, rep in items:
        if key in acc:
            total, first = acc[key]
            acc[key] = (total + c, first)
        else:
            acc[key] = (c, rep)
    return {k: (c, rep) for k, (c, rep) in acc.items() if not c.is_zero()}


def _summed_terms(sums: dict) -> list:
    """The representatives of collected sums, each carrying its summed
    coefficient."""
    return [replace(rep, coeff=replace(rep.coeff, crat=c))
            for c, rep in sums.values()]


def collect(gens) -> dict:
    """Group generators by canonical key, summing exact coefficients.

    Linear kernel factors are expanded into single real-basis terms first,
    so combinations that agree only after kernel identities (for example
    Delta_F - omega = i Delta^A) collect exactly.
    """
    return _sum_by_key((_canonical_key(g), g.coeff.crat, g)
                       for g0 in _as_list(gens) for g in _linearize(g0))


def collected_raw_list(gens) -> list[Generator]:
    """Collect by canonical key keeping composite kernel factors intact.

    Used by the term builders: attached factors like (Q + hbar omega) f stay
    one entry for presentation and finite-hbar evaluation.
    """
    return _summed_terms(_sum_by_key((_canonical_key(g), g.coeff.crat, g)
                                     for g in _as_list(gens)))


def multisets_equal(gs1, gs2) -> bool:
    c1, c2 = collect(gs1), collect(gs2)
    if set(c1) != set(c2):
        return False
    return all(c1[k][0] == c2[k][0] for k in c1)


def support_ordered(gens, order: dict) -> list[Generator]:
    """gens with the kernel terms dropped that vanish under a time ordering
    of the supports.

    ``order`` maps smearing and leg names to a time rank; a name it leaves
    out has none.  K(z, z') with the support of z strictly earlier than
    that of z' loses its Delta^R term (Delta^A when strictly later).  Pair
    exponents and kernel slots are rewritten over the real basis; edges are
    kept.
    """
    def kept(e: KernelExpr, a: str, b: str) -> KernelExpr:
        ra, rb = order.get(a), order.get(b)
        if ra is None or rb is None or ra == rb:
            return e
        gone = "DeltaR" if ra < rb else "DeltaA"
        return KernelExpr.of(*(t for t in e.real_basis().terms
                               if t[0] != gone))

    out = []
    for g in _as_list(gens):
        s, pairs = g.smearings, {}
        for (i, j), e in g.pair_exps:
            _merge_pair_exps(pairs, (i, j), kept(e, s[i], s[j]))
        out.append(replace(
            g, pair_exps=tuple(sorted(pairs.items())),
            attached=tuple((v, kept(e, s[v], l), l) for v, e, l in g.attached),
            scalar_pairs=tuple((kept(e, p, q), p, q)
                               for e, p, q in g.scalar_pairs)))
    return out


# ---------------------------------------------------------------------------
# Q-deformed S-matrix and Bogoliubov terms
# ---------------------------------------------------------------------------

def qs_term(n: int, inverse: bool = False) -> list[Generator]:
    """lambda^n coefficient of Gamma_Q(S) (or of its star-inverse).

    Prefactor (+-i/hbar)^n lambda^n / n! is tracked exactly; the kernels are
    Q + hbar Delta_F (Q + hbar Delta_AF for the inverse).
    """
    if n < 0:
        raise ValueError("n >= 0")
    kernel = KE_Q_AF if inverse else KE_Q_F
    factors = [sg_vertex("g", KE_Q) for _ in range(n)]
    gens = time_ordered(factors, kernel)
    i_pow = 3 if inverse else 1  # (-i) = i^3
    pref = Coeff(CRat.i_power(i_pow * n) * Fraction(1, math.factorial(n)),
                 hbar_pow=-n, lam_pow=n)
    return collected_raw_list([g.scaled(pref) for g in gens])


def bogoliubov_generators(n: int, legs: list[str], deform_q: bool = True,
                          smearings: list[str] | None = None
                          ) -> list[Generator]:
    """All generator monomials of the (Q-deformed) retarded product R_{n,m}.

    Left (anti-time-ordered) blocks carry Q + hbar Delta_AF, right blocks
    Q + hbar Delta_F, cross pairs Q + hbar omega with the left vertex in the
    first kernel slot.  The observable legs Wick-pair through Q, attach to
    right-block vertices through Q + hbar Delta_F and to left-block vertices
    through Q + hbar omega.  Coefficient per monomial:
    (i/hbar)^n (-1)^(left size) 2^(-n) (times derivative factors i c a).
    """
    smearings = smearings or ["g"] * n
    k_within_R = KE_Q_F if deform_q else KE_F_H
    k_within_L = KE_Q_AF if deform_q else KE_AF_H
    k_cross = KE_Q_OMEGA if deform_q else KE_OMEGA_H
    dress = KE_Q if deform_q else KE_ZERO
    partners = [range(i + 1, len(legs)) if deform_q else ()
                for i in range(len(legs))]
    out = []
    for left in _all_subsets(range(n)):
        order = sorted(left) + sorted(set(range(n)) - left)
        pos = {orig: k for k, orig in enumerate(order)}
        n_left = len(left)
        # positions below n_left hold the left block, so a cross pair has
        # its left vertex first
        pair_exps = tuple(((i, j), k_within_L if j < n_left
                           else k_cross if i < n_left else k_within_R)
                          for i in range(n) for j in range(i + 1, n))
        base_coeff = Coeff(CRat.i_power(n) * Fraction((-1) ** n_left,
                                                      2 ** n),
                           hbar_pow=-n)
        # legs attach to every vertex, in original order: left vertices
        # (positions < n_left) through the cross kernel
        targets = [tuple(pos[v] for v in range(n))] * len(legs)
        for charges_orig in itertools.product((1, -1), repeat=n):
            base = Generator(
                coeff=base_coeff,
                charges=tuple(charges_orig[order[k]] for k in range(n)),
                smearings=tuple(smearings[order[k]] for k in range(n)),
                dressings=(dress,) * n,
                pair_exps=pair_exps, free_legs=tuple(legs))
            out.extend(_contracted(
                base, targets, partners,
                lambda v: k_cross if v < n_left else k_within_R,
                KE_Q))
    return out


def _all_subsets(it):
    items = list(it)
    for r in range(len(items) + 1):
        yield from (frozenset(c) for c in itertools.combinations(items, r))


# ---------------------------------------------------------------------------
# uncontracted-vertex cancellation certificate
# ---------------------------------------------------------------------------

def uncontracted_cancellation(n: int, m: int, deform_q: bool = True) -> dict:
    """Exact-zero certificate for the marked-vertex subsum of R_{n,m}.

    Builds R_{n,m} with one distinguished interaction vertex, restricts to
    the subsum where that vertex carries no contractions at all (its pair
    kernels stripped, no legs attached), removes it, and verifies that every
    residual canonical class sums to zero exactly.
    """
    if not 1 <= n <= 4:
        raise ValueError(f"n must be in [1, 4], got {n}")
    legs = [f"f{k + 1}" for k in range(m)]
    smearings = ["g*"] + ["g"] * (n - 1)   # vertex 0 is marked
    residual = []
    for g in bogoliubov_generators(n, legs, deform_q, smearings=smearings):
        marked = g.smearings.index("g*")
        if any(v == marked for v, _, _ in g.attached):
            continue  # subsum requires the marked vertex leg-free
        stripped = _drop_vertex(g, marked)
        # keep the marked charge as part of the class so the factored
        # functional V_{c,g*} is identical within each class
        stripped = replace(stripped,
                           free_legs=stripped.free_legs
                           + (f"#marked_charge{g.charges[marked]}",))
        residual.append(stripped)
    surviving = collect(residual)
    if surviving:
        _, rep = next(iter(surviving.values()))
        raise CancellationFailure(f"surviving term: {rep}")
    return {"n": n, "m": m, "classes_checked": len(residual), "surviving": 0}


def _drop_vertex(g: Generator, v: int) -> Generator:
    keep = [i for i in range(g.n_vertices) if i != v]
    remap = {old: new for new, old in enumerate(keep)}
    return replace(
        g,
        charges=tuple(g.charges[i] for i in keep),
        smearings=tuple(g.smearings[i] for i in keep),
        dressings=tuple(g.dressings[i] for i in keep),
        pair_exps=tuple(sorted(((remap[i], remap[j]), e)
                               for (i, j), e in g.pair_exps
                               if i != v and j != v)),
        edges=tuple((remap[i], remap[j], b, h, p)
                    for i, j, b, h, p in g.edges if i != v and j != v),
        attached=tuple((remap[w], e, l) for w, e, l in g.attached))


# ---------------------------------------------------------------------------
# hbar strata: expansion, grading, classical limit
# ---------------------------------------------------------------------------

def _expand_generator(g: Generator, k_max: int, real_basis: bool):
    """The terms of g of quantum hbar-order <= k_max, built on demand.

    One choice list per factor: each quantum term (b, h, c) of each pair
    kernel offers the Taylor powers p of e^{-c_i c_j a^2 c K}, at hbar cost
    h p with coefficient (-c_i c_j c)^p / p! a^(2p) (the edge (i, j, b, h,
    p) is kept for p > 0); then each attached factor and scalar pair offers
    its basis terms (b, h, c), kept as the slot hbar^h K_b with c folded
    into the coefficient.  The grade-zero pair kernels stay exponential.

    Returns (shape, choices, build): choices lists (edges, attached,
    scalars, crat, stratum) per choice, the first three holding the chosen
    entries of each kind; build(edges, attached, scalars, crat) is the
    term.  Equal shapes and entries give terms that differ only in crat.
    """
    def _terms(expr: KernelExpr):
        return (expr.real_basis() if real_basis else expr).terms

    def options(e: KernelExpr, entry):
        lo, hi = e.hbar_split()
        return [(h, entry(_unit_kernel(b, h)), c)
                for b, h, c in lo.terms + _terms(hi)]

    q_pairs, factors = [], []
    for (i, j), e in g.pair_exps:
        lo, hi = e.hbar_split()
        if not lo.is_zero():
            if any(b != "Q" for b, _, _ in lo.terms):
                raise ValueError("grade-0 pair kernels must be pure Q")
            q_pairs.append(((i, j), lo))
        for b, h, c in _terms(hi):
            w = CRat.of(-g.charges[i] * g.charges[j]) * c
            factors.append([(0, None, CR_ONE)] + [
                (h * p, (i, j, b, h, p),
                 math.prod([w] * p, start=CR_ONE)
                 * Fraction(1, math.factorial(p)))
                for p in range(1, k_max // h + 1)])
    n_edges = len(factors)
    factors += [options(e, lambda k: (v, k, l)) for v, e, l in g.attached]
    n_att = len(factors)
    factors += [options(e, lambda k: (k, p, q))
                for e, p, q in g.scalar_pairs]

    q_pairs, free_legs = tuple(q_pairs), tuple(sorted(g.free_legs))
    a_pow, hbar_pow, lam_pow = g.coeff.powers_key()

    def build(edges, attached, scalars, crat: CRat) -> Generator:
        edges = tuple(sorted(filter(None, edges)))
        # the factor order fixes the floating-point product of the integrand
        return Generator(
            coeff=Coeff(crat, a_pow + 2 * sum(e[4] for e in edges), hbar_pow,
                        lam_pow),
            charges=g.charges, smearings=g.smearings,
            dressings=g.dressings, pair_exps=q_pairs,
            edges=edges,
            attached=tuple(sorted(attached,
                                  key=lambda s: (s[0], s[1].terms[0][:2],
                                                 s[2]))),
            scalar_pairs=tuple(sorted(scalars,
                                      key=lambda s: (s[0].terms[0][:2],
                                                     *s[1:]))),
            free_legs=free_legs)

    choices = [(tuple(chosen[:n_edges]), tuple(chosen[n_edges:n_att]),
                tuple(chosen[n_att:]), crat, h_tot)
               for chosen, crat, h_tot in
               _linear_choices(factors, g.coeff.crat, k_max)]
    shape = (g.charges, g.smearings, g.dressings, q_pairs, free_legs, a_pow,
             hbar_pow, lam_pow)
    return shape, choices, build


def _null_support(term: Generator) -> bool:
    """True if an edge product vanishes pointwise: Delta^R and Delta^A on
    the same vertex pair have disjoint supports."""
    seen: dict[tuple[int, int], set[str]] = {}
    for i, j, b, h, p in term.edges:
        if b in ("DeltaR", "DeltaA"):
            seen.setdefault((i, j), set()).add(b)
    return any(len(s) == 2 for s in seen.values())


def expand_strata(gens, k_max: int, real_basis: bool = True) -> dict:
    """Collect hbar strata 0..k_max of a generator sum.

    Returns {stratum: {canonical_key: (CRat, term)}} with exact
    cancellation applied; pointwise-null edge products are dropped when
    working over the real basis.

    The terms repeat far fewer structures than they number (R_{3,1}:
    88,000 terms, 11,000 structures), so each structure is built, tested
    for a null edge product and keyed once; a repeat only adds its
    coefficient.  A structure is spelled by small ids of its parts, which
    keeps the memo small.
    """
    ids: dict = {}       # structure part -> small id
    keys: dict = {}      # structure -> canonical key, None for a null one
    interned: dict = {}  # one object per canonical key and per key part

    def keyed():
        for g in _as_list(gens):
            shape, choices, build = _expand_generator(g, k_max, real_basis)
            shape = ids.setdefault(shape, len(ids))
            for edges, attached, scalars, crat, h in choices:
                s = (shape, ids.setdefault(edges, len(ids)),
                     ids.setdefault(attached, len(ids)),
                     ids.setdefault(scalars, len(ids)))
                if s in keys:
                    # seen before, so its key is already being summed
                    if keys[s] is not None:
                        yield keys[s], crat, None
                    continue
                t = build(edges, attached, scalars, crat)
                key = None
                if not (real_basis and _null_support(t)):
                    key = (h, tuple(interned.setdefault(p, p)
                                    for p in _canonical_key(t)))
                    key = interned.setdefault(key, key)
                    yield key, crat, t
                keys[s] = key

    sums = _sum_by_key(keyed())
    strata: dict[int, dict] = {k: {} for k in range(k_max + 1)}
    for (h, key), entry in sums.items():
        strata[h][key] = entry
    return strata


def classical_term(n: int, m: int, legs: list[str] | None = None,
                   deform_q: bool = True) -> list[Generator]:
    """hbar^0 stratum of the (Q-deformed) retarded product R_{n,m}.

    Verifies along the way that every stratum below n cancels exactly;
    NegativeGrade is raised otherwise.  The returned terms carry exactly n
    quantum contraction factors over {H, DeltaR, DeltaA} (H factors cancel
    in the collected sum) against the grade-zero Q background.
    """
    legs = legs or [f"f{k + 1}" for k in range(max(m, 0))]
    gens = bogoliubov_generators(n, legs, deform_q)
    strata = expand_strata(gens, k_max=n, real_basis=True)
    for k in range(n):
        if strata[k]:
            _, rep = next(iter(strata[k].values()))
            raise NegativeGrade(
                f"stratum hbar^{k - n} survives for R_{n},{m}: {rep}")
    return _summed_terms(strata[n])


def classical_term_labeled(n: int, m: int, legs: list[str] | None = None,
                           deform_q: bool = False) -> list[Generator]:
    """Classical stratum in the original kernel labels (for rendering)."""
    legs = legs or [f"f{k + 1}" for k in range(max(m, 0))]
    gens = bogoliubov_generators(n, legs, deform_q)
    strata = expand_strata(gens, k_max=n, real_basis=False)
    return _summed_terms(strata[n])


def aggregate_charge_sectors(terms) -> list[tuple[Generator, int]]:
    """Group expanded terms by contraction structure, charges ignored.

    One graph per (edge kernels, leg attachments) class, the charge
    assignments and derivative factors absorbed into a multiplicity; at
    second order for the field observable this collapses the expansion to
    four graphs.
    """
    sums = _sum_by_key((_canonical_key(replace(t, charges=(0,) * t.n_vertices,
                                               coeff=COEFF_ONE)), CR_ONE, t)
                       for t in terms)
    return [(sums[k][1], int(sums[k][0].re)) for k in sorted(sums)]


def hbar_floor(n: int, m: int) -> int:
    """Minimal hbar grade of R_{n,m}; asserts it is exactly 0."""
    terms = classical_term(n, m)
    if not terms:
        raise NegativeGrade(f"hbar^0 stratum of R_{n},{m} is empty")
    return 0


def hbar_grade(t: Generator) -> int:
    """Total hbar power of a term, prefactor included.

    Exponential pair kernels contribute 0 (the constant term of e^x);
    attached factors and scalar pairs, linear in their kernel, their
    minimal power; expanded edges hbar * power.
    """
    return (t.coeff.hbar_pow
            + sum(e.min_hbar() for _, e, _ in t.attached)
            + sum(e.min_hbar() for e, _, _ in t.scalar_pairs)
            + sum(h * p for _, _, _, h, p in t.edges))


# ---------------------------------------------------------------------------
# connected decomposition
# ---------------------------------------------------------------------------

def _partitions(items):
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _partitions(rest):
        for k in range(len(part)):
            yield part[:k] + [[first] + part[k]] + part[k + 1:]
        yield [[first]] + part


def connected_product(factors, K: KernelExpr) -> list[Generator]:
    """Moebius-style connected part of a multi-factor star product."""
    factors = [_as_list(f) for f in factors]
    n = len(factors)
    if n == 1:
        return list(factors[0])
    full = time_ordered(factors, K)
    out = list(full)
    for part in _partitions(range(n)):
        if len(part) < 2:
            continue
        blocks = [connected_product([factors[i] for i in sorted(b)], K)
                  for b in part]
        for g in pointwise(*blocks):
            out.append(g.scaled(-1))
    return out


def connected_decomposition(factors, K: KernelExpr) -> dict:
    """Partition-indexed decomposition of the full star product."""
    factors = [_as_list(f) for f in factors]
    out = {}
    for part in _partitions(range(len(factors))):
        blocks = [connected_product([factors[i] for i in sorted(b)], K)
                  for b in part]
        key = tuple(tuple(sorted(b)) for b in sorted(part, key=min))
        out[key] = pointwise(*blocks)
    return out


def min_nonvanishing_stratum(gens, k_max: int) -> int | None:
    """Lowest quantum hbar order with a surviving stratum, or None."""
    strata = expand_strata(gens, k_max=k_max, real_basis=True)
    for k in range(k_max + 1):
        if strata[k]:
            return k
    return None


# ---------------------------------------------------------------------------
# term-graph view: JSON and DOT
# ---------------------------------------------------------------------------

_EDGE_COLORS = {
    "DeltaF": "black", "Omega": "green", "DeltaAF": "red", "Q": "blue",
    "H": "gray", "H0": "lightgray", "DeltaR": "orange", "DeltaA": "brown",
    "Delta": "purple4",
}


@dataclass(frozen=True)
class TermGraph:
    """Presentation view of one expansion summand."""

    vertices: tuple[dict, ...]
    external: tuple[str, ...]
    edges: tuple[dict, ...]
    coeff_num: int
    coeff_den: int
    i_power: int
    a_power: int
    hbar_degree: int
    lam_power: int
    multiplicity: int = 1

    def to_json_dict(self) -> dict:
        return {
            "vertices": [dict(v) for v in self.vertices],
            "edges": [dict(e) for e in self.edges],
            "coeff_num": self.coeff_num,
            "coeff_den": self.coeff_den,
            "i_power": self.i_power,
            "hbar_degree": self.hbar_degree,
            "a_power": self.a_power,
            "lam_power": self.lam_power,
            "multiplicity": self.multiplicity,
            "external": list(self.external),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def _term_graph(t: Generator, slot_fields, hbar_degree: int,
                multiplicity: int = 1) -> TermGraph:
    """The view of a term; slot_fields(E) describes the kernel of an
    attached factor or scalar pair."""
    frac, ipow = t.coeff.crat.as_fraction_ipow()
    vertices = tuple(
        {"charge": t.charges[i], "smearing": t.smearings[i],
         "dressed": not t.dressings[i].is_zero()}
        for i in range(t.n_vertices))
    edges = [{"a": i, "b": j, "kernel": _kernel_name(e), "kind": "exponential"}
             for (i, j), e in t.pair_exps]
    edges += [{"a": i, "b": j, "kernel": b, "kind": "contraction",
               "hbar": h, "power": p} for i, j, b, h, p in t.edges]
    edges += [{"a": v, "b": f"leg:{l}", "kind": "attached", **slot_fields(e)}
              for v, e, l in t.attached]
    edges += [{"a": f"leg:{p}", "b": f"leg:{q}", "kind": "scalar",
               **slot_fields(e)} for e, p, q in t.scalar_pairs]
    return TermGraph(vertices, tuple(t.free_legs), tuple(edges),
                     frac.numerator, frac.denominator, ipow, t.coeff.a_pow,
                     hbar_degree, t.coeff.lam_pow, multiplicity)


def _kernel_name(expr: KernelExpr) -> str:
    names = sorted({b for b, _, _ in expr.terms})
    return "+".join(names) if names else "0"


def term_graph_from_generator(g: Generator) -> TermGraph:
    """A finite-hbar term: each slot named by its kernels."""
    return _term_graph(g, lambda e: {"kernel": _kernel_name(e)},
                       g.coeff.hbar_pow)


def term_graph_from_expanded(t: Generator, multiplicity: int = 1) -> TermGraph:
    """A term of one hbar stratum: one-term slots with their hbar powers,
    and the term's hbar grade."""
    def one_term(e: KernelExpr) -> dict:
        (b, h, _), = e.terms
        return {"kernel": b, "hbar": h}
    return _term_graph(t, one_term, hbar_grade(t), multiplicity)


def graph_render(t: TermGraph) -> str:
    """Deterministic DOT rendering: vertices as black dots, external legs
    purple; edge colors DeltaF black, omega green, DeltaAF red, Q blue."""
    lines = ["graph term {", "  node [shape=point, width=0.12];"]
    for k, v in enumerate(t.vertices):
        sign = "+" if v["charge"] > 0 else ("-" if v["charge"] < 0 else "0")
        lines.append(
            f'  v{k} [color=black, xlabel="V{sign}:{v["smearing"]}"];')
    legs = sorted({e["b"] for e in t.edges if isinstance(e["b"], str)
                   and e["b"].startswith("leg:")}
                  | {f"leg:{l}" for l in t.external}
                  | {e["a"] for e in t.edges if isinstance(e["a"], str)
                     and e["a"].startswith("leg:")})
    for l in legs:
        lines.append(f'  "{l}" [color=purple, xlabel="{l[4:]}"];')
    body = []
    for e in t.edges:
        a = f"v{e['a']}" if isinstance(e["a"], int) else f'"{e["a"]}"'
        b = f"v{e['b']}" if isinstance(e["b"], int) else f'"{e["b"]}"'
        color = _EDGE_COLORS.get(e["kernel"].split("+")[-1], "black")
        label = e["kernel"]
        if e.get("power", 1) not in (1, None) and e.get("kind") == "contraction":
            label += f"^{e['power']}"
        style = "dashed" if e.get("kind") == "exponential" else "solid"
        body.append(f'  {a} -- {b} [color={color}, label="{label}", style={style}];')
    lines.extend(sorted(body))
    mult = f" x{t.multiplicity}" if t.multiplicity != 1 else ""
    lines.append(f'  label="coeff {t.coeff_num}/{t.coeff_den} i^{t.i_power} '
                 f'a^{t.a_power} hbar^{t.hbar_degree}{mult}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
