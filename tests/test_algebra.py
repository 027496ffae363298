import hashlib
import itertools
import math
from fractions import Fraction

import pytest

from stochsg import algebra as A
from stochsg.errors import SingularCoincidence
from stochsg.exact import CR_I, Coeff, CRat


class TestKernelExpr:
    def test_normalization(self):
        e = A.KernelExpr.of(("Q", 0, 1), ("Q", 0, 2), ("H", 1, 0))
        assert e.terms == (("Q", 0, CRat.of(3)),)

    def test_real_rewrite_symbolic_identities(self):
        # Re Delta_F = Re Delta_AF = Re omega = H at the symbolic level
        for name in ("DeltaF", "DeltaAF", "Omega"):
            e = A.KernelExpr.of((name, 1, 1)).real_basis()
            conj = A.KernelExpr.of(*((b, h, CRat.of(c.re, -c.im))
                                   for b, h, c in e.terms))
            re_part = (e + conj).scaled(Fraction(1, 2))
            assert re_part == A.KernelExpr.of(("H", 1, 1))

    def test_feynman_minus_omega(self):
        diff = (A.KE_F_H + A.KE_OMEGA_H.scaled(-1)).real_basis()
        assert diff == A.KernelExpr.of(("DeltaA", 1, CR_I))
        diff2 = (A.KE_AF_H + A.KE_OMEGA_H.scaled(-1)).real_basis()
        assert diff2 == A.KernelExpr.of(("DeltaR", 1, -CR_I))

    def test_transpose(self):
        e = A.KernelExpr.of(("Omega", 1, 1))
        flipped = e.transpose()
        # omega(y, x) = H - (i/2) DeltaR + (i/2) DeltaA in the (x, y) slots
        assert flipped == A.KernelExpr.of(
            ("H", 1, 1), ("DeltaR", 1, CRat.of(0, Fraction(-1, 2))),
            ("DeltaA", 1, CRat.of(0, Fraction(1, 2))))
        assert A.KE_Q.transpose() == A.KE_Q


class TestStarProduct:
    def test_unit(self):
        V = A.vertex(1, "g")
        assert A.multisets_equal(A.star_product(V, A.unit(), A.KE_Q_F), [V])
        assert A.multisets_equal(A.star_product(A.unit(), V, A.KE_Q_F), [V])

    def test_opposite_charges_pair_exponent(self):
        res = A.star_product(A.vertex(1, "g"), A.vertex(-1, "g"), A.KE_Q)
        assert len(res) == 1
        ((pair, expr),) = res[0].pair_exps
        assert pair == (0, 1) and expr == A.KE_Q
        assert res[0].charges == (1, -1)

    def test_two_legs(self):
        res = A.star_product(A.leg("f1"), A.leg("f2"), A.KE_Q)
        kinds = sorted((len(g.free_legs), len(g.scalar_pairs)) for g in res)
        assert kinds == [(0, 1), (2, 0)]

    def test_left_leg_attaches_through_transpose(self):
        # an A-leg at a B vertex is K(y, x_v): stored vertex-first as K^T
        res = A.star_product(A.leg("f"), A.vertex(1, "g"), A.KE_Q_OMEGA)
        (attached,) = [g.attached for g in res if g.attached]
        assert attached == ((0, A.KE_Q_OMEGA.transpose(), "f"),)
        assert A.KE_Q_OMEGA.transpose() != A.KE_Q_OMEGA.real_basis()

    def test_ccr(self):
        K = A.KE_OMEGA_H
        lhs = A.star_product(A.leg("f1"), A.leg("f2"), K) \
            + [g.scaled(-1) for g in A.star_product(A.leg("f2"), A.leg("f1"), K)]
        expected = [A.Generator(coeff=Coeff(CR_I),
                                scalar_pairs=((A.KE_DELTA_H, "f1", "f2"),))]
        assert A.multisets_equal(lhs, expected)

    def test_homomorphism_law(self):
        cases = [
            (A.vertex(1, "g"), A.sg_vertex("h")),
            (A.sg_vertex("g"), A.leg("f")),
            (A.star_product(A.vertex(1, "g"), A.vertex(-1, "h"), A.KE_Q),
             A.leg("f")),
        ]
        for Aop, Bop in cases:
            lhs = A.star_product(Aop, Bop, A.KE_Q)
            rhs = A.gamma_deform(
                A.pointwise(A.gamma_inverse(Aop, A.KE_Q),
                            A.gamma_inverse(Bop, A.KE_Q)), A.KE_Q)
            assert A.multisets_equal(lhs, rhs)


class TestTimeOrdered:
    def test_empty_is_unit(self):
        res = A.time_ordered([], A.KE_Q_F)
        assert A.multisets_equal(res, [A.unit()])

    def test_single_is_identity(self):
        V = A.sg_vertex("g")
        assert A.multisets_equal(A.time_ordered([V], A.KE_Q_F), V)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_permutation_symmetry(self, n):
        factors = [A.vertex(+1, "g1"), A.vertex(-1, "g2"), A.leg("f"),
                   A.sg_vertex("g3")][:n]
        base = A.time_ordered(factors, A.KE_Q_F)
        for perm in itertools.permutations(range(n)):
            res = A.time_ordered([factors[i] for i in perm], A.KE_Q_F)
            assert A.multisets_equal(base, res)


class TestGamma:
    def test_vertex_dressing(self):
        for c in (1, -1):
            out = A.gamma_deform(A.vertex(c, "g"), A.KE_Q)
            assert len(out) == 1
            assert out[0].dressings == (A.KE_Q,)
            assert out[0].charges == (c,)

    def test_linear_leg_fixed(self):
        out = A.gamma_deform(A.leg("f"), A.KE_Q)
        assert A.multisets_equal(out, [A.leg("f")])

    def test_two_legs_pairing(self):
        out = A.gamma_deform(A.pointwise(A.leg("f1"), A.leg("f2")), A.KE_Q)
        at_zero = [g for g in out if not g.free_legs]
        assert len(at_zero) == 1
        assert at_zero[0].scalar_pairs == ((A.KE_Q, "f1", "f2"),)

    def test_singular_coincidence(self):
        with pytest.raises(SingularCoincidence):
            A.gamma_deform(A.vertex(1, "g"), A.KE_OMEGA_H)
        # uncharged functionals are safe
        A.gamma_deform(A.leg("f"), A.KE_OMEGA_H)

    def test_inverse_roundtrip(self):
        V = A.sg_vertex("g")
        out = A.gamma_deform(A.gamma_inverse(V, A.KE_Q), A.KE_Q)
        assert A.multisets_equal(out, V)


class TestWick:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_perfect_matching_count(self, k):
        p = 2 * k
        terms = A.wick_expand(p, [f"f{i}" for i in range(p)])
        survivors = [g for g in terms if not g.free_legs]
        expected = math.prod(range(1, p, 2))
        assert len(survivors) == expected
        assert all(len(g.scalar_pairs) == k for g in survivors)

    def test_odd_count_vanishes(self):
        terms = A.wick_expand(3, ["f1", "f2", "f3"])
        assert [g for g in terms if not g.free_legs] == []

    def test_pair_value(self):
        terms = A.wick_expand(2, ["f1", "f2"])
        survivors = [g for g in terms if not g.free_legs]
        assert survivors[0].scalar_pairs == ((A.KE_Q, "f1", "f2"),)


class TestLeibniz:
    def test_no_fields(self):
        Aop, Bop = A.vertex(1, "g"), A.vertex(-1, "h")
        res = A.leibniz_expand(Aop, Bop, [], A.KE_Q)
        assert A.multisets_equal(res, A.star_product(Aop, Bop, A.KE_Q))

    def test_single_field_two_terms(self):
        Aop, Bop = A.vertex(1, "g"), A.vertex(-1, "h")
        res = A.leibniz_expand(Aop, Bop, ["f"], A.KE_Q)
        # Lemma 9: (A *_K B) . Phi_f  +  <A^(1), K Phi^(1)> *_K B
        free = [g for g in res if g.free_legs and not g.attached]
        contracted = [g for g in res if not g.free_legs and g.attached]
        assert len(contracted) == 1 and len(free) == 1

    @pytest.mark.parametrize("fields", [["f1"], ["f1", "f2"]])
    def test_matches_direct_star(self, fields):
        Aop = A.sg_vertex("g")
        Bop = A.vertex(-1, "h")
        direct = A.star_product(
            Aop, A.pointwise(Bop, *[A.leg(f) for f in fields]), A.KE_Q)
        organized = A.leibniz_expand(Aop, Bop, fields, A.KE_Q)
        assert A.multisets_equal(direct, organized)

    def test_matches_direct_star_when_a_has_legs(self):
        Aop = A.pointwise(A.vertex(1, "g"), A.leg("fa"))
        Bop = A.vertex(-1, "h")
        for fields in (["f1"], ["f1", "f2"]):
            direct = A.star_product(
                Aop, A.pointwise(Bop, *[A.leg(f) for f in fields]), A.KE_Q)
            organized = A.leibniz_expand(Aop, Bop, fields, A.KE_Q)
            assert A.multisets_equal(direct, organized)


class TestQSTerm:
    def test_order_zero_unit(self):
        out = A.qs_term(0)
        assert A.multisets_equal(out, [A.unit()])

    def test_order_two_sectors(self):
        terms = A.qs_term(2)
        assert len(terms) == 3
        weights = sorted(abs(Fraction(g.coeff.crat.re)) for g in terms)
        # i^2/2! * 2^-2 * {1, 2, 1}
        assert weights == [Fraction(1, 8), Fraction(1, 8), Fraction(1, 4)]
        for g in terms:
            assert g.coeff.hbar_pow == -2 and g.coeff.lam_pow == 2
            assert all(e == A.KE_Q_F for _, e in g.pair_exps)
            assert all(d == A.KE_Q for d in g.dressings)

    def test_inverse_uses_antifeynman(self):
        terms = A.qs_term(2, inverse=True)
        for g in terms:
            assert all(e == A.KE_Q_AF for _, e in g.pair_exps)


class TestBogoliubov:
    def test_r01_is_free_leg(self):
        graphs = A.collected_raw_list(A.bogoliubov_generators(0, ["f"]))
        assert len(graphs) == 1
        g = graphs[0]
        assert g.free_legs == ("f",) and g.n_vertices == 0

    def test_weight_identity(self):
        # sum_l C(n,l) (n-l) = n 2^(n-1)
        for n in range(1, 7):
            total = sum(math.comb(n, l) * (n - l) for l in range(n + 1))
            assert total == n * 2 ** (n - 1)

    def test_j_and_m_split_r11(self):
        # an attached R_{1,1} term carries (i/hbar) (-1)^(left size) / 2
        # times the derivative factor i c a, so c Re(coeff) is +1/2 when
        # the vertex is in the left block (J_1) and -1/2 in the right (M_1)
        attached = [g for g in A.bogoliubov_generators(1, ["f"])
                    if g.attached]
        sides = []
        for g in attached:
            (v, e, l), = g.attached
            left = g.charges[0] * g.coeff.crat.re > 0
            assert e == (A.KE_Q_OMEGA if left else A.KE_Q_F)
            sides.append(left)
        assert sorted(sides) == [False, False, True, True]  # per charge


class TestCancellation:
    @pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1)])
    def test_certificates(self, n, m):
        cert = A.uncontracted_cancellation(n, m)
        assert cert["surviving"] == 0

    def test_undeformed_variant(self):
        assert A.uncontracted_cancellation(2, 1, deform_q=False)["surviving"] == 0

    def test_order_four(self):
        assert A.uncontracted_cancellation(4, 1)["surviving"] == 0

    def test_collect_detects_nonzero(self):
        # sanity: the certificate machinery does flag a non-cancelling sum
        g = A.vertex(1, "g")
        assert A.collect([g, g.scaled(-1)]) == {}
        assert A.collect([g, g]) != {}


class TestGrading:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_hbar_floor(self, n):
        assert A.hbar_floor(n, 1) == 0

    def test_classical_n1_m1_structure(self):
        terms = A.classical_term(1, 1)
        assert len(terms) == 2
        for t in terms:
            assert A.hbar_grade(t) == 0
            (v, e, l), = t.attached
            (b, h, _), = e.terms
            assert b == "DeltaA" and h == 1
            mag = CRat.of(0, Fraction(t.charges[0], 2) * -1)
            assert t.coeff.crat == mag

    def test_classical_n2_m1_reduces_to_retarded_kernels(self):
        terms = A.classical_term(2, 1)
        assert len(terms) == 4
        bases = {b for t in terms for _, _, b, _, _ in t.edges}
        bases |= {b for t in terms for _, e, _ in t.attached
                  for b, _, _ in e.terms}
        assert bases <= {"DeltaR", "DeltaA"}  # H cancels exactly

    def test_labeled_second_order_graph_classes(self):
        terms = A.classical_term_labeled(2, 1, deform_q=False)
        contracted = [t for t in terms if not t.free_legs]
        grouped = A.aggregate_charge_sectors(contracted)
        assert len(grouped) == 4
        sigs = sorted(
            tuple(sorted([b for _, _, b, _, _ in t.edges]
                         + [b for _, e, _ in t.attached
                            for b, _, _ in e.terms]))
            for t, _ in grouped)
        assert sigs == [("DeltaAF", "Omega"), ("DeltaF", "DeltaF"),
                        ("DeltaF", "Omega"), ("Omega", "Omega")]

    def test_hbar_grade_through_term_graphs(self):
        # undeformed R_{1,1}: prefactor hbar^-1, leg attachment hbar^1
        for t in A.collected_raw_list(
                A.bogoliubov_generators(1, ["f"], deform_q=False)):
            if not t.free_legs:
                assert A.hbar_grade(t) == 0

    def test_hbar_grade_examples(self):
        # single Q edge -> grade 0; single hbar omega edge -> grade 1
        conn = A.connected_product([A.leg("f1"), A.leg("f2")], A.KE_Q)
        (g,) = A.collected_raw_list(conn)
        assert A.hbar_grade(g) == 0
        conn = A.connected_product([A.leg("f1"), A.leg("f2")], A.KE_OMEGA_H)
        (g,) = A.collected_raw_list(conn)
        assert A.hbar_grade(g) == 1

    def test_grade_of_every_stratum_term(self):
        # stratum k of R_{2,m} (prefactor hbar^-2) is the hbar^(k-2)
        # stratum: strata 0 and 1 cancel, 2 is classical, 3 the first
        # quantum correction
        strata = A.expand_strata(A.bogoliubov_generators(2, ["f1", "f2"]),
                                 k_max=3)
        assert [k for k, terms in strata.items() if terms] == [2, 3]
        for k, terms in strata.items():
            for _, t in terms.values():
                assert A.hbar_grade(t) == k - 2

    def test_negative_grade_raised_on_tampered_sum(self):
        # dropping the l = 1 block breaks the telescoping: strata below n
        # survive and classical extraction must refuse
        gens = [g for g in A.bogoliubov_generators(1, ["f"], True)
                if not any(b == "Omega" for _, e in g.pair_exps
                           for b, _, _ in e.terms)
                and not any(b == "Omega" for _, e, _ in g.attached
                            for b, _, _ in e.terms)]
        strata = A.expand_strata(gens, k_max=1, real_basis=True)
        assert strata[0]  # the hbar^{-1} stratum survives


class TestConnected:
    def test_two_factor_decomposition(self):
        f1, f2 = A.leg("f1"), A.leg("f2")
        conn = A.connected_product([f1, f2], A.KE_OMEGA_H)
        collected = A.collected_raw_list(conn)
        assert len(collected) == 1
        assert collected[0].scalar_pairs

    def test_three_linear_factors_vanish(self):
        conn = A.connected_product([A.leg("f1"), A.leg("f2"), A.leg("f3")],
                                   A.KE_OMEGA_H)
        assert A.collect(conn) == {}

    def test_partition_sum_reconstructs_product(self):
        factors = [A.vertex(1, "g1"), A.vertex(-1, "g2")]
        parts = A.connected_decomposition(factors, A.KE_OMEGA_H)
        everything = [g for terms in parts.values() for g in terms]
        full = A.time_ordered(factors, A.KE_OMEGA_H)
        assert A.multisets_equal(everything, full)

    @pytest.mark.parametrize("n", [2, 3])
    def test_homogeneity(self, n):
        factors = [A.sg_vertex("g") for _ in range(n)]
        conn = A.connected_product(factors, A.KE_OMEGA_H)
        lowest = A.min_nonvanishing_stratum(conn, k_max=n)
        assert lowest is not None and lowest >= n - 1


class TestRetardedCommutator:
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_identity_with_support_ranks(self, n):
        legs = ["f1"]
        order = {"h": 0, "g": 1, "f1": 2}
        lhs = A.bogoliubov_generators(n + 1, legs, deform_q=True,
                                      smearings=["h"] + ["g"] * n)
        R = A.bogoliubov_generators(n, legs, deform_q=True,
                                    smearings=["g"] * n)
        Vh = A.sg_vertex("h", dressing=A.KE_Q)
        comm = A.star_product(Vh, R, A.KE_Q_OMEGA) \
            + [t.scaled(-1) for t in A.star_product(R, Vh, A.KE_Q_OMEGA)]
        pref = Coeff(CRat.of(0, -1), hbar_pow=-1)
        rhs = [t.scaled(pref) for t in comm]
        assert A.multisets_equal(A.support_ordered(lhs, order),
                                 A.support_ordered(rhs, order))

    def test_identity_fails_without_ranks(self):
        # the same comparison without support ordering must NOT collapse:
        # the reduction is what encodes h being earliest
        legs = ["f1"]
        lhs = A.bogoliubov_generators(1, legs, deform_q=True,
                                      smearings=["h"])
        R = A.bogoliubov_generators(0, legs, deform_q=True)
        Vh = A.sg_vertex("h", dressing=A.KE_Q)
        comm = A.star_product(Vh, R, A.KE_Q_OMEGA) \
            + [t.scaled(-1) for t in A.star_product(R, Vh, A.KE_Q_OMEGA)]
        pref = Coeff(CRat.of(0, -1), hbar_pow=-1)
        rhs = [t.scaled(pref) for t in comm]
        assert not A.multisets_equal(lhs, rhs)


class TestRender:
    def test_empty_graph(self):
        g = A.term_graph_from_generator(A.unit())
        dot = A.graph_render(g)
        assert dot.startswith("graph term {")
        assert "--" not in dot

    def test_idempotent(self):
        t = A.classical_term(1, 1)[0]
        g = A.term_graph_from_expanded(t)
        assert A.graph_render(g) == A.graph_render(g)

    def test_edge_colors(self):
        terms = A.classical_term_labeled(2, 1, deform_q=False)
        grouped = A.aggregate_charge_sectors(
            [t for t in terms if not t.free_legs])
        dots = [A.graph_render(A.term_graph_from_expanded(t, m))
                for t, m in grouped]
        joined = "\n".join(dots)
        assert "color=black, label=\"DeltaF\"" in joined
        assert "color=green, label=\"Omega\"" in joined
        assert "color=red, label=\"DeltaAF\"" in joined

    def test_json_stable_fields(self):
        t = A.classical_term(1, 1)[0]
        d = A.term_graph_from_expanded(t).to_json_dict()
        for key in ("vertices", "edges", "coeff_num", "coeff_den",
                    "i_power", "hbar_degree"):
            assert key in d


def _graph_lines_sha256(graphs) -> str:
    lines = sorted(g.to_json() for g in graphs)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# sha256 of the sorted term-graph JSON lines, recorded from the engine
# before its key and collection routines were merged
PINNED_CLASSICAL = {
    (0, 1): "e3aa291b7b53f558f2442476f9a3dba9788d0eb092d65b633e486be5b09f6d04",
    (0, 2): "35a258cd1d1aeefa012c9194c6dd9ca69eadc09d27bb73a6d0a16ee103d27e71",
    (1, 1): "d82b71eb07edce4868d8324031960e66157f17c8ec6b9dd20d052e88c6d19606",
    (1, 2): "31f34f2538a44ac153397329033554653a6803c2c5be65ccb177b75e2ce84c8d",
    (2, 1): "d38317bc443ef96a30f41137c0a85fd50301349adb1149a3effaf80300bd9529",
    (2, 2): "882690212e4ee1a5dc3284c1c6098391de3129af04f86e3532b087a30721ba7e",
    (3, 1): "561fe0797fa01a849f4ed6c2fe7acc10799aa32fd33ced1748af5fd3406f3e5c",
}


# sha256 of the term-graph JSON lines in output order (unsorted, so a
# change in the order of enumeration shows), recorded from the engine
# before its three leg-contraction enumerators were merged
PINNED_ORDER = {
    "star_product": (
        lambda: A.star_product(A.sg_vertex(),
                               A.pointwise(A.leg("f1"), A.leg("f2")),
                               A.KE_Q_F),
        "eabf1a747f4c83355140c86f6a44aff9de82f13773477178f3488e18d85706c7"),
    "wick_expand": (
        lambda: A.wick_expand(4, ["f1", "f2", "f3", "f4"]),
        "c363385be615f516bf5584bee30f94d38b18b41d3d9da43834cf5b2643597473"),
    "bogoliubov_generators": (
        lambda: A.bogoliubov_generators(2, ["f1", "f2"]),
        "0b9a918b1a2a3af3bdbecbabd47ca8ae7fcda3e4c710c887733a241a4d38c81a"),
}


class TestPinnedOutput:
    @pytest.mark.parametrize("name", sorted(PINNED_ORDER))
    def test_enumeration_order(self, name):
        build, sha256 = PINNED_ORDER[name]
        lines = [A.term_graph_from_generator(g).to_json() for g in build()]
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == sha256

    @pytest.mark.parametrize("n,m", sorted(PINNED_CLASSICAL))
    def test_classical_term(self, n, m):
        graphs = [A.term_graph_from_expanded(t) for t in A.classical_term(n, m)]
        assert _graph_lines_sha256(graphs) == PINNED_CLASSICAL[(n, m)]

    def test_qs_term(self):
        graphs = [A.term_graph_from_generator(g) for g in A.qs_term(2)]
        assert _graph_lines_sha256(graphs) == \
            "5a8595fc8f15acb5de1bc9006a7c0a7aa5202f42786bfcfbafb37f83c9ba7fc1"

    def test_collected_bogoliubov_generators(self):
        gens = A.collected_raw_list(A.bogoliubov_generators(2, ["f1", "f2"]))
        graphs = [A.term_graph_from_generator(g) for g in gens]
        assert _graph_lines_sha256(graphs) == \
            "6832442b5bdc2ce935b91a00247b8d9b9fa9b31afc87fa49b4ee1b1994161084"
