"""The in-process workloads: set-up, one timed operation, and the checks.

Each workload reads the model, smearings and table sizes from
configs/example.json, so all four workloads describe the same physics.  The
quadrature budget is the smallest one the quadrature layer accepts (1024,
where the config says 4096) and the MC run uses 2000 realizations per
operation (the config says 10000): one run of every workload must fit the
benchmark's time budget.

The checks run after the timed loop, with tracing off, and every reference
value they need is computed there too.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

from .seeds import derive
from .stats import Ledger

QUAD_BUDGET = 1024
QUANTUM_HBAR = 0.1
MC_REALIZATIONS = 2000
PAIRING_BUDGET = 8192
Z_MAX = 3.0
ORACLE_FLOOR = 2e-3       # shared-table bias floor, as in acceptance test 12

FINGERPRINTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "fingerprints.json")


def fingerprints() -> dict:
    with open(FINGERPRINTS) as fh:
        return json.load(fh)


def config_path(root: str) -> str:
    return os.path.join(root, "configs", "example.json")


def _correlation_legs(cfg) -> tuple[str, str]:
    obs = next(o for o in cfg.observables if o.kind == "correlation")
    return obs.legs[0], obs.legs[1]


def _finite_with_error(c) -> tuple[bool, str]:
    v = complex(c.value.value)
    err = c.value.error
    ok = (math.isfinite(v.real) and math.isfinite(v.imag)
          and math.isfinite(err) and err > 0)
    return ok, f"value {v!r}, error {err!r}"


def _z(a: float, b: float, scale: float) -> float:
    return abs(a - b) / scale if scale > 0 else (0.0 if a == b else math.inf)


def _context(cfg):
    from stochsg import kernels, series
    q = cfg.qtable
    table = kernels.build_q_table(cfg.params, q.n_t, q.n_x, q.budget,
                                  q.interp)
    return series.EvalContext(cfg.params, table, cfg.smearings,
                              cfg.quad.leg_nodes, cfg.quad.pair_nodes)


def term_multiset_fingerprint(terms) -> str:
    """sha256 over the sorted graph JSON of each term, so the fingerprint
    names the collected terms and their exact coefficients, not their
    order or their in-memory representation."""
    from stochsg import algebra
    lines = sorted(algebra.term_graph_from_expanded(t).to_json()
                   for t in terms)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class Order2Series:
    """Q table in set-up; then the order-1 and order-2 two-leg correlation
    coefficients, the order-1 Gaussian oracle and the two-leg quantum
    coefficient at hbar = 0.1.  Covers the regular quadrature path
    (ExpandedTerm integrands) and the singular one (N/2 doubling re-run,
    Generator integrands)."""

    name = "order2-series"

    def setup(self, root: str, seed: int):
        from stochsg.config import load_config
        cfg = load_config(config_path(root))
        return {"cfg": cfg, "ctx": _context(cfg), "seed": seed,
                "legs": _correlation_legs(cfg)}

    def op(self, state, k: int, ledger: Ledger) -> dict:
        from stochsg import series
        cfg, ctx, seed = state["cfg"], state["ctx"], state["seed"]
        f1, f2 = state["legs"]
        s = [derive(seed, self.name, k, j) for j in range(4)]
        return {
            "c1": ledger.call("correlation_coefficient(1)",
                              series.correlation_coefficient, 1, ctx, f1, f2,
                              QUAD_BUDGET, s[0]),
            "c2": ledger.call("correlation_coefficient(2)",
                              series.correlation_coefficient, 2, ctx, f1, f2,
                              QUAD_BUDGET, s[1]),
            "oracle": ledger.call("order1_correction_oracle",
                                  series.order1_correction_oracle, ctx, f1,
                                  f2, cfg.interaction, QUAD_BUDGET, s[2]),
            "q2": ledger.call("quantum_coefficient(2)",
                              series.quantum_coefficient, 2, QUANTUM_HBAR,
                              ctx, [f1, f2], QUAD_BUDGET, s[3],
                              cfg.quad.p_hat),
        }

    def check(self, state, results, ledger: Ledger) -> dict:
        zs, rel1, abs2 = [], [], []
        for r in results:
            c1, orc, c2, q2 = r["c1"], r["oracle"], r["c2"], r["q2"]
            if c1 is None or orc is None:
                ledger.check("order-1 series vs Gaussian oracle", False,
                             "a call failed")
            else:
                v1, vo = complex(c1.value.value).real, complex(orc.value).real
                z = _z(v1, vo, math.hypot(c1.value.error, orc.error)
                       + ORACLE_FLOOR * abs(vo))
                zs.append(z)
                rel1.append(c1.value.error / abs(v1))
                ledger.check("order-1 series vs Gaussian oracle", z <= Z_MAX,
                             f"z = {z:.3f}")
            for key, label in (("c2", "correlation order 2"),
                               ("q2", "quantum order 2")):
                c = r[key]
                ok, detail = (False, "call failed") if c is None \
                    else _finite_with_error(c)
                ledger.check(f"{label} finite with finite positive error",
                             ok, detail)
                if key == "c2" and c is not None:
                    abs2.append(c.value.error)
        return _accuracy(zs, rel1, abs2)


class McOrder2:
    """The lattice MC on the example lattice for the two-leg and one-leg
    observables at orders 0-2: the three-solve hierarchy, with the thread
    pool at full width."""

    name = "mc-order2"

    def setup(self, root: str, seed: int):
        from stochsg import spde_mc
        from stochsg.config import load_config
        cfg = load_config(config_path(root))
        f1, f2 = _correlation_legs(cfg)
        smear = [cfg.smearings[n] for n in (f1, f2, cfg.interaction)]
        grid = spde_mc.grid_for(cfg.params, smear, cfg.mc.dt, cfg.mc.pad,
                                cfg.mc.boundary)
        specs = [spde_mc.ObservableSpec(f"corr.o{n}", "corr", (f1, f2), n)
                 for n in (0, 1, 2)]
        specs += [spde_mc.ObservableSpec(f"expect.o{n}", "expect", (f1,), n)
                  for n in (0, 1, 2)]
        return {"cfg": cfg, "grid": grid, "specs": specs, "seed": seed,
                "legs": (f1, f2)}

    def op(self, state, k: int, ledger: Ledger) -> dict | None:
        from stochsg import spde_mc
        cfg = state["cfg"]
        return ledger.call("estimate_correlator", spde_mc.estimate_correlator,
                           state["specs"], state["grid"], cfg.params,
                           cfg.smearings, MC_REALIZATIONS,
                           derive(state["seed"], self.name, k),
                           cfg.interaction, cfg.mc.chunk)

    def check(self, state, results, ledger: Ledger) -> dict:
        from stochsg import quad, series
        cfg, seed = state["cfg"], state["seed"]
        f1, f2 = state["legs"]
        done = [r for r in results if r is not None]
        # pool the operations: equal sample counts, independent seeds
        pooled = {}
        for spec in state["specs"] if done else ():
            means = [r[spec.obs_id].mean for r in done]
            ses = [r[spec.obs_id].stderr for r in done]
            pooled[spec.obs_id] = (sum(means) / len(means),
                                   math.sqrt(sum(s * s for s in ses))
                                   / len(ses))
        ctx = ledger.call("reference Q table", _context, cfg)
        pair = orc = None
        if ctx is not None:
            table = ctx.table
            pair = ledger.call(
                "reference Q pairing", quad.smeared_pairing,
                lambda t, x, tp, xp: table.interp(t, x, tp, xp),
                cfg.smearings[f1], cfg.smearings[f2], PAIRING_BUDGET,
                derive(seed, self.name, "pairing"))
            orc = ledger.call(
                "reference Gaussian oracle", series.order1_correction_oracle,
                ctx, f1, f2, cfg.interaction, QUAD_BUDGET,
                derive(seed, self.name, "oracle"))
        zs = []
        for key, ref, label in (("corr.o0", pair, "order 0 vs Q pairing"),
                                ("corr.o1", orc, "order 1 vs Gaussian oracle")):
            if ref is None or key not in pooled:
                ledger.check(label, False, "no estimate or no reference")
                continue
            m, se = pooled[key]
            z = _z(m, complex(ref.value).real, math.hypot(se, ref.error))
            zs.append(z)
            ledger.check(label, z <= Z_MAX, f"z = {z:.3f}")
        for n in (0, 1, 2):
            label = f"one-leg order {n} mean vs 0"
            if f"expect.o{n}" not in pooled:
                ledger.check(label, False, "no estimate")
                continue
            m, se = pooled[f"expect.o{n}"]
            z = _z(m, 0.0, se)
            zs.append(z)
            ledger.check(label, z <= Z_MAX, f"z = {z:.3f}")
        if not pooled:
            return _accuracy(zs, [], [])
        m1, se1 = pooled["corr.o1"]
        return _accuracy(zs, [se1 / abs(m1)], [pooled["corr.o2"][1]])


class SymbolicOrder3:
    """classical_term(3, 1) and the order-3 field graph dump that
    `expand --order 3` performs.  No numerics run and nothing is random:
    the seed does not change the inputs."""

    name = "symbolic-order3"

    def setup(self, root: str, seed: int):
        from stochsg import algebra  # noqa: F401  (import is set-up work)
        return {}

    def op(self, state, k: int, ledger: Ledger) -> dict:
        from stochsg import algebra
        terms = ledger.call("classical_term(3, 1)", algebra.classical_term,
                            3, 1)
        labeled = ledger.call("classical_term_labeled(3, 1)",
                              algebra.classical_term_labeled, 3, 1, ["f1"])
        dump = None
        if labeled is not None:
            dump = ledger.call("order-3 graph dump", _graph_dump, labeled)
        return {"terms": terms, "labeled": labeled, "dump": dump}

    def check(self, state, results, ledger: Ledger) -> dict:
        want = fingerprints()["symbolic-order3"]
        for r in results:
            terms, labeled, dump = r["terms"], r["labeled"], r["dump"]
            n = None if terms is None else len(terms)
            ledger.check("classical term count", n == want["classical_terms"],
                         f"{n} terms")
            n = None if labeled is None else len(labeled)
            ledger.check("labeled term count", n == want["labeled_terms"],
                         f"{n} terms")
            fp = None if terms is None else term_multiset_fingerprint(terms)
            ledger.check("classical term multiset fingerprint",
                         fp == want["classical_multiset_sha256"], str(fp))
            fp = None if dump is None else \
                hashlib.sha256(dump[0].encode()).hexdigest()
            ledger.check("order-3 graph JSON fingerprint",
                         fp == want["graph_json_sha256"], str(fp))
        return {}


def _graph_dump(terms) -> tuple[str, str]:
    """The JSON and DOT text that `expand` writes for these terms."""
    from stochsg import algebra
    grouped = algebra.aggregate_charge_sectors(
        [t for t in terms if not t.free_legs])
    graphs = [algebra.term_graph_from_expanded(t, mult) for t, mult in grouped]
    graphs.sort(key=lambda g: g.to_json())
    text = json.dumps([g.to_json_dict() for g in graphs], indent=1,
                      sort_keys=True)
    return text, "".join(algebra.graph_render(g) for g in graphs)


def _accuracy(zs, rel1, abs2) -> dict:
    out = {}
    if zs:
        out["max_z"] = max(zs)
    if rel1:
        out["rel_err_o1"] = max(rel1)
    if abs2:
        out["abs_err_o2"] = max(abs2)
    return out


IN_PROCESS = {w.name: w for w in (Order2Series(), McOrder2(), SymbolicOrder3())}
