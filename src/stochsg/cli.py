"""Batch front-end.

Subcommands: compute-q, coeff, corr, bounds, mc, compare, expand.  Every
command takes --config and --out; --seed overrides the quadrature and MC
seeds from the config.  Outputs are CSV/JSON/DOT files with deterministic
content (no timestamps), so a fixed config reproduces byte-identical files.

Exit codes: 1 configuration error, 2 numeric failure, 3 comparison failure
under --strict.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import os
import sys

import click

from . import algebra as alg
from . import bounds as bnd
from . import kernels as ker
from . import series as ser
from . import spde_mc as mc
from .config import RunConfig, check_seed, load_config
from .errors import (ConfigError, NonFiniteValue, QTableFormatError,
                     StochSGError)


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(float(v))  # shortest round-trip decimal
    return str(v)


def write_csv(path: str, rows: list[dict], header: list[str]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(row[h]) for h in header])


def _load(config_path: str, out_dir: str, seed: int | None) -> RunConfig:
    cfg = load_config(config_path)
    os.makedirs(out_dir, exist_ok=True)
    if seed is not None:
        check_seed(seed, "--seed")
        cfg.quad.seed = seed
        cfg.mc.seed = seed
    return cfg


def _qtable(cfg: RunConfig, out_dir: str) -> ker.QTable:
    """The table saved at qtable.path if it was built for the same params,
    grid shape, interpolation and budget; otherwise, or if the file is
    missing, unreadable or does not record its budget, a fresh table,
    saved there."""
    q = cfg.qtable
    path = os.path.join(out_dir, q.path)
    try:
        table = ker.QTable.load(path)
        if (table.params == cfg.params and table.interp_method == q.interp
                and table.values.shape == (q.n_t, q.n_t, q.n_x)
                and table.budget == q.budget):
            return table
    except (OSError, QTableFormatError):
        pass
    table = ker.build_q_table(cfg.params, q.n_t, q.n_x, q.budget, q.interp)
    table.save(path)
    return table


def _context(cfg: RunConfig, out_dir: str) -> ser.EvalContext:
    return ser.EvalContext(cfg.params, _qtable(cfg, out_dir), cfg.smearings,
                           cfg.quad.leg_nodes, cfg.quad.pair_nodes,
                           cfg.interaction)


def common_options(fn):
    @click.option("--config", "config_path", required=True,
                  type=click.Path(exists=True, dir_okay=False),
                  help="JSON run configuration.")
    @click.option("--out", "out_dir", default=".", show_default=True,
                  type=click.Path(file_okay=False),
                  help="Output directory.")
    @click.option("--seed", type=int, default=None,
                  help="Override the quadrature and MC seeds.")
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ConfigError as exc:
            click.echo(f"config error: {exc}", err=True)
            sys.exit(1)
        except (StochSGError, ArithmeticError) as exc:
            click.echo(f"numeric failure: {exc}", err=True)
            sys.exit(2)
        except MemoryError as exc:
            click.echo(f"numeric failure: out of memory: {exc}", err=True)
            sys.exit(2)
    return wrapper


@click.group(invoke_without_command=True)
@click.pass_context
def main(ctx):
    """Perturbative coefficients of the stochastic sine-Gordon equation."""
    if ctx.invoked_subcommand is None:
        click.echo(ctx.get_help())
        ctx.exit(0)


SERIES_HEADER = ["order", "observable", "value_re", "value_im", "error",
                 "samples", "seed", "hbar"]
MC_HEADER = ["observable", "order", "mean", "stderr", "n_samples", "seed",
             "grid"]
BOUNDS_HEADER = ["n", "alpha", "p", "q", "c_q_mu", "k_conditioning",
                 "c_tilde", "bound", "measured", "satisfied"]
COMPARE_HEADER = ["observable", "order", "series_value", "series_error",
                  "mc_mean", "mc_stderr", "z_score"]
MAX_EXPAND_ORDER = 4   # order 4 takes seconds; each further order ~7x more


@main.command("compute-q")
@common_options
def compute_q(config_path, out_dir, seed):
    """Build and serialize the Q table."""
    cfg = _load(config_path, out_dir, seed)
    table = _qtable(cfg, out_dir)
    click.echo(f"qtable {table.values.shape} -> "
               f"{os.path.join(out_dir, cfg.qtable.path)}; "
               f"max Q = {float(table.values.max())!r}")


def _check_series_inputs(cfg: RunConfig, kind: str) -> None:
    """ConfigError for an order the series does not evaluate, or a leg of
    the observables of one kind that the Q table cannot read: its time
    extent leaves [-mu, mu], or the x-extents of its observable's legs
    span more than the 2 mu of the table's offsets.  mc evaluates such
    legs, so parse_config accepts them."""
    for n in cfg.orders:
        if n > ser.MAX_ORDER:
            raise ConfigError(f"series order {n} outside "
                              f"[0, {ser.MAX_ORDER}]")
    mu = cfg.params.mu
    for obs in cfg.observables:
        if obs.kind != kind:
            continue
        boxes = [cfg.smearings[l].support_box() for l in obs.legs]
        for leg, (t0, t1, _, _) in zip(obs.legs, boxes):
            if t0 < -mu or t1 > mu:
                raise ConfigError(
                    f"leg {leg!r} spans t in [{t0!r}, {t1!r}], outside the "
                    f"Q table's time range [-mu, mu] = [{-mu!r}, {mu!r}]")
        span = max(b[3] for b in boxes) - min(b[2] for b in boxes)
        if span > 2 * mu:
            raise ConfigError(
                f"legs {list(obs.legs)} span {span!r} in x, beyond the Q "
                f"table's offsets 2 mu = {2 * mu!r}")


def _series_csv(config_path, out_dir, seed, kind: str, name: str) -> None:
    """Per-order classical coefficients of the observables of one kind,
    then the coefficient of the highest order at each configured quantum
    hbar, written to ``name``."""
    cfg = _load(config_path, out_dir, seed)
    _check_series_inputs(cfg, kind)
    ctx = _context(cfg, out_dir)
    points = ([(n, 0.0) for n in cfg.orders]
              + [(max(cfg.orders), h) for h in cfg.quantum_hbars])
    rows = []
    for obs in cfg.observables:
        if obs.kind != kind:
            continue
        for n, h in points:
            rows.append(dict(ser.quantum_coefficient(
                n, h, ctx, list(obs.legs), cfg.quad.budget, cfg.quad.seed,
                cfg.quad.p_hat).csv_row(), observable=obs.obs_id))
    write_csv(os.path.join(out_dir, name), rows, SERIES_HEADER)
    click.echo(f"wrote {len(rows)} rows to {name}")


@main.command("coeff")
@common_options
def coeff(config_path, out_dir, seed):
    """Expectation-value coefficients (classical strata) per order."""
    _series_csv(config_path, out_dir, seed, "expectation", "expectation.csv")


@main.command("corr")
@common_options
def corr(config_path, out_dir, seed):
    """Correlation-function coefficients per order."""
    _series_csv(config_path, out_dir, seed, "correlation", "correlation.csv")


def _check_bounds_inputs(cfg: RunConfig) -> None:
    """ConfigError for a model the bound constants do not cover:
    alpha = a^2 hbar / (4 pi) outside (0, 1), alpha * bounds.p_hat >= 1, or
    a massless model.  Only the bounds stage needs these, so parse_config
    accepts them."""
    if not cfg.bounds.orders:
        return
    alpha, p_hat = cfg.params.alpha, cfg.bounds.p_hat
    if alpha == 0:
        raise ConfigError("bounds requested with alpha = a^2 hbar / "
                          "(4 pi) = 0")
    if alpha >= 1.0:
        raise ConfigError(f"bounds requested with alpha = {alpha} >= 1")
    if alpha * p_hat >= 1.0:
        raise ConfigError(f"bounds.p_hat = {p_hat} >= 1/alpha = "
                          f"{1.0 / alpha}")
    if cfg.params.m == 0:
        raise ConfigError("bounds requested with m = 0: the "
                          "conditioning needs a massive model")


@main.command("bounds")
@common_options
def bounds_cmd(config_path, out_dir, seed):
    """Convergence-bound reports (CSV and JSON)."""
    cfg = _load(config_path, out_dir, seed)
    _check_bounds_inputs(cfg)
    ctx = _context(cfg, out_dir)
    p = cfg.params
    c_q = bnd.c_q_constant(ctx.table, p.a, p.mu)
    k_cond, _ = bnd.conditioning_constants(p, cfg.bounds.grid_n)
    q_exp = (cfg.bounds.p_hat / (cfg.bounds.p_hat - 1.0)
             if cfg.bounds.p_hat > 1 else float("inf"))
    g_norm = cfg.smearings[cfg.interaction].norm_lq(q_exp)
    reports = []
    for n in cfg.bounds.orders:
        mag = None
        if n > 0:
            mag = ser.qs_term_magnitude(ctx, n, cfg.quad.budget,
                                        cfg.quad.seed, cfg.bounds.p_hat).value
        reports.append(bnd.qs_term_bound(n, cfg.bounds.p_hat, p, c_q, k_cond,
                                         g_norm, mag))
    rows = [r.csv_row() for r in reports]
    write_csv(os.path.join(out_dir, "bounds.csv"), rows, BOUNDS_HEADER)
    with open(os.path.join(out_dir, "bounds.json"), "w") as fh:
        json.dump(rows, fh, indent=1, sort_keys=True, default=str)
    bad = [r for r in reports if r.satisfied is False]
    click.echo(f"wrote {len(rows)} bound reports; "
               f"{'ALL SATISFIED' if not bad else f'{len(bad)} VIOLATED'}")
    if bad:
        sys.exit(2)


@main.command("mc")
@common_options
def mc_cmd(config_path, out_dir, seed):
    """Lattice Monte Carlo estimates of the configured observables."""
    cfg = _load(config_path, out_dir, seed)
    legs = sorted({l for o in cfg.observables for l in o.legs})
    smear_list = [cfg.smearings[l] for l in legs] \
        + [cfg.smearings[cfg.interaction]]
    grid = mc.grid_for(cfg.params, smear_list, cfg.mc.dt, cfg.mc.pad,
                       cfg.mc.boundary)
    # estimate_correlator keys by obs_id, so ids carry the order
    # suffix; the rows take the id and order from the config
    keyed = []
    for obs in cfg.observables:
        kind = "expect" if obs.kind == "expectation" else "corr"
        for n in cfg.orders:
            keyed.append((obs.obs_id, mc.ObservableSpec(
                f"{obs.obs_id}#o{n}", kind, obs.legs, n)))
    est = mc.estimate_correlator([s for _, s in keyed], grid, cfg.params,
                                 cfg.smearings, cfg.mc.n_samples,
                                 cfg.mc.seed, cfg.interaction, cfg.mc.chunk)
    rows = []
    for obs_id, s in keyed:
        e = est[s.obs_id]
        rows.append({"observable": obs_id, "order": s.order,
                     "mean": e.mean, "stderr": e.stderr,
                     "n_samples": e.n_samples, "seed": e.seed,
                     "grid": grid.csv_descriptor()})
    write_csv(os.path.join(out_dir, "mc.csv"), rows, MC_HEADER)
    click.echo(f"wrote {len(rows)} rows to mc.csv")


def _finite(text: str | None) -> float | None:
    try:
        v = float(text)
    except (TypeError, ValueError):
        return None
    return v if math.isfinite(v) else None


def _read_rows(path: str, numbers: list[str]) -> list[dict]:
    """The observable, order and the named number columns of each row of
    an output CSV.  A missing column or cell, or a number cell that is not
    a finite number, is a ConfigError naming the file, row and column."""
    cols = ["observable", "order"] + numbers
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for col in cols:
            if col not in (reader.fieldnames or []):
                raise ConfigError(f"{path}: no column {col!r}")
        rows = []
        for k, r in enumerate(reader, start=1):
            row = {col: r[col] for col in cols}
            row.update((col, _finite(r[col])) for col in numbers)
            for col in cols:
                if row[col] is None:
                    what = ("missing" if r[col] is None
                            else f"{r[col]!r} is not a finite number")
                    raise ConfigError(f"{path} row {k} column {col!r}: "
                                      f"{what}")
            rows.append(row)
    return rows


@main.command("compare")
@common_options
@click.option("--strict", is_flag=True,
              help="Exit 3 if any z-score exceeds 3.")
def compare(config_path, out_dir, seed, strict):
    """Join the emitted series and MC CSVs and report z-scores.

    Reads only the CSV contracts, never pipeline internals.
    """
    _load(config_path, out_dir, seed)
    series_rows = []
    for name in ("expectation.csv", "correlation.csv"):
        path = os.path.join(out_dir, name)
        if os.path.exists(path):
            series_rows.extend(
                r for r in _read_rows(path, ["value_re", "error", "hbar"])
                if r["hbar"] == 0.0)
    mc_path = os.path.join(out_dir, "mc.csv")
    if not series_rows or not os.path.exists(mc_path):
        click.echo("compare needs coeff/corr and mc outputs", err=True)
        sys.exit(1)
    mc_rows = {(r["observable"], r["order"]): r
               for r in _read_rows(mc_path, ["mean", "stderr"])}
    out_rows = []
    worst = 0.0
    for r in series_rows:
        key = (r["observable"], r["order"])
        if key not in mc_rows:
            continue
        m = mc_rows[key]
        dv = r["value_re"] - m["mean"]
        err = (r["error"] ** 2 + m["stderr"] ** 2) ** 0.5
        z = abs(dv) / err if err > 0 else (0.0 if dv == 0 else float("inf"))
        if math.isnan(z):   # both differences overflowed
            raise NonFiniteValue(f"z-score of {key[0]} at order {key[1]} "
                                 f"is not a number")
        worst = max(worst, z)
        out_rows.append({
            "observable": r["observable"], "order": r["order"],
            "series_value": r["value_re"], "series_error": r["error"],
            "mc_mean": m["mean"], "mc_stderr": m["stderr"], "z_score": z})
    if not out_rows:
        raise ConfigError("no (observable, order) pair is in both the "
                          "series CSVs and mc.csv")
    write_csv(os.path.join(out_dir, "compare.csv"), out_rows, COMPARE_HEADER)
    click.echo(f"compared {len(out_rows)} observables; max z = {worst!r}")
    if strict and worst > 3.0:
        sys.exit(3)


@main.command("expand")
@common_options
@click.option("--order", type=int, default=None,
              help="Override the expansion order from the config.")
@click.option("--obs", type=click.Choice(["field", "corr"]), default=None,
              help="Override the observable kind.")
def expand(config_path, out_dir, seed, order, obs):
    """Dump term graphs (JSON) and DOT drawings for one order.

    Without "deformed" in the config this is the plain perturbative
    expansion; at order 2 the field observable collapses to four graphs
    with edge colors Delta_F black, omega green, Delta_AF red.
    """
    cfg = _load(config_path, out_dir, seed)
    n = order if order is not None else cfg.expand.order
    if n < 0:
        raise ConfigError(f"expansion order {n} must be >= 0")
    if n > MAX_EXPAND_ORDER:
        raise ConfigError(f"expansion order {n} beyond {MAX_EXPAND_ORDER}: "
                          f"each order costs about 7 times the one before")
    kind = obs if obs is not None else cfg.expand.obs
    m = 1 if kind == "field" else 2
    legs = [f"f{k + 1}" for k in range(m)]
    terms = alg.classical_term_labeled(n, m, legs,
                                       deform_q=cfg.expand.deformed)
    grouped = alg.aggregate_charge_sectors(
        [t for t in terms if not t.free_legs])
    graphs = [alg.term_graph_from_expanded(t, mult) for t, mult in grouped]
    graphs.sort(key=lambda t: t.to_json())
    base = os.path.join(out_dir, f"expand_order{n}_{kind}")
    with open(base + ".json", "w") as fh:
        json.dump([g.to_json_dict() for g in graphs], fh, indent=1,
                  sort_keys=True)
    with open(base + ".dot", "w") as fh:
        for g in graphs:
            fh.write(alg.graph_render(g))
    click.echo(f"wrote {len(graphs)} graphs to {base}.json/.dot")


if __name__ == "__main__":
    main()
