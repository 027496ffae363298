"""Run configuration: a single JSON document, schema-validated.

Unknown fields are errors, so typos fail loudly instead of silently using
defaults.  Field names are the snake_case of the model-parameter fields.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import bounds as bnd
from . import kernels as ker
from . import quad as qd
from . import spde_mc as mc
from .errors import ConfigError
from .kernels import ModelParams, SmearingFunction

_PARAM_KEYS = {"m", "a", "hbar", "lam", "mu", "mu_ref", "t_switch",
               "sign_convention", "chi_width"}
_QTABLE_KEYS = {"n_t", "n_x", "budget", "interp", "path"}
_QUAD_KEYS = {"budget", "seed", "p_hat", "leg_nodes", "pair_nodes"}
_MC_KEYS = {"dt", "pad", "n_samples", "seed", "boundary", "chunk"}
_BOUNDS_KEYS = {"orders", "p_hat", "grid_n"}
_OBS_KEYS = {"id", "kind", "legs"}
_EXPAND_KEYS = {"order", "obs", "deformed"}
_TOP_KEYS = {"params", "smearings", "interaction", "qtable", "quad", "mc",
             "bounds", "orders", "observables", "expand", "quantum_hbars"}
_BUMP_KEYS = {"center", "radius", "amplitude"}


def _check_keys(d: dict, allowed: set, where: str):
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown field(s) {sorted(unknown)} in {where}")


@dataclass
class QTableConfig:
    n_t: int = 64
    n_x: int = 128
    budget: int = 256
    interp: str = "cubic"
    path: str = "qtable.bin"


@dataclass
class QuadConfig:
    budget: int = 4096
    seed: int = 7
    p_hat: float = 1.5
    leg_nodes: int = 24
    pair_nodes: int = 24


@dataclass
class McConfig:
    dt: float = 0.02
    pad: float = 0.3
    n_samples: int = 2000
    seed: int = 42
    boundary: str = "absorbingPad"
    chunk: int = 64


@dataclass
class BoundsConfig:
    orders: tuple[int, ...] = (0, 1, 2)
    p_hat: float = 1.5
    grid_n: int = 256


@dataclass
class ObsConfig:
    obs_id: str
    kind: str               # "expectation" | "correlation"
    legs: tuple[str, ...]


@dataclass
class ExpandConfig:
    order: int = 2
    obs: str = "field"      # "field" (m=1) or "corr" (m=2)
    deformed: bool = False


@dataclass
class RunConfig:
    params: ModelParams
    smearings: dict[str, SmearingFunction]
    interaction: str
    qtable: QTableConfig
    quad: QuadConfig
    mc: McConfig
    bounds: BoundsConfig
    orders: tuple[int, ...]
    observables: tuple[ObsConfig, ...]
    expand: ExpandConfig
    quantum_hbars: tuple[float, ...] = ()


def _require(ok: bool, message: str):
    if not ok:
        raise ConfigError(message)


def _check_ranges(qtable: QTableConfig, quad: QuadConfig, mcc: McConfig,
                  boundsc: BoundsConfig):
    """Reject values the numeric layers would refuse only mid-run."""
    _require(min(qtable.n_t, qtable.n_x) >= ker.MIN_TABLE_NODES,
             f"qtable.n_t and qtable.n_x must be >= {ker.MIN_TABLE_NODES}")
    _require(qtable.interp in ker.INTERP_METHODS,
             f"qtable.interp must be one of {ker.INTERP_METHODS}")
    _require(quad.budget >= qd.MIN_BUDGET,
             f"quad.budget must be >= {qd.MIN_BUDGET}")
    _require(mcc.n_samples >= mc.MIN_REALIZATIONS,
             f"mc.n_samples must be >= {mc.MIN_REALIZATIONS}")
    _require(mcc.chunk >= 1, "mc.chunk must be >= 1")
    _require(mcc.boundary in mc.BOUNDARIES,
             f"mc.boundary must be one of {mc.BOUNDARIES}")
    _require(bnd.valid_grid_n(boundsc.grid_n),
             f"bounds.grid_n must be a power of two >= {bnd.MIN_GRID_N}")


def _parse_smearing(name: str, spec, where: str) -> SmearingFunction:
    from .kernels import BumpComponent, SpacetimePoint
    if not isinstance(spec, list) or not spec:
        raise ConfigError(f"{where}: a smearing is a nonempty list of bumps")
    comps = []
    for k, b in enumerate(spec):
        _check_keys(b, _BUMP_KEYS, f"{where}[{k}]")
        try:
            t0, x0 = b["center"]
            comps.append(BumpComponent(SpacetimePoint(float(t0), float(x0)),
                                       float(b["radius"]),
                                       float(b.get("amplitude", 1.0))))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{where}[{k}]: {exc}") from exc
    return SmearingFunction(tuple(comps), name)


def load_config(path: str) -> RunConfig:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON: {exc}") from exc
    return parse_config(doc)


def parse_config(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("top-level config must be an object")
    _check_keys(doc, _TOP_KEYS, "config")
    pd = dict(doc.get("params", {}))
    _check_keys(pd, _PARAM_KEYS, "params")
    try:
        params = ModelParams(**pd)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"params: {exc}") from exc

    smearings = {}
    for name, spec in dict(doc.get("smearings", {})).items():
        smearings[name] = _parse_smearing(name, spec, f"smearings.{name}")

    interaction = doc.get("interaction", "g")
    if interaction not in smearings:
        raise ConfigError(f"interaction smearing {interaction!r} not defined")
    if not smearings[interaction].is_nonnegative():
        raise ConfigError("the interaction cutoff must be nonnegative")
    if not smearings[interaction].inside_diamond(params.mu):
        raise ConfigError("the interaction support must fit inside D_mu")

    def sub(key, keys, cls):
        d = dict(doc.get(key, {}))
        _check_keys(d, keys, key)
        try:
            return cls(**d)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{key}: {exc}") from exc

    qtable = sub("qtable", _QTABLE_KEYS, QTableConfig)
    quadc = sub("quad", _QUAD_KEYS, QuadConfig)
    mcc = sub("mc", _MC_KEYS, McConfig)
    bd = dict(doc.get("bounds", {}))
    _check_keys(bd, _BOUNDS_KEYS, "bounds")
    boundsc = BoundsConfig(tuple(bd.get("orders", (0, 1, 2))),
                           float(bd.get("p_hat", 1.5)),
                           int(bd.get("grid_n", 256)))
    ed = dict(doc.get("expand", {}))
    _check_keys(ed, _EXPAND_KEYS, "expand")
    expandc = ExpandConfig(int(ed.get("order", 2)), ed.get("obs", "field"),
                           bool(ed.get("deformed", False)))
    if expandc.obs not in ("field", "corr"):
        raise ConfigError("expand.obs must be 'field' or 'corr'")
    _check_ranges(qtable, quadc, mcc, boundsc)

    orders = tuple(int(n) for n in doc.get("orders", (0, 1)))
    observables = []
    for k, ob in enumerate(doc.get("observables", [])):
        _check_keys(ob, _OBS_KEYS, f"observables[{k}]")
        kind = ob.get("kind")
        legs = tuple(ob.get("legs", ()))
        if kind not in ("expectation", "correlation"):
            raise ConfigError(f"observables[{k}]: unknown kind {kind!r}")
        if (kind == "expectation") != (len(legs) == 1):
            raise ConfigError(f"observables[{k}]: expectation needs 1 leg, "
                              "correlation needs 2")
        for leg in legs:
            if leg not in smearings:
                raise ConfigError(f"observables[{k}]: undefined smearing "
                                  f"{leg!r}")
        default_id = (f"expect:{legs[0]}" if kind == "expectation"
                      else f"corr:{legs[0]}:{legs[1]}")
        observables.append(ObsConfig(ob.get("id", default_id), kind, legs))

    hbars = tuple(float(h) for h in doc.get("quantum_hbars", ()))
    cfg = RunConfig(params, smearings, interaction, qtable, quadc, mcc,
                    boundsc, orders, tuple(observables), expandc, hbars)
    for h in hbars:
        test = params.with_(hbar=h) if h > 0 else params
        if h > 0 and test.alpha >= 1.0:
            raise ConfigError(f"quantum hbar = {h} gives alpha = "
                              f"{test.alpha} >= 1")
    if boundsc.orders and params.hbar > 0 and params.alpha >= 1.0:
        raise ConfigError(f"bounds requested with alpha = {params.alpha} >= 1")
    return cfg
