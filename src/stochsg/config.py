"""Run configuration: a single JSON document, schema-validated.

Unknown fields are errors, so typos fail loudly instead of silently using
defaults.  Each section's field names and value types are those of its
dataclass; a value of another type is an error, except that an integer
may stand for a real.  Reals must be finite (JSON readers accept NaN and
Infinity).
"""

from __future__ import annotations

import json
import math
import types
import typing
from dataclasses import dataclass

from . import bounds as bnd
from . import kernels as ker
from . import quad as qd
from . import spde_mc as mc
from .errors import ConfigError
from .kernels import BumpComponent, ModelParams, SmearingFunction

_OBS_KEYS = {"id", "kind", "legs"}


def _check_keys(d, allowed, where: str):
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown field(s) {sorted(unknown)} in {where}")


def _typed(value, tp, where: str):
    """value checked against the field type tp.  Integers widen to float
    for float fields, which must be finite, lists become tuples, and None
    passes only where tp admits it; anything else is a ConfigError."""
    if isinstance(tp, types.UnionType):
        if value is None and type(None) in tp.__args__:
            return None
        tp = next(t for t in tp.__args__ if t is not type(None))
    variadic = typing.get_origin(tp) is tuple       # tuple[T, ...]
    if variadic or issubclass(tp, tuple):           # or a NamedTuple
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where} must be a list, got {value!r}")
        if variadic:
            item = typing.get_args(tp)[0]
            return tuple(_typed(v, item, f"{where}[{k}]")
                         for k, v in enumerate(value))
        hints = typing.get_type_hints(tp)
        if len(value) != len(hints):
            raise ConfigError(f"{where} must have {len(hints)} entries")
        return tp(*(_typed(v, t, f"{where}[{k}]")
                    for k, (v, t) in enumerate(zip(value, hints.values()))))
    if tp is float and type(value) in (int, float):
        try:
            value = float(value)
        except OverflowError:   # an integer beyond the float range
            value = math.inf
        if not math.isfinite(value):
            raise ConfigError(f"{where} must be a finite real, got {value!r}")
        return value
    if type(value) is not tp:    # bool is not an int here
        raise ConfigError(f"{where} must be of type {tp.__name__}, "
                          f"got {value!r}")
    return value


def _fields_of(cls, d, where: str) -> dict:
    """The entries of object d as typed keyword arguments of dataclass cls;
    its allowed keys are the field names."""
    hints = typing.get_type_hints(cls)
    _check_keys(d, hints, where)
    return {k: _typed(v, hints[k], f"{where}.{k}") for k, v in d.items()}


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


def check_seed(seed: int, where: str) -> None:
    # seeds key Philox generators, whose keys are unsigned 64-bit
    _require(0 <= seed < 2 ** 64, f"{where} must be in [0, 2^64 - 1]")


def _check_ranges(qtable: QTableConfig, quad: QuadConfig, mcc: McConfig,
                  boundsc: BoundsConfig, expandc: ExpandConfig,
                  orders: tuple[int, ...], hbars: tuple[float, ...]):
    """Reject values the numeric layers would refuse only mid-run."""
    _require(min((*orders, *boundsc.orders, expandc.order)) >= 0,
             "orders, bounds.orders and expand.order must be >= 0")
    _require(min(hbars, default=0.0) >= 0, "quantum_hbars must be >= 0")
    _require(bool(orders) or not hbars,
             "quantum_hbars needs at least one entry in orders")
    _require(ker.MIN_Q_BUDGET <= qtable.budget <= ker.MAX_Q_BUDGET,
             f"qtable.budget must be in [{ker.MIN_Q_BUDGET}, "
             f"{ker.MAX_Q_BUDGET}]")
    _require(min(qtable.n_t, qtable.n_x) >= ker.MIN_TABLE_NODES,
             f"qtable.n_t and qtable.n_x must be >= {ker.MIN_TABLE_NODES}")
    _require(qtable.n_t ** 2 * qtable.n_x <= ker.MAX_TABLE_ENTRIES,
             f"qtable.n_t^2 * qtable.n_x must be <= {ker.MAX_TABLE_ENTRIES}")
    _require(qtable.interp in ker.INTERP_METHODS,
             f"qtable.interp must be one of {ker.INTERP_METHODS}")
    _require(qd.MIN_BUDGET <= quad.budget <= qd.MAX_BUDGET,
             f"quad.budget must be in [{qd.MIN_BUDGET}, {qd.MAX_BUDGET}]")
    _require(quad.p_hat >= 0, "quad.p_hat must be >= 0")
    _require(ker.MIN_SMEARING_NODES <= quad.leg_nodes <= ker.MAX_LEG_NODES,
             f"quad.leg_nodes must be in [{ker.MIN_SMEARING_NODES}, "
             f"{ker.MAX_LEG_NODES}]")
    _require(ker.MIN_SMEARING_NODES <= quad.pair_nodes
             <= ker.MAX_PAIR_NODES,
             f"quad.pair_nodes must be in [{ker.MIN_SMEARING_NODES}, "
             f"{ker.MAX_PAIR_NODES}]")
    check_seed(quad.seed, "quad.seed")
    check_seed(mcc.seed, "mc.seed")
    _require(mcc.dt > 0, "mc.dt must be > 0")
    _require(mcc.pad >= 0, "mc.pad must be >= 0")
    _require(mcc.n_samples >= mc.MIN_REALIZATIONS,
             f"mc.n_samples must be >= {mc.MIN_REALIZATIONS}")
    _require(mcc.chunk >= 1, "mc.chunk must be >= 1")
    _require(mcc.boundary in mc.BOUNDARIES,
             f"mc.boundary must be one of {mc.BOUNDARIES}")
    _require(bnd.valid_grid_n(boundsc.grid_n),
             f"bounds.grid_n must be a power of two in [{bnd.MIN_GRID_N}, "
             f"{bnd.MAX_GRID_N}]")
    _require(boundsc.p_hat >= bnd.MIN_P_HAT,
             f"bounds.p_hat must be >= {bnd.MIN_P_HAT}")


def _parse_smearing(name: str, spec, where: str) -> SmearingFunction:
    if not isinstance(spec, list) or not spec:
        raise ConfigError(f"{where}: a smearing is a nonempty list of bumps")
    comps = []
    for k, b in enumerate(spec):
        try:
            comps.append(BumpComponent(**_fields_of(BumpComponent, b,
                                                    f"{where}[{k}]")))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{where}[{k}]: {exc}") from exc
    return SmearingFunction(tuple(comps), name)


def load_config(path: str) -> RunConfig:
    """The parsed configuration at path.  A file that is not UTF-8 JSON, or
    whose numbers or nesting the reader refuses (integers of more than
    4300 digits, nesting past the recursion limit), is a ConfigError."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"invalid JSON: {exc}") from exc
    return parse_config(doc)


def parse_config(doc: dict) -> RunConfig:
    top = typing.get_type_hints(RunConfig)
    _check_keys(doc, top, "config")

    def sub(key, cls):
        try:
            return cls(**_fields_of(cls, doc.get(key, {}), key))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{key}: {exc}") from exc

    params = sub("params", ModelParams)
    try:
        params.alpha
    except OverflowError as exc:
        raise ConfigError(f"params: alpha = a^2 hbar / (4 pi) overflows "
                          f"at a = {params.a}") from exc
    smearings = {}
    for name, spec in _typed(doc.get("smearings", {}), dict,
                             "smearings").items():
        smearings[name] = _parse_smearing(name, spec, f"smearings.{name}")

    interaction = _typed(doc.get("interaction", "g"), str, "interaction")
    if interaction not in smearings:
        raise ConfigError(f"interaction smearing {interaction!r} not defined")
    if not smearings[interaction].is_nonnegative():
        raise ConfigError("the interaction cutoff must be nonnegative")
    if not smearings[interaction].inside_diamond(params.mu):
        raise ConfigError("the interaction support must fit inside D_mu")

    qtable = sub("qtable", QTableConfig)
    quadc = sub("quad", QuadConfig)
    mcc = sub("mc", McConfig)
    boundsc = sub("bounds", BoundsConfig)
    expandc = sub("expand", ExpandConfig)
    if expandc.obs not in ("field", "corr"):
        raise ConfigError("expand.obs must be 'field' or 'corr'")
    orders = _typed(doc.get("orders", [0, 1]), top["orders"], "orders")
    hbars = _typed(doc.get("quantum_hbars", []), top["quantum_hbars"],
                   "quantum_hbars")
    _check_ranges(qtable, quadc, mcc, boundsc, expandc, orders, hbars)

    observables = []
    for k, ob in enumerate(_typed(doc.get("observables", []),
                                  tuple[dict, ...], "observables")):
        where = f"observables[{k}]"
        _check_keys(ob, _OBS_KEYS, where)
        kind = ob.get("kind")
        legs = _typed(ob.get("legs", []), tuple[str, ...], f"{where}.legs")
        if kind not in ("expectation", "correlation"):
            raise ConfigError(f"{where}: unknown kind {kind!r}")
        if len(legs) != (1 if kind == "expectation" else 2):
            raise ConfigError(f"{where}: expectation needs 1 leg, "
                              "correlation needs 2")
        for leg in legs:
            if leg not in smearings:
                raise ConfigError(f"{where}: undefined smearing {leg!r}")
        default_id = (f"expect:{legs[0]}" if kind == "expectation"
                      else f"corr:{legs[0]}:{legs[1]}")
        obs_id = _typed(ob.get("id", default_id), str, f"{where}.id")
        # the CSV rows and the MC estimates are keyed by id
        if any(o.obs_id == obs_id for o in observables):
            raise ConfigError(f"{where}: a second observable with id "
                              f"{obs_id!r}")
        observables.append(ObsConfig(obs_id, kind, legs))

    cfg = RunConfig(params, smearings, interaction, qtable, quadc, mcc,
                    boundsc, orders, tuple(observables), expandc, hbars)
    for h in hbars:
        alpha = params.with_(hbar=h).alpha
        if h > 0 and alpha >= 1.0:
            raise ConfigError(f"quantum hbar = {h} gives alpha = "
                              f"{alpha} >= 1")
        # orders >= 2 integrate the |z^2|^(-alpha) pair with exponent
        # alpha * p_hat, which the quadrature needs below 1
        if max(orders) >= 2 and alpha * quadc.p_hat >= 1.0:
            raise ConfigError(f"quad.p_hat = {quadc.p_hat} >= 1/alpha = "
                              f"{1.0 / alpha} at quantum hbar = {h}")
    return cfg
