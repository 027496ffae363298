import csv
import dataclasses
import hashlib
import json
import math
import os

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stochsg import kernels as ker
from stochsg.cli import main
from stochsg.config import parse_config
from stochsg.errors import ConfigError


BASE_CONFIG = {
    "params": {"m": 0.5, "a": 1.0, "hbar": 0.1, "lam": 0.5, "mu": 1.0,
               "t_switch": -0.6, "sign_convention": "paper",
               "chi_width": 1.0},
    "smearings": {
        "f1": [{"center": [0.35, -0.25], "radius": 0.18, "amplitude": 1.0}],
        "f2": [{"center": [0.40, 0.20], "radius": 0.18, "amplitude": 1.0}],
        "g": [{"center": [0.0, 0.0], "radius": 0.5, "amplitude": 1.0}],
    },
    "interaction": "g",
    "qtable": {"n_t": 12, "n_x": 24, "budget": 100},
    "quad": {"budget": 1024, "seed": 7, "leg_nodes": 12, "pair_nodes": 12},
    "mc": {"dt": 0.05, "pad": 0.25, "n_samples": 200, "seed": 11},
    "orders": [0, 1],
    "observables": [
        {"kind": "correlation", "legs": ["f1", "f2"]},
        {"kind": "expectation", "legs": ["f1"]},
    ],
    "bounds": {"orders": [0, 1], "grid_n": 256},
    "expand": {"order": 2, "obs": "field"},
}


@pytest.fixture()
def workdir(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(BASE_CONFIG))
    return tmp_path, str(cfg_path)


def _run(args):
    return CliRunner().invoke(main, args, catch_exceptions=False)


class TestConfig:
    def test_unknown_top_level_field(self):
        bad = dict(BASE_CONFIG, typo_field=1)
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_unknown_param_field(self):
        bad = json.loads(json.dumps(BASE_CONFIG))
        bad["params"]["mass"] = 1.0
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_undefined_smearing_reference(self):
        bad = json.loads(json.dumps(BASE_CONFIG))
        bad["observables"][0]["legs"] = ["f1", "nope"]
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_interaction_must_fit_diamond(self):
        bad = json.loads(json.dumps(BASE_CONFIG))
        bad["smearings"]["g"] = [{"center": [0.8, 0.0], "radius": 0.5,
                                  "amplitude": 1.0}]
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_negative_interaction_rejected(self):
        bad = json.loads(json.dumps(BASE_CONFIG))
        bad["smearings"]["g"] = [{"center": [0.0, 0.0], "radius": 0.5,
                                  "amplitude": -1.0}]
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_alpha_gate_for_quantum(self):
        bad = json.loads(json.dumps(BASE_CONFIG))
        bad["quantum_hbars"] = [100.0]
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_exit_code_on_config_error(self, workdir):
        tmp, _ = workdir
        bad_path = tmp / "bad.json"
        bad_path.write_text(json.dumps(dict(BASE_CONFIG, typo=1)))
        res = _run(["corr", "--config", str(bad_path), "--out", str(tmp)])
        assert res.exit_code == 1


def _mutated(section, key, value) -> dict:
    """BASE_CONFIG with one field set; section None is the top level."""
    bad = json.loads(json.dumps(BASE_CONFIG))
    (bad if section is None else bad.setdefault(section, {}))[key] = value
    return bad


def _paths(node, path=()):
    """The path of every value inside a JSON document, containers too."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


_PATHS = list(_paths(BASE_CONFIG))
_ODD_VALUES = st.one_of(
    st.none(), st.booleans(), st.sampled_from([0, 0.0, 1e308]),
    st.integers(max_value=-1), st.floats(max_value=-1e-9),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.sampled_from(["", "x", "f1", "g", "paper", "1.0"]),
    st.lists(st.sampled_from([0, -1, 0.5, "f1", None, [0.0, 0.0]]),
             max_size=3),
    st.dictionaries(st.sampled_from(["center", "radius", "kind", "legs"]),
                    st.sampled_from([0, 1.0, "f1", None, [0.0, 0.0]]),
                    max_size=2))


def _set_path(doc, path, value):
    """Set doc at path, unless an earlier mutation removed the way there."""
    node = doc
    try:
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    except (KeyError, IndexError, TypeError):
        pass


def _reals(obj):
    """Every float inside a parsed config."""
    if isinstance(obj, float):
        yield obj
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _reals(getattr(obj, f.name))
    elif isinstance(obj, (dict, tuple, list)):
        for v in (obj.values() if isinstance(obj, dict) else obj):
            yield from _reals(v)


class TestConfigRanges:
    @pytest.mark.parametrize("command,section,key,value", [
        ("corr", "quad", "budget", 100),
        ("bounds", "bounds", "grid_n", 300),
        ("mc", "mc", "boundary", "reflect"),
        ("mc", "mc", "chunk", 0),
        ("mc", "mc", "n_samples", 50),
        ("compute-q", "qtable", "n_t", 3),
        ("compute-q", "qtable", "interp", "quintic"),
        # wrong types
        ("corr", "quad", "budget", "abc"),
        ("compute-q", "qtable", "n_t", "12"),
        ("mc", "mc", "chunk", "8"),
        ("bounds", "bounds", "grid_n", "x"),
        ("bounds", "bounds", "p_hat", None),
        ("bounds", "bounds", "orders", 3),
        ("expand", "expand", "order", "two"),
        ("coeff", None, "orders", ["x"]),
        ("corr", None, "quantum_hbars", ["a"]),
        ("corr", None, "quad", [1]),
        ("expand", "expand", "deformed", "no"),
        ("mc", "mc", "dt", "0.02"),
        ("corr", "quad", "seed", 1.5),
        # negative orders
        ("coeff", None, "orders", [-1]),
        ("bounds", "bounds", "orders", [-1]),
        ("expand", "expand", "order", -1),
        # values the numeric layers refused mid-run or took silently
        ("compute-q", "qtable", "budget", -1),
        ("corr", "quad", "leg_nodes", 0),
        ("corr", "quad", "pair_nodes", 0),
        ("mc", "mc", "dt", 0.0),
        ("mc", "mc", "dt", -0.02),
        ("mc", "mc", "pad", -0.1),
        ("bounds", "bounds", "p_hat", 0.5),
        ("corr", "smearings", "f1",
         [{"center": [0.35, -0.25], "radius": 0.0, "amplitude": 1.0}]),
        ("corr", "smearings", "f1",
         [{"center": [0.35, -0.25], "radius": -0.18, "amplitude": 1.0}]),
        ("corr", None, "quantum_hbars", [-0.1]),
        # p_hat at or above 1/alpha = 4 pi / (a^2 hbar), 125.66 here
        ("bounds", "bounds", "p_hat", 200.0),
        ("bounds", "bounds", "p_hat", 4.0 * math.pi / 0.1),
        # bounds divide by alpha = a^2 hbar / (4 pi)
        ("bounds", "params", "hbar", 0.0),
        ("bounds", "params", "a", 0.0),
        # non-finite reals, which JSON readers accept
        ("compute-q", "params", "mu", math.nan),
        ("compute-q", "params", "m", math.nan),
        ("compute-q", "params", "a", math.nan),
        ("compute-q", "params", "hbar", math.nan),
        ("compute-q", "params", "lam", math.nan),
        ("compute-q", "params", "t_switch", math.nan),
        ("compute-q", "params", "chi_width", math.nan),
        ("corr", "quad", "p_hat", math.nan),
        ("compute-q", "params", "m", math.inf),
        ("compute-q", "params", "lam", math.inf),
        ("compute-q", "params", "mu", math.inf),
        ("compute-q", "params", "t_switch", -math.inf),
        ("compute-q", "params", "chi_width", math.inf),
        ("corr", "quad", "p_hat", math.inf),
        ("mc", "mc", "dt", math.inf),
        ("mc", "mc", "pad", math.inf),
        ("corr", "smearings", "f1",
         [{"center": [math.nan, -0.25], "radius": 0.18, "amplitude": 1.0}]),
        # observable leg counts, and alpha beyond the float range
        ("corr", None, "observables", [{"kind": "correlation", "legs": []}]),
        ("mc", None, "observables",
         [{"kind": "correlation", "legs": ["f1", "f2", "f1"]}]),
        ("compute-q", "params", "a", 1e308),
        # seeds key unsigned 64-bit Philox generators
        ("mc", "mc", "seed", -1),
        ("mc", "mc", "seed", 2 ** 64),
        ("corr", "quad", "seed", -1),
        # the bump profile divides by radius^2
        ("corr", "smearings", "f1",
         [{"center": [0.35, -0.25], "radius": 1e300, "amplitude": 1.0}]),
        ("corr", "smearings", "f1",
         [{"center": [0.35, -0.25], "radius": 1e-300, "amplitude": 1.0}]),
    ])
    def test_out_of_range_is_config_error(self, tmp_path, command, section,
                                          key, value):
        bad = _mutated(section, key, value)
        with pytest.raises(ConfigError):
            parse_config(bad)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        res = _run([command, "--config", str(path), "--out", str(tmp_path)])
        assert res.exit_code == 1

    @pytest.mark.parametrize("seed", ["-3", str(2 ** 64)])
    def test_seed_override_out_of_range(self, workdir, seed):
        tmp, cfg = workdir
        res = _run(["mc", "--config", cfg, "--out", str(tmp), "--seed", seed])
        assert res.exit_code == 1
        assert "--seed" in res.output

    @pytest.mark.parametrize("command", ["coeff", "corr"])
    def test_quantum_p_hat_is_config_error(self, tmp_path, command):
        # order 2 at hbar = 10 integrates |z^2|^(-alpha p_hat) with
        # alpha p_hat = 10 / (4 pi) * 1.5 > 1
        bad = _mutated(None, "orders", [0, 1, 2])
        bad["quantum_hbars"] = [10.0]
        with pytest.raises(ConfigError):
            parse_config(bad)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        res = _run([command, "--config", str(path), "--out", str(tmp_path)])
        assert res.exit_code == 1
        assert "p_hat" in res.output

    def test_integer_beyond_float_range(self):
        with pytest.raises(ConfigError):
            parse_config(_mutated("params", "lam", 10 ** 400))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.sampled_from(_PATHS), _ODD_VALUES),
                    min_size=1, max_size=3))
    def test_mutants_parse_or_raise_config_error(self, mutations):
        # a mutant parses into a config of finite reals or is refused
        doc = json.loads(json.dumps(BASE_CONFIG))
        for path, value in mutations:
            _set_path(doc, path, value)
        try:
            cfg = parse_config(doc)
        except ConfigError:
            return
        assert all(math.isfinite(x) for x in _reals(cfg))

    def test_quantum_hbars_need_an_order(self, tmp_path):
        bad = _mutated(None, "orders", [])
        bad["quantum_hbars"] = [0.1]
        with pytest.raises(ConfigError):
            parse_config(bad)

    @pytest.mark.parametrize("command,orders", [
        (["coeff"], [4]),
        (["corr"], [4]),
        (["mc"], [3]),
        (["expand", "--order", "-1"], [0, 1]),
    ])
    def test_stage_order_cap_is_config_error(self, tmp_path, command, orders):
        # each stage has its own cap, so parse_config accepts these
        path = tmp_path / "cap.json"
        path.write_text(json.dumps(_mutated(None, "orders", orders)))
        res = _run(command + ["--config", str(path), "--out", str(tmp_path)])
        assert res.exit_code == 1
        assert "order" in res.output

    @pytest.mark.parametrize("section,key,value,message", [
        ("params", "t_switch", 1e308, "t_switch"),
        ("mc", "pad", 1e308, "cannot be sized"),
        ("mc", "dt", 1e308, "cannot be sized"),
    ])
    def test_unsized_lattice_is_config_error(self, tmp_path, section, key,
                                             value, message):
        # parse_config accepts these; the lattice they ask for overflows
        path = tmp_path / "lattice.json"
        path.write_text(json.dumps(_mutated(section, key, value)))
        res = _run(["mc", "--config", str(path), "--out", str(tmp_path)])
        assert res.exit_code == 1
        assert message in res.output

    @pytest.mark.parametrize("command", ["compute-q", "mc"])
    @pytest.mark.parametrize("workers", ["abc", "0"])
    def test_bad_workers_is_config_error(self, workdir, monkeypatch, command,
                                         workers):
        tmp, cfg = workdir
        monkeypatch.setenv("WORKERS", workers)
        res = _run([command, "--config", cfg, "--out", str(tmp / "w")])
        assert res.exit_code == 1
        assert "WORKERS" in res.output


def _run_mutant(tmp_path_factory, command, doc, mutations):
    """Run a stage on doc with the mutations applied: it must give an exit
    code, never a traceback (which _run would raise)."""
    for path, value in mutations:
        _set_path(doc, path, value)
    tmp = tmp_path_factory.mktemp("mutant")
    path = tmp / "config.json"
    path.write_text(json.dumps(doc))
    res = _run([command, "--config", str(path), "--out", str(tmp)])
    assert res.exit_code in (0, 1, 2, 3), res.output


_SMEARING_NAMES = st.sampled_from(["f1", "f2", "g"])
_MC_MUTATIONS = st.one_of(
    st.tuples(st.just(("mc", "dt")),
              st.sampled_from([0.05, 0.08, 0.2, 0.0, -0.02, 1e308, math.inf,
                               "0.05", None])),
    st.tuples(st.just(("mc", "pad")),
              st.sampled_from([0.0, 0.25, 1.0, -0.1, math.inf, 1e308])),
    st.tuples(st.just(("mc", "n_samples")),
              st.sampled_from([99, 0, -1, 100.0, "100", None])),
    st.tuples(st.just(("mc", "seed")),
              st.sampled_from([0, 2 ** 64 - 1, 2 ** 64, -1, 1.5, "1"])),
    st.tuples(st.just(("mc", "chunk")),
              st.sampled_from([1, 7, 64, 0, -1, 2.0])),
    st.tuples(st.just(("mc", "boundary")),
              st.sampled_from(["periodic", "absorbingPad", "reflect", 3])),
    st.tuples(st.tuples(st.just("smearings"), _SMEARING_NAMES, st.just(0),
                        st.just("center"), st.sampled_from([0, 1])),
              st.one_of(st.floats(-1.0, 1.0),
                        st.sampled_from([math.nan, math.inf, "x"]))),
    st.tuples(st.tuples(st.just("smearings"), _SMEARING_NAMES, st.just(0),
                        st.just("radius")),
              st.one_of(st.floats(1e-3, 0.6),
                        st.sampled_from([0.0, -0.1, 1e-9, math.inf]))))


class TestMcMutants:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.lists(_MC_MUTATIONS, min_size=1, max_size=3))
    def test_mc_stage_exits_cleanly(self, tmp_path_factory, mutations):
        # a mutated lattice, seed or smearing gives an exit code, never a
        # traceback (which _run would raise)
        _run_mutant(tmp_path_factory, "mc",
                    _mutated("mc", "n_samples", 100), mutations)


_G_AMPLITUDE = ("smearings", "g", 0, "amplitude")
_BOUNDS_MUTATIONS = st.one_of(
    st.tuples(st.tuples(st.just("params"), st.sampled_from(
        ["m", "a", "hbar", "lam", "mu_ref", "chi_width", "t_switch"])),
        st.sampled_from([0.0, 1e-300, 0.5, 3.0, 1e300, -1.0])),
    st.tuples(st.just(_G_AMPLITUDE),
              st.sampled_from([0.0, 1e-300, 2.0, 1e300, -1.0])),
    st.tuples(st.just(("smearings", "g", 0, "radius")),
              st.sampled_from([0.5, 0.1, 1e-300, 0.0, 0.8])),
    st.tuples(st.just(("bounds", "p_hat")),
              st.sampled_from([1.0, 1.5, 3.0, 1e300, 0.5])),
    st.tuples(st.just(("bounds", "grid_n")),
              st.sampled_from([256, 128, 255, 0])))


class TestBoundsMutants:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.lists(_BOUNDS_MUTATIONS, min_size=1, max_size=3))
    @example([(("params", "lam"), 0.0)])
    @example([(_G_AMPLITUDE, 0.0)])
    @example([(("params", "m"), 0.0)])
    @example([(("params", "mu_ref"), 1e300)])
    @example([(("params", "mu_ref"), 0.0)])
    def test_bounds_stage_exits_cleanly(self, tmp_path_factory, mutations):
        # the zeros and overflows of the model, cutoff and bound settings
        # give an exit code, never a traceback (which _run would raise)
        _run_mutant(tmp_path_factory, "bounds",
                    json.loads(json.dumps(BASE_CONFIG)), mutations)


_SERIES_MUTATIONS = st.one_of(
    st.tuples(st.tuples(st.just("params"), st.sampled_from(
        ["m", "a", "hbar", "lam", "mu", "mu_ref", "chi_width", "t_switch"])),
        st.sampled_from([0.0, 1e-300, 0.5, 3.0, 1e300, -1.0])),
    st.tuples(st.tuples(st.just("smearings"), _SMEARING_NAMES, st.just(0),
                        st.sampled_from(["amplitude", "radius"])),
              st.sampled_from([0.0, 1e-300, 0.05, 2.0, 1e300, -1.0])),
    st.tuples(st.tuples(st.just("qtable"),
                        st.sampled_from(["n_t", "n_x", "budget"])),
              st.sampled_from([0, 1, 4, 7, 12, 2.5])),
    st.tuples(st.tuples(st.just("quad"),
                        st.sampled_from(["leg_nodes", "pair_nodes"])),
              st.sampled_from([0, 1, 3, 12])),
    st.tuples(st.tuples(st.just("quad"), st.just("p_hat")),
              st.sampled_from([1.0, 1.5, 1e300, 0.5])),
    st.tuples(st.tuples(st.just("quantum_hbars"),),
              st.sampled_from([[], [0.0], [1e-300], [0.1], [3.0], [1e300]])))


class TestSeriesMutants:
    @pytest.mark.parametrize("command", ["compute-q", "coeff", "corr"])
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(mutations=st.lists(_SERIES_MUTATIONS, min_size=1, max_size=3))
    @example(mutations=[(("smearings", "f1", 0, "radius"), 1e300)])
    @example(mutations=[(("smearings", "f1", 0, "radius"), 1e-300)])
    @example(mutations=[(("smearings", "f1", 0, "amplitude"), 1e300)])
    def test_series_stage_exits_cleanly(self, tmp_path_factory, command,
                                        mutations):
        # a mutated model, cutoff, table or quadrature gives an exit code,
        # never a traceback (which _run would raise)
        _run_mutant(tmp_path_factory, command,
                    _mutated(None, "orders", [0]), mutations)


class TestExpandMutants:
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(st.lists(st.one_of(
        st.tuples(st.just(("expand", "order")),
                  st.sampled_from([0, 1, 2, -1, 1.5, "2", None])),
        st.tuples(st.just(("expand", "obs")),
                  st.sampled_from(["field", "corr", "x", 1])),
        st.tuples(st.just(("expand", "deformed")),
                  st.sampled_from([True, False, "no", 0]))),
        min_size=1, max_size=3))
    def test_expand_stage_exits_cleanly(self, tmp_path_factory, mutations):
        _run_mutant(tmp_path_factory, "expand",
                    json.loads(json.dumps(BASE_CONFIG)), mutations)


def _edit_csv(path, column, value):
    """Set a column of the first data row to value; value None drops the
    column and column None empties the file.  A column that an earlier
    edit removed is left alone."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if column is None:
        rows = []
    elif rows and column in rows[0]:
        k = rows[0].index(column)
        if value is None:
            rows = [r[:k] + r[k + 1:] for r in rows]
        elif len(rows) > 1:
            rows[1][k] = value
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


@pytest.fixture(scope="class")
def compare_inputs(tmp_path_factory):
    """The config and the order-0 series and MC outputs that compare
    joins."""
    out = tmp_path_factory.mktemp("compare_inputs")
    doc = _mutated(None, "orders", [0])
    doc["mc"]["n_samples"] = 100
    cfg = out / "config.json"
    cfg.write_text(json.dumps(doc))
    for cmd in ("coeff", "corr", "mc"):
        res = _run([cmd, "--config", str(cfg), "--out", str(out)])
        assert res.exit_code == 0, res.output
    return out


def _compare_edited(inputs, tmp, edits, *flags):
    """compare on a copy of the inputs with the (file, column, value)
    edits of _edit_csv applied."""
    for name in ("expectation.csv", "correlation.csv", "mc.csv"):
        (tmp / name).write_bytes((inputs / name).read_bytes())
    for name, column, value in edits:
        _edit_csv(tmp / name, column, value)
    return _run(["compare", "--config", str(inputs / "config.json"),
                 "--out", str(tmp), *flags])


class TestCompareInputs:
    @pytest.mark.parametrize("name,column,value,message", [
        ("correlation.csv", "value_re", "x",
         "row 1 column 'value_re': 'x' is not a finite number"),
        ("correlation.csv", "hbar", None, "no column 'hbar'"),
        ("correlation.csv", "value_re", "nan",
         "row 1 column 'value_re': 'nan' is not a finite number"),
        ("mc.csv", "stderr", "inf",
         "row 1 column 'stderr': 'inf' is not a finite number"),
        ("mc.csv", "mean", "1e999",
         "row 1 column 'mean': '1e999' is not a finite number"),
        ("expectation.csv", "order", None, "no column 'order'"),
        ("mc.csv", None, None, "no column 'observable'"),
    ])
    def test_malformed_csv_is_config_error(self, compare_inputs, tmp_path,
                                           name, column, value, message):
        # a malformed cell must not read as a z-score of 0 (max(0.0, nan)
        # is 0.0) or end in a traceback
        res = _compare_edited(compare_inputs, tmp_path,
                              [(name, column, value)], "--strict")
        assert res.exit_code == 1, res.output
        assert name in res.output and message in res.output
        assert not (tmp_path / "compare.csv").exists()

    def test_overflowing_z_score_is_numeric_failure(self, compare_inputs,
                                                    tmp_path):
        # every cell is finite, but the difference and the error overflow,
        # and inf / inf must not read as max z = 0.0
        res = _compare_edited(compare_inputs, tmp_path, [
            ("correlation.csv", "value_re", "1.7e308"),
            ("correlation.csv", "error", "1.3e154"),
            ("mc.csv", "mean", "-1.7e308"),
            ("mc.csv", "stderr", "1.3e154")], "--strict")
        assert res.exit_code == 2, res.output
        assert "z-score of corr:f1:f2 at order 0" in res.output

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(
        st.sampled_from(["expectation.csv", "correlation.csv", "mc.csv"]),
        st.sampled_from([None, "observable", "order", "value_re", "error",
                         "hbar", "mean", "stderr"]),
        st.sampled_from([None, "", "x", "nan", "inf", "-inf", "1e308",
                         "-1e308", "0", "-0.0", "1e-320"])),
        min_size=1, max_size=3))
    def test_compare_exits_cleanly(self, compare_inputs, tmp_path_factory,
                                   edits):
        res = _compare_edited(compare_inputs, tmp_path_factory.mktemp("csv"),
                              edits, "--strict")
        assert res.exit_code in (0, 1, 2, 3), res.output


class TestBoundsEdges:
    @pytest.mark.parametrize("path,value", [
        (("params", "lam"), 0.0),
        (_G_AMPLITUDE, 0.0),
    ])
    def test_zero_coupling_or_cutoff_is_satisfied(self, tmp_path, path,
                                                  value):
        # the bound carries (lambda ||g||_q)^n: 0 from order 1 on
        doc = json.loads(json.dumps(BASE_CONFIG))
        _set_path(doc, path, value)
        cfg = tmp_path / "zero.json"
        cfg.write_text(json.dumps(doc))
        res = _run(["bounds", "--config", str(cfg), "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        assert "ALL SATISFIED" in res.output
        with open(tmp_path / "bounds.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["n"], r["bound"], r["satisfied"]) for r in rows] == [
            ("0", "2.0", ""), ("1", "0.0", "True")]

    def test_tiny_cutoff_is_satisfied(self, tmp_path):
        # ||g||_q of a 1e-300 bump: |g|^q underflows unless it is scaled
        doc = json.loads(json.dumps(BASE_CONFIG))
        _set_path(doc, _G_AMPLITUDE, 1e-300)
        cfg = tmp_path / "tiny.json"
        cfg.write_text(json.dumps(doc))
        res = _run(["bounds", "--config", str(cfg), "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        assert "ALL SATISFIED" in res.output
        with open(tmp_path / "bounds.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["satisfied"] for r in rows] == ["", "True"]
        assert float(rows[1]["bound"]) > float(rows[1]["measured"]) > 0

    def test_massless_bounds_are_config_error(self, tmp_path):
        # the conditioning compares the massive Hadamard kernel with H0
        doc = _mutated("params", "m", 0.0)
        with pytest.raises(ConfigError, match="m = 0"):
            parse_config(doc)
        parse_config(dict(doc, bounds={"orders": []}))
        cfg = tmp_path / "massless.json"
        cfg.write_text(json.dumps(doc))
        res = _run(["bounds", "--config", str(cfg), "--out", str(tmp_path)])
        assert res.exit_code == 1, res.output

    @pytest.mark.parametrize("mu_ref", [
        1e300,      # 4 mu_ref^2 overflows
        1e-300,     # and underflows to 0
        0.0,
    ])
    def test_log_kernel_scale_is_config_error(self, tmp_path, mu_ref):
        cfg = tmp_path / "mu_ref.json"
        cfg.write_text(json.dumps(_mutated("params", "mu_ref", mu_ref)))
        res = _run(["bounds", "--config", str(cfg), "--out", str(tmp_path)])
        assert res.exit_code == 1, res.output
        assert f"mu_ref = {mu_ref!r}" in res.output
        assert not (tmp_path / "bounds.csv").exists()


class TestNumericFailures:
    """Values parse_config accepts but whose numbers leave the float range:
    exit code 2, and no table or CSV is written."""

    def test_prefactor_overflow(self, tmp_path):
        # hbar**-1 at hbar = 1e-320 overflows in Coeff.value
        path = tmp_path / "tiny_hbar.json"
        path.write_text(json.dumps(_mutated("params", "hbar", 1e-320)))
        res = _run(["bounds", "--config", str(path), "--out", str(tmp_path)])
        assert res.exit_code == 2
        assert "overflows" in res.output
        assert not (tmp_path / "bounds.csv").exists()

    @pytest.mark.parametrize("key,value", [
        ("t_switch", -1e308),   # the covariance integrand is inf - inf
        ("mu", 1e308),          # the grid over [-2 mu, 2 mu] overflows
    ])
    def test_non_finite_q_table(self, tmp_path, key, value):
        path = tmp_path / "extreme.json"
        path.write_text(json.dumps(_mutated("params", key, value)))
        res = _run(["compute-q", "--config", str(path),
                    "--out", str(tmp_path)])
        assert res.exit_code == 2
        assert "non-finite" in res.output
        assert not (tmp_path / "qtable.bin").exists()


class TestCommands:
    def test_no_command_shows_usage(self):
        res = _run([])
        assert res.exit_code == 0
        assert "Usage" in res.output

    def test_full_pipeline(self, workdir):
        tmp, cfg = workdir
        out = str(tmp / "out")
        for cmd in (["compute-q"], ["corr"], ["coeff"], ["mc"]):
            res = _run(cmd + ["--config", cfg, "--out", out])
            assert res.exit_code == 0, res.output
        res = _run(["compare", "--config", cfg, "--out", out, "--strict"])
        assert res.exit_code == 0, res.output
        assert (tmp / "out" / "compare.csv").exists()
        res = _run(["bounds", "--config", cfg, "--out", out])
        assert res.exit_code == 0, res.output
        res = _run(["expand", "--config", cfg, "--out", out])
        assert res.exit_code == 0, res.output
        graphs = json.loads((tmp / "out" / "expand_order2_field.json")
                            .read_text())
        assert len(graphs) == 4
        dot = (tmp / "out" / "expand_order2_field.dot").read_text()
        assert dot.count("graph term {") == 4
        res = _run(["expand", "--config", cfg, "--out", out,
                    "--order", "2", "--obs", "corr"])
        assert res.exit_code == 0, res.output
        corr_graphs = json.loads((tmp / "out" / "expand_order2_corr.json")
                                 .read_text())
        assert corr_graphs  # both legs quantum-contracted at order 2

    @pytest.mark.parametrize("obs,sha256", [
        ("field",
         "36b93400ef859275744c5fca9b681f200eef390cb9a747224fb1bc794a196bd6"),
        ("corr",
         "055b6fb2b0c4290f30227bd497267f559693800fa0b057d09e77b6c82eeb30fe"),
    ])
    def test_expand_order2_pinned(self, workdir, obs, sha256):
        # recorded from the engine before its key and collection routines
        # were merged
        tmp, cfg = workdir
        out = tmp / "pin"
        res = _run(["expand", "--config", cfg, "--out", str(out),
                    "--order", "2", "--obs", obs])
        assert res.exit_code == 0, res.output
        text = (out / f"expand_order2_{obs}.json").read_bytes()
        assert hashlib.sha256(text).hexdigest() == sha256

    # sha256 of each output on BASE_CONFIG with quantum_hbars [0.1],
    # recorded before the coefficient pipelines were folded into one routine;
    # correlation.csv and compare.csv re-recorded when the Q leg fields
    # became tables with an error bound
    PINNED_OUTPUTS = {
        "expectation.csv":
        "3c381b767d7854126f3a4a81b82bd008cdba6feeb843fcd5c9607a1239763308",
        "correlation.csv":
        "d358c83d8331a426bd57274a544596fc57bfa8e72014670f6695fc06ee870df4",
        "mc.csv":
        "a73bd4cd1bf2247ef2ed4191dd7d524c2287c6647716d0a461715dea46e3fdb2",
        "bounds.csv":
        "c696e0cd8f0e03bb15f5f7596ea0d60e5060cc03e27f9a7ad801abd153a4c11f",
        "bounds.json":
        "329065d2fe84f353bbdb48340c4a1678413617503e7dcccecf6e6d534e2e9e71",
        "compare.csv":
        "0113b5d0d120f225880ca3cffeff91e7902a6d29b30811a335e51e85ad5d9189",
    }

    def test_outputs_pinned(self, tmp_path):
        cfg = tmp_path / "quantum.json"
        cfg.write_text(json.dumps(_mutated(None, "quantum_hbars", [0.1])))
        out = tmp_path / "out"
        for cmd in ("compute-q", "coeff", "corr", "mc", "bounds", "compare"):
            res = _run([cmd, "--config", str(cfg), "--out", str(out)])
            assert res.exit_code == 0, res.output
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in self.PINNED_OUTPUTS}
        assert digests == self.PINNED_OUTPUTS

    # sha256 of mc.csv on BASE_CONFIG with orders [0, 1, 2], recorded
    # before the MC solved only the light-cone cells of its outputs
    MC_ORDER2_SHA256 = \
        "e40e404ce7dde175b58aa24d9b881bf88b85f87e1603053ae027de4ab07b4198"

    def test_mc_order2_pinned(self, tmp_path):
        cfg = tmp_path / "order2.json"
        cfg.write_text(json.dumps(_mutated(None, "orders", [0, 1, 2])))
        res = _run(["mc", "--config", str(cfg), "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        text = (tmp_path / "mc.csv").read_bytes()
        assert hashlib.sha256(text).hexdigest() == self.MC_ORDER2_SHA256

    @pytest.mark.parametrize("leg2", ["f2", "g"])
    def test_interaction_is_bound_by_name(self, workdir, leg2):
        # the interaction renamed "w"; with leg2 "g" a leg takes its old name
        tmp, cfg = workdir
        renamed = json.loads(json.dumps(BASE_CONFIG))
        sm = renamed["smearings"]
        sm["w"], sm[leg2] = sm.pop("g"), sm.pop("f2")
        renamed["interaction"] = "w"
        renamed["observables"][0]["legs"] = ["f1", leg2]
        path = tmp / "renamed.json"
        path.write_text(json.dumps(renamed))
        columns = ("order", "value_re", "value_im", "error", "hbar")
        tables = []
        for config, out in ((cfg, tmp / "orig"), (str(path), tmp / "ren")):
            for cmd in ("coeff", "corr", "bounds"):
                res = _run([cmd, "--config", config, "--out", str(out)])
                assert res.exit_code == 0, res.output
            rows = []
            for name in ("expectation.csv", "correlation.csv"):
                with open(out / name, newline="") as fh:
                    rows += [[r[c] for c in columns]
                             for r in csv.DictReader(fh)]
            tables.append((rows, (out / "bounds.csv").read_bytes()))
        assert tables[0] == tables[1]

    # (order, hbar, value_re, value_im) of each row, recorded with every Q
    # field summed over the leg nodes at each quadrature point
    TIP_ROWS = {
        "expectation.csv": [
            (0, 0.0, 0.0, 0.0),
            (1, 0.0, 0.0, 0.0),
            (2, 0.0, 0.0, -5.313973270755823e-07),
            (2, 0.1, 2.5445969800623143e-06, -9.43309200057067e-06),
        ],
        "correlation.csv": [
            (0, 0.0, 1.892040793275308e-05, 0.0),
            (1, 0.0, -1.8696478880070605e-07, 0.0),
            (2, 0.0, -8.52323415244253e-09, 0.0),
            (2, 0.1, 9.15396038791509e-08, -5.422816094454677e-08),
        ],
    }

    def test_interaction_near_tip_matches_direct_sums(self, tmp_path):
        # a bump of g next to the upper tip of D_mu: the padded field grid
        # reaches past t = mu, where the Q table ends
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["smearings"]["g"] = [
            {"center": [0.9, 0.0], "radius": 0.05, "amplitude": 1.0},
            {"center": [0.0, 0.0], "radius": 0.3, "amplitude": 1.0}]
        cfg["orders"] = [0, 1, 2]
        cfg["quantum_hbars"] = [0.1]
        path = tmp_path / "tip.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        for cmd in ("coeff", "corr"):
            res = _run([cmd, "--config", str(path), "--out", str(out)])
            assert res.exit_code == 0, res.output
        for name, recorded in self.TIP_ROWS.items():
            with open(out / name, newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert [(int(r["order"]), float(r["hbar"])) for r in rows] == \
                [rec[:2] for rec in recorded]
            for r, (_, _, re, im) in zip(rows, recorded):
                diff = abs(complex(float(r["value_re"]), float(r["value_im"]))
                           - complex(re, im))
                assert diff <= float(r["error"])
                assert diff <= 1e-5 * abs(complex(re, im))

    def test_determinism_byte_identical(self, workdir):
        tmp, cfg = workdir
        out1, out2 = str(tmp / "a"), str(tmp / "b")
        for out in (out1, out2):
            assert _run(["corr", "--config", cfg, "--out", out]).exit_code == 0
            assert _run(["mc", "--config", cfg, "--out", out]).exit_code == 0
        for name in ("correlation.csv", "mc.csv"):
            b1 = open(os.path.join(out1, name), "rb").read()
            b2 = open(os.path.join(out2, name), "rb").read()
            assert b1 == b2

    def test_series_outputs_do_not_depend_on_workers(self, workdir,
                                                     monkeypatch):
        tmp, cfg = workdir
        outs = []
        for workers in ("1", "2"):
            monkeypatch.setenv("WORKERS", workers)
            out = tmp / f"workers{workers}"
            for cmd in ("corr", "coeff"):
                res = _run([cmd, "--config", cfg, "--out", str(out)])
                assert res.exit_code == 0, res.output
            outs.append({name: (out / name).read_bytes() for name in
                         ("correlation.csv", "expectation.csv", "qtable.bin")})
        assert outs[0] == outs[1]

    def test_seed_override_changes_series(self, workdir):
        tmp, cfg = workdir
        out1, out2 = str(tmp / "s1"), str(tmp / "s2")
        _run(["corr", "--config", cfg, "--out", out1])
        _run(["corr", "--config", cfg, "--out", out2, "--seed", "99"])
        a = open(os.path.join(out1, "correlation.csv")).read()
        b = open(os.path.join(out2, "correlation.csv")).read()
        assert a != b

    def test_compare_strict_exit_code(self, workdir):
        tmp, cfg = workdir
        out = str(tmp / "strictout")
        assert _run(["corr", "--config", cfg, "--out", out]).exit_code == 0
        assert _run(["coeff", "--config", cfg, "--out", out]).exit_code == 0
        assert _run(["mc", "--config", cfg, "--out", out]).exit_code == 0
        # tamper the mc means to force a large z-score
        mc_path = os.path.join(out, "mc.csv")
        lines = open(mc_path).read().splitlines()
        header = lines[0].split(",")
        i_mean, i_err = header.index("mean"), header.index("stderr")
        rows = []
        for line in lines[1:]:
            parts = line.split(",")
            parts[i_mean] = "1000.0"
            parts[i_err] = "0.001"
            rows.append(",".join(parts))
        open(mc_path, "w").write("\n".join([lines[0]] + rows) + "\n")
        res = _run(["compare", "--config", cfg, "--out", out, "--strict"])
        assert res.exit_code == 3
        res = _run(["compare", "--config", cfg, "--out", out])
        assert res.exit_code == 0  # without --strict only reports

    def test_compare_requires_inputs(self, workdir):
        tmp, cfg = workdir
        out = str(tmp / "empty")
        os.makedirs(out, exist_ok=True)
        res = _run(["compare", "--config", cfg, "--out", out])
        assert res.exit_code == 1

    def test_qtable_reused_from_disk(self, workdir):
        tmp, cfg = workdir
        out = str(tmp / "qt")
        assert _run(["compute-q", "--config", cfg, "--out", out]).exit_code == 0
        stamp = os.path.getmtime(os.path.join(out, "qtable.bin"))
        assert _run(["corr", "--config", cfg, "--out", out]).exit_code == 0
        assert os.path.getmtime(os.path.join(out, "qtable.bin")) == stamp

    @pytest.mark.parametrize("keep", [10, 500, -1])
    def test_truncated_qtable_is_rebuilt(self, workdir, keep):
        tmp, cfg = workdir
        out = tmp / "trunc"
        assert _run(["compute-q", "--config", cfg, "--out", str(out)]) \
            .exit_code == 0
        path = out / "qtable.bin"
        whole = path.read_bytes()
        path.write_bytes(whole[:keep])
        res = _run(["coeff", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert path.read_bytes() == whole

    def test_qtable_rebuilt_when_budget_changes(self, workdir):
        tmp, cfg = workdir
        out = tmp / "budget"
        assert _run(["compute-q", "--config", cfg, "--out", str(out)]) \
            .exit_code == 0
        before = (out / "qtable.bin").read_bytes()
        changed = tmp / "changed.json"
        changed.write_text(json.dumps(_mutated("qtable", "budget", 144)))
        res = _run(["corr", "--config", str(changed), "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert (out / "qtable.bin").read_bytes() != before
        assert ker.QTable.load(str(out / "qtable.bin")).budget == 144

    def test_version1_qtable_is_rebuilt(self, workdir):
        # a version-1 file does not say which budget built it
        tmp, cfg = workdir
        out = tmp / "v1"
        assert _run(["compute-q", "--config", cfg, "--out", str(out)]) \
            .exit_code == 0
        path = out / "qtable.bin"
        v2 = path.read_bytes()
        path.write_bytes(v2[:4] + (1).to_bytes(4, "little") + v2[8:92]
                         + v2[100:])
        assert _run(["corr", "--config", cfg, "--out", str(out)]) \
            .exit_code == 0
        assert path.read_bytes() == v2

    @pytest.mark.parametrize("key,value,shape", [
        ("n_t", 10, "(10, 10, 24)"),
        ("n_x", 20, "(12, 12, 20)"),
        ("interp", "linear", "(12, 12, 24)"),
    ])
    def test_qtable_rebuilt_when_grid_changes(self, workdir, key, value,
                                              shape):
        tmp, cfg = workdir
        out = tmp / "grid"
        assert _run(["compute-q", "--config", cfg, "--out", str(out)]) \
            .exit_code == 0
        before = (out / "qtable.bin").read_bytes()
        changed = tmp / "changed.json"
        changed.write_text(json.dumps(_mutated("qtable", key, value)))
        res = _run(["compute-q", "--config", str(changed), "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert f"qtable {shape}" in res.output
        assert (out / "qtable.bin").read_bytes() != before
