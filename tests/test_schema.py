"""Tests of the input table: arbitrary JSON in any field, and the table against the code."""

import ast
import inspect
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfsampler import cli, targets
from sfsampler.errors import ConfigError
from sfsampler.schema import CONFIG_FILE, DRIFT_CHECK, RUN, TARGETS, VARIANT, check

# integers stay small: d and M set array sizes; the sampled floats overflow 1/x^2 or x^2
FLOATS = st.floats() | st.sampled_from([1e-200, 5e-324, 1e308, -1e308])
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-64, 64) | FLOATS | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=2),
    max_leaves=8,
)
TABLES = {"run": CONFIG_FILE, "variant": VARIANT, "drift_check": DRIFT_CHECK,
          **{f"target {kind}": table for kind, table in TARGETS.items()}}
FIELDS = [(name, key) for name, table in TABLES.items() for key in table]
VALID_TARGETS = {
    "gaussian_mixture": {"weights": [0.75, 0.25], "means": [-2.0, 2.0], "covs": [0.2, 0.8]},
    "two_mode_gmm": {"d": 2},
    "ring": {},
    "funnel": {},
    "example64": {},
    "bayes_ridge": {"y": [0.5, -1.0]},
}
BUILDERS = {**targets._MIXTURES, **targets._SHAPED_2D, "bayes_ridge": targets._make_bayes_ridge}


@settings(max_examples=400, deadline=None, database=None)
@given(field=st.sampled_from(FIELDS), value=JSON)
def test_any_json_in_any_field_is_accepted_or_a_config_error(field, value):
    table, key = TABLES[field[0]], field[1]
    try:
        check(table, {key: value}, "field")
    except ConfigError as exc:
        assert f"field '{key}'" in str(exc) or "missing" in str(exc)


@settings(max_examples=400, deadline=None, database=None)
@given(field=st.sampled_from([(k, key) for k in TARGETS for key in TARGETS[k]]), value=JSON)
def test_any_json_in_any_target_field_builds_or_is_a_config_error(field, value):
    kind, key = field
    try:
        target = targets.target_from_dict({"kind": kind, **VALID_TARGETS[kind], key: value})
    except ConfigError:
        return
    assert target.dim >= 1


def test_run_table_matches_the_config_and_the_flags():
    assert set(RUN) == {f.name for f in fields(cli.RunConfig)}
    assert set(CONFIG_FILE) - set(RUN) == {"target_file"}
    assert set(VARIANT) - set(RUN) == {"label"}
    parser = cli.build_parser()
    for verb in ("sample", "convergence", "compare"):
        flags = set(vars(parser.parse_args([verb]))) - {"command", "config"}
        assert flags <= set(RUN), verb


def test_drift_check_table_matches_the_fields_it_reads():
    tree = ast.parse(inspect.getsource(cli.cmd_drift_check))
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == "doc":
            read.add(node.slice.value)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and getattr(node.func.value, "id", None) == "doc" and node.func.attr == "get"):
            read.add(node.args[0].value)
    assert read == set(DRIFT_CHECK)


@pytest.mark.parametrize("kind", sorted(TARGETS))
def test_target_table_matches_the_maker(kind):
    assert set(BUILDERS) == set(TARGETS) == set(targets.BUILTIN_KINDS)
    params = inspect.signature(BUILDERS[kind]).parameters
    table = TARGETS[kind]
    assert set(table) == set(params) | {"rho"}
    without_default = {name for name, p in params.items() if p.default is p.empty} - {"rho"}
    assert {name for name, entry in table.items() if entry.required} == without_default


@pytest.mark.parametrize("value", [True, float("nan"), float("inf"), 10**400, "1.0", None])
def test_real_field_rejects_bools_non_finite_and_non_numbers(value):
    with pytest.raises(ConfigError, match="field 'beta'"):
        check(RUN, {"beta": value}, "field")
