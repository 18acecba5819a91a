"""Fuzzed scenario files at the one input boundary.

Valid scenario objects are mutated: keys and entries are dropped, retyped
and nested, and non-finite, negative and huge values are put in.  Each
input either loads to a scenario whose to_json round-trips and keeps every
number it was given, or raises ValueError; `ehwf solve` on a rejected file
exits 2 without printing a schedule.
"""

import contextlib
import io
import json
import math
import os
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ehwf.bench import cli_main
from ehwf.model import Scenario

USER_KEYS = ("harvest", "gain", "battery_max", "power_max")
KEYS = ("num_users", "num_slots", "users") + USER_KEYS

# 1e400 is +inf as a float; 10**400 is an integer no float holds
SPECIAL = (math.nan, math.inf, -math.inf, 1e400, -1.0, -2.5, -0.0, 10**400, -10**400)

leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.sampled_from(SPECIAL),
    st.floats(min_value=0.0, max_value=10.0), st.text(max_size=3))

# any JSON-like tree: the retyped or nested replacement for one node
json_trees = st.recursive(
    leaves,
    lambda children: st.one_of(st.lists(children, max_size=3),
                               st.dictionaries(st.sampled_from(KEYS), children,
                                               max_size=3)),
    max_leaves=6)


@st.composite
def valid_scenarios(draw):
    n = draw(st.integers(1, 2))
    k = draw(st.integers(1, 3))
    energy = st.floats(min_value=0.0, max_value=10.0)
    cap = st.one_of(st.none(), st.floats(min_value=0.0, max_value=20.0))
    users = [{"harvest": draw(st.lists(energy, min_size=k, max_size=k)),
              "gain": draw(st.lists(st.floats(min_value=0.0, max_value=5.0),
                                    min_size=k, max_size=k)),
              "battery_max": draw(cap), "power_max": draw(cap)}
             for _ in range(n)]
    return {"num_users": n, "num_slots": k, "users": users}


def _nodes(tree, path=()):
    # every node of the tree, as the path of keys and indices that reaches it
    yield path
    if isinstance(tree, dict):
        for key, child in tree.items():
            yield from _nodes(child, path + (key,))
    elif isinstance(tree, list):
        for i, child in enumerate(tree):
            yield from _nodes(child, path + (i,))


def _at(tree, path):
    for step in path:
        tree = tree[step]
    return tree


@st.composite
def mutated_scenarios(draw):
    """A valid scenario object with up to three mutations applied in turn."""
    tree = draw(valid_scenarios())
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(list(_nodes(tree))))
        node = _at(tree, path)
        kind = draw(st.sampled_from(("drop", "add", "retype", "nest", "special")))
        if kind == "drop":
            if path:
                del _at(tree, path[:-1])[path[-1]]
        elif kind == "add":
            if isinstance(node, dict):
                node[draw(st.sampled_from(KEYS))] = draw(json_trees)
            elif isinstance(node, list):
                node.append(draw(json_trees))
        else:
            new = draw({"retype": json_trees,
                        "nest": st.one_of(st.just([node]), st.sampled_from(KEYS).map(
                            lambda key: {key: node})),
                        "special": st.sampled_from(SPECIAL)}[kind])
            if path:
                _at(tree, path[:-1])[path[-1]] = new
            else:
                tree = new
    return tree


def _as_loaded(obj):
    # the scenario object as a loaded file must read: numbers as floats and
    # an unbounded cap as null, with nothing else kept
    def cap(c):
        return None if c is None or c == math.inf else float(c)
    return {"num_users": obj["num_users"], "num_slots": obj["num_slots"],
            "users": [{"harvest": [float(v) for v in u["harvest"]],
                       "gain": [float(v) for v in u["gain"]],
                       "battery_max": cap(u["battery_max"]),
                       "power_max": cap(u["power_max"])} for u in obj["users"]]}


def load(obj):
    """Scenario.from_json_dict(obj), or None if it raised ValueError."""
    try:
        return Scenario.from_json_dict(obj)
    except ValueError:
        return None


VALID = {"num_users": 1, "num_slots": 2,
         "users": [{"harvest": [1.0, 2.0], "gain": [1.0, 0.5],
                    "battery_max": 5.0, "power_max": None}]}


def with_user(**fields):
    return dict(VALID, users=[dict(VALID["users"][0], **fields)])


@given(mutated_scenarios())
@settings(max_examples=400)
@example(VALID)
@example(with_user(battery_max=math.inf))       # an old file's Infinity cap
@example(with_user(harvest=[1, 2]))             # JSON integers are numbers
@example(with_user(gain=[1.0, -0.0]))
@example(with_user(harvest=[1.0, 1e400]))
@example(with_user(power_max=-math.inf))
@example(with_user(battery_max=[5.0]))
@example(with_user(gain={"gain": [1.0, 0.5]}))
@example(dict(VALID, num_slots=2.0))
@example(dict(VALID, users=VALID["users"][0]))
@example([VALID])
def test_scenario_objects_load_exactly_or_raise_value_error(obj):
    sc = load(obj)
    if sc is None:
        return
    text = sc.to_json()
    assert json.loads(text) == _as_loaded(obj)
    assert Scenario.from_json(text).to_json() == text


# the two ways a loaded file can still fail in the solver, both open
# defects of its float range rather than of the input boundary
SOLVER_ERRORS = ("error: closed segment did not fill feasibly\n",
                 "error: e_tilde is unreachable: ")


@given(mutated_scenarios(), st.booleans())
@settings(max_examples=150)
@example(VALID, False)
@example(with_user(harvest=[1.0, math.inf]), True)      # written as 1e400
@example(with_user(harvest=[1.0, 10**400]), False)
@example(with_user(harvest=[math.nan, 1.0]), False)
@example(dict(VALID, users=[]), False)
# every entry and running total finite, but gain times total harvest not
@example(dict(VALID, num_users=2,
              users=[dict(VALID["users"][0], harvest=[1e300, 1.0], gain=[1e10, 1.0],
                          battery_max=None)] * 2), False)
# low SNR: gain times energy per slot far below 1e-13 ends in the internal
# error, or in a schedule that the certificate fails
@example(with_user(gain=[1e-160, 1e-160], battery_max=0.0), False)
@example(with_user(harvest=[2.0, 9.0], gain=[2.2250738585072014e-308, 1.0],
                   battery_max=None, power_max=10.0), False)
# a cap 1e-18 of the harvest: the wasted overflow cancels the budget's bits
@example(dict(with_user(harvest=[0.0, 2.4009114822930404, 2.220446049250313e-16],
                        gain=[0.0, 0.0, 0.0], battery_max=0.0,
                        power_max=3.910885698356212e-18), num_slots=3), False)
def test_cli_solves_a_loaded_file_and_rejects_the_rest(obj, out_of_range):
    text = json.dumps(obj)
    if out_of_range:
        # the text form of a float out of range reads as infinity too
        text = text.replace("Infinity", "1e400")
    loaded = load(obj) is not None
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scenario.json")
        with open(path, "w") as fh:
            fh.write(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli_main(["solve", "--in", path, "--certify"])
    out, err = out.getvalue(), err.getvalue()
    if loaded and rc != 2:
        # a schedule, and the certificates' verdict on it
        assert "p[0]:" in out
        assert f"certificate: {'PASS' if rc == 0 else 'FAIL'}" in out
    else:
        assert rc == 2
        assert "p[0]" not in out
        assert err.startswith(SOLVER_ERRORS if loaded else "error: ")
