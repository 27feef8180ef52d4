"""Mutation fuzzing of the scenario parser.

Each example takes a built-in scenario and applies one to three mutations:
drop a field, swap a value's type, put in an extreme integer, nest a value
in the wrong container, or alias a process-id key. The result must either
parse or make ``fairsim run`` exit 2 with one JSON line on stderr naming a
field; it must never end in a traceback. Only the parser runs, never the
engine, so the whole test takes seconds.
"""
import contextlib
import copy
import io
import json
import os
import tempfile

from hypothesis import given, settings, strategies as st

from fairsim.cli import main as cli_main
from fairsim.harness import parse_scenario
from fairsim.scenarios import BUILTIN, builtin_scenario

_SWAPS = [None, True, False, "", "x", 1.5, float("inf"), float("nan"), -1, [], {}, [1], {"a": 1}, [None]]
_EXTREMES = [0, -1, 2**31 - 1, 2**63, -(2**63), 10**30]
# the mappings from process-id keys, and the network model that reads each
_PER_PROCESS = {("population", "stakes"): None, ("network", "laggards"): "good_bad"}


def _paths(node, path=()):
    """The path of every value inside a JSON document, parents first."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        return
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _aliases(pid):
    """Spellings of ``pid`` other than ``str(pid)`` that ``str.isdecimal`` accepts."""
    return ["0" + str(pid), chr(0x0660 + pid), chr(0xFF10 + pid)]


def _mutate(data, doc):
    kind = data.draw(st.sampled_from(["drop", "swap", "extreme", "nest", "alias"]))
    if kind == "alias":
        section, key = data.draw(st.sampled_from(sorted(_PER_PROCESS)))
        parent = doc.get(section)
        if not isinstance(parent, dict):
            return
        pid = data.draw(st.integers(0, 3))
        alias = data.draw(st.sampled_from(_aliases(pid)))
        mapping = {alias: data.draw(st.integers(0, 60))}
        if data.draw(st.booleans()):
            mapping[str(pid)] = data.draw(st.integers(0, 60))
        parent[key] = mapping
        return
    paths = list(_paths(doc))
    if kind == "drop":
        paths = [p for p in paths if isinstance(_get(doc, p[:-1]), dict)]
    if not paths:
        return
    path = data.draw(st.sampled_from(paths))
    parent = _get(doc, path[:-1])
    if kind == "drop":
        del parent[path[-1]]
    elif kind == "swap":
        # a copy, so that a later mutation cannot change the shared containers
        # of _SWAPS and with them what Hypothesis replays for this draw
        parent[path[-1]] = copy.deepcopy(data.draw(st.sampled_from(_SWAPS)))
    elif kind == "extreme":
        parent[path[-1]] = data.draw(st.sampled_from(_EXTREMES))
    else:
        value = parent[path[-1]]
        parent[path[-1]] = data.draw(st.sampled_from([[value], {"value": value}]))


def _canonical(key):
    return key.isdecimal() and key == str(int(key))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_a_mutated_builtin_scenario_parses_or_exits_2_naming_a_field(data):
    doc = builtin_scenario(data.draw(st.sampled_from(sorted(BUILTIN))))
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(data, doc)
    text = json.dumps(doc)
    try:
        parse_scenario(json.loads(text))
    except Exception:  # whatever it is, the CLI must turn it into exit 2
        pass
    else:
        # a document that parses names each process by str(pid) alone
        for path, model in _PER_PROCESS.items():
            if model in (None, doc["network"]["model"]) and isinstance(doc.get(path[0], {}).get(path[1]), dict):
                assert all(_canonical(key) for key in _get(doc, path)), path
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scenario.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = cli_main(["run", "--scenario", path, "--out", os.path.join(tmp, "out")])
    assert rc == 2, text
    lines = err.getvalue().strip().splitlines()
    assert len(lines) == 1, lines
    field = json.loads(lines[0])["error"]["field"]
    assert isinstance(field, str) and field, (field, text)
