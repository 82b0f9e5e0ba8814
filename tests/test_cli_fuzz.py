"""Mutated diagram documents through the command line and the parser.

Every document must get an answer (exit 0), a one-line format error
(exit 2) or a one-line invalid-diagram error (exit 3); no exception may
escape ``cli.main``.  ``parse_diagram`` must make of every document
what the reference parser makes of it.  Documents start valid and take
up to three mutations: a dropped or duplicated key, a swapped or
out-of-range integer, a bool or a float in place of an integer, a
truncated list, a non-object in place of an object.
"""

import contextlib
import io
import json
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (TREFOIL_PD, make_curl, make_rp2curl, make_torus11,
                      parse_outcome, reference_parse_diagram)
from regioncc import import_pd, parse_diagram, random_diagram, serialize_diagram
from regioncc.cli import main


class Obj(list):
    """A JSON object as a list of (key, value) pairs, so keys may repeat."""


def to_tree(node):
    if isinstance(node, dict):
        return Obj((k, to_tree(v)) for k, v in node.items())
    if isinstance(node, list):
        return [to_tree(v) for v in node]
    return node


def dump(node) -> str:
    if isinstance(node, Obj):
        return "{" + ", ".join(f"{json.dumps(k)}: {dump(v)}" for k, v in node) + "}"
    if isinstance(node, list):
        return "[" + ", ".join(dump(v) for v in node) + "]"
    return json.dumps(node)


def seed_documents() -> list[str]:
    docs = [serialize_diagram(d) for d in
            (make_curl(), make_torus11(), make_rp2curl(), import_pd(TREFOIL_PD),
             random_diagram(5, 0.5, seed=3), random_diagram(4, 1.0, seed=8))]
    docs.append(json.dumps({"pd": TREFOIL_PD}))
    return docs


SEEDS = seed_documents()


def get(slot):
    node, i = slot
    return node[i][1] if isinstance(node, Obj) else node[i]


def put(slot, value):
    node, i = slot
    node[i] = (node[i][0], value) if isinstance(node, Obj) else value


def slots(node, out):
    """(container, index) of every value below node, parents first."""
    if isinstance(node, list):
        for i in range(len(node)):
            out.append((node, i))
            slots(get((node, i)), out)
    return out


def mutate(tree, data) -> None:
    kind = data.draw(st.sampled_from(
        ["drop", "duplicate", "truncate", "swap", "range", "bool", "float",
         "nonobject"]))
    below = slots(tree, [])
    if kind == "nonobject":
        objects = [s for s in below if isinstance(get(s), Obj)]
        if objects:
            put(data.draw(st.sampled_from(objects)),
                data.draw(st.sampled_from([None, 0, "x", [], [0, 1]])))
        return
    if kind in ("drop", "duplicate", "truncate"):
        kinds = Obj if kind != "truncate" else list
        pool = [v for v in [tree] + [get(s) for s in below]
                if isinstance(v, kinds) and v]
        if not pool:
            return
        node = data.draw(st.sampled_from(pool))
        i = data.draw(st.integers(0, len(node) - 1))
        if kind == "drop":
            del node[i]
        elif kind == "duplicate":
            node.insert(data.draw(st.integers(0, len(node))), node[i])
        else:
            del node[i:]
        return
    ints = [s for s in below if type(get(s)) is int]
    if not ints:
        return
    slot = data.draw(st.sampled_from(ints))
    if kind == "swap":
        other = data.draw(st.sampled_from(ints))
        a, b = get(slot), get(other)
        put(slot, b)
        put(other, a)
    elif kind == "range":
        put(slot, data.draw(st.sampled_from([-1, -5, 4096, 1 << 70, get(slot) + 4])))
    elif kind == "bool":
        put(slot, data.draw(st.booleans()))
    else:
        put(slot, float(get(slot)) + data.draw(st.sampled_from([0.0, 0.5])))


def run_main(argv, text) -> int:
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return main(argv)
    finally:
        sys.stdin = stdin


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(SEEDS), st.integers(1, 3),
       st.sampled_from([["info", "-"], ["verify", "-"],
                        ["admissible", "-", "-c", "0"],
                        ["admissible", "-", "-c", "0,1,2"]]),
       st.data())
def test_mutated_documents_exit_cleanly(seed, rounds, argv, data):
    tree = to_tree(json.loads(seed))
    for _ in range(rounds):
        mutate(tree, data)
    assert run_main(argv, dump(tree)) in (0, 2, 3)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(SEEDS), st.integers(0, 3), st.data())
def test_parse_matches_the_reference_parser(seed, rounds, data):
    tree = to_tree(json.loads(seed))
    for _ in range(rounds):
        mutate(tree, data)
    text = dump(tree)
    assert parse_outcome(parse_diagram, text) == parse_outcome(reference_parse_diagram, text)
