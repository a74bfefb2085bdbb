"""The CLI's exit-code contract under fuzzed inputs.

Every subcommand runs in-process on mutated graph, matrix, shape, prior
and CSV files and on odd flag values.  No run may reach
``internal_error``: it exits 0, exits 1 printing one flat
``{code, message, context}`` object, or exits 2 from argparse.  Draw
counts stay at most 50, so no flag value asks for a large allocation.
"""

import contextlib
import io
import json
import math
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from graphwishart.cli import run

A4 = {"n": 4, "edges": [[1, 2], [2, 3], [3, 4]]}
K2 = {"n": 2, "edges": [[1, 2]]}
ROWS = [[2.0, 0.4, None, None], [0.4, 2.0, 0.4, None],
        [None, 0.4, 2.0, 0.4], [None, None, 0.4, 2.0]]
FIRST = {"alpha": [3.0, 2.0, 2.0], "beta": [2.0, 2.0]}
SECOND = {"alpha": [-2.0, -2.0, -2.0], "beta": [-1.5, -1.5]}  # G-Wishart 3
CSV = [["0.3", "-1.2", "0.8", "0.1"], ["1.1", "0.4", "-0.6", "2.0"],
       ["-0.5", "0.9", "0.2", "-1.4"], ["0.7", "-0.3", "1.6", "0.5"],
       ["-1.0", "0.2", "-0.9", "0.6"]]

STAR = {"n": 4, "edges": [[1, 2], [1, 3], [1, 4]]}

# Valid contents of each input file.
FILES = {
    "graph": [A4],
    "tree": [STAR, K2],
    "scale": [{"graph": A4, "matrix": ROWS}],
    "point": [{"graph": A4, "matrix": ROWS}],
    "shape": [FIRST, SECOND],
    "prior": [{"shape": SECOND, "scale": ROWS}],
    "rate": [{"graph": K2, "matrix": [[2.0, 0.5], [0.5, 1.0]]}],
}

# argv of each subcommand: literal words, a {file} to write, or a flag
# of FLAGS whose value is drawn; then the optional flags, drawn in or
# left out (an optional --graph names a file of its own).
COMMANDS = {
    "graph-analyze": (["graph", "analyze", "--graph", "{graph}"],
                      ["--order"]),
    "graph-hasse": (["graph", "hasse", "--graph", "{tree}"], []),
    "cone-complete": (["cone", "complete", "--matrix", "{scale}"],
                      ["--graph"]),
    "cone-phi": (["cone", "phi", "--matrix", "{point}"], ["--graph"]),
    "dist-logpdf": (["dist", "logpdf", "--family", "--shape", "{shape}",
                     "--scale", "{scale}", "--matrix", "{point}"],
                    ["--graph"]),
    "dist-sample": (["dist", "sample", "--family", "--shape", "{shape}",
                     "--scale", "{scale}", "--n"], ["--graph", "--seed"]),
    "dist-mean": (["dist", "mean", "--family", "--shape", "{shape}",
                   "--scale", "{scale}"], ["--graph"]),
    "bayes-fit": (["bayes", "fit", "--graph", "{graph}", "--data",
                   "{data}", "--prior", "{prior}", "--n"], ["--seed"]),
    "verify-normalizer": (["verify", "normalizer", "--shape", "{shape}",
                           "--scale", "{scale}", "--n"],
                          ["--kind", "--graph", "--seed"]),
    "verify-a4": (["verify", "a4", "--shape", "{shape}", "--scale",
                   "{scale}"], ["--kind", "--graph"]),
    "verify-mellin": (["verify", "mellin", "--matrix", "{rate}", "--p",
                       "--a1", "--a2", "--n"], ["--graph", "--seed"]),
    "verify-factorization": (["verify", "factorization", "--shape",
                              "{shape}", "--scale", "{scale}", "--n"],
                             ["--graph", "--seed"]),
    "verify-mean426": (["verify", "mean426", "--shape", "{shape}",
                        "--scale", "{scale}", "--n"],
                       ["--graph", "--seed"]),
}

ODD = st.sampled_from(["x", "", "nan", "inf", "-inf", "1e400", "-0",
                      "0x10", "1_0"])
# Per flag: (valid values, odd values).
FLAGS = {
    "--n": (st.integers(2, 50).map(str),
            st.integers(-2, 1).map(str) | ODD),
    "--seed": (st.integers(0, 5).map(str),
               st.sampled_from([-1, 2 ** 63 - 1, 2 ** 63, 2 ** 64,
                                -2 ** 63, 10 ** 30]).map(str) | ODD),
    "--order": (st.sampled_from(["0", "1"]),
                st.sampled_from(["-2", "-1", "3", "100"]) | ODD),
    "--kind": (st.sampled_from(["I", "II"]), st.sampled_from(["III", ""])),
    "--family": (st.sampled_from(["type1", "type2", "inv_type1",
                                  "inv_type2"]),
                 st.sampled_from(["type3", ""])),
    "--output": (st.just("{dir}/out.json"),
                 st.sampled_from(["{dir}", "{dir}/missing/out.json"])),
}
for _flag in ("--p", "--a1", "--a2"):
    FLAGS[_flag] = (st.sampled_from(["0.5", "1.5", "2", "3", "-0.2"]),
                    st.sampled_from(["0", "-1", "-0.7", "1e308", "1e-300",
                                     "400"]) | ODD)

# Values that replace a part of a file: bad types, bools, special and
# huge numbers, strings and nesting.
BAD = st.one_of(
    st.sampled_from([None, True, False, math.nan, math.inf, -math.inf,
                     10 ** 400, -10 ** 400, 1e308, 0, -1, 2 ** 63, 0.5, "",
                     "1", [], {}, [[1]], {"n": 1}]),
    st.recursive(st.none() | st.integers(-3, 5) | st.floats(),
                 lambda inner: st.lists(inner, max_size=3)
                 | st.dictionaries(st.sampled_from(["n", "edges", "alpha",
                                                    "matrix", "x"]),
                                   inner, max_size=2),
                 max_leaves=6),
)
RAW = st.sampled_from([b"", b"\xff\xfe\x00", b"{", b"null", b"[]", b"1e999",
                       b"[" * 3000 + b"]" * 3000, b'{"n": 4, "edges": '])


@st.composite
def mutated(draw, obj):
    """``obj`` with one part replaced, removed or duplicated: a part one
    level down with probability one half, else ``obj`` itself."""
    container = isinstance(obj, (list, dict)) and obj
    if container and draw(st.booleans()):
        key = draw(st.sampled_from(sorted(obj) if isinstance(obj, dict)
                                   else range(len(obj))))
        out = dict(obj) if isinstance(obj, dict) else list(obj)
        out[key] = draw(mutated(obj[key]))
        return out
    op = draw(st.sampled_from(["replace", "delete", "append"]
                              if container else ["replace"]))
    if op == "replace":
        return draw(BAD)
    if isinstance(obj, dict):
        out = dict(obj)
        if op == "delete":
            del out[draw(st.sampled_from(sorted(obj)))]
        else:
            out["extra"] = draw(BAD)
        return out
    out = list(obj)
    i = draw(st.integers(0, len(out) - 1))
    if op == "delete":
        del out[i]
    else:
        out.insert(i, draw(st.sampled_from([out[i], draw(BAD)])))
    return out


def json_file(base, bad):
    """Text of a JSON input file: valid, else mutated or not JSON at
    all."""
    if not bad:
        return st.sampled_from(base).map(json.dumps)
    return st.one_of(st.sampled_from(base).flatmap(mutated).map(json.dumps),
                     RAW)


CELL = st.sampled_from(["nan", "inf", "-inf", "", "x", "1e400", "True",
                        "0x10", " 1", "1,5", '"2"'])


@st.composite
def csv_file(draw, bad):
    """Text of a data file: valid, else with one cell or row changed, or
    not text at all."""
    choice = draw(st.sampled_from(["cell", "short", "long", "raw"])) \
        if bad else "valid"
    if choice == "raw":
        return draw(st.sampled_from([b"", b"\xff\x00,1", b'"unclosed,1\n']))
    rows = [list(row) for row in CSV]
    i = draw(st.integers(0, len(rows) - 1))
    if choice == "cell":
        rows[i][draw(st.integers(0, 3))] = draw(CELL)
    elif choice == "short":
        del rows[i][-1]
    elif choice == "long":
        rows[i].append("0.5")
    return "\n".join(",".join(row) for row in rows)


def _write(path, content):
    mode = "wb" if isinstance(content, bytes) else "w"
    with open(path, mode) as fh:
        fh.write(content)
    return path


@st.composite
def invocation(draw, command, folder):
    """argv for ``command`` with its files written into ``folder``: the
    optional flags drawn in or left out, and at most one file or flag
    value made bad, the rest valid."""
    words, optional = COMMANDS[command]
    words = words + [w for flag in optional + ["--output"]
                     if draw(st.booleans())
                     for w in ([flag, "{graph2}"] if flag == "--graph"
                               else [flag])]
    bad = draw(st.sampled_from([None] + [
        w for w in words if w.startswith("{") or w in FLAGS]))
    argv = []
    for word in words:
        if word.startswith("{"):
            role = word[1:-1]
            content = draw(csv_file(word == bad) if role == "data" else
                           json_file(FILES[role.rstrip("2")], word == bad))
            argv.append(_write(os.path.join(folder, role), content))
            continue
        argv.append(word)
        if word in FLAGS:
            argv.append(draw(FLAGS[word][word == bad]).format(dir=folder))
    return argv


def _run(argv):
    """(exit code, stdout) of one in-process run; argparse's own exit
    code when it rejects the flags."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:
            assert exc.code == 2 and "usage:" in err.getvalue()
            return None, ""
    return code, out.getvalue()


@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(max_examples=50, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_no_input_reaches_internal_error(command, data):
    with tempfile.TemporaryDirectory() as folder:
        argv = data.draw(invocation(command, folder), label="argv")
        code, out = _run(argv)
    if code is None:  # argparse rejected a flag value
        return
    assert code in (0, 1), out
    if code == 1:
        lines = out.splitlines()
        assert len(lines) == 1, out
        doc = json.loads(lines[0])
        assert set(doc) == {"code", "message", "context"}, doc
        assert isinstance(doc["code"], str) and \
            doc["code"] != "internal_error"
        assert isinstance(doc["message"], str)
        assert isinstance(doc["context"], dict)
