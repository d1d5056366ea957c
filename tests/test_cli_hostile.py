"""cli.main under generated argv: every subcommand, tiny shapes, and hostile
values (nan, infinities, 1e308, negatives, zero, empty lists, missing or
malformed config and codebook files).  Whatever the argv, the command exits
0, 2, 3 or 4 without a traceback; what it writes on exit 0 is strict JSON,
or CSV whose cells are finite or empty; on any other exit it leaves no
output file, but for the partial codebook the codebook command keeps on a
construction shortfall (exit 3), as documented.

Each argv starts from a valid one of its subcommand and takes up to three
changes: an option's value made hostile, an option dropped, or a config
file holding one hostile value.  Trial counts, attempt budgets and workers
stay small: a valid count of 10^12 trials is a long run, not a fault."""

import contextlib
import io
import json
import math
import os
import tempfile

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from dnastore import cli, codebook as cbk
from dnastore.params import ScalingParams

HOSTILE_FLOATS = ("nan", "inf", "-inf", "1e308", "-1e308", "-0.5", "0", "-0")
HOSTILE_INTS = ("-1", "0", str(10**12), str(2**130), "1.5", "x")
HOSTILE_JSON = ("NaN", "Infinity", "-Infinity", "1e308", "-1", "0", "2.5", "[]",
                "[NaN]", '"x"', "null", "true", '{"a": 1}', str(2**130))

INDEX = {"M": "4", "inner-size": "8", "N": "4", "target-J": "4", "cap": "3",
         "budget": "1000"}
REPETITION = {"kind": "repetition", "M": "4", "inner-size": "16", "N": "4",
              "target-J": "3", "t": "0.5", "budget": "1000"}
CHANNELS = [
    {"model": "none", "decoder": "distinct_intersection"},
    {"model": "erasure", "p": "0.5", "decoder": "multiplicity_count"},
    {"model": "random", "p": "0.3", "decoder": "unique_superset", "epsilon": "0.1"},
    {"model": "adversarial", "p": "0.4", "attack-pair": ["0", "1"], "eta": "0.4"},
]
FLOATS = {"c", "delta", "tol", "t", "p", "epsilon", "eta"}
FLOAT_LISTS = {"values"}
INT_LISTS = {"M-grid", "attack-pair"}
CHOICES = {"model", "decoder", "kind", "param", "format"}
# counts that set how long a valid run takes: hostile only below 1
SMALL_INTS = {"trials", "workers", "budget"}


def base_argvs(good_codebook):
    """Valid option sets of each subcommand, by name."""
    channels = [
        {**build, **chan, "trials": "20"}
        for build in (INDEX, REPETITION, {"codebook": good_codebook})
        for chan in CHANNELS
    ]
    return {
        "exponent": [{"c": ["1.5"], "delta": ["0.5", "0.25"]}],
        "occupancy": [
            {"c": "1.5", "delta": "0.5", "M-grid": ["4", "8"]},
            {"dist-M": "4", "dist-N": "6", "cell-cap": "100"},
        ],
        "codebook": [INDEX, REPETITION],
        "simulate": channels,
        "sweep": [
            {**chan, "param": "p", "values": ["0.1", "0.3"]}
            for chan in channels
            if chan["model"] != "none"
        ] + [{**channels[0], "param": "N", "values": ["2", "3"]}],
    }


def hostile(name, files):
    """A strategy of values for option name that a run may refuse."""
    if name == "codebook":
        return st.sampled_from(files["codebook"])
    if name in SMALL_INTS:
        return st.sampled_from(("-1", "0", "x"))
    if name in CHOICES:
        return st.sampled_from(("bogus", "csv", "random", "N", "index"))
    if name in FLOAT_LISTS or name in INT_LISTS or name in ("c", "delta"):
        pool = HOSTILE_FLOATS if name not in INT_LISTS else HOSTILE_INTS
        return st.lists(st.sampled_from(pool + ("0.5", "3")), max_size=3)
    return st.sampled_from(HOSTILE_FLOATS if name in FLOATS else HOSTILE_INTS)


def spell(options) -> list[str]:
    """argv words of options: --name=value (a value may start with '-'), or
    --name and the list's values."""
    words = []
    for name, value in options.items():
        if isinstance(value, list):
            words += [f"--{name}", *value]
        else:
            words.append(f"--{name}={value}")
    return words


@st.composite
def argvs(draw, files, in_dir):
    bases = base_argvs(files["codebook"][0])
    command = draw(st.sampled_from(sorted(bases)))
    options = dict(draw(st.sampled_from(bases[command])))
    names = sorted(set(options) | {"seed", "format", "workers"})
    for _ in range(draw(st.integers(0, 3))):
        change = draw(st.sampled_from(("value", "value", "drop", "config")))
        name = draw(st.sampled_from(names))
        if change == "value":
            options[name] = draw(hostile(name, files))
        elif change == "drop":
            options.pop(name, None)
        else:
            key = name.replace("-", "_")
            pool = HOSTILE_JSON if key not in SMALL_INTS else ('"x"', "-1", "0", "[]")
            path = os.path.join(in_dir, "config.json")
            with open(path, "w") as fh:
                fh.write(f'{{"{key}": {draw(st.sampled_from(pool))}}}')
            bad = st.sampled_from(files["config"])
            options["config"] = draw(st.one_of(st.just(path), bad))
    return [command] + spell(options)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Codebook and config files, the good codebook first, by path."""
    root = tmp_path_factory.mktemp("inputs")

    def write(name, text):
        path = root / name
        path.write_text(text)
        return str(path)

    good = root / "cb.json"
    scaling = ScalingParams(M=4, inner_size=8, N=4, J=4)
    cbk.save_codebook(cbk.greedy_index_codebook(scaling, 3, 4, 1, 1_000), good)
    return {
        "codebook": [
            str(good),
            str(root / "missing.json"),
            write("cut.json", good.read_text()[:100]),
            write("list.json", "[1, 2]"),
            write("empty.json", "{}"),
        ],
        "config": [
            str(root / "no-config.json"),
            write("bad.json", "{not json"),
            write("array.json", "[]"),
        ],
    }


def strict_constant(name):
    raise ValueError(f"non-finite constant {name} in output")


def assert_valid_output(path):
    """Strict JSON, or CSV under '#' comment lines (the config one strict
    JSON) whose numeric cells are finite."""
    with open(path) as fh:
        text = fh.read()
    if not text.startswith("#"):
        json.loads(text, parse_constant=strict_constant)
        return
    for line in text.splitlines():
        if line.startswith("# config: "):
            json.loads(line[len("# config: "):], parse_constant=strict_constant)
        elif not line.startswith("#"):
            for cell in line.split(","):
                try:
                    value = float(cell)
                except ValueError:
                    continue
                assert math.isfinite(value), (path, line)


def run(argv):
    """(exit code, stderr) of cli.main(argv); argparse's refusals exit."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, err.getvalue()


@settings(max_examples=200, deadline=None, database=None)
@seed(0)
@given(data=st.data())
def test_hostile_argv(files, data):
    with tempfile.TemporaryDirectory() as in_dir, \
            tempfile.TemporaryDirectory() as out_dir:
        argv = data.draw(argvs(files, in_dir))
        argv.append("--out=" + os.path.join(out_dir, "out"))
        code, err = run(argv)
        written = sorted(os.listdir(out_dir))
        assert code in (0, 2, 3, 4), (argv, code)
        assert "Traceback" not in err, argv
        if code == 0:
            assert written, argv
            for name in written:
                assert_valid_output(os.path.join(out_dir, name))
        elif code == 3 and argv[0] == "codebook":
            assert written == ["out", "out.report.json"], argv
        else:
            assert written == [], (argv, code)
