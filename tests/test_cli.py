import csv
import json
import math
import os

import pytest

from dnastore import channel, cli, codebook as cbk
from dnastore.cli import fig1_default_grid, main
from dnastore.codebook import load_codebook


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def strip_metadata(payload):
    payload = dict(payload)
    payload.pop("metadata", None)
    return payload


def read_csv(path):
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


class TestExponentCommand:
    def test_single_point(self, tmp_path):
        out = tmp_path / "exp.json"
        rc = main(
            ["exponent", "--c", "1.5", "--delta", "0.5", "--out", str(out)]
        )
        assert rc == 0
        payload = read_json(out)
        (row,) = payload["rows"]
        assert row["f_multinomial"] == pytest.approx(0.3745, abs=1e-3)
        assert row["f_poisson"] == pytest.approx(0.1831, abs=1e-4)
        assert payload["config"]["c"] == [1.5]

    def test_default_grid_dominance(self, tmp_path):
        out = tmp_path / "grid.csv"
        rc = main(["exponent", "--format", "csv", "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        cs, deltas = fig1_default_grid()
        assert len(rows) == len(cs) * len(deltas)
        for row in rows:
            assert float(row["f_multinomial"]) >= float(row["f_poisson"]) - 1e-12

    def test_partial_grid_args_rejected(self, tmp_path):
        rc = main(["exponent", "--c", "1.5", "--out", str(tmp_path / "x.json")])
        assert rc == 2


class TestOccupancyCommand:
    def test_distribution_mode(self, tmp_path):
        out = tmp_path / "dist.csv"
        rc = main(
            ["occupancy", "--dist-M", "5", "--dist-N", "10", "--format", "csv",
             "--out", str(out)]
        )
        assert rc == 0
        rows = read_csv(out)
        assert [r["k"] for r in rows] == [str(k) for k in range(6)]
        assert sum(float(r["pmf"]) for r in rows) == pytest.approx(1.0, abs=1e-9)
        assert rows[0]["log_pmf"] == ""  # impossible outcome serialized empty

    def test_convergence_mode(self, tmp_path):
        out = tmp_path / "conv.json"
        rc = main(
            ["occupancy", "--c", "1.5", "--delta", "0.5",
             "--M-grid", "50", "100", "200", "--out", str(out)]
        )
        assert rc == 0
        payload = read_json(out)
        assert payload["summary"]["gaps_strictly_decreasing"] is True
        gaps = [row["gap"] for row in payload["rows"]]
        assert gaps == sorted(gaps, reverse=True)

    def test_capacity_guard_exit_code(self, tmp_path):
        rc = main(
            ["occupancy", "--c", "1.5", "--delta", "0.5", "--M-grid", "200",
             "--cell-cap", "10", "--out", str(tmp_path / "x.json")]
        )
        assert rc == 4

    def test_degenerate_rows(self, tmp_path):
        # delta*M rounds to 0: the row is a zero-probability event
        out = tmp_path / "deg.json"
        rc = main(
            ["occupancy", "--c", "1.5", "--delta", "0.001",
             "--M-grid", "100", "--out", str(out)]
        )
        assert rc == 0
        payload = read_json(out)
        row = payload["rows"][0]
        assert row["K"] == 0 and row["log_p"] is None and row["exponent"] is None
        assert payload["summary"]["degenerate_rows"] == 1
        # the config names the clamps the rows were made with: K may be 0
        assert payload["config"]["rounding"] == "half-up; N clamped to >= 1, K to <= M"
        # delta*M rounds to M: certain event, exponent exactly zero
        out2 = tmp_path / "full.json"
        rc = main(
            ["occupancy", "--c", "1.5", "--delta", "0.999",
             "--M-grid", "100", "--out", str(out2)]
        )
        assert rc == 0
        row = read_json(out2)["rows"][0]
        assert row["K"] == 100 and row["log_p"] == 0.0 and row["exponent"] == 0.0


class TestCodebookCommand:
    def test_build_and_report(self, tmp_path):
        out = tmp_path / "cb.json"
        rc = main(
            ["codebook", "--M", "8", "--inner-size", "32", "--N", "16",
             "--target-J", "30", "--cap", "6", "--seed", "5", "--out", str(out)]
        )
        assert rc == 0
        cb = load_codebook(out)
        assert len(cb) == 30
        report = read_json(str(out) + ".report.json")["report"]
        assert report["max_intersection"] <= 6
        assert report["cap_satisfied"] is True
        assert report["K2_lower"] is not None

    def test_shortfall_exit_and_partial(self, tmp_path):
        out = tmp_path / "cb.json"
        rc = main(
            ["codebook", "--M", "2", "--inner-size", "4", "--N", "4",
             "--target-J", "3", "--cap", "0", "--budget", "500",
             "--seed", "1", "--out", str(out)]
        )
        assert rc == 3
        cb = load_codebook(out)
        assert len(cb) == 2
        report = read_json(str(out) + ".report.json")["report"]
        assert report["shortfall"] == {"achieved": 2, "target": 3}

    def test_repetition_kind(self, tmp_path):
        out = tmp_path / "rep.json"
        rc = main(
            ["codebook", "--kind", "repetition", "--M", "16", "--inner-size",
             "64", "--N", "32", "--t", "0.5", "--target-J", "10", "--out", str(out)]
        )
        assert rc == 0
        cb = load_codebook(out)
        assert all(cw.size == 16 for cw in cb.codewords)

    @pytest.mark.parametrize(
        "build, rc",
        [
            (["--M", "8", "--inner-size", "32", "--N", "16", "--target-J", "30",
              "--cap", "6", "--seed", "5"], 0),
            (["--kind", "repetition", "--M", "16", "--inner-size", "64", "--N",
              "32", "--t", "0.5", "--target-J", "10"], 0),
            (["--M", "4", "--inner-size", "8", "--N", "8", "--target-J", "50",
              "--cap", "2", "--budget", "2000", "--seed", "3"], 3),
        ],
        ids=["index", "repetition", "shortfall"],
    )
    def test_report_scans_the_saved_file(self, tmp_path, build, rc):
        out = tmp_path / "cb.json"
        assert main(["codebook", *build, "--out", str(out)]) == rc
        report = read_json(str(out) + ".report.json")["report"]
        value, witness = cbk.max_pairwise_intersection(load_codebook(out))
        assert report["max_intersection"] == value
        assert report["witness_pair"] == list(witness)

    def test_criterion_11_codebook_round_trip(self, tmp_path):
        out, again = tmp_path / "cb.json", tmp_path / "again.json"
        assert main(
            ["codebook", "--M", "16", "--inner-size", "64", "--N", "32",
             "--cap", "12", "--target-J", "64", "--seed", "20", "--out", str(out)]
        ) == 0
        cbk.save_codebook(load_codebook(out), again)
        assert again.read_bytes() == out.read_bytes()


class TestSimulateCommand:
    def build_cb(self, tmp_path):
        out = tmp_path / "cb.json"
        assert main(
            ["codebook", "--M", "8", "--inner-size", "32", "--N", "12",
             "--target-J", "16", "--cap", "6", "--seed", "5", "--out", str(out)]
        ) == 0
        return out

    def test_none_model_report(self, tmp_path):
        cb = self.build_cb(tmp_path)
        out = tmp_path / "sim.json"
        rc = main(
            ["simulate", "--codebook", str(cb), "--model", "none",
             "--trials", "4000", "--seed", "3", "--out", str(out)]
        )
        assert rc == 0
        payload = read_json(out)
        rep = payload["report"]
        assert rep["trials"] == 4000
        assert rep["errors"] == sum(
            v for k, v in rep["failure_causes"].items() if k != "none"
        )
        (bound,) = payload["bounds"]
        assert bound["lower_consistent"] is True

    def test_rerun_byte_identical_modulo_metadata(self, tmp_path):
        cb = self.build_cb(tmp_path)

        def run(name, workers):
            out = tmp_path / name
            rc = main(
                ["simulate", "--codebook", str(cb), "--model", "erasure",
                 "--p", "0.2", "--trials", "6000", "--seed", "11",
                 "--workers", workers, "--out", str(out)]
            )
            assert rc == 0
            return out

        a, b = run("a.json", "1"), run("b.json", "1")
        # identical args: files agree byte for byte once the metadata block
        # (timestamp, wall time) is dropped
        strip = lambda path: json.dumps(strip_metadata(read_json(path)), sort_keys=True)
        assert strip(a) == strip(b)
        # a different worker count changes only its own config echo
        c = run("c.json", "2")
        pa, pc = read_json(a), read_json(c)
        assert pa["report"] == pc["report"]
        assert pa["bounds"] == pc["bounds"]
        a_cfg, c_cfg = dict(pa["config"]), dict(pc["config"])
        assert a_cfg.pop("workers") == 1 and c_cfg.pop("workers") == 2
        assert a_cfg == c_cfg

    def test_score_route_in_metadata(self, tmp_path):
        narrow = self.build_cb(tmp_path)
        wide = tmp_path / "wide.json"
        assert main(
            ["codebook", "--M", "8", "--inner-size", "1024", "--N", "16",
             "--target-J", "64", "--cap", "3", "--seed", "1", "--out", str(wide)]
        ) == 0
        cases = (
            (narrow, "distinct_intersection", "dense"),
            (narrow, "multiplicity_count", "dense"),
            (wide, "distinct_intersection", "sparse"),
        )
        for cb, rule, route in cases:
            out = tmp_path / "sim.json"
            assert main(
                ["simulate", "--codebook", str(cb), "--model", "random", "--p", "0.5",
                 "--decoder", rule, "--trials", "500", "--out", str(out)]
            ) == 0
            assert read_json(out)["metadata"]["score_route"] == route

    def test_causes_csv_written(self, tmp_path):
        cb = self.build_cb(tmp_path)
        out = tmp_path / "sim.json"
        rc = main(
            ["simulate", "--codebook", str(cb), "--model", "none",
             "--trials", "1000", "--format", "csv", "--out", str(out)]
        )
        assert rc == 0
        rows = read_csv(str(out) + ".causes.csv")
        assert {r["cause"] for r in rows} == {"none", "outage", "collision",
                                              "sequencing", "tie"}

    def test_adversarial_needs_pair(self, tmp_path):
        cb = self.build_cb(tmp_path)
        rc = main(
            ["simulate", "--codebook", str(cb), "--model", "adversarial",
             "--p", "0.2", "--trials", "100", "--out", str(tmp_path / "x.json")]
        )
        assert rc == 2

    def test_config_file_with_flag_override(self, tmp_path):
        cb = self.build_cb(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": 5000, "model": "none"}))
        out = tmp_path / "sim.json"
        rc = main(
            ["simulate", "--codebook", str(cb), "--config", str(cfg),
             "--trials", "2000", "--out", str(out)]
        )
        assert rc == 0
        payload = read_json(out)
        assert payload["report"]["trials"] == 2000  # flag wins
        rc = main(
            ["simulate", "--codebook", str(cb), "--config", str(cfg),
             "--out", str(out)]
        )
        assert rc == 0
        assert read_json(out)["report"]["trials"] == 5000  # config applies


    def test_loaded_codebook_builds_no_codeword(self, tmp_path, monkeypatch):
        cb_path = self.build_cb(tmp_path)

        def built(_):
            raise AssertionError("Codeword built")

        monkeypatch.setattr(cbk.Codeword, "__post_init__", built)
        for decoder in ("distinct_intersection", "unique_superset"):
            assert main(
                ["simulate", "--codebook", str(cb_path), "--model", "random",
                 "--p", "0.1", "--decoder", decoder, "--trials", "500",
                 "--out", str(tmp_path / "sim.json")]
            ) == 0
        assert main(
            ["sweep", "--codebook", str(cb_path), "--param", "N", "--values",
             "6", "12", "--trials", "500", "--out", str(tmp_path / "sweep.json")]
        ) == 0

    def test_oversized_codebook_exits_4(self, tmp_path, monkeypatch, capsys):
        # 500 codewords sharing 56 of their 64 molecules, 1 % of the reads
        # replaced: a row block of 131 trials touches about 2.3 million
        # index entries, above a cap lowered to a million cells
        rows = [[[m, 1] for m in range(56)] + [[56 + 8 * j + k, 1] for k in range(8)]
                for j in range(500)]
        cb = cbk.codebook_from_dict(
            {"format_version": 1, "index_based": False, "group_size": None,
             "scaling": {"M": 64, "inner_size": 4096, "N": 64, "J": 500},
             "codewords": rows}
        )
        cb_path = tmp_path / "cb.json"
        cbk.save_codebook(cb, cb_path)
        monkeypatch.setattr(channel, "DEFAULT_CELL_CAP", 1_000_000)
        rc = main(
            ["simulate", "--codebook", str(cb_path), "--model", "random", "--p", "0.01",
             "--trials", "10000", "--out", str(tmp_path / "sim.json")]
        )
        assert rc == 4
        assert "index entries" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["cb.json"]


class TestSweepCommand:
    def test_p_sweep(self, tmp_path):
        cb_path = tmp_path / "cb.json"
        assert main(
            ["codebook", "--M", "8", "--inner-size", "32", "--N", "8",
             "--target-J", "8", "--cap", "7", "--seed", "2", "--out", str(cb_path)]
        ) == 0
        out = tmp_path / "sweep.csv"
        rc = main(
            ["sweep", "--codebook", str(cb_path), "--model", "erasure",
             "--param", "p", "--values", "0.0", "0.3", "--trials", "3000",
             "--format", "csv", "--out", str(out)]
        )
        assert rc == 0
        rows = read_csv(out)
        assert [float(r["value"]) for r in rows] == [0.0, 0.3]
        assert all(0.0 <= float(r["p_hat"]) <= 1.0 for r in rows)

    def test_n_sweep(self, tmp_path):
        cb_path = tmp_path / "cb.json"
        assert main(
            ["codebook", "--M", "8", "--inner-size", "32", "--N", "8",
             "--target-J", "8", "--cap", "7", "--seed", "2", "--out", str(cb_path)]
        ) == 0
        out = tmp_path / "sweep.json"
        rc = main(
            ["sweep", "--codebook", str(cb_path), "--model", "none",
             "--param", "N", "--values", "4", "16", "--trials", "3000",
             "--out", str(out)]
        )
        assert rc == 0
        rows = read_json(out)["rows"]
        # more reads can only help a clean channel
        assert rows[1]["p_hat"] <= rows[0]["p_hat"] + 0.05

    def test_score_route_per_value(self, tmp_path):
        out = tmp_path / "sweep.json"
        # erasures are decided by cover words at every p and every J; past
        # them, random substitutions of 65 codewords of 16 molecules out of
        # 256 send a trial to the index while it looks up few molecules, to
        # the product once p = 0.9 replaces most reads, and p = 0 is the
        # error-free model
        small = ["--M", "8", "--inner-size", "32", "--N", "12", "--target-J", "16"]
        wide = ["--M", "16", "--inner-size", "256", "--N", "16", "--target-J", "65"]
        cases = (
            (small, "erasure", "distinct_intersection", ["0.05", "0.9"], ["cover"] * 2),
            (wide, "erasure", "multiplicity_count", ["0.05", "0.9"], ["cover"] * 2),
            (wide, "random", "distinct_intersection", ["0.0", "0.05", "0.9"],
             ["cover", "sparse", "dense"]),
        )
        for build, model, rule, values, routes in cases:
            cb_path = tmp_path / "cb.json"
            assert main(
                ["codebook", *build, "--cap", "6", "--seed", "5", "--out", str(cb_path)]
            ) == 0
            assert main(
                ["sweep", "--codebook", str(cb_path), "--model", model,
                 "--decoder", rule, "--param", "p", "--values", *values,
                 "--trials", "500", "--out", str(out)]
            ) == 0
            assert read_json(out)["metadata"]["score_route"] == routes

    def test_codebook_loaded_once(self, tmp_path, monkeypatch):
        cb_path = tmp_path / "cb.json"
        assert main(
            ["codebook", "--M", "8", "--inner-size", "32", "--N", "8",
             "--target-J", "8", "--cap", "7", "--seed", "2", "--out", str(cb_path)]
        ) == 0
        loads = []

        def counting_load(path):
            loads.append(path)
            return load_codebook(path)

        monkeypatch.setattr(cbk, "load_codebook", counting_load)
        rc = main(
            ["sweep", "--codebook", str(cb_path), "--model", "erasure",
             "--param", "p", "--values", "0.1", "0.2", "0.3", "--trials", "500",
             "--out", str(tmp_path / "sweep.json")]
        )
        assert rc == 0
        assert len(loads) == 1

    def test_n_values_must_be_integers(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        rc = main(
            ["sweep", "--M", "8", "--inner-size", "32", "--N", "8", "--target-J",
             "8", "--cap", "7", "--param", "N", "--values", "4", "12.7",
             "--out", str(out)]
        )
        assert rc == 2
        assert "12.7" in capsys.readouterr().err
        assert not out.exists()

    def test_p_under_the_none_model_exits_2(self, tmp_path, capsys, monkeypatch):
        # the none model ignores p, so every swept value, NaN included,
        # would run one and the same estimate
        monkeypatch.chdir(tmp_path)
        argv = ["sweep", "--M", "8", "--inner-size", "32", "--N", "8", "--target-J",
                "8", "--cap", "7", "--param", "p", "--values", "nan", "--trials", "100"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "none model" in captured.err
        assert main(argv + ["--out", str(tmp_path / "sweep.json")]) == 2
        assert os.listdir(tmp_path) == []

    def test_needs_values(self, tmp_path):
        rc = main(["sweep", "--param", "p", "--out", str(tmp_path / "x.json")])
        assert rc == 2


class TestAtomicOutput:
    def test_failed_dump_keeps_the_old_file(self, tmp_path):
        out = tmp_path / "report.json"
        cli._dump_json(out, {"a": 1})
        before = out.read_bytes()
        # _json_default rejects an object, and allow_nan=False a non-finite
        # float, after "a" is written
        with pytest.raises(TypeError):
            cli._dump_json(out, {"a": 2, "b": object()})
        with pytest.raises(ValueError):
            cli._dump_json(out, {"a": 2, "x": float("inf")})
        assert out.read_bytes() == before
        assert os.listdir(tmp_path) == ["report.json"]

    def test_write_replaces_with_plain_permissions(self, tmp_path):
        out = tmp_path / "report.json"
        out.write_text("old\n")
        cli._dump_json(out, {"a": [1, 2]})
        assert read_json(out) == {"a": [1, 2]}
        assert os.listdir(tmp_path) == ["report.json"]
        plain = tmp_path / "plain.json"
        with open(plain, "w"):
            pass
        assert out.stat().st_mode == plain.stat().st_mode

    @pytest.mark.parametrize("out", [None, "-"])
    def test_stdout_unchanged(self, out, capsys):
        cli._dump_json(out, {"a": 1})
        assert json.loads(capsys.readouterr().out) == {"a": 1}


class TestConfigOutput:
    def test_config_supplies_format_and_out(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"format": "csv", "out": str(out), "c": [1.5], "delta": [0.5]}
        ))
        assert main(["exponent", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == ""
        (row,) = read_csv(out)
        assert float(row["c"]) == 1.5
        # explicit flags win
        flagged = tmp_path / "o.json"
        assert main(
            ["exponent", "--config", str(cfg), "--format", "json", "--out", str(flagged)]
        ) == 0
        assert read_json(flagged)["rows"][0]["c"] == 1.5

    def test_config_format_is_checked(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"format": "xml", "out": str(tmp_path / "o.xml")}))
        assert main(["exponent", "--config", str(cfg)]) == 2
        assert os.listdir(tmp_path) == ["cfg.json"]


CODEBOOK_HEAD = {"format_version": 1, "index_based": False, "group_size": None,
                 "scaling": {"M": 2, "inner_size": 4, "N": 2, "J": 2}}


class TestBadInputFiles:
    """A bad --config or --codebook file exits 2 with a message, not a
    traceback, and no output file is written."""

    @pytest.mark.parametrize(
        "flag, text",
        [
            ("--config", None),
            ("--config", "{not json"),
            ("--codebook", None),
            ("--codebook", "{not json"),
            ("--codebook", "[]"),
            ("--codebook", json.dumps(CODEBOOK_HEAD)),
            ("--codebook", json.dumps(
                {**CODEBOOK_HEAD, "scaling": {"inner_size": 4, "N": 2}, "codewords": []}
            )),
            ("--codebook", json.dumps({**CODEBOOK_HEAD, "codewords": [[1, 2]]})),
            ("--codebook", json.dumps({**CODEBOOK_HEAD, "scaling": "x", "codewords": []})),
        ],
        ids=["missing-config", "config-not-json", "missing-codebook",
             "codebook-not-json", "codebook-list", "codebook-without-codewords",
             "scaling-without-M", "codeword-of-numbers", "scaling-not-object"],
    )
    def test_exits_2_and_writes_nothing(self, tmp_path, capsys, flag, text):
        path = tmp_path / "input.json"
        if text is not None:
            path.write_text(text)
        before = sorted(os.listdir(tmp_path))
        rc = main(
            ["simulate", flag, str(path), "--trials", "10",
             "--out", str(tmp_path / "sim.json")]
        )
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert sorted(os.listdir(tmp_path)) == before


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_workers_below_one_exit_2(tmp_path, capsys, workers):
    out = tmp_path / "sim.json"
    rc = main(
        ["simulate", "--M", "8", "--inner-size", "32", "--N", "8", "--target-J", "8",
         "--cap", "7", "--trials", "100", "--workers", workers, "--out", str(out)]
    )
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "args, named",
    [
        (["simulate", "--M", "8", "--inner-size", "32", "--N", "8", "--target-J", "8",
          "--cap", "7", "--trials", "100", "--epsilon", "nan"], "nan"),
        (["simulate", "--M", "8", "--inner-size", "32", "--N", "8", "--target-J", "8",
          "--cap", "7", "--trials", "100", "--epsilon", "inf"], "inf"),
        (["exponent", "--c", "1.5", "--delta", "0.5", "--tol", "inf"], "inf"),
        (["exponent", "--c", "0.1", "--delta", "0.9", "--tol", "inf"], "inf"),
        (["occupancy", "--c", "1e308", "--delta", "0.5", "--M-grid", "10"], "inf"),
        (["occupancy", "--c", "inf", "--delta", "0.5", "--M-grid", "10"], "inf"),
    ],
    ids=["epsilon-nan", "epsilon-inf", "tol-inf", "tol-inf-zero-exponent",
         "c-overflows", "c-inf"],
)
def test_non_finite_values_exit_2(tmp_path, capsys, args, named):
    # JSON has no NaN or Infinity, and a report holding one is not JSON
    out = tmp_path / "report.json"
    assert main(args + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert not out.exists()


BUILD = ["--M", "8", "--inner-size", "32", "--N", "8", "--target-J", "8", "--cap", "7"]


@pytest.mark.parametrize(
    "command, config, key",
    [
        (["simulate", *BUILD], {"trials": "abc"}, "trials"),
        (["sweep", *BUILD, "--model", "erasure"], {"values": "0.5"}, "values"),
        (["codebook"], {"M": [1]}, "M"),
    ],
    ids=["simulate-trials", "sweep-values", "codebook-M"],
)
def test_unconvertible_config_values_exit_2(tmp_path, capsys, command, config, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out.json"
    assert main(command + ["--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {key} ") and "Traceback" not in err
    assert os.listdir(tmp_path) == ["cfg.json"]


def test_null_config_values_take_the_defaults(tmp_path):
    # JSON null means the key is not given
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": None, "workers": None, "trials": None,
                               "epsilon": None, "model": None}))
    out = tmp_path / "sim.json"
    assert main(["simulate", *BUILD, "--config", str(cfg), "--out", str(out)]) == 0
    resolved = read_json(out)["config"]
    assert (resolved["seed"], resolved["workers"], resolved["trials"]) == (0, 1, 10_000)
    assert (resolved["epsilon"], resolved["model"]) == (0.05, "none")


TINY = ["--M", "4", "--inner-size", "8", "--N", "4", "--target-J", "4", "--cap", "3"]


@pytest.mark.parametrize(
    "args, rc, message",
    [
        (["codebook", *TINY, "--seed", "-1"], 2, "error: seed must lie in"),
        (["simulate", *TINY, "--trials", "10", "--seed", str(2**130)], 2,
         "error: seed must lie in"),
        (["codebook", *TINY[:6], "--target-J", str(10**12), "--cap", "3"], 4,
         "capacity guard: 1000000000000 codewords"),
        (["simulate", "--M", "4", "--inner-size", str(2**130), *TINY[4:],
          "--trials", "10"], 4, "capacity guard: 4 codewords of 4 molecules out of"),
        (["codebook", "--kind", "repetition", "--t", "0.5", "--M", "4", "--inner-size",
          str(10**12), "--target-J", "3"], 4, "capacity guard: 3 codewords"),
    ],
    ids=["negative-seed", "seed-past-philox-key", "codewords-past-cap",
         "inner-past-int64", "repetition-inner-past-cap"],
)
def test_builds_past_their_seed_or_cap_write_nothing(tmp_path, capsys, args, rc,
                                                      message):
    # these ended in a traceback (exit 1), a repetition codebook's file
    # left behind, before the builder and the index checked them
    assert main(args + ["--out", str(tmp_path / "out.json")]) == rc
    err = capsys.readouterr().err
    assert err.startswith(message) and "Traceback" not in err
    assert os.listdir(tmp_path) == []


def test_loaded_codebook_past_the_index_cap_exits_4(tmp_path, capsys):
    # a stored codebook over 10^12 molecules: the inverted index over them
    # would take 8 TB
    cb_path = tmp_path / "cb.json"
    cbk.save_codebook(
        cbk.codebook_from_dict(
            {"format_version": 1, "index_based": False, "group_size": None,
             "scaling": {"M": 2, "inner_size": 10**12, "N": 4, "J": 2},
             "codewords": [[[0, 1], [1, 1]], [[2, 1], [3, 1]]]}
        ),
        cb_path,
    )
    out = tmp_path / "sim.json"
    assert main(["simulate", "--codebook", str(cb_path), "--trials", "10",
                 "--out", str(out)]) == 4
    assert capsys.readouterr().err.startswith("capacity guard: an index over")
    assert not out.exists()


@pytest.mark.parametrize(
    "command",
    [["exponent", "--c", "1.5", "--delta", "0.5"],
     ["occupancy", "--c", "1.5", "--delta", "0.5", "--M-grid", "4"],
     ["occupancy", "--dist-M", "4", "--dist-N", "6"]],
    ids=["exponent", "occupancy-convergence", "occupancy-distribution"],
)
def test_config_seed_must_be_an_integer(tmp_path, capsys, command):
    # the echoed seed was copied from the config unread, so a NaN seed
    # made the report invalid JSON
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"seed": NaN}')
    out = tmp_path / "out.json"
    assert main(command + ["--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read seed ")
    assert os.listdir(tmp_path) == ["cfg.json"]
