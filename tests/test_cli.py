"""End-to-end subcommand behavior, exit codes, and output determinism."""

import contextlib
import csv
import hashlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import oracle_relocate, random_hypergraph
from hyperlp import Hypergraph, clique_expand, cli, heuristics, latent, relocation
from hyperlp.datasets import load_benson, load_plain, save_plain
from hyperlp.cli import main
from hyperlp.config import ConfigError, ModelConfig, parse_model_config, resolve_model
from hyperlp.evaluation import SplitSpec

MODEL_CFG = """\
n = 25
d = 2
seed = 11
percentiles = 5 15
phi = 0.3 0.4
"""


@pytest.fixture
def toy_file(tmp_path):
    p = tmp_path / "toy.hyg"
    p.write_text("a b c\nd e\n")
    return p


@pytest.fixture
def cfg_file(tmp_path):
    p = tmp_path / "model.cfg"
    p.write_text(MODEL_CFG)
    return p


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def _cfg_text(value) -> str:
    """A config value as its line writes it; ``repr`` of a float reads back exactly."""
    return " ".join(map(repr, value)) if isinstance(value, tuple) else repr(value)


def _refused(check) -> bool:
    try:
        check()
    except ValueError:
        return True
    return False


# (key, a value its rule refuses); phi is for percentiles 5 15, and never of
# three values, which the parser would read as a size-1 entry and drop
_FLOATS = st.floats(-10, 200) | st.sampled_from([math.nan, math.inf, -math.inf])
BAD_CONFIG_VALUES = st.one_of(
    st.tuples(st.just("n"), st.integers(-5, 1)),
    st.tuples(
        st.just("n"),
        st.lists(st.integers(-5, 40), min_size=2, max_size=4).map(tuple).filter(lambda g: min(g) < 2),
    ),
    st.tuples(st.just("d"), st.integers(-5, 0)),
    st.tuples(st.sampled_from(["seed", "max_potential", "replicates"]), st.integers(-10**6, -1)),
    st.tuples(st.just("alpha"), st.floats(max_value=0) | st.sampled_from([math.inf, math.nan])),
    st.tuples(st.just("gamma"), st.sampled_from([math.inf, -math.inf, math.nan])),
    st.tuples(
        st.just("percentiles"),
        st.lists(_FLOATS, max_size=4).map(tuple).filter(
            lambda p: _refused(lambda: ModelConfig(n=10, percentiles=p))
        ),
    ),
    st.tuples(
        st.just("phi"),
        st.lists(_FLOATS, min_size=1, max_size=4).map(tuple).filter(
            lambda p: len(p) != 3 and (len(p) != 2 or not all(0 <= x <= 1 for x in p))
        ),
    ),
)


class TestConfigParsing:
    def test_round_trip(self):
        cfg = parse_model_config(MODEL_CFG)
        assert cfg.n == 25 and cfg.d == 2 and cfg.seed == 11
        assert cfg.percentiles == (5.0, 15.0)
        assert cfg.phi == (0.3, 0.4)

    def test_preset_phi(self):
        cfg = parse_model_config("n = 10\nphi = power_law\n")
        assert cfg.phi == "power_law"

    def test_error_carries_line_number(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_model_config("n = 10\nd = 2\npercentiles = 9 5\n")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="line 2.*unknown key"):
            parse_model_config("n = 10\nbogus = 1\n")

    def test_missing_n(self):
        with pytest.raises(ConfigError, match="missing required key"):
            parse_model_config("d = 2\n")

    def test_size_one_phi_entry_dropped(self):
        cfg = parse_model_config("n = 10\npercentiles = 5 15\nphi = 0.9 0.3 0.4\n")
        assert cfg.phi == (0.3, 0.4)

    def test_grid_lists(self):
        cfg = parse_model_config("n = 10 20\nd = 2 3\n")
        assert cfg.n_list == (10, 20) and cfg.d_list == (2, 3)

    @pytest.mark.parametrize("text, message", [
        ("n = 10 1\n", "line 1: n must be >= 2, got 1"),
        ("n = 1\n", "line 1: n must be >= 2, got 1"),
        ("n = 10\nd = 2 0 3\n", "line 2: d must be >= 1, got 0"),
    ])
    def test_grid_value_out_of_range(self, text, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            parse_model_config(text)

    @settings(max_examples=150, deadline=None)
    @given(case=BAD_CONFIG_VALUES)
    def test_record_rule_with_the_line(self, case):
        # the record refuses by the field's name; the parser only adds the line
        key, value = case
        if key == "n":
            grid = value if isinstance(value, tuple) else (value,)
            fields = {"n": grid[0], "n_list": grid if len(grid) > 1 else ()}
            text, line = f"n = {_cfg_text(value)}\n", 1
        else:
            fields = {"n": 10, "percentiles": (5.0, 15.0), key: value}
            text = "".join(f"{k} = {_cfg_text(v)}\n" for k, v in fields.items())
            line = list(fields).index(key) + 1
        with pytest.raises(ValueError) as built:
            ModelConfig(**fields)
        message = str(built.value)
        assert message.startswith(f"{key} ")
        with pytest.raises(ConfigError) as parsed:
            parse_model_config(text)
        assert str(parsed.value) == f"line {line}: {message}"

    def test_unknown_phi_preset_refused_when_built(self):
        with pytest.raises(ValueError, match="^phi must be one of power_law, .*, got 'zipf'$"):
            ModelConfig(n=10, phi="zipf")


class TestEvaluate:
    def test_toy_loo_auc(self, toy_file, tmp_path, capsys):
        out = tmp_path / "report"
        code = main([
            "evaluate", "--data", str(toy_file), "--algorithms", "cn",
            "--protocol", "loo", "--runs", "0", "--out", str(out),
        ])
        assert code == 0
        rows = read_csv(out.with_suffix(".csv"))
        assert rows[0][:5] == ["dataset", "scorer", "protocol", "auc", "auc_conditional"]
        assert rows[1][1] == "cn"
        assert float(rows[1][3]) == 0.875
        payload = json.loads(out.with_suffix(".json").read_text())
        assert payload["results"][0]["auc"] == 0.875
        assert out.with_suffix(".manifest.json").exists()

    def test_rerun_byte_identical_csv(self, toy_file, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            main([
                "evaluate", "--data", str(toy_file), "--algorithms", "cn,aa",
                "--runs", "2", "--seed", "5", "--out", str(out),
            ])
        assert out1.with_suffix(".csv").read_bytes() == out2.with_suffix(".csv").read_bytes()

    def test_repeated_algorithm_runs_once(self, toy_file, tmp_path):
        for command in ("evaluate", "adjust"):
            out = tmp_path / command
            assert main([
                command, "--data", str(toy_file), "--algorithms", "cn,aa,cn",
                "--runs", "1", "--out", str(out),
            ]) == 0
            rows = read_csv(out.with_suffix(".csv"))
            if command == "evaluate":
                assert [row[1] for row in rows[1:]] == ["cn", "aa"]
            else:
                assert rows[0][1::5] == ["cn_auc", "aa_auc"] and len(rows[0]) == 11

    def test_negative_runs_exit_2(self, toy_file, capsys):
        assert main(["evaluate", "--data", str(toy_file), "--runs", "-2"]) == 2
        assert "--runs must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flag, value, message",
        [
            ("adjust", "--runs", "0", "--runs must be >= 1, got 0"),
            ("adjust", "--rho", "1.5", "--rho must be in (0, 1), got 1.5"),
            ("evaluate", "--d-hop", "1", "--d-hop must be >= 2, got 1"),
            ("adjust", "--negative-ratio", "0", "--negative-ratio must be finite and > 0, got 0.0"),
        ],
    )
    def test_bad_flag_value_named_exit_2(self, tmp_path, capsys, command, flag, value, message):
        # refused by the flag's name before the data is read (the file is
        # missing), not by the library's field name
        argv = [command, "--data", str(tmp_path / "missing.hyg"), "--protocol", "split",
                flag, value, "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @settings(max_examples=60, deadline=None)
    @given(
        command=st.sampled_from(["evaluate", "adjust"]),
        protocol=st.sampled_from(["loo", "split"]),
        case=st.one_of(
            st.tuples(st.just("rho"), st.floats(max_value=0) | st.floats(min_value=1)
                      | st.just(math.nan)),
            st.tuples(st.just("d_hop"), st.integers(-5, 1)),
            st.tuples(st.just("negative_ratio"), st.floats(max_value=0)
                      | st.sampled_from([math.inf, math.nan])),
        ),
    )
    def test_spec_rule_with_the_flag(self, command, protocol, case):
        # the record refuses by the field's name; the CLI only renames it to
        # the flag, for either protocol, before the (missing) data is read
        key, value = case
        with pytest.raises(ValueError) as built:
            SplitSpec(**{key: value})
        field, rule = str(built.value).split(" ", 1)
        assert field == key
        flag = "--" + key.replace("_", "-")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, "--data", "missing.hyg", "--protocol", protocol,
                         f"{flag}={value!r}"])
        assert (code, err.getvalue()) == (2, f"error: {flag} {rule}\n")

    def test_unknown_algorithm_usage_error(self, toy_file):
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--data", str(toy_file), "--algorithms", "katz"])
        assert exc.value.code == 2

    def test_missing_file_is_data_error(self, tmp_path):
        assert main(["evaluate", "--data", str(tmp_path / "nope.hyg")]) == 3

    def test_all_scorers_failing_for_the_data_exit_2(self, tmp_path, capsys):
        # complete expansion leaves no negatives, so every scorer fails
        full = tmp_path / "complete.hyg"
        full.write_text("a b c\n")
        assert main([
            "evaluate", "--data", str(full), "--algorithms", "cn",
            "--protocol", "loo", "--runs", "0",
        ]) == 2
        assert capsys.readouterr().err == "error: leave-one-out needs at least one non-edge\n"

    def test_negative_ratio_asking_for_no_negative_exit_2(self, tmp_path, capsys):
        # 11 edges, so the split holds out 3 and 0.1 * 3 rounds to 0, though
        # two-hop non-links exist
        data = tmp_path / "split.hyg"
        data.write_text("a b c\nc d\nd e f\nf g\ng h a\n")
        assert main([
            "evaluate", "--data", str(data), "--protocol", "split",
            "--negative-ratio", "0.1", "--runs", "0", "--algorithms", "cn",
        ]) == 2
        assert capsys.readouterr().err == (
            "error: negative_ratio 0.1 of 3 test positives rounds to 0 negatives\n"
        )

    @pytest.mark.parametrize("command", ["evaluate", "adjust"])
    def test_every_relocation_complete_exit_2(self, tmp_path, capsys, command):
        # 40 size-4 hyperedges over 5 vertices: the expansion misses only
        # {0, 1}, but every relocation expands to the complete graph
        dense = tmp_path / "dense.hyg"
        dense.write_text("v0 v2 v3 v4\n" * 20 + "v1 v2 v3 v4\n" * 20)
        assert main([
            command, "--data", str(dense), "--algorithms", "cn,aa",
            "--protocol", "loo", "--runs", "2",
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: every relocation run failed: seed ")
        assert err.count("leave-one-out needs at least one non-edge") == 2

    @pytest.mark.parametrize("command", ["evaluate", "adjust"])
    def test_all_scorers_failing_internally_exit_4(self, toy_file, break_scorer, capsys, command):
        break_scorer("cn")
        assert main([
            command, "--data", str(toy_file), "--algorithms", "cn", "--runs", "2",
        ]) == 4
        assert "internal error: " in capsys.readouterr().err

    def test_failed_allocation_is_a_resource_limit_exit_2(self, toy_file, monkeypatch, capsys):
        def allocate(*args):
            raise MemoryError("Unable to allocate 1.35 GiB for an array")

        monkeypatch.setattr(cli, "evaluate_protocol", allocate)
        assert main([
            "evaluate", "--data", str(toy_file), "--algorithms", "cn", "--runs", "0",
        ]) == 2
        assert capsys.readouterr().err == "error: Unable to allocate 1.35 GiB for an array\n"

    def test_simrank_budget_exit_2_before_any_solve(self, toy_file, monkeypatch, capsys):
        # the toy expansion has 4 edges on 5 vertices: 4 * 5**3 = 500 units
        monkeypatch.setattr(heuristics, "SIMRANK_LOO_BUDGET", 499)

        def solve(*args):
            raise AssertionError("a SimRank solve ran")

        monkeypatch.setattr(heuristics, "_simrank_iterate", solve)
        for command, runs in (("evaluate", "0"), ("evaluate", "2"), ("adjust", "2")):
            assert main([
                command, "--data", str(toy_file), "--algorithms", "cn,sr",
                "--protocol", "loo", "--runs", runs,
            ]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: leave-one-out SimRank needs 4 solves on n=5")
            assert "cap of 499" in err

    def test_split_protocol(self, tmp_path):
        ring = tmp_path / "ring.hyg"
        ring.write_text("\n".join(f"v{i} v{(i + 1) % 40}" for i in range(40)) + "\n")
        out = tmp_path / "split"
        code = main([
            "evaluate", "--data", str(ring), "--algorithms", "cn",
            "--protocol", "split", "--rho", "0.8", "--runs", "0",
            "--seed", "3", "--out", str(out),
        ])
        assert code == 0
        rows = read_csv(out.with_suffix(".csv"))
        assert rows[1][2] == "split"
        assert int(rows[1][5]) == 8  # 20% of 40 edges held out


    @pytest.mark.parametrize("runs", ["0", "2"])
    def test_failing_scorer_reported_in_errors(self, toy_file, tmp_path, break_scorer, runs):
        break_scorer("aa")
        out = tmp_path / "report"
        assert main([
            "evaluate", "--data", str(toy_file), "--algorithms", "cn,aa",
            "--runs", runs, "--out", str(out),
        ]) == 0
        payload = json.loads(out.with_suffix(".json").read_text())
        assert [r["scorer"] for r in payload["results"]] == ["cn"]
        assert payload["results"][0]["auc"] == 0.875
        assert payload["errors"] == {"aa": "aa is broken"}

    @pytest.mark.parametrize("command, runs", [("evaluate", "0"), ("evaluate", "2"), ("adjust", "2")])
    @pytest.mark.parametrize("failure, code", [
        ("no-non-edge", 2), ("simrank-budget", 2), ("missing-file", 3), ("broken-scorer", 4),
    ])
    def test_failed_run_writes_nothing(
        self, toy_file, tmp_path, monkeypatch, break_scorer, capsys, command, runs, failure, code
    ):
        data, scorers = toy_file, "cn"
        if failure == "no-non-edge":
            data = tmp_path / "complete.hyg"
            data.write_text("a b c\n")
        elif failure == "simrank-budget":
            monkeypatch.setattr(heuristics, "SIMRANK_LOO_BUDGET", 499)
            scorers = "cn,sr"
        elif failure == "missing-file":
            data = tmp_path / "nope.hyg"
        else:
            break_scorer("cn")
        out = tmp_path / "out" / "report"
        assert main([
            command, "--data", str(data), "--algorithms", scorers, "--runs", runs, "--out", str(out),
        ]) == code
        assert capsys.readouterr().out == ""
        assert not out.parent.exists()


class TestGenerate:
    def test_deterministic_outputs(self, cfg_file, tmp_path):
        out1, out2 = tmp_path / "g1", tmp_path / "g2"
        assert main(["generate", "--config", str(cfg_file), "--out", str(out1)]) == 0
        assert main(["generate", "--config", str(cfg_file), "--out", str(out2)]) == 0
        assert out1.with_suffix(".hyg").read_bytes() == out2.with_suffix(".hyg").read_bytes()
        summary = json.loads(out1.with_suffix(".summary.json").read_text())
        assert summary["seed"] == 11
        assert summary["manifest"]["subcommand"] == "generate"

    def test_invalid_percentiles_exit_2(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("n = 10\npercentiles = 9 5\n")
        assert main(["generate", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize(
        "entry",
        ["alpha = abc", "gamma = x1", "alpha = 0", "alpha = -2", "percentiles = 50 150",
         "percentiles = 0 5", "max_potential = -5", "seed = 1.5", "seed = -1",
         "alpha = inf", "alpha = nan", "gamma = inf", "gamma = -inf", "gamma = nan"],
    )
    def test_config_value_error_names_its_line(self, tmp_path, capsys, entry):
        # each was "could not convert string to float" with no line, or a
        # run-time failure, before the parser checked it
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"n = 10\nd = 2\n{entry}\n")
        assert main(["generate", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.startswith(f"error: line 3: {entry.split()[0]} ")

    def test_resource_limit_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "capped.cfg"
        cfg.write_text("n = 30\nmax_potential = 10\n")
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.startswith("error: candidate enumeration exceeded")

    def test_seed_override(self, cfg_file, tmp_path):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        main(["generate", "--config", str(cfg_file), "--out", str(out1), "--seed", "99"])
        main(["generate", "--config", str(cfg_file), "--out", str(out2)])
        assert (
            out1.with_suffix(".hyg").read_bytes() != out2.with_suffix(".hyg").read_bytes()
        )


class TestStatsAndFits:
    def test_stats_csv(self, toy_file, tmp_path):
        out = tmp_path / "stats"
        assert main(["stats", "--data", str(toy_file), "--out", str(out)]) == 0
        rows = read_csv(out.with_suffix(".csv"))
        assert rows[1][1:5] == ["5", "2", "4", "3"]

    def test_stats_benson_pair(self, tmp_path):
        (tmp_path / "nv.txt").write_text("3\n2\n")
        (tmp_path / "sx.txt").write_text("1\n2\n3\n4\n5\n")
        out = tmp_path / "stats"
        code = main([
            "stats", "--nverts", str(tmp_path / "nv.txt"),
            "--simplices", str(tmp_path / "sx.txt"), "--out", str(out),
        ])
        assert code == 0
        assert read_csv(out.with_suffix(".csv"))[1][1] == "5"
        manifest = json.loads(out.with_suffix(".manifest.json").read_text())
        bundle = load_benson(tmp_path / "nv.txt", tmp_path / "sx.txt")  # checksums from the loader
        assert manifest["input_checksums"] == {
            "nverts": bundle.provenance["nverts_sha256"],
            "simplices": bundle.provenance["simplices_sha256"],
        }

    def test_benson_mismatch_exit_3(self, tmp_path):
        (tmp_path / "nv.txt").write_text("3\n")
        (tmp_path / "sx.txt").write_text("1\n2\n")
        assert main([
            "stats", "--nverts", str(tmp_path / "nv.txt"),
            "--simplices", str(tmp_path / "sx.txt"),
        ]) == 3

    def test_benson_negative_size_exit_3(self, tmp_path, capsys):
        # sizes 2 -1 2 over three ids sum right, but name no real hyperedge
        (tmp_path / "nv.txt").write_text("2\n-1\n2\n")
        (tmp_path / "sx.txt").write_text("10\n20\n30\n")
        assert main([
            "expand", "--nverts", str(tmp_path / "nv.txt"),
            "--simplices", str(tmp_path / "sx.txt"),
        ]) == 3
        assert "negative hyperedge size -1" in capsys.readouterr().err

    def test_data_with_paired_format_exit_2(self, toy_file, tmp_path, capsys):
        (tmp_path / "nv.txt").write_text("3\n2\n")
        (tmp_path / "sx.txt").write_text("1\n2\n3\n4\n5\n")
        pair = ["--nverts", str(tmp_path / "nv.txt"), "--simplices", str(tmp_path / "sx.txt")]
        out = tmp_path / "out" / "stats"
        for data in (toy_file, tmp_path / "nope.hyg"):  # a missing --data is no data error
            assert main(["stats", "--data", str(data), *pair, "--out", str(out)]) == 2
            assert capsys.readouterr().err == (
                "error: give either --data or --nverts/--simplices, not both\n"
            )
        assert not out.parent.exists()

    def test_fit_sizes(self, tmp_path):
        lines = []
        for k, reps in ((2, 400), (3, 120), (4, 50), (5, 26)):
            for i in range(reps):
                lines.append(" ".join(f"v{k}_{i}_{j}" for j in range(k)))
        data = tmp_path / "sizes.hyg"
        data.write_text("\n".join(lines) + "\n")
        out = tmp_path / "fit"
        assert main(["fit-sizes", "--data", str(data), "--out", str(out)]) == 0
        payload = json.loads(out.with_suffix(".json").read_text())
        assert payload["method"] == "mle"
        assert 1.0 < payload["zeta"] < 4.0


class TestExpand:
    def test_edge_list(self, toy_file, tmp_path):
        out = tmp_path / "edges"
        assert main(["expand", "--data", str(toy_file), "--out", str(out)]) == 0
        rows = read_csv(out.with_suffix(".csv"))
        assert rows[0] == ["u", "v"]
        assert sorted(map(tuple, rows[1:])) == [
            ("a", "b"), ("a", "c"), ("b", "c"), ("d", "e"),
        ]


class TestScan:
    def test_rows_and_header(self, tmp_path):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text("n = 18\nd = 2\nseed = 4\npercentiles = 6 14\nphi = 0.0 0.5\nreplicates = 3\n")
        out = tmp_path / "scan"
        assert main(["scan", "--config", str(cfg), "--algorithms", "cn", "--out", str(out)]) == 0
        rows = read_csv(out.with_suffix(".csv"))
        assert rows[0][:6] == ["n", "d", "percentiles", "phi", "scorer", "seed"]
        assert len(rows) == 4

    def test_zero_replicates_header_only(self, tmp_path):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text("n = 18\npercentiles = 6 14\nphi = 0.0 0.5\nreplicates = 0\n")
        out = tmp_path / "scan"
        assert main(["scan", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(read_csv(out.with_suffix(".csv"))) == 1

    def test_geometry_dependent_presets_resolve_per_replicate(self, tmp_path):
        # both presets were refused (exit 2); each replicate now resolves
        # its own phi from its own geometry, as generate does, alpha included
        for preset in ("hoff_sigmoid", "empirical"):
            cfg = tmp_path / f"{preset}.cfg"
            cfg.write_text(
                f"n = 18\nseed = 2\npercentiles = 6 14\nphi = {preset}\nalpha = 4\n"
                "replicates = 3\n"
            )
            out = tmp_path / preset
            argv = ["scan", "--config", str(cfg), "--algorithms", "cn", "--out", str(out)]
            assert main(argv) == 0
            rows = read_csv(out.with_suffix(".csv"))[1:]
            model = parse_model_config(cfg.read_text())
            for row in rows:
                phi = resolve_model(model, int(row[5]))[2]
                assert row[3] == " ".join(str(x) for x in phi.tolist()) and not row[9]
            assert len({row[3] for row in rows}) == 3, preset

    def test_failed_model_rows_name_the_preset(self, tmp_path):
        # the candidate cap stops the model before phi is resolved
        cfg = tmp_path / "scan.cfg"
        cfg.write_text("n = 18\npercentiles = 6 14\nmax_potential = 3\nreplicates = 2\n")
        out = tmp_path / "scan"
        assert main(["scan", "--config", str(cfg), "--algorithms", "cn", "--out", str(out)]) == 0
        rows = read_csv(out.with_suffix(".csv"))[1:]
        assert [row[3] for row in rows] == ["power_law"] * 2
        assert all("cap of 3" in row[9] for row in rows)

    def test_explicit_phi_per_percentile_refused(self, tmp_path, capsys):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text("n = 18\npercentiles = 6 14\nphi = 0.1 0.2 0.3 0.4\n")
        assert main(["scan", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 2
        assert capsys.readouterr().err.startswith("error: line 3: phi needs 2 values")


class TestVerify:
    def test_cc_claim_json(self, tmp_path):
        out = tmp_path / "cc"
        code = main([
            "verify", "--claim", "cc", "--n", "40", "--p", "0.2",
            "--trials", "30", "--seed", "1", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.with_suffix(".json").read_text())
        assert payload["claim"] == "cc"
        assert payload["summaries"]["cc"]["verdict"] in ("pass", "fail")

    def test_json_is_strict_without_nan(self, tmp_path, capsys):
        # with p = 0 there are no triples and the statistic is NaN: the JSON
        # says null, which every RFC 8259 parser reads
        def refuse(name):
            raise AssertionError(f"{name} in the JSON")

        argv = ["verify", "--claim", "cc", "--trials", "30", "--n", "10", "--p", "0"]
        assert main(argv) == 0
        printed = json.loads(capsys.readouterr().out, parse_constant=refuse)
        out = tmp_path / "cc"
        assert main(argv + ["--out", str(out)]) == 0
        for suffix in (".json", ".manifest.json"):
            json.loads(out.with_suffix(suffix).read_text(), parse_constant=refuse)
        written = json.loads(out.with_suffix(".json").read_text())
        assert printed["summaries"]["cc"]["statistic"] is None
        assert written["summaries"] == printed["summaries"]

    def test_non_finite_floats_written_as_null(self, tmp_path):
        # an infinite adjusted AUC (af == 0) reads null in the JSON and
        # the manifest, and the CSV keeps it
        payload = {"auc_adjusted": float("inf"), "runs": [float("-inf"), 0.5],
                   "manifest": {"p": float("nan")}}
        cli._write(cli.Output(payload, ["auc_adjusted"], [[float("inf")]]), str(tmp_path / "r"))
        assert json.loads((tmp_path / "r.json").read_text()) == {
            "auc_adjusted": None, "runs": [None, 0.5], "manifest": {"p": None},
        }
        assert json.loads((tmp_path / "r.manifest.json").read_text()) == {"p": None}
        assert read_csv(tmp_path / "r.csv") == [["auc_adjusted"], ["inf"]]

    def test_relocation_baseline_default_random(self, tmp_path):
        out = tmp_path / "rb"
        code = main([
            "verify", "--claim", "relocation-baseline", "--n", "30",
            "--edges", "60", "--runs", "5", "--algorithms", "cn", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.with_suffix(".json").read_text())
        assert "cn" in payload["summaries"]

    def test_relocation_baseline_data_checksum(self, tmp_path):
        data = tmp_path / "pairs.hyg"
        data.write_text("".join(f"v{i} v{(i * 7 + 3) % 30}\n" for i in range(30)))
        out = tmp_path / "rb"
        assert main([
            "verify", "--claim", "relocation-baseline", "--data", str(data),
            "--runs", "3", "--algorithms", "cn", "--out", str(out),
        ]) == 0
        manifest = json.loads(out.with_suffix(".manifest.json").read_text())
        assert manifest["input_checksums"] == {"data": load_plain(data).provenance["sha256"]}
        assert manifest["input_checksums"]["data"] == hashlib.sha256(data.read_bytes()).hexdigest()

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 40), edges=st.integers(1, 60), seed=st.integers(0, 2**32 - 1))
    def test_relocation_baseline_random_input_is_the_choice_loop(self, n, edges, seed):
        # the input drawn without --data is the hypergraph of one
        # choice(n, 2, replace=False) call per pair on the seed's stream
        rng = np.random.default_rng(seed)
        draws = (rng.choice(n, size=2, replace=False) for _ in range(edges))
        pairs = [[int(a), int(b)] for a, b in draws]
        seen = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "verify_relocation_baseline", lambda h, *args: seen.append(h) or {})
            assert main([
                "verify", "--claim", "relocation-baseline", "--n", str(n),
                "--edges", str(edges), "--seed", str(seed),
            ]) == 0
        assert seen == [Hypergraph(n, pairs)]

    def test_relocation_baseline_simrank_budget_exit_2(self, tmp_path, monkeypatch, capsys):
        # the budget names the solves of the input's own expansion, the
        # first graph adjusted_auc scores
        data = tmp_path / "pairs.hyg"
        data.write_text("".join(f"v{i} v{(i * 7 + 3) % 30}\n" for i in range(30)))
        monkeypatch.setattr(heuristics, "SIMRANK_LOO_BUDGET", 999)
        assert main([
            "verify", "--claim", "relocation-baseline", "--data", str(data),
            "--runs", "3", "--algorithms", "cn,sr",
        ]) == 2
        solves = clique_expand(load_plain(data).hypergraph).edge_count
        assert capsys.readouterr().err.startswith(
            f"error: leave-one-out SimRank needs {solves} solves on n=30 vertices"
        )

    def test_lift_claim_needs_config(self):
        assert main(["verify", "--claim", "cn-lift"]) == 2

    @pytest.mark.parametrize("claim, flag, check", [
        ("cc", "--config", "verify_er_clustering"),
        ("relocation-baseline", "--config", "verify_relocation_baseline"),
        ("er-auc", "--data", "verify_er_auc_baseline"),
        ("cn-lift", "--data", "verify_higher_order_auc_lift"),
    ])
    def test_unread_file_flag_exit_2_before_any_trial(
        self, tmp_path, monkeypatch, capsys, claim, flag, check
    ):
        def no_trial(*args, **kwargs):
            raise AssertionError(f"{check} ran")

        monkeypatch.setattr(cli, check, no_trial)
        args = ["verify", "--claim", claim, flag, str(tmp_path / "missing"), "--trials", "10"]
        if claim == "cn-lift":
            args += ["--config", str(tmp_path / "also-missing.cfg")]
        assert main(args + ["--out", str(tmp_path / "v")]) == 2
        assert f"{flag} is read by" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("claim, given, check, message", [
        ("cc", ["--runs", "7"], "verify_er_clustering",
         "--runs is read by relocation-baseline only, not by cc"),
        ("cc", ["--edges", "9"], "verify_er_clustering", "--edges is read by relocation-baseline"),
        ("cc", ["--algorithms", "pa"], "verify_er_clustering", "--algorithms is read by er-auc"),
        ("cc", ["--chi-square"], "verify_er_clustering", "--chi-square is read by cn-dist only"),
        ("er-auc", ["--runs", "3"], "verify_er_auc_baseline", "--runs is read by"),
        ("cn-lift", ["--n", "40"], "verify_higher_order_auc_lift", "--n is read by cc"),
        ("relocation-baseline", ["--trials", "10"], "verify_relocation_baseline",
         "--trials is read by cc, cn-dist, cn-lift, er-auc only, not by relocation-baseline"),
        ("relocation-baseline", ["--data", "{data}", "--edges", "9"], "verify_relocation_baseline",
         "--edges is not read by relocation-baseline with --data"),
        ("relocation-baseline", ["--runs", "0"], "verify_relocation_baseline",
         "error: --runs must be >= 1, got 0\n"),
        ("relocation-baseline", ["--runs", "-1"], "verify_relocation_baseline",
         "error: --runs must be >= 1, got -1\n"),
        ("relocation-baseline", ["--n", "1"], "verify_relocation_baseline",
         "error: --n must be >= 2, got 1\n"),
        ("relocation-baseline", ["--edges", "0"], "verify_relocation_baseline",
         "error: --edges must be >= 1, got 0\n"),
    ])
    def test_unread_value_flag_exit_2_before_any_trial(
        self, tmp_path, monkeypatch, capsys, claim, given, check, message
    ):
        def no_trial(*args, **kwargs):
            raise AssertionError(f"{check} ran")

        monkeypatch.setattr(cli, check, no_trial)
        monkeypatch.setattr(cli, "relocate", no_trial)  # no random input drawn
        data = tmp_path / "in" / "pairs.hyg"
        data.parent.mkdir()
        data.write_text("v0 v1\n")
        given = [arg.format(data=data) for arg in given]
        out = tmp_path / "out" / "v"
        assert main(["verify", "--claim", claim, *given, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.parent.exists()

    @pytest.mark.parametrize("given, params", [
        (["--claim", "cc", "--n", "40", "--p", "0.2", "--trials", "30"],
         {"claim": "cc", "trials": 30, "n": 40, "p": 0.2}),
        (["--claim", "cn-dist", "--n", "30", "--trials", "30"],
         {"claim": "cn-dist", "trials": 30, "n": 30, "p": 0.1, "chi_square": False}),
        (["--claim", "er-auc", "--n", "20", "--trials", "30", "--algorithms", "cn,pa"],
         {"claim": "er-auc", "trials": 30, "n": 20, "p": 0.1, "algorithms": ["cn", "pa"]}),
        (["--claim", "relocation-baseline", "--n", "30", "--runs", "2", "--algorithms", "cn"],
         {"claim": "relocation-baseline", "data": None, "n": 30, "edges": 200,
          "algorithms": ["cn"], "runs": 2}),
    ])
    def test_manifest_records_every_read_flag(self, tmp_path, given, params):
        out = tmp_path / "v"
        assert main(["verify", *given, "--out", str(out)]) == 0
        manifest = json.loads(out.with_suffix(".manifest.json").read_text())
        assert manifest["params"] == params
        assert json.loads(out.with_suffix(".json").read_text())["manifest"]["params"] == params

    @pytest.mark.parametrize("claim, flag", [
        (claim, flag)
        for claim, (reads, _) in cli.VERIFY_CLAIMS.items()
        for flag in cli._VERIFY_FLAGS
        if flag not in reads
    ] + [("relocation-baseline", "n"), ("relocation-baseline", "edges")])
    def test_every_unread_flag_exit_2(self, tmp_path, monkeypatch, capsys, claim, flag):
        # the last two are read by relocation-baseline, but not with --data
        for check in ("verify_er_clustering", "verify_er_common_neighbors",
                      "verify_er_auc_baseline", "verify_higher_order_auc_lift",
                      "verify_relocation_baseline", "relocate"):
            monkeypatch.setattr(cli, check, lambda *a, **k: pytest.fail(f"{check} ran"))
        values = {"config": str(tmp_path / "x.cfg"), "data": str(tmp_path / "x.hyg"),
                  "trials": "30", "n": "40", "p": "0.2", "algorithms": "cn",
                  "edges": "9", "runs": "3"}
        name = "--" + flag.replace("_", "-")
        given = [name] if flag == "chi_square" else [name, values[flag]]
        reads = cli.VERIFY_CLAIMS[claim][0]
        if flag in reads:
            given += ["--data", values["data"]]
        assert main(["verify", "--claim", claim, *given]) == 2
        err = capsys.readouterr().err
        if flag in reads:
            assert f"error: {name} is not read by {claim} with --data\n" == err
        else:
            readers = [c for c, (r, _) in cli.VERIFY_CLAIMS.items() if flag in r]
            assert f"error: {name} is read by {', '.join(readers)} only, not by {claim}\n" == err

    @pytest.mark.parametrize("claim", list(cli.VERIFY_CLAIMS))
    def test_manifest_params_are_the_table_row(self, tmp_path, claim):
        # each flag of the claim's row given, small; the summaries report
        # the row's id
        cfg = tmp_path / "lift.cfg"
        cfg.write_text("n = 25\nd = 2\nseed = 11\npercentiles = 10 20\nphi = 0 0.5\n")
        values = {"config": [str(cfg)], "trials": ["30"], "n": ["20"], "p": ["0.2"],
                  "chi_square": [], "algorithms": ["cn"], "edges": ["30"], "runs": ["2"]}
        reads, summary_id = cli.VERIFY_CLAIMS[claim]
        given = [arg for f in reads if f != "data" for arg in ["--" + f.replace("_", "-"),
                                                               *values[f]]]
        out = tmp_path / "v"
        assert main(["verify", "--claim", claim, *given, "--out", str(out)]) == 0
        payload = json.loads(out.with_suffix(".json").read_text())
        assert list(payload["manifest"]["params"]) == ["claim", *reads]
        assert {s["claim_id"] for s in payload["summaries"].values()} == {summary_id}

    def test_help_lists_each_claims_flags_and_defaults(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--help"])
        out = capsys.readouterr().out
        assert "  cc (er-clustering): --trials 100, --n 100, --p 0.1\n" in out
        assert ("  relocation-baseline (relocation-baseline): [--data FILE], --n 100, "
                "--edges 200, --algorithms cn,aa,pa,jc,ra, --runs 50\n") in out
        assert "  cn-lift (cn-lift): --config FILE, --trials 100\n" in out
        assert "  cn-dist (er-cn): --trials 100, --n 100, --p 0.1, --chi-square\n" in out
        assert "cc, cn-dist and er-auc need --n >= 10 and --trials >= 30\n" in out
        assert "None" not in out and "False" not in out

    @pytest.mark.parametrize("claim", ["cc", "cn-dist", "er-auc"])
    @pytest.mark.parametrize("flag, value, least", [("n", "9", 10), ("trials", "29", 30)])
    def test_stable_check_bound_names_one_value(self, capsys, claim, flag, value, least):
        # the other value keeps its (valid) default
        assert main(["verify", "--claim", claim, f"--{flag}", value]) == 2
        assert capsys.readouterr().err == f"error: {flag} must be >= {least}, got {value}\n"

    def test_relocation_baseline_wide_ci_is_indeterminate(self, capsys):
        # the mean is within 0.05 of 0.5, but the CI [0.435, 0.607] leaves
        # the band [0.45, 0.55]
        assert main([
            "verify", "--claim", "relocation-baseline", "--n", "30",
            "--edges", "60", "--runs", "5", "--algorithms", "cn",
        ]) == 0
        cn = json.loads(capsys.readouterr().out)["summaries"]["cn"]
        assert (round(cn["ci_low"], 3), round(cn["ci_high"], 3)) == (0.435, 0.607)
        assert cn["verdict"] == "indeterminate"

    def test_lift_manifest_carries_config_checksum(self, tmp_path):
        cfg = tmp_path / "lift.cfg"
        cfg.write_text("n = 25\nd = 2\nseed = 11\npercentiles = 10 20\nphi = 0 0.5\n")
        out = tmp_path / "lift"
        assert main([
            "verify", "--claim", "cn-lift", "--config", str(cfg), "--trials", "10",
            "--out", str(out),
        ]) == 0
        manifest = json.loads(out.with_suffix(".manifest.json").read_text())
        assert manifest["input_checksums"] == {
            "config": hashlib.sha256(cfg.read_bytes()).hexdigest()
        }


class TestAdjust:
    def test_wide_csv_shape(self, toy_file, tmp_path):
        out = tmp_path / "adj"
        code = main([
            "adjust", "--data", str(toy_file), "--algorithms", "cn,aa",
            "--runs", "3", "--seed", "2", "--out", str(out),
        ])
        assert code == 0
        rows = read_csv(out.with_suffix(".csv"))
        assert rows[0] == [
            "dataset",
            "cn_auc", "cn_auc_rel_mean", "cn_auc_rel_std", "cn_af", "cn_auc_adj",
            "aa_auc", "aa_auc_rel_mean", "aa_auc_rel_std", "aa_af", "aa_auc_adj",
        ]
        assert float(rows[1][1]) == 0.875
        payload = json.loads(out.with_suffix(".json").read_text())
        assert payload["reports"]["cn"]["n_runs"] == 3

    def test_failing_scorer_reported_in_errors(self, toy_file, tmp_path, break_scorer):
        break_scorer("aa")
        out = tmp_path / "adj"
        assert main([
            "adjust", "--data", str(toy_file), "--algorithms", "cn,aa",
            "--runs", "2", "--out", str(out),
        ]) == 0
        rows = read_csv(out.with_suffix(".csv"))
        assert float(rows[1][1]) == 0.875 and rows[1][6:] == [""] * 5
        payload = json.loads(out.with_suffix(".json").read_text())
        assert list(payload["reports"]) == ["cn"]
        assert payload["errors"] == {"aa": "aa is broken"}


@pytest.mark.parametrize("command", ["evaluate", "adjust"])
@pytest.mark.parametrize("flag, value, key", [
    ("--rho", "0.7", "rho"),
    ("--d-hop", "3", "d_hop"),
    ("--negatives", "all", "negatives"),
    ("--negative-ratio", "0.5", "negative_ratio"),
    ("--split-seed", "5", "split_seed"),
    ("--seed", "5", "split_seed"),  # the split seed when --split-seed is absent
])
def test_split_manifest_records_protocol_flags(tmp_path, command, flag, value, key):
    # two split runs that differ in one protocol flag write manifests
    # whose params differ in that field alone
    data = tmp_path / "small.hyg"
    save_plain(random_hypergraph(np.random.default_rng(21), 40, 60, max_size=5), data)
    base = [command, "--data", str(data), "--protocol", "split", "--algorithms", "cn",
            "--runs", "1"]
    params = []
    for extra in ([], [flag, value]):
        out = tmp_path / f"run{len(extra)}"
        assert main(base + extra + ["--out", str(out)]) == 0
        params.append(json.loads(out.with_suffix(".manifest.json").read_text())["params"])
    assert params[0]["split_seed"] == 0
    assert {k for k in params[0] if params[0][k] != params[1][k]} == {key}
    assert str(params[1][key]) == value


def test_relocation_draw_keeps_outputs_byte_identical(tmp_path, monkeypatch):
    # evaluate and adjust write the same bytes with the per-hyperedge
    # rng.choice loop in place of relocate
    data = tmp_path / "small.hyg"
    save_plain(random_hypergraph(np.random.default_rng(21), 40, 60, max_size=5), data)
    commands = (["evaluate", "--protocol", "loo"], ["adjust", "--protocol", "split"])
    outputs = {}
    for draw in ("arrays", "oracle"):
        with monkeypatch.context() as patch:
            if draw == "oracle":
                patch.setattr(relocation, "relocate", oracle_relocate)
            for argv in commands:
                out = tmp_path / f"{argv[0]}-{draw}"
                assert main(argv + [
                    "--data", str(data), "--algorithms", "cn,aa,pa",
                    "--runs", "2", "--out", str(out),
                ]) == 0
                payload = json.loads(out.with_suffix(".json").read_text())
                del payload["manifest"]
                outputs[argv[0], draw] = out.with_suffix(".csv").read_bytes(), payload
    for command in ("evaluate", "adjust"):
        assert outputs[command, "arrays"] == outputs[command, "oracle"]


# sha256 of the CSV each command wrote before the protocols returned AUC
# counts instead of score arrays (`adjust-d3` and `adjust-all`: before the
# split protocol moved onto packed rows; `adjust-sparse-d3`, whose train
# graphs do not pack: before its reach left scipy.sparse); a pipeline
# change that moves one output byte fails here
PINNED_CSV = {
    "evaluate": "16eb463cdf4909cea7a30c94386fb586b59a9e0221576df5271c91bde513fcf2",
    "adjust": "75f0b2423ecd202f5b446a6c12f9e9289d7ca3bb1dd7b83f0eb2caad3c9c08c7",
    "adjust-d3": "1b07a977c9891f5c45f338e4af12aed7273a89a943be4a19ca7e631e644443fb",
    "adjust-all": "4345fde5c6046545c80b0fd07d9b162c613d1f5de6293b11aa7d79e821f62fe7",
    "adjust-sparse-d3": "43bed32326e694b5f9ba2a24e1ca7565fe0eac66a3ed968fbf659ce0903489f8",
    "adjust-sparse-all": "5a2c4bcdb04322918c655e98529a81615d9979e95025201ede931cbfe6f185e7",
    "scan": "9c77ab8dec3d4b9ef68d8f7d7addb8c3e56fb58f773fba2d738480d10a9d0642",
    # two grid points, before their seeds came from one draw for the grid
    "scan-grid": "a241785f013b005a3c0420be6e51612bf3970542cda4e2105a080dc0cac25599",
}


def test_csv_bytes_pinned(tmp_path):
    data = tmp_path / "pinned.hyg"
    save_plain(random_hypergraph(np.random.default_rng(33), 50, 80, max_size=5), data)
    sparse = tmp_path / "sparse.hyg"  # 287 edges, 832 wedges: n=300 does not pack
    save_plain(random_hypergraph(np.random.default_rng(34), 300, 150, max_size=3), sparse)
    config = tmp_path / "pinned.cfg"
    config.write_text(
        "n = 30\nd = 2\nseed = 4\npercentiles = 5 10 15\nphi = power_law\nreplicates = 2\n"
    )
    grid = tmp_path / "grid.cfg"
    grid.write_text(
        "n = 20 24\nd = 2\nseed = 4\npercentiles = 5 10 15\nphi = power_law\nreplicates = 2\n"
    )
    scorers = ["--algorithms", "cn,ra,pa,jc", "--seed", "7"]  # no BLAS or libm in the scores
    commands = {
        "evaluate": ["evaluate", "--data", str(data), "--protocol", "loo", "--runs", "1", *scorers],
        "adjust": ["adjust", "--data", str(data), "--protocol", "split", "--runs", "2", *scorers],
        "adjust-d3": ["adjust", "--data", str(data), "--protocol", "split", "--d-hop", "3",
                      "--runs", "2", *scorers],
        "adjust-all": ["adjust", "--data", str(data), "--protocol", "split", "--negatives", "all",
                       "--runs", "2", *scorers],
        "adjust-sparse-d3": ["adjust", "--data", str(sparse), "--protocol", "split", "--d-hop", "3",
                             "--runs", "2", *scorers],
        "adjust-sparse-all": ["adjust", "--data", str(sparse), "--protocol", "split",
                              "--negatives", "all", "--runs", "2", *scorers],
        "scan": ["scan", "--config", str(config), "--algorithms", "cn,jc"],
        "scan-grid": ["scan", "--config", str(grid), "--algorithms", "cn,jc"],
    }
    for name, argv in commands.items():
        out = tmp_path / name
        assert main(argv + ["--out", str(out)]) == 0, name
        digest = hashlib.sha256(out.with_suffix(".csv").read_bytes()).hexdigest()
        assert digest == PINNED_CSV[name], name


# sha256 of `generate`'s .hyg and of its summary JSON (timestamp aside)
# for a sigmoid-phi config with the median offset, as written while the
# CLI computed that offset and the preset's sigmoid inline
PINNED_GENERATE = {
    "hyg": "5b838c60dabc1d7093c15a454abb0b56c438c78607bd09a6fe9e7485144ce174",
    "summary": "310d82240ec7802cf634fb2de90169fa1d21825c587eff488161905f21ad0ce4",
}


def test_generate_bytes_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # relative paths: the summary records them
    Path("sigmoid.cfg").write_text(
        "n = 40\nd = 2\nseed = 3\npercentiles = 2 5 8\nphi = hoff_sigmoid\n"
        "alpha = 6\ngamma = median\n"
    )
    assert main(["generate", "--config", "sigmoid.cfg", "--out", "sigmoid"]) == 0
    summary = json.loads(Path("sigmoid.summary.json").read_text())
    del summary["manifest"]["timestamp"]
    digests = {
        "hyg": hashlib.sha256(Path("sigmoid.hyg").read_bytes()).hexdigest(),
        "summary": hashlib.sha256(json.dumps(summary, sort_keys=True).encode()).hexdigest(),
    }
    assert digests == PINNED_GENERATE


@pytest.mark.parametrize("command", [
    ["generate"], ["verify", "--claim", "cn-lift", "--trials", "10"],
])
@pytest.mark.parametrize("entry, message", [
    ("n = 30 40", "line 2: n has 2 values; only scan reads grids"),
    ("d = 1 2 3", "line 2: d has 3 values; only scan reads grids"),
    ("replicates = 5", "line 2: replicates is read by scan only"),
])
def test_one_model_commands_refuse_grids(tmp_path, capsys, command, entry, message):
    # generate read n = 30 40 as n = 30, wrote a 30-vertex .hyg and
    # recorded n: 30, with no message; it wrote one .hyg for replicates = 5
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(f"seed = 1\n{entry}\n" + ("d = 2\n" if entry[0] == "n" else "n = 30\n"))
    out = tmp_path / "out" / "g"
    assert main([*command, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.parent.exists()


@pytest.mark.parametrize("argv, flag", [
    (["generate", "--config", "{cfg}"], "--seed"),
    (["scan", "--config", "{cfg}"], "--seed"),
    (["evaluate", "--data", "{data}"], "--seed"),
    (["evaluate", "--data", "{data}", "--protocol", "split"], "--split-seed"),
    (["adjust", "--data", "{data}"], "--seed"),
    (["adjust", "--data", "{data}", "--protocol", "split"], "--split-seed"),
    (["verify", "--claim", "cc"], "--seed"),
])
def test_negative_seed_flag_named(tmp_path, capsys, argv, flag):
    # numpy's "expected non-negative integer" named no flag
    argv = [a.format(cfg=tmp_path / "m.cfg", data=tmp_path / "d.hyg") for a in argv]
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, "-3", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert f"argument {flag}: must be an integer >= 0, got '-3'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", [
    ["generate"], ["scan"], ["verify", "--claim", "cn-lift", "--trials", "10"],
])
def test_negative_config_seed_named(tmp_path, capsys, command):
    cfg = tmp_path / "m.cfg"
    cfg.write_text("n = 20\nseed = -4\n")
    out = tmp_path / "out" / "m"
    assert main([*command, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: line 2: seed must be >= 0, got -4\n"
    assert not out.parent.exists()


@pytest.fixture
def distance_passes(monkeypatch):
    """The point count of every pairwise-distance computation, in call
    order: every hyperlp module's ``pairwise_distances`` is wrapped."""
    real, passes = latent.pairwise_distances, []

    def counted(positions):
        passes.append(len(positions))
        return real(positions)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "hyperlp" and getattr(module, "pairwise_distances", None) is real:
            monkeypatch.setattr(module, "pairwise_distances", counted)
    return passes


class TestOneDistancePass:
    """Radii, candidates, the sigmoid offset and the distance profile
    read one distance computation per point set."""

    def test_generate_with_median_gamma(self, tmp_path, distance_passes):
        cfg = tmp_path / "m.cfg"
        cfg.write_text("n = 40\npercentiles = 2 5 8\nphi = hoff_sigmoid\ngamma = median\n")
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "g")]) == 0
        assert distance_passes == [40]

    def test_scan_replicates(self, tmp_path, distance_passes):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text("n = 20 30\nseed = 3\npercentiles = 5 15\nreplicates = 2\n")
        out = tmp_path / "s"
        assert main(["scan", "--config", str(cfg), "--algorithms", "cn", "--out", str(out)]) == 0
        assert distance_passes == [20, 20, 30, 30]

    def test_cn_lift_model(self, tmp_path, distance_passes):
        cfg = tmp_path / "lift.cfg"
        cfg.write_text("n = 25\nseed = 11\npercentiles = 10 20\nphi = 0 0.5\n")
        out = tmp_path / "lift"
        argv = ["verify", "--claim", "cn-lift", "--config", str(cfg), "--trials", "10"]
        assert main(argv + ["--out", str(out)]) == 0
        assert distance_passes == [25]

    def test_profile_with_default_sigmoid(self, distance_passes):
        dist = latent.pairwise_distances(latent.sample_latents(30, 2, 5))
        radii = latent.radii_from_percentiles(dist, [4, 10])
        pot = latent.build_potential(dist, radii)
        prof = latent.edge_distance_profile(pot, [0.5, 0.3], dist, hoff=None)
        assert prof.hoff_params == latent.default_hoff_params(dist)
        assert distance_passes == [30]


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_cli_import_leaves_scipy_spatial_out():
    # scipy.spatial adds 0.14-0.2 s to every start-up; the tests import it
    # as an oracle, so only a fresh interpreter can tell.
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import hyperlp.cli, sys; sys.exit('scipy.spatial' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr or "hyperlp.cli imports scipy.spatial"


def test_cli_import_leaves_scipy_sparse_out():
    # scipy.sparse adds about 0.22 s and 20 MB to every start-up
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import hyperlp.cli, sys; sys.exit('scipy.sparse' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr or "hyperlp.cli imports scipy.sparse"


def test_cli_import_leaves_concurrent_futures_out():
    # leave-one-out SimRank imports its thread pool when it runs one, so
    # start-up does not pay for it
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import hyperlp.cli, sys; sys.exit('concurrent.futures' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr or "hyperlp.cli imports concurrent.futures"


def test_evaluate_leaves_numpy_ma_out(tmp_path):
    # a plain np.unique imports numpy.ma, 12-15 ms in a fresh interpreter
    # (2-vCPU host); np.unique with return_inverse or return_counts does not
    root = Path(__file__).resolve().parent.parent
    code = (
        "import sys; from hyperlp import cli; "
        f"assert cli.main(['evaluate', '--data', {str(root / 'data' / 'toy_five_vertex.hyg')!r}, "
        f"'--runs', '1', '--out', {str(tmp_path / 'eval')!r}]) == 0; "
        "sys.exit('numpy.ma' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr or "evaluate imports numpy.ma"


def test_import_shortens_openblas_spin_unless_set():
    # OpenBLAS workers would otherwise spin for ~0.1 s beside every command
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import os, hyperlp; print(os.environ['OPENBLAS_THREAD_TIMEOUT'])"
    for preset, want in ((None, "4"), ("20", "20")):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
        env["PYTHONPATH"] = str(src)
        if preset is not None:
            env["OPENBLAS_THREAD_TIMEOUT"] = preset
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.stdout.strip() == want, proc.stderr


ALLOCATOR_ROUNDS = """\
import resource, sys
import numpy as np
from hyperlp.cli import main

if sys.argv[1] == "main":
    assert main(["stats", "--data", sys.argv[2], "--out", sys.argv[3]]) == 0
faults = []
for _ in range(5):  # about what one wedge pass holds
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    arrays = [np.ones(3 << 20, dtype=np.uint8) for _ in range(4)]
    del arrays
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(*faults)
"""

OTHER_LIBC = """\
import ctypes, os, sys
from hyperlp import cli

def confstr(name):
    if sys.argv[1] == "raise":
        raise ValueError("unrecognized configuration name")
    return "musl 1.2.4"

loads = []
os.confstr = confstr
ctypes.CDLL = lambda *args, **kwargs: loads.append(args)
print(cli.main(["stats", "--data", sys.argv[2], "--out", sys.argv[3]]), len(loads))
"""


def _on_glibc() -> bool:
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


def _run_script(script: str, *args) -> str:
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split("\n")[-2]


@pytest.mark.skipif(not _on_glibc(), reason="the allocator policy is glibc's mallopt")
def test_main_keeps_freed_pages(tmp_path):
    # after main, freed multi-MB arrays are reused, not faulted in afresh;
    # importing hyperlp alone leaves glibc's defaults, which fault about
    # 3,000 pages (12 MB) every round
    toy = Path(__file__).resolve().parent.parent / "data" / "toy_five_vertex.hyg"
    after_main = [int(x) for x in _run_script(ALLOCATOR_ROUNDS, "main", toy, tmp_path / "s").split()]
    imported = [int(x) for x in _run_script(ALLOCATOR_ROUNDS, "import").split()]
    assert max(after_main[1:]) < 100, after_main
    assert min(imported[1:]) > 1500, imported


@pytest.mark.parametrize("confstr", ["raise", "musl"])
def test_allocator_policy_skipped_off_glibc(tmp_path, confstr):
    toy = Path(__file__).resolve().parent.parent / "data" / "toy_five_vertex.hyg"
    assert _run_script(OTHER_LIBC, confstr, toy, tmp_path / "s") == "0 0"


CLI_PATHS = """\
import sys
from pathlib import Path


class NoScipy:
    @staticmethod
    def find_spec(name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")


sys.meta_path.insert(0, NoScipy)
from hyperlp.cli import main
from hyperlp.hypergraph import SimpleGraph, packs

tmp = Path(sys.argv[1])
# the ring's pairs are few beside its wedges, so it packs at every hop
# limit; the path's 99 edges have 98 wedges, and n=100 does not pack
ring = tmp / "ring.hyg"
ring.write_text("".join(f"v{i} v{(i + 1) % 30} v{(i + 7) % 30}\\n" for i in range(30)))
path = tmp / "path.hyg"
path.write_text("".join(f"v{i} v{i + 1}\\n" for i in range(99)))
assert not packs(SimpleGraph(100, [(i, i + 1) for i in range(99)]))
cfg = tmp / "scan.cfg"
cfg.write_text("n = 20\\nd = 2\\nseed = 4\\npercentiles = 6 14\\nphi = 0.3 0.5\\n")
split = ["adjust", "--protocol", "split", "--runs", "1"]
runs = [
    ["evaluate", "--data", str(ring), "--protocol", "loo", "--runs", "1"],
    [*split, "--data", str(ring), "--d-hop", "2"],
    [*split, "--data", str(ring), "--d-hop", "3"],
    [*split, "--data", str(path), "--d-hop", "3"],
    ["scan", "--config", str(cfg), "--algorithms", "cn,sr"],
    ["verify", "--claim", "cn-dist", "--chi-square", "--n", "30", "--trials", "30"],
]
for i, argv in enumerate(runs):
    assert main(argv + ["--out", str(tmp / f"run{i}")]) == 0, argv
"""


def test_benchmarked_cli_paths_load_no_scipy(tmp_path):
    # every subcommand runs with `import scipy` failing: scipy is a test
    # dependency only, and a lazy import would also move its cost into the
    # run itself
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-c", CLI_PATHS, str(tmp_path)], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def _perfbench_tracing():
    """perfbench/tracing.py, loaded from its path without touching it."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


TRACING = _perfbench_tracing()


@pytest.mark.parametrize("target", TRACING.TARGETS, ids=lambda t: t.name)
def test_perfbench_tracing_target_resolves(target):
    # a traced name gone from src/ reads as null per-layer metrics in the
    # benchmark's traced pass, while the run itself still succeeds
    assert TRACING._resolve(target) is not None, f"{target.module}.{target.attr} is gone"
