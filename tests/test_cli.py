"""End-to-end subcommand behavior, exit codes, and output determinism."""

import csv
import json

import pytest

from hyperlp.cli import main
from hyperlp.config import ConfigError, parse_model_config

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

    def test_unknown_algorithm_usage_error(self, toy_file):
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--data", str(toy_file), "--algorithms", "katz"])
        assert exc.value.code == 2

    def test_missing_file_is_data_error(self, tmp_path):
        assert main(["evaluate", "--data", str(tmp_path / "nope.hyg")]) == 3

    def test_all_scorers_failing_is_internal_error(self, tmp_path):
        # complete expansion leaves no negatives, so every scorer fails
        full = tmp_path / "complete.hyg"
        full.write_text("a b c\n")
        assert main([
            "evaluate", "--data", str(full), "--algorithms", "cn",
            "--protocol", "loo", "--runs", "0",
        ]) == 4

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

    def test_benson_mismatch_exit_3(self, tmp_path):
        (tmp_path / "nv.txt").write_text("3\n")
        (tmp_path / "sx.txt").write_text("1\n2\n")
        assert main([
            "stats", "--nverts", str(tmp_path / "nv.txt"),
            "--simplices", str(tmp_path / "sx.txt"),
        ]) == 3

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

    def test_geometry_dependent_preset_rejected(self, tmp_path):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text("n = 18\npercentiles = 6 14\nphi = empirical\n")
        assert main(["scan", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 2


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

    def test_relocation_baseline_default_random(self, tmp_path):
        out = tmp_path / "rb"
        code = main([
            "verify", "--claim", "relocation-baseline", "--n", "30",
            "--edges", "60", "--runs", "5", "--algorithms", "cn", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.with_suffix(".json").read_text())
        assert "cn" in payload["summaries"]

    def test_lift_claim_needs_config(self):
        assert main(["verify", "--claim", "cn-lift"]) == 2


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


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
