from __future__ import annotations

import csv
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest

import confdist.cli
from confdist import ConvergenceError
from confdist.cli import ANALYZE_HEADER, CURVE_HEADER, PIT_HEADER, SWEEP_HEADER, main


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = int(exc.code or 0)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(out: str, header: str) -> list[dict[str, str]]:
    """The rows of a csv table as {column: cell}, after checking its header line."""
    reader = csv.DictReader(io.StringIO(out))
    assert reader.fieldnames == header.split(",")
    return list(reader)


ANALYZE = ("analyze", "--norm", "5", "--sigma", "2.5", "--radius", "2")
SWEEP = ("sweep", "--n-reps", "10")
PIT = ("pit", "--delta-true", "2", "--sigma", "2.5", "--radius", "2", "--n", "100")


@pytest.mark.parametrize("argv, named, value", [
    (ANALYZE + ("--norm", "-1"), "--norm", "-1.0"),
    (("analyze", "--y1", "nan", "--y2", "4", "--sigma", "2.5", "--radius", "2"), "--y1", "nan"),
    (ANALYZE + ("--sigma", "0"), "--sigma", "0.0"),
    (ANALYZE + ("--radius", "-2"), "--radius", "-2.0"),
    (ANALYZE + ("--level", "1"), "--level", "1.0"),
    (SWEEP + ("--delta-true", "-1"), "--delta-true", "-1.0"),
    (SWEEP + ("--threshold", "0"), "--threshold", "0.0"),
    (SWEEP + ("--seed", "-1"), "--seed", "-1"),
    (SWEEP + ("--workers", "0"), "--workers", "0"),
    (SWEEP + ("--n-reps", "0"), "--n-reps", "0"),
    (SWEEP + ("--sigma-grid", "1,-2"), "sigma_grid", "-2.0"),
    (SWEEP + ("--sigma-grid", "2,1"), "sigma_grid", "(2.0, 1.0)"),
    (PIT + ("--n", "99"), "--n", "99"),
    (("curve", "--norm", "5", "--sigma", "2.5", "--grid", "5:1:10"), "--grid", "'5:1:10'"),
    (("curve", "--norm", "5", "--sigma", "2.5", "--grid=-1:4:10"), "--grid", "'-1:4:10'"),
])
def test_bad_value_names_flag_and_value(capsys, argv, named, value):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {named} ") and err.count("\n") == 1
    assert err.endswith(f", got {value}\n")


class TestAnalyze:
    def test_text_report_reference_case(self, capsys):
        code, out, err = run_cli(
            capsys, "analyze", "--norm", "5", "--sigma", "2.5", "--radius", "2"
        )
        assert code == 0 and err == ""
        assert "0.221" in out
        assert "0.779" in out
        assert "4.286" in out
        assert "5.615" in out
        assert "[0.000, 8.629]" in out
        assert "[2.009, 9.566]" in out
        assert "(lower endpoint clipped)" in out

    def test_text_report_coincident_case(self, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", "--norm", "0", "--sigma", "1", "--radius", "1"
        )
        assert code == 0
        assert "1.000" in out
        assert "(at boundary)" in out

    def test_pair_matches_norm(self, capsys):
        _, via_pair, _ = run_cli(
            capsys, "analyze", "--y1", "3", "--y2", "4", "--sigma", "2.5", "--radius", "2"
        )
        _, via_norm, _ = run_cli(
            capsys, "analyze", "--norm", "5", "--sigma", "2.5", "--radius", "2"
        )
        assert via_pair == via_norm

    def test_csv_and_json_agree(self, capsys):
        common = ("--norm", "5", "--sigma", "2.5", "--radius", "2", "--level", "0.9")
        code, out_csv, _ = run_cli(capsys, "analyze", *common, "--format", "csv")
        assert code == 0
        (record,) = csv_rows(out_csv, ANALYZE_HEADER)
        code, out_json, _ = run_cli(capsys, "analyze", *common, "--format", "json")
        assert code == 0
        parsed = json.loads(out_json)
        # csv renders 10 significant digits; json carries the full float
        assert abs(float(record["c_radius"]) - 0.2214950486344759) <= 1e-9
        assert abs(parsed["c_radius"] - float(record["c_radius"])) <= 1e-9
        assert parsed["cd_lo_clipped"] is True
        assert record["cd_lo_clipped"] == "true"
        assert abs(parsed["median_bayes"] - float(record["median_bayes"])) <= 1e-8

    def test_usage_errors(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--norm", "5", "--radius", "2")
        assert code == 2 and "--sigma" in err
        code, _, err = run_cli(
            capsys, "analyze", "--norm", "5", "--sigma", "-1", "--radius", "2"
        )
        assert code == 2 and "--sigma" in err
        code, _, err = run_cli(
            capsys,
            "analyze", "--norm", "5", "--y1", "3", "--y2", "4",
            "--sigma", "2.5", "--radius", "2",
        )
        assert code == 2
        code, _, err = run_cli(
            capsys,
            "analyze", "--norm", "5", "--sigma", "2.5", "--radius", "2",
            "--level", "1.5",
        )
        assert code == 2 and "--level" in err

    def test_y1_needs_y2(self, capsys):
        code, out, err = run_cli(capsys, "analyze", "--y1", "3", "--sigma", "2.5", "--radius", "2")
        assert code == 2 and out == ""
        assert err == "error: provide --norm, or both --y1 and --y2\n"

    def test_numerical_failure_exits_1(self, capsys, monkeypatch):
        def stalled(obs, method):
            raise ConvergenceError("median stalled")

        monkeypatch.setattr(confdist.cli, "median", stalled)
        code, out, err = run_cli(capsys, *ANALYZE)
        assert code == 1 and out == ""
        assert err == "numerical failure: median stalled\n"

    @pytest.mark.parametrize("argv", [
        ("analyze", "--norm", "1e200", "--sigma", "1", "--radius", "1"),
        ("analyze", "--norm", "1", "--sigma", "1e-200", "--radius", "1"),
        ("analyze", "--norm", "1", "--sigma", "1", "--radius", "1e300"),
        ("curve", "--norm", "1e200", "--sigma", "1"),
        ("curve", "--norm", "1", "--sigma", "1e-200", "--grid", "0:1:3"),
    ])
    def test_squared_ratio_overflow_is_a_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "delta=" in err and "sigma=" in err


class TestCurve:
    def test_default_grid_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "curve", "--norm", "5", "--sigma", "2.5", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == CURVE_HEADER
        assert len(lines) == 1 + 481
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == 0.0
        row_at_radius = next(line for line in lines[1:] if line.startswith("2,"))
        assert "0.2214950486" in row_at_radius.split(",")[2]

    def test_round_trip_and_identity(self, capsys):
        _, out, _ = run_cli(
            capsys,
            "curve", "--norm", "5", "--sigma", "2.5",
            "--grid", "0:12:121", "--format", "csv",
        )
        delta, b, c, cc, _ = np.array(
            [list(row.values()) for row in csv_rows(out, CURVE_HEADER)], dtype=float
        ).T
        assert delta.shape == (121,)
        gap = c - b
        assert np.all(gap >= -1e-12)
        # the identity survives the 10 digit csv rendering only to ~1e-9
        assert np.max(np.abs(cc - np.abs(1.0 - 2.0 * c))) <= 1e-9

    def test_json_schema(self, capsys):
        _, out, _ = run_cli(
            capsys,
            "curve", "--norm", "5", "--sigma", "2.5",
            "--grid", "0:4:5", "--format", "json",
        )
        parsed = json.loads(out)
        rows = parsed["rows"]
        assert len(rows) == 5
        assert set(rows[0]) == {"delta", "B", "C", "cc", "cred"}
        assert rows[-1]["delta"] == 4.0

    def test_text_table(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "curve", "--norm", "5", "--sigma", "2.5", "--grid", "0:4:5", "--format", "text",
        )
        assert code == 0
        lines = out.split("\n")
        assert lines[-1] == ""
        assert lines[0].split() == CURVE_HEADER.split(",")
        # right-aligned columns: every line has the same width
        assert len({len(line) for line in lines[:-1]}) == 1
        # C(0) = exp(-|y|^2 / (2 sigma^2)) = exp(-2) and cc = 1 - 2 C(0)
        assert lines[1].split() == ["0", "0", "0.135335", "0.729329", "1"]
        assert lines[3].split()[:3] == ["2", "0.0495182", "0.221495"]

    def test_malformed_grid(self, capsys):
        for bad in ("0:12", "5:1:10", "0:12:1", "a:b:c", "-1:4:10"):
            code, _, err = run_cli(
                capsys, "curve", "--norm", "5", "--sigma", "2.5", "--grid", bad
            )
            assert code == 2, bad
            assert "--grid" in err

    def test_norm_required(self, capsys):
        code, _, err = run_cli(capsys, "curve", "--sigma", "2.5")
        assert code == 2


class TestSweep:
    def test_csv_schema_and_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep", "--sigma-grid", "0.5,2", "--n-reps", "500", "--seed", "4",
            "--format", "csv",
        )
        assert code == 0
        rows = csv_rows(out, SWEEP_HEADER)
        assert [float(r["sigma"]) for r in rows] == [0.5, 2.0]
        for r in rows:
            assert 0.0 <= float(r["freq_cd_exact"]) <= 1.0

    def test_json_keys(self, capsys):
        _, out, _ = run_cli(
            capsys,
            "sweep", "--sigma-grid", "1", "--n-reps", "200", "--seed", "4",
            "--format", "json",
        )
        rows = json.loads(out)["rows"]
        assert len(rows) == 1
        assert list(rows[0]) == SWEEP_HEADER.split(",")

    def test_text_table(self, capsys):
        argv = ("sweep", "--sigma-grid", "0.5,2", "--n-reps", "300", "--seed", "4")
        code, out, _ = run_cli(capsys, *argv, "--format", "text")
        assert code == 0
        lines = out.rstrip("\n").split("\n")
        assert lines[0].split() == SWEEP_HEADER.split(",")
        assert len({len(line) for line in lines}) == 1
        assert [line.split()[0] for line in lines[1:]] == ["0.5", "2"]

    def test_single_replicate(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep", "--sigma-grid", "1", "--n-reps", "1", "--seed", "0",
            "--format", "csv",
        )
        assert code == 0
        (row,) = csv_rows(out, SWEEP_HEADER)
        assert float(row["stderr_mean_bayes"]) == 0.0

    def test_bad_inputs(self, capsys):
        cases = [
            ("--sigma-grid", "2,1"),
            ("--sigma-grid", "0.5,.,2"),
            ("--n-reps", "0"),
            ("--threshold", "1.0"),
            ("--workers", "0"),
        ]
        for flag, value in cases:
            code, _, err = run_cli(
                capsys, "sweep", "--n-reps", "50", flag, value
            )
            assert code == 2, (flag, value)
            assert err.startswith("error:")

    def test_byte_determinism_across_workers(self, capsys):
        for argv in (("sweep", "--sigma-grid", "0.5,2,8", "--n-reps", "4000",
                      "--seed", "9", "--format", "csv"),
                     ("pit", "--delta-true", "2", "--sigma", "2.5", "--radius", "2",
                      "--n", "2000", "--seed", "9", "--format", "json")):
            code, base, _ = run_cli(capsys, *argv)
            _, again, _ = run_cli(capsys, *argv)
            _, threaded, _ = run_cli(capsys, *argv, "--workers", "3")
            assert code == 0 and base == again == threaded, argv

    def test_subprocess_matches_in_process(self, capsys):
        argv = ("sweep", "--sigma-grid", "0.5,2,8", "--n-reps", "5000",
                "--seed", "9", "--format", "csv")
        _, in_process, _ = run_cli(capsys, *argv)
        proc = subprocess.run(
            [sys.executable, "-m", "confdist", *argv],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0
        assert proc.stdout == in_process


class TestPit:
    def test_text_report(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "pit", "--delta-true", "2", "--sigma", "2.5", "--radius", "2",
            "--n", "2000", "--seed", "1",
        )
        assert code == 0
        assert "ks statistic" in out
        assert "consistent with uniform" in out

    def test_csv_histogram(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "pit", "--delta-true", "2", "--sigma", "2.5", "--radius", "2",
            "--n", "2000", "--seed", "1", "--format", "csv",
        )
        assert code == 0
        bins = csv_rows(out, PIT_HEADER)
        assert len(bins) == 20
        assert sum(int(b["count"]) for b in bins) == 2000
        assert float(bins[0]["bin_lo"]) == 0.0 and float(bins[-1]["bin_hi"]) == 1.0

    def test_json_left_shift(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "pit", "--delta-true", "1", "--sigma", "2.5", "--radius", "2",
            "--n", "2000", "--seed", "1", "--format", "json",
        )
        assert code == 0
        parsed = json.loads(out)
        assert parsed["n"] == 2000
        assert parsed["mean_u"] < 0.5
        assert parsed["ks_critical_1pct"] == pytest.approx(1.63 / math.sqrt(2000))
        assert len(parsed["histogram"]) == 20
        assert "uniform_consistent" in parsed

    def test_exit_zero_even_when_not_uniform(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "pit", "--delta-true", "4", "--sigma", "2.5", "--radius", "2",
            "--n", "2000", "--seed", "1",
        )
        assert code == 0
        assert "NOT consistent" in out

    def test_small_sample_rejected(self, capsys):
        code, _, err = run_cli(
            capsys,
            "pit", "--delta-true", "2", "--sigma", "2.5", "--radius", "2",
            "--n", "99",
        )
        assert code == 2
        assert "--n" in err


@pytest.mark.parametrize("argv", [
    ("sweep", "--sigma-grid", "1e200", "--n-reps", "10"),
    ("sweep", "--sigma-grid", "1,1e154", "--n-reps", "10"),
    ("pit", "--delta-true", "2", "--sigma", "1e200", "--radius", "2", "--n", "100"),
])
def test_huge_sigma_runs(capsys, argv):
    # |y|^2 and sigma^2 overflow, but every ratio the run needs is finite
    code, out, err = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0 and err == ""
    if argv[0] == "sweep":
        row = {name: float(cell) for name, cell in csv_rows(out, SWEEP_HEADER)[-1].items()}
        assert row["sigma"] == float(argv[2].split(",")[-1])
        exact = [row["mean_bayes_exact"], row["mean_cd_exact"],
                 row["freq_bayes_exact"], row["freq_cd_exact"]]
        assert exact == [1.0, 0.5, 1.0, 0.05]
    else:
        assert sum(int(b["count"]) for b in csv_rows(out, PIT_HEADER)) == 100


@pytest.mark.parametrize("argv", [
    ("pit", "--delta-true", "0", "--sigma", "1e-160", "--radius", "2", "--n", "100"),
    ("sweep", "--delta-true", "0", "--radius", "2", "--sigma-grid", "1e-160", "--n-reps", "10"),
    ("sweep", "--delta-true", "2", "--sigma-grid", "1e-160", "--n-reps", "10"),
])
def test_overflowing_sigma_is_named(capsys, argv):
    # (R/sigma)^2 or (|y|/sigma)^2 really overflows; the message names the
    # inputs, not the internal grid arguments
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "sigma=1e-160" in err
    assert ("radius=" if argv[2] == "0" else "delta_true=") in err


@pytest.mark.parametrize("argv, failure", [
    # _quantile's tolerance underflows to 0 (bisection runs to float resolution)
    (("analyze", "--norm", "1e-320", "--sigma", "1e-320", "--radius", "1e-320"), None),
    (("analyze", "--norm", "3e-315", "--sigma", "3e-315", "--radius", "3e-315"), None),
    # first guess |y| + 10 sigma overflows; the bracket starts at the largest float
    (("analyze", "--norm", "1e308", "--sigma", "1e307", "--radius", "1e308"), None),
    # |y| + 10 sigma rounds to |y|; the first guess stays above it
    (("analyze", "--norm", "1e154", "--sigma", "1", "--radius", "1e154"), None),
    # exact_row's first guess overflows, and so would lo + hi
    (("sweep", "--delta-true", "1.3e154", "--radius", "1e154", "--sigma-grid", "1",
      "--n-reps", "2"), None),
    # the 0.95 posterior quantile, about 1.86e308, lies beyond the largest float
    (("analyze", "--norm", "1.7e308", "--sigma", "1e307", "--radius", "1e307"),
     f"numerical failure: f stays below target 0.95 up to f({sys.float_info.max!r})\n"),
])
def test_roots_anywhere_in_float_range(capsys, argv, failure):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    if failure is not None:
        assert (code, out, err) == (1, "", failure)
        return
    assert code == 0 and err == ""
    parsed = json.loads(out)
    rows = parsed.get("rows", [parsed])
    assert rows and all(math.isfinite(v) for row in rows for v in row.values())
    if argv[0] == "analyze":
        for method in ("cd", "bayes"):
            lo, mid, hi = (parsed[f"{method}_lo"], parsed[f"median_{method}"],
                           parsed[f"{method}_hi"])
            assert 0.0 <= lo <= mid <= hi and 0.0 < hi


def test_stuck_poisson_tail_inputs_run(capsys):
    # both runs need G2 at noncentralities near 1359 where the summed Poisson
    # weight stays above the direct series' tail stop
    code, _, err = run_cli(capsys, "analyze", "--norm", "36.870482378617375",
                           "--sigma", "1", "--radius", "30")
    assert code == 0 and err == ""
    n = 100_000
    code, out, err = run_cli(capsys, "sweep", "--delta-true", "36.8", "--radius", "35",
                             "--sigma-grid", "1", "--n-reps", str(n), "--seed", "2",
                             "--format", "csv")
    assert code == 0 and err == ""
    (row,) = ({name: float(cell) for name, cell in r.items()} for r in csv_rows(out, SWEEP_HEADER))
    for name in ("mean_bayes", "mean_cd"):
        assert abs(row[name] - row[f"{name}_exact"]) <= 4.0 * row[f"stderr_{name}"], name
    for name in ("freq_bayes", "freq_cd"):
        p = row[f"{name}_exact"]
        assert abs(row[name] - p) <= 4.0 * math.sqrt(p * (1.0 - p) / n), name


class TestConfigAndOutput:
    def test_config_file_with_flag_precedence(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# reference case\n"
            "norm = 5\n"
            "sigma = 2.5\n"
            "radius = 4\n",
            encoding="utf-8",
        )
        code, out, _ = run_cli(
            capsys,
            "analyze", "--config", str(cfg), "--radius", "2", "--format", "csv",
        )
        assert code == 0
        (record,) = csv_rows(out, ANALYZE_HEADER)
        assert float(record["radius"]) == 2.0
        assert float(record["sigma"]) == 2.5

    def test_config_dash_keys(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("delta-true = 2\nsigma = 2.5\nradius = 2\nn = 500\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "pit", "--config", str(cfg), "--format", "json")
        assert code == 0
        assert json.loads(out)["n"] == 500

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("norm = 5\nsigma = 2.5\nradius = 2\nbogus = 1\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "analyze", "--config", str(cfg))
        assert code == 2
        assert "bogus" in err

    def test_malformed_config_line(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("norm 5\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "analyze", "--config", str(cfg))
        assert code == 2

    def test_config_value_failing_its_cast(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("norm = 5\nsigma = abc\nradius = 2\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "analyze", "--config", str(cfg))
        assert code == 2 and out == ""
        assert err == "error: config value 'abc' is invalid for --sigma\n"

    def test_config_format_outside_choices(self, capsys, tmp_path):
        # argparse checks the choices of a flag; _resolve those of a config value
        cfg = tmp_path / "run.cfg"
        cfg.write_text("norm = 5\nsigma = 2.5\nradius = 2\nformat = yaml\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "analyze", "--config", str(cfg))
        assert code == 2 and out == ""
        assert err == "error: --format must be one of text, csv, json\n"

    def test_output_naming_a_directory(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, *ANALYZE, "--output", str(tmp_path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: --output: cannot write {tmp_path}: ")

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "analyze", "--config", str(tmp_path / "absent.cfg")
        )
        assert code == 2

    def test_config_file_not_utf8(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"\xff\xfe")
        code, out, err = run_cli(capsys, "analyze", "--config", str(cfg))
        assert code == 2 and out == "" and err.count("\n") == 1
        assert err.startswith(f"error: --config: cannot read {cfg}: 'utf-8' codec")

    def test_output_file_matches_stdout(self, capsys, tmp_path):
        argv = ("curve", "--norm", "5", "--sigma", "2.5",
                "--grid", "0:8:41", "--format", "csv")
        _, stdout_text, _ = run_cli(capsys, *argv)
        target = tmp_path / "curve.csv"
        code, out, _ = run_cli(capsys, *argv, "--output", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text(encoding="utf-8") == stdout_text

    def test_dash_output_means_stdout(self, capsys):
        argv = ("analyze", "--norm", "5", "--sigma", "2.5", "--radius", "2")
        _, plain, _ = run_cli(capsys, *argv)
        _, dashed, _ = run_cli(capsys, *argv, "--output", "-")
        assert plain == dashed

    def test_bad_format(self, capsys):
        code, _, err = run_cli(
            capsys,
            "analyze", "--norm", "5", "--sigma", "2.5", "--radius", "2",
            "--format", "yaml",
        )
        assert code == 2
        assert "--format" in err


def _text_rows(out: str) -> list[list[float]]:
    return [[float(cell) for cell in line.split()] for line in out.splitlines()[1:]]


class TestFormatsCarryTheSameValues:
    """csv (10 significant digits), json (full floats) and the aligned
    text table (6 significant digits) render one table three ways."""

    def run_formats(self, capsys, *argv):
        outputs = {}
        for fmt in ("csv", "json", "text"):
            code, outputs[fmt], err = run_cli(capsys, *argv, "--format", fmt)
            assert code == 0 and err == ""
        return outputs

    def assert_same(self, columns, csv_rows, json_rows, text_rows):
        assert [list(row) for row in json_rows] == [columns] * len(json_rows)
        full = [[row[name] for name in columns] for row in json_rows]
        assert len(csv_rows) == len(full)
        assert np.allclose(csv_rows, full, rtol=1e-9, atol=0.0)
        if text_rows is not None:
            assert np.allclose(text_rows, full, rtol=1e-5, atol=0.0)

    def test_curve(self, capsys):
        out = self.run_formats(
            capsys, "curve", "--norm", "5", "--sigma", "2.5", "--grid", "0:12:49"
        )
        rows = [list(map(float, row.values())) for row in csv_rows(out["csv"], CURVE_HEADER)]
        self.assert_same(CURVE_HEADER.split(","), rows, json.loads(out["json"])["rows"],
                         _text_rows(out["text"]))

    def test_sweep(self, capsys):
        out = self.run_formats(
            capsys, "sweep", "--sigma-grid", "0.5,2,8", "--n-reps", "300", "--seed", "4"
        )
        rows = [list(map(float, row.values())) for row in csv_rows(out["csv"], SWEEP_HEADER)]
        self.assert_same(SWEEP_HEADER.split(","), rows, json.loads(out["json"])["rows"],
                         _text_rows(out["text"]))

    def test_pit(self, capsys):
        out = self.run_formats(
            capsys, "pit", "--delta-true", "1", "--sigma", "2.5", "--radius", "2", "--n", "500"
        )
        bins = [(float(b["bin_lo"]), float(b["bin_hi"]), int(b["count"]))
                for b in csv_rows(out["csv"], PIT_HEADER)]
        parsed = json.loads(out["json"])
        self.assert_same(PIT_HEADER.split(","), bins, parsed["histogram"], None)
        text_bins = [
            line.strip() for line in out["text"].splitlines() if line.startswith("    [")
        ]
        assert text_bins == [f"[{lo:.2f}, {hi:.2f})  {count}" for lo, hi, count in bins]
        assert [count for _, _, count in bins] == [b["count"] for b in parsed["histogram"]]
        assert f"n = {parsed['n']}" in out["text"]
        assert f"ks statistic      = {parsed['ks_stat']:.6g}" in out["text"]

    @pytest.mark.parametrize("argv, at_boundary", [
        (ANALYZE, False),
        # C(0) = exp(-1/8) > 1/2: the zero atom holds the confidence median
        (("analyze", "--norm", "0.5", "--sigma", "1", "--radius", "1"), True),
    ])
    def test_analyze(self, capsys, argv, at_boundary):
        out = self.run_formats(capsys, *argv)
        (record,) = csv_rows(out["csv"], ANALYZE_HEADER)
        parsed = json.loads(out["json"])
        assert list(parsed) == list(record)
        flags = [name for name, value in parsed.items() if isinstance(value, bool)]
        assert flags == ["median_cd_at_boundary", "median_bayes_at_boundary",
                         "cd_lo_clipped", "bayes_lo_clipped"]
        assert [record[name] for name in flags] == [
            "true" if parsed[name] else "false" for name in flags
        ]
        numbers = [name for name in parsed if name not in flags]
        assert np.allclose([float(record[name]) for name in numbers],
                           [parsed[name] for name in numbers], rtol=1e-9, atol=0.0)
        assert parsed["median_cd_at_boundary"] is at_boundary

    @pytest.mark.parametrize("argv", [
        ANALYZE,
        ("curve", "--norm", "5", "--sigma", "2.5", "--grid", "0:12:7"),
        SWEEP + ("--sigma-grid", "0.5,2"),
        PIT,
    ], ids=lambda argv: argv[0])
    def test_byte_framing(self, capsys, argv):
        # json is indent=2 with one closing newline; csv is what csv.writer
        # writes for its own parsed rows, one "\n" per line and no quoting
        out = self.run_formats(capsys, *argv)
        assert out["json"] == json.dumps(json.loads(out["json"]), indent=2) + "\n"
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows(csv.reader(io.StringIO(out["csv"])))
        assert out["csv"] == buffer.getvalue()
