from __future__ import annotations

import json
import math
import subprocess
import sys

import numpy as np
import pytest

import confdist.cli
from confdist import ConvergenceError, DomainError
from confdist.cli import (
    ANALYZE_HEADER,
    CURVE_HEADER,
    PIT_HEADER,
    SWEEP_HEADER,
    UsageError,
    main,
    read_analyze_csv,
    read_curve_csv,
    read_pit_csv,
    read_sweep_csv,
)


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = int(exc.code or 0)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        header, row = out_csv.strip().split("\n")
        assert header == ANALYZE_HEADER
        record = read_analyze_csv(out_csv)
        code, out_json, _ = run_cli(capsys, "analyze", *common, "--format", "json")
        assert code == 0
        parsed = json.loads(out_json)
        # csv renders 10 significant digits; json carries the full float
        assert abs(record["c_radius"] - 0.2214950486344759) <= 1e-9
        assert abs(parsed["c_radius"] - record["c_radius"]) <= 1e-9
        assert parsed["cd_lo_clipped"] is True
        assert record["cd_lo_clipped"] is True
        assert abs(parsed["median_bayes"] - record["median_bayes"]) <= 1e-8

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

    def test_read_rejects_two_rows(self, capsys):
        _, out, _ = run_cli(capsys, *ANALYZE, "--format", "csv")
        with pytest.raises(UsageError, match="exactly one analyze CSV row"):
            read_analyze_csv(out + out.splitlines()[1] + "\n")

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
        table = read_curve_csv(out)
        assert table.delta.shape == (121,)
        gap = table.c - table.b
        assert np.all(gap >= -1e-12)
        # the identity survives the 10 digit csv rendering only to ~1e-9
        assert np.max(np.abs(table.cc - np.abs(1.0 - 2.0 * table.c))) <= 1e-9

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

    def test_read_rejects_header_and_empty_table(self):
        with pytest.raises(UsageError, match="unexpected CSV header 'delta,B'"):
            read_curve_csv("delta,B\n0,0\n")
        with pytest.raises(UsageError, match="curve CSV has no rows"):
            read_curve_csv(CURVE_HEADER + "\n")

    @pytest.mark.parametrize("rows, message", [
        (["0,0,0.1,0.8,1", "0,0.01,0.2,0.6,0.98"], "delta grid must be nonnegative and strictly"),
        (["0,0,0.1,0.8,1", "1,1.5,0.2,0.6,2"], "b must stay within"),
        (["0,0.3,0.4,0.2,0.4", "1,0.01,0.4,0.2,0.98"], "b must be nondecreasing"),
        (["0,0,0.1,0.8,1", "1,0.01,0.2,0.5,0.98"], "cc column is inconsistent"),
        (["0,0,0.1,0.8,1", "1,0.01,0.2,0.6,0.9"], "cred column is inconsistent"),
        (["0,0,0.1,0.8,1", "1,nan,0.2,0.6,0.98"], "b must be a nonempty finite"),
    ])
    def test_read_rejects_inconsistent_table(self, rows, message):
        # each table breaks one CurveTable rule and passes the others
        with pytest.raises(DomainError, match=message):
            read_curve_csv("\n".join([CURVE_HEADER, *rows, ""]))

    def test_read_rejects_ragged_row(self):
        text = CURVE_HEADER + "\n0,0,0.1,0.8,1\n1,0.01,0.2\n"
        with pytest.raises(UsageError, match="5 columns"):
            read_curve_csv(text)
        with pytest.raises(UsageError, match="malformed"):
            read_curve_csv(CURVE_HEADER + "\n0,0,x,0.8,1\n")

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
        lines = out.strip().split("\n")
        assert lines[0] == SWEEP_HEADER
        assert len(lines) == 3
        rows = read_sweep_csv(out)
        assert [r.sigma for r in rows] == [0.5, 2.0]
        for r in rows:
            assert math.isnan(r.stderr_freq_bayes)
            assert math.isnan(r.stderr_freq_cd)
            assert 0.0 <= r.freq_cd_exact <= 1.0

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
        row = read_sweep_csv(out)[0]
        assert row.stderr_mean_bayes == 0.0

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
        lines = out.strip().split("\n")
        assert lines[0] == PIT_HEADER
        assert len(lines) == 21
        bins = read_pit_csv(out)
        assert sum(count for _, _, count in bins) == 2000
        assert bins[0][0] == 0.0 and bins[-1][1] == 1.0

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

    def test_read_rejects_non_integer_count(self):
        with pytest.raises(UsageError, match="malformed"):
            read_pit_csv(PIT_HEADER + "\n0,0.05,12.5\n")
        with pytest.raises(UsageError, match="3 columns"):
            read_pit_csv(PIT_HEADER + "\n0,0.05\n")

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
        row = read_sweep_csv(out)[-1]
        assert row.sigma == float(argv[2].split(",")[-1])
        exact = [row.mean_bayes_exact, row.mean_cd_exact, row.freq_bayes_exact, row.freq_cd_exact]
        assert exact == [1.0, 0.5, 1.0, 0.05]
    else:
        assert sum(count for _, _, count in read_pit_csv(out)) == 100


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
        record = read_analyze_csv(out)
        assert record["radius"] == 2.0
        assert record["sigma"] == 2.5

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
        table = read_curve_csv(out["csv"])
        csv_rows = np.column_stack((table.delta, table.b, table.c, table.cc, table.cred))
        self.assert_same(CURVE_HEADER.split(","), csv_rows, json.loads(out["json"])["rows"],
                         _text_rows(out["text"]))

    def test_sweep(self, capsys):
        out = self.run_formats(
            capsys, "sweep", "--sigma-grid", "0.5,2,8", "--n-reps", "300", "--seed", "4"
        )
        columns = SWEEP_HEADER.split(",")
        csv_rows = [[getattr(row, name) for name in columns] for row in read_sweep_csv(out["csv"])]
        self.assert_same(columns, csv_rows, json.loads(out["json"])["rows"],
                         _text_rows(out["text"]))

    def test_pit(self, capsys):
        out = self.run_formats(
            capsys, "pit", "--delta-true", "1", "--sigma", "2.5", "--radius", "2", "--n", "500"
        )
        bins = read_pit_csv(out["csv"])
        parsed = json.loads(out["json"])
        self.assert_same(PIT_HEADER.split(","), bins, parsed["histogram"], None)
        text_bins = [
            line.strip() for line in out["text"].splitlines() if line.startswith("    [")
        ]
        assert text_bins == [f"[{lo:.2f}, {hi:.2f})  {count}" for lo, hi, count in bins]
        assert [count for _, _, count in bins] == [b["count"] for b in parsed["histogram"]]
        assert f"n = {parsed['n']}" in out["text"]
        assert f"ks statistic      = {parsed['ks_stat']:.6g}" in out["text"]
