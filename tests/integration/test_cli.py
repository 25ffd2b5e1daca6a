"""Integration tests for the griffin-sim CLI."""

import pytest

from repro.cli import main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "BFS" in out and "griffin" in out and "fig12" in out


def test_tables_command(capsys):
    assert main(["tables"]) == 0
    out = capsys.readouterr().out
    assert "N_PTW" in out
    assert "Multi-GPU System Configuration" in out
    assert "Scatter-Gather" in out
    assert "2200 B" in out


def test_run_command(capsys):
    code = main(["run", "st", "--policy", "baseline",
                 "--scale", "0.005", "--gpus", "2", "--seed", "5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "ST under baseline" in out
    assert "Cycles" in out


def test_run_nvlink_fabric(capsys):
    code = main(["run", "ST", "--fabric", "nvlink",
                 "--scale", "0.005", "--gpus", "2", "--seed", "5"])
    assert code == 0


def test_compare_command(capsys):
    code = main(["compare", "ST", "--policies", "baseline,griffin",
                 "--scale", "0.005", "--gpus", "2", "--seed", "5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "Speedup vs baseline" in out
    assert "griffin" in out


def test_compare_requires_two_policies(capsys):
    code = main(["compare", "ST", "--policies", "baseline"])
    assert code == 2


def test_figures_rejects_unknown(capsys):
    code = main(["figures", "fig99"])
    assert code == 2
    assert "unknown figures" in capsys.readouterr().err


def test_figures_runs_one(capsys):
    code = main(["figures", "fig12", "--scale", "0.005",
                 "--gpus", "2", "--seed", "5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "Figure 12" in out
    assert "geomean" in out


def test_unknown_workload_exits_nonzero(capsys):
    code = main(["run", "NOPE", "--scale", "0.005", "--gpus", "2"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_figures_chart_and_export(tmp_path, capsys):
    code = main(["figures", "fig12", "--chart", "--export", str(tmp_path),
                 "--scale", "0.004", "--gpus", "2", "--seed", "5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "fig12: speedup" in out       # the ASCII chart
    assert (tmp_path / "fig12.csv").exists()


def test_validate_subset(capsys):
    code = main(["validate", "--workloads", "MT",
                 "--scale", "0.005", "--gpus", "2", "--seed", "5"])
    out = capsys.readouterr().out
    assert "checks passed" in out
    assert code in (0, 1)  # a subset may not satisfy suite-wide claims


def test_run_engine_backend_ring_exits_2(capsys):
    """The retired ring core is no longer a --engine-backend choice."""
    argv = ["run", "MT", "--scale", "0.005", "--gpus", "2", "--seed", "5",
            "--engine-backend", "ring"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "invalid choice: 'ring'" in capsys.readouterr().err


def test_bench_is_not_a_subcommand(capsys):
    """Performance is measured by perfbench; the CLI has no bench."""
    with pytest.raises(SystemExit) as exc:
        main(["bench"])
    assert exc.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err
