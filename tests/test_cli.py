"""Tests for the figure-regeneration CLI and the ablation experiments."""

import pytest

from repro.bench import Scale
from repro.bench.experiments import (
    ablation_cxl_atomics,
    ablation_rdwc,
    ablation_write_amplification,
)
from repro.cli import EXPERIMENTS, main, run_experiment

TINY = Scale(name="tiny", num_keys=3000, ops_per_client=50,
             client_sweep=[4], clients=6, nic_scale=32.0)


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig12" in out and "table1" in out and "ablation-cxl" in out

    def test_unknown_figure(self, capsys):
        assert main(["run", "fig999"]) == 2

    def test_library_error_is_clean(self, capsys):
        # A ReproError from a subcommand prints one line, no traceback.
        assert main(["chaos", "--index", "sherman"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: ") and "sherman" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["trace", "--depth", "0"],
        ["trace", "--clients", "0"],
        ["trace", "--ops", "-3"],
        ["chaos", "--num-mns", "0"],
        ["chaos", "--depth", "0"],
        ["chaos", "--ops", "0"],
        ["chaos", "--keys", "0"],
        ["chaos", "--max-attempts", "0"],
        ["chaos", "--loss", "1.5"],
        ["run", "fig3d", "--jobs", "0"],
        ["run", "fig3d", "--depth", "0"],
        ["run", "fig3d", "--num-mns", "0"],
        ["campaign", "run", "--num-mns", "0"],
        ["campaign", "run", "--depth", "0"],
        ["campaign", "run", "--span", "0"],
        ["campaign", "run", "--neighborhood", "0"],
        ["campaign", "run", "--seeds", "0"],
        ["campaign", "run", "--jobs", "0"],
        ["campaign", "run", "--limit", "-1"],
        ["perf", "--jobs", "0"],
    ])
    def test_bad_count_is_a_usage_error(self, argv, capsys):
        # Rejected by the argument parser: exit 2, one usage line naming
        # the flag, never a traceback or a silently ignored value.
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert argv[-2] in err
        assert "Traceback" not in err

    def test_run_analytic_figure(self, capsys):
        assert main(["run", "fig16"]) == 0
        out = capsys.readouterr().out
        assert "metadata_saving_ratio" in out

    def test_run_writes_out_file(self, tmp_path, capsys):
        out_file = tmp_path / "tables.txt"
        assert main(["run", "fig19b", "--out", str(out_file)]) == 0
        assert "max_load_factor" in out_file.read_text()

    def test_every_registered_name_is_callable(self):
        for name, (func, _wants_scale) in EXPERIMENTS.items():
            assert callable(func), name

    def test_run_experiment_dispatch(self):
        rows = run_experiment("fig3d", TINY)
        assert rows and "max_load_factor" in rows[0]


class TestAblations:
    def test_cxl_costs_inserts_only(self):
        rows = ablation_cxl_atomics(TINY, workloads=("C", "LOAD"))
        by_key = {(r["workload"], r["mode"]): r for r in rows}
        assert by_key[("LOAD", "cxl-atomics")]["rtts_per_op"] > \
            by_key[("LOAD", "rdma-masked-cas")]["rtts_per_op"]
        assert by_key[("C", "cxl-atomics")]["throughput_mops"] == \
            pytest.approx(by_key[("C", "rdma-masked-cas")]
                          ["throughput_mops"], rel=0.05)

    def test_rdwc_helps_under_skew(self):
        rows = ablation_rdwc(TINY, thetas=(0.99,))
        by_flag = {r["rdwc"]: r["throughput_mops"] for r in rows}
        assert by_flag[True] >= by_flag[False]

    def test_write_amplification_near_paper_claim(self):
        rows = ablation_write_amplification(TINY, value_sizes=(8, 253))
        for row in rows:
            # §4.5: 1 version byte per 63 payload bytes + 1 per entry.
            assert 1.0 <= row["amplification_vs_entry"] <= 1.05
