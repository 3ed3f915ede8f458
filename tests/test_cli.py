import argparse
import concurrent.futures
import json
import math
import re
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

import per_point
from bandgauss import cli
from bandgauss.cli import build_parser, main
from bandgauss.coefficients import (METHOD_QUADRATURE, EnvironmentParams,
                                    build_trace)
from bandgauss.entanglement import (kappa_full_curve,
                                    kappa_secular_channel_curve)
from bandgauss.scenario import MAX_ROWS, SweepScenario, read_config
from bandgauss.errors import UsageError
from bandgauss.spectral import SpectralDensity


def read_lines(path):
    with open(path, "rb") as f:
        data = f.read()
    assert b"\r" not in data
    return data.decode().splitlines()


class TestScenario:
    def test_defaults_validate(self):
        SweepScenario()

    def test_bad_steps(self):
        with pytest.raises(UsageError, match="tau_steps"):
            SweepScenario(tau_steps=1)

    def test_bad_range(self):
        with pytest.raises(UsageError, match="tau_max"):
            SweepScenario(tau_start=2.0, tau_max=1.0)

    def test_empty_list(self):
        with pytest.raises(UsageError, match="r"):
            SweepScenario(r=())

    def test_bad_jobs(self):
        with pytest.raises(UsageError, match="^jobs: must be >= 1"):
            SweepScenario(jobs=0)

    def test_grid_repeating_a_time_refused(self):
        # 600 times up to 1e-321 (about 200 subnormal steps) must repeat one
        with pytest.raises(UsageError, match="^tau_max, tau_steps: 600 "):
            SweepScenario(tau_max=1e-321, tau_steps=600)
        SweepScenario(tau_max=1e-320, tau_steps=600)

    def test_negative_start(self):
        with pytest.raises(UsageError, match="^tau_start: must be >= 0"):
            SweepScenario(tau_start=-1.0)

    def test_row_ceiling(self, tmp_path, monkeypatch, capsys):
        # the engine counts the rows of the command that runs before it
        # builds a trace; a ceiling of 40 stands in for MAX_ROWS, so nothing
        # large is allocated here
        monkeypatch.setattr(cli, "MAX_ROWS", 40)
        out = tmp_path / "x.csv"
        short = ["--tau-max", "1", "--out", str(out)]
        at_ceiling = ["evolve", "--r", "1,2", "--mode", "both", *short]
        assert main(at_ceiling + ["--tau-steps", "10"]) == 0
        # coefficients writes one curve per environment, whatever r is
        assert main(["coefficients", "--r", "1,2", "--tau-steps", "40",
                     *short]) == 0
        assert len(read_lines(out)) == 41
        out.unlink()
        monkeypatch.setattr(cli, "_trace", None)  # any trace would fail
        for over in (at_ceiling + ["--tau-steps", "11"],
                     at_ceiling + ["--tau-steps", "10", "--omega", "1,3"],
                     ["sweep", "--r", "1,2", "--tau-steps", "40", *short],
                     ["sweep", "--tau-steps", str(10 ** 11), *short]):
            assert main(over) == 2
            assert re.search("tau_steps: .* ceiling", capsys.readouterr().err)
            assert not out.exists()

    def test_row_ceiling_counts_only_modes_that_run(self, tmp_path,
                                                    monkeypatch, capsys):
        # fig1 has no modes, so mode "both" does not double it, and the
        # paper source runs the secular mode only; a ceiling of 40 stands
        # in for MAX_ROWS
        monkeypatch.setattr(cli, "MAX_ROWS", 40)
        out = tmp_path / "x.csv"
        cfg = tmp_path / "both.json"
        cfg.write_text(json.dumps({"mode": "both", "tau_max": 1.0}))
        fig1 = ["fig1", "--panel", "a", "--config", str(cfg), "--out",
                str(out)]
        paper = ["sweep", "--kappa", "paper", "--mode", "secular", "--r", "1,2",
                 "--tau-max", "1", "--out", str(out)]
        symmetric = ["sweep", "--kappa", "symmetric", "--mode", "both",
                     "--r", "1,2", "--tau-max", "1", "--out", str(out)]
        for argv, steps, rows in ((fig1, 8, 5 * 8), (paper, 20, 2 * 21),
                                  (symmetric, 10, 4 * 11)):
            assert main(argv + ["--tau-steps", str(steps)]) == 0
            assert len(read_lines(out)) == 1 + rows
            out.unlink()
            assert main(argv + ["--tau-steps", str(steps + 1)]) == 2
            assert re.search("tau_steps: .* ceiling", capsys.readouterr().err)
            assert not out.exists()

    @pytest.mark.parametrize("field,value", [
        ("tau_start", math.nan), ("tau_max", math.inf),
        ("j0", (1.0, math.nan)), ("delta", (-math.inf,))])
    def test_non_finite_values_rejected(self, field, value):
        with pytest.raises(UsageError, match=f"{field}: must be finite"):
            SweepScenario(**{field: value})

    def test_non_finite_beta_rejected(self):
        with pytest.raises(UsageError, match="beta: must be finite"):
            SweepScenario(beta=math.nan)

    def test_file_roundtrip(self, tmp_path):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps({"tau_max": 10.0, "tau_steps": 11,
                                   "r": [0.3, 0.7], "beta": 200.0,
                                   "method": "quad"}))
        sc = SweepScenario(**read_config(str(cfg)))
        assert sc.tau_max == 10.0
        assert sc.r == (0.3, 0.7)
        assert sc.beta == 200.0
        assert sc.method == "quadrature"

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps({"tau_halt": 1.0}))
        with pytest.raises(UsageError, match="tau_halt"):
            read_config(str(cfg))

    def test_overrides_win(self, tmp_path):
        # the options override the config keys before the scenario is
        # checked, so a config that is valid only after them still runs
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps({"tau_max": 10.0, "tau_steps": 1,
                                   "method": "closed"}))
        out = tmp_path / "c.csv"
        assert main(["coefficients", "--config", str(cfg), "--tau-max", "5",
                     "--tau-steps", "3", "--method", "quad",
                     "--out", str(out)]) == 0
        sc = json.loads(out.with_suffix(".meta").read_text())["scenario"]
        assert (sc["tau_max"], sc["tau_steps"]) == (5.0, 3)
        assert sc["method"] == "quadrature"
        assert main(["coefficients", "--config", str(cfg),
                     "--out", str(out)]) == 2


class TestCsvContract:
    def test_fig1_format_and_spot_value(self, tmp_path):
        out = tmp_path / "f1a.csv"
        assert main(["fig1", "--panel", "a", "--out", str(out),
                     "--tau-steps", "40"]) == 0
        lines = read_lines(out)
        assert lines[0] == ("panel,tau,r,j0,delta,omega_lo,"
                            "kappa_secular,kappa_full,method")
        # r = 0.9 block starts at tau = 0: kappa_secular = exp(-1.8)/2
        want = format(0.5 * math.exp(-1.8), ".17g")
        row = [l for l in lines if l.startswith("a,0,0.9")]
        assert len(row) == 1
        fields = row[0].split(",")
        assert fields[6] == want
        assert fields[7] == want  # full channel coincides at tau = 0

    def test_fig1_parallel_jobs_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "f1.csv", tmp_path / "f2.csv"
        args = ["fig1", "--panel", "b", "--tau-steps", "24"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2), "--jobs", "2"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["fig2", "--panel", "b", "--tau-steps", "30"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_meta_sidecar(self, tmp_path):
        out = tmp_path / "f2c.csv"
        assert main(["fig2", "--panel", "c", "--out", str(out),
                     "--tau-steps", "20"]) == 0
        meta = json.loads((tmp_path / "f2c.meta").read_text())
        assert meta["log_base"] == "e"
        assert meta["version"]
        assert meta["panel"] == "c"
        assert meta["scenario"]["kappa"] == "paper"

    def test_coefficients_gamma_column(self, tmp_path):
        out = tmp_path / "c.csv"
        assert main(["coefficients", "--out", str(out), "--tau-max", "2",
                     "--tau-steps", "5"]) == 0
        lines = read_lines(out)
        header = lines[0].split(",")
        last = lines[-1].split(",")
        row = dict(zip(header, last))
        assert row["tau"] == "2"
        assert float(row["gamma_int"]) == pytest.approx(1e-3 * 16.0 / 6.0, rel=1e-14)
        assert float(row["delta_gamma"]) == pytest.approx(2e-3, rel=1e-14)
        assert row["method"] == "closed-form"

    def test_coefficients_zero_row_is_all_zero(self, tmp_path):
        out = tmp_path / "c.csv"
        assert main(["coefficients", "--out", str(out), "--tau-max", "1",
                     "--tau-steps", "3"]) == 0
        lines = read_lines(out)
        header = lines[0].split(",")
        row = dict(zip(header, lines[1].split(",")))
        for key in ("gamma", "delta_coef", "pi_coef", "r_shift", "gamma_int",
                    "delta_gamma", "sec_delta_co", "sec_delta_si",
                    "sec_pi_co", "sec_pi_si"):
            assert row[key] == "0"

    def test_method_flag_switches_route(self, tmp_path):
        out_c = tmp_path / "closed.csv"
        out_q = tmp_path / "quad.csv"
        base = ["coefficients", "--tau-max", "1", "--tau-steps", "4"]
        assert main(base + ["--out", str(out_c), "--method", "closed"]) == 0
        assert main(base + ["--out", str(out_q), "--method", "quad"]) == 0
        c_lines, q_lines = read_lines(out_c), read_lines(out_q)
        assert c_lines[0] == q_lines[0]
        assert c_lines[-1].endswith("closed-form")
        assert q_lines[-1].endswith("quadrature")

    def test_evolve_initial_state(self, tmp_path):
        out = tmp_path / "e.csv"
        assert main(["evolve", "--out", str(out), "--r", "0.5", "--tau-max",
                     "1", "--tau-steps", "2", "--mode", "both"]) == 0
        lines = read_lines(out)
        header = lines[0].split(",")
        row = dict(zip(header, lines[1].split(",")))
        assert float(row["cm_11"]) == pytest.approx(math.cosh(1.0), rel=1e-15)
        assert float(row["cm_13"]) == pytest.approx(math.sinh(1.0), rel=1e-15)
        modes = {l.split(",")[5] for l in lines[1:]}
        assert modes == {"secular", "full"}


class TestCsvWriter:
    ROWS = [
        [1.0, True, 1, "1", -0.0],
        [True, 1.0, 1, "x", 0.0],
        [-0.0, 0.0, False, 0, "0"],
        [math.nan, math.inf, -math.inf, 1e-300, 1e300],
        [1e300, -1e300, "", "none", -1e-300],
        [0.0, -0.0, 1e-300, 1e300, math.nan],
        [0.1, 0.1, np.float64(0.1), 1, 1.0],
        [1.0, 1.0, 0.0, 0.0, True],
        [1, 1.0, True, False, 0.0],
        [np.float64(-0.0), 2.5, 2.5, "2.5", 10 ** 17],
        [1e17, 1e17, 10 ** 17, float(10 ** 17), "1e+17"],
    ]

    def test_same_bytes_as_per_cell_formatting(self, tmp_path):
        # True == 1 == 1.0 would share one memo key: the bools and ints
        # must print as themselves wherever they come
        header = ["a", "b", "c", "d", "e"]
        ours, theirs = tmp_path / "ours.csv", tmp_path / "theirs.csv"
        cli.write_csv(str(ours), header, self.ROWS)
        per_point.write_csv(str(theirs), header, self.ROWS)
        assert ours.read_bytes() == theirs.read_bytes()
        lines = read_lines(ours)
        assert lines[1] == "1,True,1,1,0"
        assert lines[2] == "True,1,1,x,0"
        assert lines[8] == "1,1,0,0,True"
        assert lines[11] == "1e+17,1e+17,100000000000000000,1e+17,1e+17"

    def test_memo_is_bounded(self, tmp_path):
        # 150,000 distinct floats: a memo of every text peaks at 17.8 MiB,
        # one that starts over at 2**16 texts at 8.1 MiB, with the same bytes
        rows = lambda: ([i / 7.0, "x"] for i in range(150_000))
        ours, theirs = tmp_path / "ours.csv", tmp_path / "theirs.csv"
        tracemalloc.start()
        try:
            cli.write_csv(str(ours), ["a", "b"], rows())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        per_point.write_csv(str(theirs), ["a", "b"], rows())
        assert ours.read_bytes() == theirs.read_bytes()
        assert peak / 2 ** 20 <= 10.0

    def test_block_slices_keep_the_bytes(self, tmp_path, monkeypatch):
        # a block expanded a few rows at a time writes the bytes of the
        # block expanded whole; 3 stands in for the 4,096-row slice
        argv = ["evolve", "--mode", "both", "--r", "0.5,1", "--tau-steps",
                "10"]
        whole, sliced = tmp_path / "whole.csv", tmp_path / "sliced.csv"
        assert main(argv + ["--out", str(whole)]) == 0
        monkeypatch.setattr(cli, "_ROW_SLICE", 3)
        assert main(argv + ["--out", str(sliced)]) == 0
        assert sliced.read_bytes() == whole.read_bytes()

    def test_rows_are_streamed(self, tmp_path):
        # a generator is written as it is consumed, one row at a time
        out = tmp_path / "g.csv"
        cli.write_csv(str(out), ["x"], ([float(i % 3)] for i in range(7)))
        assert read_lines(out) == ["x", "0", "1", "2", "0", "1", "2", "0"]


def fig1_kappas(out) -> dict:
    """Per r of a fig1 CSV: its kappa_secular and kappa_full columns."""
    rows = [line.split(",") for line in read_lines(out)[1:]]
    return {r: np.array([row[6:8] for row in rows if float(row[2]) == r],
                        dtype=float).T
            for r in {float(row[2]) for row in rows}}


class TestFig1:
    """fig1's two kappa columns are the secular and full channels of one
    trace, on either route."""

    @pytest.mark.parametrize("route", ["flag", "config"])
    def test_quadrature_route_reads_one_trace(self, tmp_path, route):
        out = tmp_path / "x.csv"
        args = ["fig1", "--panel", "b", "--tau-steps", "50"]
        if route == "flag":
            args += ["--method", "quad"]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"method": "quad"}))
            args += ["--config", str(cfg)]
        assert main(args + ["--out", str(out)]) == 0
        assert {line.rsplit(",", 1)[1] for line in read_lines(out)[1:]} == \
            {METHOD_QUADRATURE}
        panel = cli.FIG1_PANELS["b"]
        env = EnvironmentParams(SpectralDensity(1.0, panel["omega"][0],
                                                panel["delta"][0]))
        trace = build_trace(env, SweepScenario(tau_steps=50).tau_grid(),
                            METHOD_QUADRATURE)
        kappas = fig1_kappas(out)
        assert sorted(kappas) == sorted(panel["r"])
        for r, (secular, full) in kappas.items():
            np.testing.assert_array_equal(
                secular, kappa_secular_channel_curve(trace, r))
            np.testing.assert_array_equal(full, kappa_full_curve(trace, r))

    @pytest.mark.parametrize("argv", [
        ["--panel", "a"], ["--panel", "b"], ["--panel", "c"],
        ["--panel", "b", "--method", "quad"],
        ["--panel", "b", "--method", "quad", "--beta", "2"]])
    def test_full_kappa_never_exceeds_secular(self, tmp_path, argv):
        # where det A >= |det C|, as on every row here, the secular terms
        # only lower kappa: the secular approximation is pessimistic
        out = tmp_path / "f1.csv"
        assert main(["fig1", *argv, "--out", str(out)]) == 0
        for secular, full in fig1_kappas(out).values():
            assert np.all(full <= secular)


class TestFig2:
    def test_sudden_death_rows(self, tmp_path):
        out = tmp_path / "f2a.csv"
        assert main(["fig2", "--panel", "a", "--out", str(out),
                     "--tau-max", "30", "--tau-steps", "200"]) == 0
        lines = read_lines(out)
        summaries = [l for l in lines if l.startswith("sudden_death")]
        assert len(summaries) == 5  # one per squeezing value
        for line in summaries:
            tau_sd = line.split(",")[-1]
            assert tau_sd != ""
            assert float(tau_sd) == pytest.approx(math.sqrt(200.0), rel=0.02)

    def test_none_when_alive_at_horizon(self, tmp_path):
        out = tmp_path / "f2b.csv"
        assert main(["fig2", "--panel", "b", "--out", str(out),
                     "--tau-max", "30", "--tau-steps", "100"]) == 0
        lines = read_lines(out)
        row = [l for l in lines if l.startswith("sudden_death") and ",0.001," in l]
        assert len(row) == 1
        assert row[0].split(",")[-1] == "none"

    def test_negativity_spot_value(self, tmp_path):
        out = tmp_path / "f2a.csv"
        assert main(["fig2", "--panel", "a", "--out", str(out),
                     "--tau-steps", "20"]) == 0
        lines = read_lines(out)
        header = lines[0].split(",")
        row = dict(zip(header, [l for l in lines
                                if l.startswith("point,a,0,1,")][0].split(",")))
        assert float(row["e_n"]) == pytest.approx(4.0 + 2.0 * math.log(2.0),
                                                  abs=1e-12)

    def test_oracle_source_column(self, tmp_path):
        out = tmp_path / "f2c.csv"
        assert main(["fig2", "--panel", "c", "--out", str(out), "--kappa",
                     "oracle", "--mode", "full", "--tau-steps", "12"]) == 0
        lines = read_lines(out)
        assert all(",oracle,full," in l for l in lines[1:])

    def test_oracle_source_refuses_panel_a(self, tmp_path, capsys):
        # panel a's r = 10 is past the PT eigensolver's limit, about r = 4.5
        out = tmp_path / "f2a.csv"
        assert main(["fig2", "--panel", "a", "--kappa", "oracle", "--mode",
                     "full", "--tau-steps", "12", "--out", str(out)]) == 3
        assert "use --kappa symmetric" in capsys.readouterr().err
        assert not out.exists()

    def test_both_modes_are_the_sweep_rows(self, tmp_path):
        # fig2 refuses only what sweep refuses, and writes its rows over
        # the panel's lists, with the panel for j0 = 1
        route = ["--kappa", "symmetric", "--mode", "both", "--method",
                 "quad", "--beta", "2", "--tau-steps", "31"]
        fig2, sweep = tmp_path / "f2.csv", tmp_path / "s.csv"
        assert main(["fig2", "--panel", "b", *route,
                     "--out", str(fig2)]) == 0
        lists = [f"--{name}={','.join(map(repr, values))}"
                 for name, values in cli.FIG2_PANELS["b"].items()]
        assert main(["sweep", *lists, *route, "--out", str(sweep)]) == 0
        want = [",".join([kind, "b", tau, r, *rest]) for kind, tau, r, _, *rest
                in (line.split(",") for line in read_lines(sweep)[1:])]
        assert read_lines(fig2)[1:] == want
        assert len(want) == 5 * 2 * (31 + 1)  # delta x modes x (grid + death)

    def test_panel_help_lists_swept_values(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig2", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        for swept in ("a: r = 0.1, 0.5, 1, 2, 10;",
                      "c: omega = 0.1, 0.5, 1, 2, 10.", "about r = 4.5"):
            assert swept in text

    def test_parallel_jobs_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        args = ["fig2", "--panel", "c", "--tau-steps", "24"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2), "--jobs", "3"]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestSweep:
    def test_product_and_modes(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--out", str(out), "--r", "0.5,1.0", "--delta",
                     "0.01", "--kappa", "symmetric", "--mode", "both",
                     "--tau-steps", "10"]) == 0
        lines = read_lines(out)
        points = [l for l in lines if l.startswith("point")]
        assert len(points) == 2 * 2 * 10  # r-values x modes x grid
        summaries = [l for l in lines if l.startswith("sudden_death")]
        assert len(summaries) == 4

    def test_paper_source_is_the_secular_closed_form(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--out", str(out), "--kappa", "paper", "--mode",
                     "secular", "--tau-steps", "8"]) == 0
        lines = read_lines(out)
        assert all(",secular,closed-form," in l for l in lines[1:])

    def test_config_file_with_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tau_max": 10.0, "tau_steps": 6,
                                   "r": [0.5], "out": str(tmp_path / "x.csv")}))
        out = tmp_path / "y.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        assert out.exists()
        lines = read_lines(out)
        assert len([l for l in lines if l.startswith("point")]) == 6

    def test_parallel_jobs_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        args = ["sweep", "--kappa", "oracle", "--mode", "both", "--r",
                "0.5,2", "--omega", "1,3", "--delta", "1e-2,1e-3",
                "--tau-steps", "24"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2), "--jobs", "2"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("source", ["paper", "symmetric", "oracle"])
    def test_negative_squeezing_rejected(self, tmp_path, capsys, source):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--kappa", source, "--r=-1", "--out", str(out),
                     "--tau-steps", "8"]) == 2
        assert "r must be non-negative" in capsys.readouterr().err
        assert not out.exists()


class TestEngine:
    """Every data command runs through one per-environment engine."""

    @pytest.mark.parametrize("argv", [
        ["coefficients", "--omega", "1,3", "--delta", "1e-2,1e-3"],
        ["evolve", "--r", "0.5,2", "--mode", "both", "--omega", "1,3"],
    ])
    def test_parallel_jobs_deterministic(self, tmp_path, argv):
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        args = argv + ["--tau-max", "5", "--tau-steps", "24"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2), "--jobs", "2"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("command,repeated", [
        (["coefficients"], ["--delta", "1e-3"]),
        (["sweep", "--kappa", "symmetric"], ["--r", "1"]),
        (["evolve", "--mode", "both"], ["--r", "1"]),
    ])
    def test_repeated_values_repeat_rows(self, tmp_path, command, repeated):
        flag, value = repeated
        out1, out2 = tmp_path / "one.csv", tmp_path / "two.csv"
        tail = ["--tau-max", "5", "--tau-steps", "6"]
        assert main(command + [flag, value, "--out", str(out1)] + tail) == 0
        assert main(command + [flag, f"{value},{value}", "--out", str(out2)]
                    + tail) == 0
        one, two = read_lines(out1), read_lines(out2)
        assert two == one + one[1:]

    def test_quad_evolve_accepts_negative_damping(self, tmp_path):
        # the quadrature route's Gamma dips below zero here (non-Markovian);
        # only the covariance check gates the output
        out = tmp_path / "e.csv"
        assert main(["evolve", "--method", "quad", "--omega", "10",
                     "--delta", "1", "--tau-max", "3", "--tau-steps", "31",
                     "--out", str(out)]) == 0
        header = read_lines(out)[0].split(",")
        gamma_int = [float(dict(zip(header, l.split(",")))["gamma_int"])
                     for l in read_lines(out)[1:]]
        assert min(gamma_int) < 0.0

    @pytest.mark.parametrize("jobs,payloads,cpus,workers", [
        (64, 3, 8, 3), (64, 5, 2, 2), (2, 5, 8, 2), (64, 5, None, None),
        (1, 5, 8, None)])
    def test_worker_count_is_bounded(self, monkeypatch, jobs, payloads, cpus,
                                     workers):
        # the pool forks all its workers up front, so it gets no more than
        # there are payloads or processors; one worker runs in process
        started = []

        class Pool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, worker, items):
                return map(worker, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        items = list(range(payloads))
        assert cli._map_payloads(str, items, jobs) == [str(i) for i in items]
        assert started == ([] if workers is None else [workers])

    def test_negative_squeezing_rejected_by_evolve(self, tmp_path, capsys):
        out = tmp_path / "e.csv"
        assert main(["evolve", "--r=-1", "--out", str(out),
                     "--tau-steps", "8"]) == 2
        assert "domain error" in capsys.readouterr().err
        assert not out.exists()


class TestRecipeSidecars:
    """The sidecar of a recipe records the parameter lists its panel ran."""

    @pytest.mark.parametrize("panel", ["a", "b", "c"])
    def test_fig1(self, tmp_path, panel):
        out = tmp_path / "f1.csv"
        assert main(["fig1", "--panel", panel, "--out", str(out),
                     "--tau-steps", "4"]) == 0
        self.check(out, "delta")

    @pytest.mark.parametrize("panel", ["a", "b", "c"])
    def test_fig2(self, tmp_path, panel):
        out = tmp_path / "f2.csv"
        assert main(["fig2", "--panel", panel, "--out", str(out),
                     "--tau-steps", "4"]) == 0
        self.check(out, "j0_delta")

    @staticmethod
    def check(out, delta_column):
        scenario = json.loads(out.with_suffix(".meta").read_text())["scenario"]
        lines = read_lines(out)
        rows = [dict(zip(lines[0].split(","), line.split(",")))
                for line in lines[1:]]
        ran = lambda column: sorted({float(row[column]) for row in rows})
        assert scenario["r"] == ran("r")
        assert scenario["delta"] == ran(delta_column)
        assert scenario["omega"] == ran("omega_lo")
        assert scenario["j0"] == [1.0]


class TestSidecarRerun:
    """A sidecar's scenario block, passed back as --config, reruns its
    command byte for byte."""

    @pytest.mark.parametrize("command,argv", [
        (["coefficients"], ["--omega", "1,3", "--delta", "1e-2",
                            "--tau-max", "5", "--tau-steps", "11"]),
        (["evolve"], ["--method", "quad", "--beta", "2", "--r", "0.5,1",
                      "--mode", "both", "--tau-max", "3", "--tau-steps", "7"]),
        (["sweep"], ["--kappa", "oracle", "--mode", "both", "--r", "0.5,2",
                     "--omega", "1,3", "--delta", "1e-2", "--tau-steps", "24"]),
        (["fig1", "--panel", "b"], ["--tau-steps", "24"]),
        (["fig2", "--panel", "c"], ["--kappa", "symmetric", "--mode", "full",
                                    "--tau-steps", "24"]),
    ], ids=["coefficients", "evolve", "sweep", "fig1", "fig2"])
    def test_rerun_from_sidecar(self, tmp_path, command, argv):
        first, again = tmp_path / "first.csv", tmp_path / "again.csv"
        assert main(command + argv + ["--out", str(first)]) == 0
        cfg = tmp_path / "cfg.json"
        meta = json.loads(first.with_suffix(".meta").read_text())
        cfg.write_text(json.dumps(meta["scenario"]))
        assert main(command + ["--config", str(cfg), "--out", str(again)]) == 0
        assert again.read_bytes() == first.read_bytes()


class TestVocabulary:
    def test_every_option_is_a_scenario_field(self):
        # one name per setting: a data command's option sets the scenario
        # field of its own name, and sweep offers every field but the
        # config-only tau_start
        names = {f.name for f in fields(SweepScenario)}
        subparsers = next(a for a in build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        for command, sp in subparsers.choices.items():
            if command != "verify":
                dests = {a.dest for a in sp._actions}
                assert dests - {"config", "panel", "help"} <= names, command
        sweep = {a.dest for a in subparsers.choices["sweep"]._actions}
        assert names - sweep == {"tau_start"}


class TestOneTracePerEnvironment:
    @pytest.mark.parametrize("argv,calls", [
        (["evolve", "--r", "0.3,0.9,2", "--mode", "both"], 1),
        (["sweep", "--kappa", "oracle", "--mode", "both", "--r", "0.5,1,2",
          "--omega", "1,3", "--delta", "1e-2"], 2),
        (["fig1", "--panel", "a"], 1),
        (["fig2", "--panel", "b", "--kappa", "oracle", "--mode", "full"], 5),
        (["coefficients", "--omega", "1,3", "--delta", "1e-2,1e-2"], 2),
        (["sweep", "--kappa", "paper", "--r", "0.5,1", "--omega", "1,3"], 0),
    ])
    def test_build_trace_calls(self, tmp_path, monkeypatch, argv, calls):
        seen = []
        build_trace = cli.build_trace

        def counting(*args, **kwargs):
            seen.append(args)
            return build_trace(*args, **kwargs)

        monkeypatch.setattr(cli, "build_trace", counting)
        assert main(argv + ["--tau-max", "10", "--tau-steps", "21",
                            "--out", str(tmp_path / "x.csv")]) == 0
        assert len(seen) == calls


class TestStreamedTables:
    """A data command holds its curves as arrays and streams the rows into
    the CSV, so its working set is about one coefficient trace. The guard
    is tracemalloc's peak over one run in process, after a warm-up run, in
    MiB."""

    @pytest.mark.parametrize("argv,mib", [
        (["fig2", "--panel", "b", "--kappa", "oracle", "--mode", "full"], 1.5),
        (["evolve", "--r", "0.3,0.9,2", "--mode", "both", "--tau-max", "30",
          "--tau-steps", "1500"], 5.5),
        # one 120,000-row block, expanded to Python values 4,096 rows at a
        # time: 55.0 MiB, and 66.4 MiB expanded whole
        (["evolve", "--tau-steps", "120000"], 60.0)],
        ids=["fig2b", "evolve", "evolve-one-block"])
    def test_peak(self, tmp_path, argv, mib):
        argv = argv + ["--out", str(tmp_path / "x.csv")]
        assert main(argv) == 0
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / 2 ** 20 <= mib

    @pytest.mark.parametrize("argv,code,err", [
        # the second r, after the first one's curves
        (["sweep", "--kappa", "symmetric", "--r", "1,100"], 3,
         "numeric error: kappa: (I1 - I3)^2"),
        (["evolve", "--mode", "both", "--r", "1,400"], 2, "domain error: r"),
        # the second environment, after the first one's trace
        (["coefficients", "--method", "quad", "--omega", "1,1e100",
          "--delta", "1"], 3, "numeric error: omega_hi"),
        (["sweep", "--kappa", "oracle", "--r", "1,400", "--omega", "1,3"], 2,
         "domain error: r")])
    def test_late_refusal_writes_nothing(self, tmp_path, capsys, argv, code,
                                         err):
        out = tmp_path / "x.csv"
        assert main(argv + ["--tau-steps", "5", "--out", str(out)]) == code
        assert capsys.readouterr().err.startswith(err)
        assert list(tmp_path.iterdir()) == []


class TestErrors:
    def test_missing_out(self):
        assert main(["fig1", "--panel", "a"]) == 2

    def test_bad_tau_steps(self, tmp_path):
        assert main(["fig1", "--panel", "a", "--out",
                     str(tmp_path / "x.csv"), "--tau-steps", "1"]) == 2

    @pytest.mark.parametrize("argv", [
        ["sweep", "--tau-steps", "100000000000"],
        # five panel curves: refused once the preset is applied
        ["fig1", "--panel", "a", "--tau-steps", str(MAX_ROWS // 5 + 1)]])
    def test_unallocatable_tau_steps_refused(self, tmp_path, capsys, argv):
        out = tmp_path / "s.csv"
        assert main(argv + ["--out", str(out)]) == 2
        assert "exceeds the ceiling" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_column_refused(self, tmp_path, capsys):
        # tau^4 overflows the closed-form damping exponent
        out = tmp_path / "c.csv"
        assert main(["coefficients", "--tau-max", "1e80", "--tau-steps", "5",
                     "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "numeric error: gamma_int: not finite" in err
        assert not out.exists()
        assert not out.with_suffix(".meta").exists()

    def test_overflowing_weights_refused(self, tmp_path, capsys):
        # Gamma rises by more than 1e154 per dense step, so the squared rise
        # in the exponential-integrator weights would overflow and zero them;
        # in process, so that a numpy RuntimeWarning would fail the test
        out = tmp_path / "c.csv"
        assert main(["coefficients", "--method", "quad", "--j0", "1e307",
                     "--tau-steps", "5", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric error: gamma_int: rises by more than")
        assert "Warning" not in err
        assert not out.exists()
        assert not out.with_suffix(".meta").exists()

    @pytest.mark.parametrize("argv", [
        ["coefficients", "--tau-steps", "5"],
        ["sweep", "--kappa", "symmetric"]])
    def test_overflowing_kernels_refused(self, tmp_path, capsys, argv):
        # 2 * j0 overflows in the band transforms; in process, so that a
        # numpy RuntimeWarning would fail the test
        out = tmp_path / "k.csv"
        assert main(argv + ["--method", "quad", "--j0", "1e308",
                            "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == "numeric error: gamma: not finite at tau <= 30\n"
        assert not out.exists()
        assert not out.with_suffix(".meta").exists()

    @pytest.mark.parametrize("argv,err", [
        # the spline's coefficients overflow and would read NaN
        (["coefficients", "--method", "quad", "--tau-max", "1e-160"],
         "numeric error: delta_coef: not finite at tau <= 1e-160\n"),
        # the dense step underflows to 0 and the spline would divide by it
        (["evolve", "--tau-max", "1e-320"],
         "numeric error: tau_grid: dense steps underflow to 0 at tau <= ")])
    def test_tiny_horizon_refused(self, tmp_path, capsys, argv, err):
        # in process, so that a numpy RuntimeWarning would fail the test
        out = tmp_path / "t.csv"
        assert main(argv + ["--tau-steps", "3", "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith(err)
        assert not out.exists()
        assert not out.with_suffix(".meta").exists()

    def test_small_horizon_still_written(self, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["coefficients", "--method", "quad", "--tau-max", "1e-150",
                     "--tau-steps", "3", "--out", str(out)]) == 0
        assert "nan" not in out.read_text()

    @pytest.mark.parametrize("omega", ["0", "1"])
    def test_paper_kappa_at_huge_coupling(self, tmp_path, capsys, omega):
        # t^4*j0*delta overflows: a band at zero frequency has no quartic
        # term, and above it the exponential's limit exp(-inf) = 0 is right;
        # in process, so that a numpy RuntimeWarning would fail the test
        out = tmp_path / "k.csv"
        assert main(["sweep", "--j0", "1e308", "--omega", omega,
                     "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        j0_delta = 1e308 * 1e-3
        lines = read_lines(out)
        for row in (l.split(",") for l in lines if l.startswith("point")):
            tau, kappa, e_n = float(row[1]), float(row[9]), float(row[10])
            quartic = 0.0 if omega == "0" else tau ** 4 * j0_delta / 6.0
            assert kappa == pytest.approx(0.5 * (
                tau * tau * j0_delta + math.exp(-2.0 - quartic)), rel=1e-15)
            assert math.isfinite(e_n)
        tau_sd = lines[-1].split(",")[-1]
        assert lines[-1].startswith("sudden_death") and float(tau_sd) < 1e-6

    def test_non_finite_paper_kappa_refused(self, tmp_path, capsys):
        # j0*delta overflows to inf, so kappa has no finite value at all
        out = tmp_path / "k.csv"
        assert main(["sweep", "--j0", "1e308", "--delta", "10",
                     "--out", str(out)]) == 3
        assert capsys.readouterr().err == \
            "numeric error: j0, delta: 1e+308 * 10 overflows\n"
        assert not out.exists()
        assert not out.with_suffix(".meta").exists()

    def test_overflowing_band_top_refused(self, tmp_path, capsys):
        # the quadrature route's kernel series raise the band top to the
        # fourth power, which overflows here
        out = tmp_path / "o.csv"
        assert main(["sweep", "--kappa", "symmetric", "--method", "quad",
                     "--omega", "1e100", "--delta", "1", "--tau-steps", "5",
                     "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "numeric error: omega_hi: the small-s series of the band kernels "
            "overflows at omega_hi = 1e+100\n")
        assert not out.exists()
        assert not out.with_suffix(".meta").exists()

    def test_cli_thermal_conflict_rejected(self, tmp_path):
        # beta is the one temperature setting: the old --low-t switch is
        # gone, alone or next to --beta
        out = tmp_path / "x.csv"
        for extra in ([], ["--beta", "5.0"]):
            with pytest.raises(SystemExit) as exc:
                main(["coefficients", "--out", str(out), "--low-t"] + extra)
            assert exc.value.code == 2
        assert not out.exists()

    def test_config_thermal_conflict_rejected(self, tmp_path, capsys):
        # a config file from before beta became the one temperature setting
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "x.csv"
        for raw in ({"low_t": True}, {"beta": 5.0, "low_t": False}):
            cfg.write_text(json.dumps(raw))
            assert main(["coefficients", "--config", str(cfg), "--out",
                         str(out)]) == 2
            assert "unknown key 'low_t'" in capsys.readouterr().err
        assert not out.exists()
        assert not out.with_suffix(".meta").exists()

    def test_config_old_tau_stop_rejected(self, tmp_path, capsys):
        # the horizon has one name, tau_max, in flags, configs and sidecars
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "x.csv"
        cfg.write_text(json.dumps({"tau_stop": 5.0}))
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        assert "unknown key 'tau_stop'" in capsys.readouterr().err
        assert not out.exists()
        assert not out.with_suffix(".meta").exists()

    @pytest.mark.parametrize("raw,key", [
        ({"r": ["abc"]}, "r"), ({"r": [True]}, "r"), ({"r": 0.5}, "r"),
        ({"tau_max": "5"}, "tau_max"), ({"beta": "2"}, "beta"),
        ({"tau_steps": "10"}, "tau_steps"), ({"tau_steps": 10.5}, "tau_steps"),
        ({"jobs": 1.5, "omega": [1, 2]}, "jobs"), ({"method": 1}, "method"),
        ({"out": 5}, "out"), ({"tau_max": 10 ** 400}, "tau_max")])
    def test_config_value_of_wrong_type_rejected(self, tmp_path, capsys, raw,
                                                 key):
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "o.csv"
        cfg.write_text(json.dumps(raw))
        assert main(["sweep", "--config", str(cfg), "--out", str(out),
                     "--kappa", "paper"]) == 2
        assert f"error: {key}: must be" in capsys.readouterr().err
        assert not out.exists()
        assert not out.with_suffix(".meta").exists()

    @pytest.mark.parametrize("key", ["mode", "kappa", "method"])
    def test_config_unknown_choice_rejected(self, tmp_path, capsys, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: "bogus"}))
        assert main(["sweep", "--config", str(cfg), "--out",
                     str(tmp_path / "o.csv")]) == 2
        assert capsys.readouterr().err == \
            f"error: {key}: unknown value 'bogus'\n"
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("text,err", [
        ("{not json", "error: config: not valid JSON"),
        ("[1, 2]", "error: config: top level must be a JSON object")])
    def test_config_that_is_not_an_object_rejected(self, tmp_path, capsys,
                                                   text, err):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert main(["sweep", "--config", str(cfg), "--out",
                     str(tmp_path / "o.csv")]) == 2
        assert capsys.readouterr().err.startswith(err)
        assert list(tmp_path.iterdir()) == [cfg]

    def test_list_option_that_is_not_numbers_rejected(self, tmp_path, capsys):
        # refused by the parser, which exits 2 itself
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--r", "abc", "--out", str(tmp_path / "o.csv")])
        assert exc.value.code == 2
        assert "not a comma-separated float list: 'abc'" in \
            capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_fig2_both_mode_rejected(self, tmp_path):
        # the default kappa source, paper, is the secular closed form: fig2
        # refuses mode both with it, as sweep does
        assert main(["fig2", "--panel", "a", "--mode", "both", "--out",
                     str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("recipe", [["fig1", "--panel", "a"],
                                        ["fig2", "--panel", "a"]])
    @pytest.mark.parametrize("route", ["flag", "config"])
    def test_recipe_rejects_finite_beta(self, tmp_path, capsys, recipe, route):
        # the recipes run at low temperature; a finite beta is refused
        # instead of being recorded in the sidecar without effect
        out = tmp_path / "x.csv"
        if route == "flag":
            args = recipe + ["--beta", "5.0"]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"beta": 5.0}))
            args = recipe + ["--config", str(cfg)]
        assert main(args + ["--out", str(out)]) == 2
        assert "beta" in capsys.readouterr().err
        assert not out.exists()
        assert not out.with_suffix(".meta").exists()

    def test_eigensolve_failure_names_the_symmetric_source(
            self, tmp_path, capsys, monkeypatch):
        def fail(matrices):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", fail)
        out = tmp_path / "s.csv"
        assert main(["sweep", "--kappa", "oracle", "--tau-steps", "8",
                     "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "numeric error: eigendecomposition failed: Eigenvalues did not "
            "converge; use --kappa symmetric\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kappa", ["paper", "symmetric"])
    def test_grid_repeating_a_time_names_its_options(self, tmp_path, capsys,
                                                     kappa):
        out = tmp_path / "s.csv"
        argv = ["sweep", "--kappa", kappa, "--tau-steps", "600",
                "--out", str(out)]
        assert main(argv + ["--tau-max", "1e-321"]) == 2
        assert capsys.readouterr().err.startswith(
            "error: tau_max, tau_steps: 600 times up to 1e-321 repeat a time")
        assert list(tmp_path.iterdir()) == []
        # an ascending grid: the symmetric source's dense step underflows
        code = main(argv + ["--tau-max", "1e-320"])
        err = capsys.readouterr().err
        if kappa == "symmetric":
            assert code == 3
            assert err.startswith("numeric error: tau_grid: dense steps")
        else:
            assert (code, err) == (0, "")

    @pytest.mark.parametrize("argv", [
        ["sweep", "--kappa", "symmetric", "--r", "nan", "--tau-steps", "5"],
        ["sweep", "--kappa", "paper", "--tau-max", "inf"],
        ["sweep", "--kappa", "symmetric", "--omega", "inf"],
        ["sweep", "--kappa", "symmetric", "--method", "quad", "--omega",
         "1e308", "--delta", "1e308"],  # omega_hi = omega + delta overflows
    ])
    def test_non_finite_input_rejected(self, tmp_path, capsys, argv):
        out = tmp_path / "s.csv"
        assert main(argv + ["--out", str(out)]) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()
        assert not out.with_suffix(".meta").exists()

    @pytest.mark.parametrize("argv", [
        ["sweep", "--kappa", "symmetric"], ["sweep", "--kappa", "oracle"],
        ["sweep", "--kappa", "paper"], ["evolve"]])
    def test_strong_squeezing_rejected(self, tmp_path, capsys, argv):
        # cosh(2r) overflows above r = 355.24
        out = tmp_path / "s.csv"
        assert main(argv + ["--r", "400", "--tau-steps", "5",
                            "--out", str(out)]) == 2
        assert "domain error" in capsys.readouterr().err
        assert not out.exists()
        assert not out.with_suffix(".meta").exists()

    @pytest.mark.parametrize("r", ["90", "100"])
    def test_overflowing_invariant_refused(self, tmp_path, capsys, r):
        # in process, so that a numpy RuntimeWarning would fail the test
        out = tmp_path / "s.csv"
        assert main(["sweep", "--kappa", "symmetric", "--r", r,
                     "--tau-steps", "5", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric error: kappa: (I1 - I3)^2")
        assert err.count("\n") == 1
        assert not out.exists()
        assert not out.with_suffix(".meta").exists()

    def test_overflowing_thermal_invariant_refused(self, tmp_path, capsys):
        # thermal noise, not squeezing (r = 0), overflows (I1 - I3)^2; the
        # oracle source, which squares nothing, runs
        argv = ["sweep", "--method", "quad", "--beta", "1e-150", "--r", "0",
                "--tau-steps", "5", "--out", str(tmp_path / "s.csv")]
        assert main(argv + ["--kappa", "symmetric"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric error: kappa: (I1 - I3)^2")
        assert "squeezing" not in err
        assert list(tmp_path.iterdir()) == []
        assert main(argv + ["--kappa", "oracle"]) == 0

    @pytest.mark.parametrize("argv,name", [
        (["verify", "--tol-scale", "-inf"], "tol_scale"),
        (["sweep", "--beta", "-inf"], "beta"),
        (["sweep", "--tau-max", "-1e3"], "tau_max"),
        (["sweep", "--j0", "-1e3"], "j0_delta"),
        (["sweep", "--r", "-1,2"], "r must be non-negative")])
    def test_value_starting_with_minus_reaches_its_option(
            self, tmp_path, capsys, argv, name):
        # not a plain decimal, which argparse alone would read as an option:
        # the same refusal as the value joined to its option by "="
        out = ["--out", str(tmp_path / "x.csv")]
        assert main(argv + out) == 2
        err = capsys.readouterr().err
        assert name in err and "expected one argument" not in err
        joined = [*argv[:-2], "=".join(argv[-2:])]
        assert main(joined + out) == 2
        assert capsys.readouterr().err == err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv,name", [
        (["sweep", "--mode", "full"], "mode"),
        (["sweep", "--mode", "both"], "mode"),
        (["sweep", "--method", "quad"], "method"),
        (["fig2", "--panel", "a", "--mode", "full"], "mode"),
        (["fig2", "--panel", "a", "--method", "quad"], "method")])
    def test_paper_source_refuses_what_it_never_reads(self, tmp_path, capsys,
                                                      argv, name):
        # the paper source is the secular closed form: a full mode or the
        # quadrature method would only be written into the tags and the
        # sidecar
        out = tmp_path / "s.csv"
        assert main(argv + ["--kappa", "paper", "--tau-steps", "5",
                            "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {name}: --kappa paper is the secular closed form")
        assert not out.exists()
        assert not out.with_suffix(".meta").exists()

    def test_non_positive_beta_rejected(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        assert main(["coefficients", "--method", "quad", "--beta", "0",
                     "--tau-steps", "3", "--out", str(out)]) == 2
        assert "beta must be positive" in capsys.readouterr().err
        assert not out.exists()
        assert not out.with_suffix(".meta").exists()

    def test_oracle_refuses_squeezing_beyond_the_eigensolver(self, tmp_path,
                                                             capsys):
        # at r = 10 the PT eigensolve returned kappa(0) = 1.2e-16 for the
        # true exp(-20) = 2.1e-9; at r = 4 its relative error is 2e-9
        out = tmp_path / "s.csv"
        argv = ["sweep", "--kappa", "oracle", "--mode", "full", "--delta",
                "1e-2", "--tau-steps", "5", "--out", str(out)]
        assert main(argv + ["--r", "10"]) == 3
        assert "--kappa symmetric" in capsys.readouterr().err
        assert not out.exists()
        assert not out.with_suffix(".meta").exists()
        assert main(argv + ["--r", "4"]) == 0
        first = read_lines(out)[1].split(",")
        assert float(first[-3]) == pytest.approx(math.exp(-8.0), rel=1e-8)

    @pytest.mark.parametrize("r", [20.0, 100.0, 355.0])
    def test_evolve_takes_large_finite_squeezing(self, tmp_path, r):
        # the covariance check's floors scale with the matrix: eigvalsh
        # rounds at about eps * cosh(2r). numpy's cosh is correctly rounded
        # at 2r = 710, where math.cosh is one ulp high.
        out = tmp_path / "e.csv"
        assert main(["evolve", "--r", str(r), "--tau-steps", "5",
                     "--out", str(out)]) == 0
        lines = read_lines(out)
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert float(row["tau"]) == 0.0
        assert float(row["cm_11"]) == np.cosh(2.0 * r)

    def test_invalid_panel(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["fig1", "--panel", "d", "--out", str(tmp_path / "x.csv")])

    def test_regime_warning(self, tmp_path, capsys):
        # the closed-form route and the paper kappa never read beta, so a
        # finite beta from the flag or the config file is refused instead
        # of being recorded in the sidecar
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"beta": 5.0}))
        out = tmp_path / "x.csv"
        for command in (["coefficients"], ["evolve"],
                        ["sweep", "--kappa", "symmetric"],
                        ["sweep", "--method", "quad", "--kappa", "paper"]):
            for route in (["--beta", "5.0"], ["--config", str(cfg)]):
                assert main(command + route + [
                    "--out", str(out), "--tau-max", "0.5",
                    "--tau-steps", "3"]) == 2
                assert "beta" in capsys.readouterr().err
                assert not out.exists()
                assert not out.with_suffix(".meta").exists()

    def test_quadrature_route_takes_finite_beta(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        assert main(["coefficients", "--method", "quad", "--beta", "5.0",
                     "--out", str(out), "--tau-max", "0.5",
                     "--tau-steps", "3"]) == 0
        assert capsys.readouterr().err == ""
        meta = json.loads(out.with_suffix(".meta").read_text())
        assert meta["scenario"]["beta"] == 5.0


class TestVerifyCommand:
    def test_pass_and_csv(self, tmp_path, capsys):
        out = tmp_path / "verify.csv"
        assert main(["verify", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "[PASS]" in stdout and "[FAIL]" not in stdout
        lines = read_lines(out)
        assert lines[0].startswith("name,primary,oracle")
        # verify reads no scenario, so its sidecar records none
        meta = json.loads(out.with_suffix(".meta").read_text())
        assert "scenario" not in meta and meta["tol_scale"] == 1.0

    def test_zero_tolerance_fails(self, capsys):
        assert main(["verify", "--tol-scale", "0"]) == 1
        stdout = capsys.readouterr().out
        assert "[PASS]" not in stdout

    @pytest.mark.parametrize("scale", ["inf", "nan", "-1", "-inf", "-0.5"])
    def test_meaningless_tolerance_refused(self, tmp_path, capsys, scale):
        # no tolerance at all: refused before any check runs, and nothing
        # is written
        out = tmp_path / "verify.csv"
        assert main(["verify", f"--tol-scale={scale}", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "tol_scale must be finite and non-negative" in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_huge_finite_tolerance_runs(self, capsys):
        # finite, so a tolerance: every row passes under it
        assert main(["verify", "--tol-scale", "1e308"]) == 0
        assert "[FAIL]" not in capsys.readouterr().out
