import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import jcm4
from jcm4 import catlab, dynamics, fock, observables
from jcm4.cli import (_CSV_BLOCK, _csv, _format_tables, _json, _resolve_config, _rows, _text,
                      build_parser, cmd_qfunc, main, parse_tau, tau_label)
from jcm4.dynamics import Time
from jcm4.errors import JcmError

# small, fast configuration shared by the subcommand tests
FAST = ["--nbar", "4", "--cutoff", "32"]
# an integer past the double range (about 1.8e308)
HUGE = "1" + "0" * 400


def count_evolve(monkeypatch):
    """Patch ``evolve`` at each module that binds it; return the list of
    the times it is called at."""
    evolve, times = dynamics.evolve, []

    def counted(params, tau):
        times.append(tau)
        return evolve(params, tau)

    for module in (dynamics, catlab):
        monkeypatch.setattr(module, "evolve", counted)
    return times


class TestParseTau:
    @pytest.mark.parametrize(
        "expr,value",
        [
            ("0", 0.0),
            ("pi", math.pi),
            ("pi/4", math.pi / 4),
            ("pi/8-pi/24000", math.pi * 2999 / 24000),
            ("pi/4+pi/800", math.pi * 201 / 800),
            ("3*pi/800", 3 * math.pi / 800),
            ("3pi/800", 3 * math.pi / 800),
            ("2.5", 2.5),
            ("pi/2+0.125", math.pi / 2 + 0.125),
            ("-pi/4", -math.pi / 4),
            (" pi / 8 ", math.pi / 8),
            ("1e-5", 1e-5),
            ("2.5E+3", 2500.0),
            ("pi/4+1e-3", math.pi / 4 + 1e-3),
            ("-1e-3", -1e-3),
        ],
    )
    def test_values(self, expr, value):
        assert float(parse_tau(expr)) == pytest.approx(value, abs=1e-15)

    def test_exact_rational_accumulation(self):
        # pi terms combine as exact fractions before any float rounding
        got = parse_tau("pi/8-pi/24000")
        frac = Fraction(1, 8) - Fraction(1, 24000)
        assert frac == Fraction(2999, 24000)
        assert got.pi_part == frac
        assert float(got) == math.pi * frac.numerator / frac.denominator

    @pytest.mark.parametrize(
        "expr", ["", "pie", "pi/", "pi//4", "2x", "pi/4+", "++pi", "pi/0x3",
                 "pi/0", "pi/4+3pi/0.0", "1e", "1e-", "1e-pi", "2e-3pi",
                 # a pi coefficient or denominator past the double range
                 pytest.param(HUGE + "pi", id="hugepi"),
                 pytest.param("pi/" + HUGE, id="pi_huge"),
                 pytest.param("pi/4+" + HUGE + "pi/3", id="pi_4phugepi_3")]
    )
    def test_malformed(self, expr):
        with pytest.raises(JcmError, match="tau (expression|term)"):
            parse_tau(expr)

    def test_labels_are_filesystem_safe(self):
        label = tau_label("pi/8-pi/24000")
        assert "/" not in label and "+" not in label and "-" not in label
        assert label == "pi_8mpi_24000"
        assert tau_label("pi/4+pi/800") == "pi_4ppi_800"


class TestPndCommand:
    def test_writes_csv(self, tmp_path):
        rc = main(["pnd", *FAST, "--out", str(tmp_path), "--tau", "0"])
        assert rc == 0
        path = tmp_path / "pnd_0.csv"
        lines = path.read_text().splitlines()
        assert lines[0] == "n,p"
        assert len(lines) == 34
        probs = [float(line.split(",")[1]) for line in lines[1:]]
        assert abs(sum(probs) - 1.0) < 1e-9

    def test_multiple_taus_comma_and_repeat(self, tmp_path):
        rc = main([
            "pnd", *FAST, "--out", str(tmp_path),
            "--tau", "0,pi/4", "--tau", "pi/2",
        ])
        assert rc == 0
        for name in ("pnd_0.csv", "pnd_pi_4.csv", "pnd_pi_2.csv"):
            assert (tmp_path / name).exists()

    def test_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for sub in (a, b):
            main(["pnd", *FAST, "--out", str(sub), "--tau", "pi/4"])
        assert (a / "pnd_pi_4.csv").read_bytes() == (b / "pnd_pi_4.csv").read_bytes()

    def test_lf_line_endings(self, tmp_path):
        main(["pnd", *FAST, "--out", str(tmp_path), "--tau", "0"])
        raw = (tmp_path / "pnd_0.csv").read_bytes()
        assert b"\r" not in raw

    def test_whole_turns_are_the_initial_state(self, tmp_path):
        # W_n 2e12 pi is a whole number of turns, reduced exactly in quadratic
        # mode; as a double its phase would pass 2^40
        assert main(["pnd", *FAST, "--out", str(tmp_path), "--tau", "2000000000000pi"]) == 0
        assert main(["pnd", *FAST, "--out", str(tmp_path), "--tau", "0"]) == 0
        assert ((tmp_path / "pnd_2000000000000pi.csv").read_bytes()
                == (tmp_path / "pnd_0.csv").read_bytes())

    def test_seventeen_digit_round_trip(self, tmp_path):
        main(["pnd", *FAST, "--out", str(tmp_path), "--tau", "pi/4"])
        from jcm4.dynamics import ModelParams, RabiMode, evolve
        from jcm4.observables import pnd

        params = ModelParams(k=4, alpha=2.0, cutoff=32, mode=RabiMode.QUADRATIC)
        expected = pnd(evolve(params, parse_tau("pi/4")))
        lines = (tmp_path / "pnd_pi_4.csv").read_text().splitlines()[1:]
        got = np.array([float(line.split(",")[1]) for line in lines])
        assert np.array_equal(got, expected)

    def test_repeated_time_evolved_once(self, tmp_path, capsys, monkeypatch):
        # specs of one file label parse to one time; the first is kept
        times = count_evolve(monkeypatch)
        rc = main(["pnd", *FAST, "--out", str(tmp_path), "--tau", "pi/4,pi/4",
                   "--tau", "PI/4", "--tau", "2*pi/8", "--tau", "2pi/8"])
        assert rc == 0
        assert times == [Time(Fraction(1, 4)), Time(Fraction(1, 4))]
        assert capsys.readouterr().out.splitlines() == [
            str(tmp_path / "pnd_pi_4.csv"), str(tmp_path / "pnd_2pi_8.csv")]

    def test_cutoff_equal_to_k(self, tmp_path):
        # the smallest cutoff taken: the vacuum at pi/8 splits between |0,e>
        # and |4,g> as cos^2(5 pi/8) and sin^2(5 pi/8)
        rc = main(["pnd", "--nbar", "0", "--cutoff", "4", "--out", str(tmp_path),
                   "--tau", "pi/8"])
        assert rc == 0
        p = np.loadtxt(tmp_path / "pnd_pi_8.csv", delimiter=",", skiprows=1)[:, 1]
        assert abs(p[0] - (2 - math.sqrt(2)) / 4) < 1e-15
        assert abs(p[4] - (2 + math.sqrt(2)) / 4) < 1e-15
        assert np.all(p[1:4] == 0.0)

    def test_large_nbar_writes_finite_values(self, tmp_path):
        rc = main(["pnd", "--nbar", "2000", "--cutoff", "2400",
                   "--out", str(tmp_path), "--tau", "pi/4"])
        assert rc == 0
        rows = np.loadtxt(tmp_path / "pnd_pi_4.csv", delimiter=",", skiprows=1)
        assert rows.shape == (2401, 2)
        assert np.all(np.isfinite(rows))
        assert abs(rows[:, 1].sum() - 1.0) < 1e-9


class TestEntropyCommand:
    def test_range_scan(self, tmp_path):
        rc = main([
            "entropy", *FAST, "--out", str(tmp_path),
            "--tau-min", "0", "--tau-max", "pi/2", "--steps", "11",
        ])
        assert rc == 0
        lines = (tmp_path / "entropy.csv").read_text().splitlines()
        assert lines[0] == "tau,entropy"
        assert len(lines) == 12
        first = [float(v) for v in lines[1].split(",")]
        assert first == [0.0, 0.0]

    def test_dip_window_sidecar(self, tmp_path):
        rc = main([
            "entropy", "--nbar", "50", "--cutoff", "256",
            "--out", str(tmp_path), "--dip-window", "--steps", "121",
        ])
        assert rc == 0
        data = json.loads((tmp_path / "entropy_dip.json").read_text())
        assert data["schema_version"] == 1
        assert data["delta1"] == pytest.approx(math.pi / 800, abs=1e-15)
        assert set(data["gridlines"]) == {"-5", "-3", "-1", "1", "3", "5"}
        assert len(data["minima_tau"]) == len(data["minima_entropy"])
        assert len(data["minima_tau"]) >= 2
        lines = (tmp_path / "entropy_dip.csv").read_text().splitlines()
        assert lines[0] == "tau,entropy"
        assert len(lines) == 122

    @pytest.mark.parametrize("k", ["1", "2"])
    def test_dip_window_requires_k4(self, tmp_path, capsys, k):
        # delta_r = r pi / (16 nbar) and its gridlines are derived for k = 4
        rc = main(["entropy", *FAST, "--k", k, "--mode", "exact",
                   "--dip-window", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert f"k=4, got k={k}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bad_steps(self, tmp_path):
        rc = main([
            "entropy", *FAST, "--out", str(tmp_path),
            "--tau-min", "0", "--tau-max", "1", "--steps", "1",
        ])
        assert rc == 2


class TestQfuncCommand:
    def test_grid_and_sidecar(self, tmp_path):
        rc = main([
            "qfunc", *FAST, "--out", str(tmp_path),
            "--tau", "0", "--window", "6", "--resolution", "61",
        ])
        assert rc == 0
        lines = (tmp_path / "qfunc_0.csv").read_text().splitlines()
        assert lines[0] == "re,im,q"
        assert len(lines) == 61 * 61 + 1
        data = json.loads((tmp_path / "qfunc_0.json").read_text())
        assert data["component_count"] == 1
        assert data["window"] == [-6.0, 6.0, -6.0, 6.0]
        assert abs(data["riemann_sum"] - 1.0) < 1e-2
        assert len(data["component_masses"]) == 1

    def test_coarsest_resolving_grid_is_kept(self, tmp_path):
        # at nbar 50 and pi/4 the window sum is 0.99994 at 21x21; 15x15 is
        # refused (1.132, in TestErrorPaths)
        rc = main(["qfunc", "--out", str(tmp_path), "--tau", "pi/4", "--resolution", "21"])
        assert rc == 0
        data = json.loads((tmp_path / "qfunc_pi_4.json").read_text())
        assert 1.0 - 1e-4 < data["riemann_sum"] <= 1.0

    def test_explicit_window(self, tmp_path):
        rc = main([
            "qfunc", *FAST, "--out", str(tmp_path),
            "--tau", "0", "--window=-1,5,-3,3", "--resolution", "31",
        ])
        assert rc == 0
        data = json.loads((tmp_path / "qfunc_0.json").read_text())
        assert data["window"] == [-1.0, 5.0, -3.0, 3.0]

    @pytest.mark.parametrize("nbar,cutoff", [(1450, 1800), (2000, 2400)])
    def test_large_nbar_window_sums_to_one(self, tmp_path, nbar, cutoff):
        # the plain seed e^{-|beta|^2/2} read 0.777 at nbar 1450 and
        # underflowed to 0 at 2000, refused as "no positive Q values"
        a = math.sqrt(nbar)
        rc = main(["qfunc", "--nbar", str(nbar), "--cutoff", str(cutoff), "--out", str(tmp_path),
                   "--tau", "0", f"--window={a - 4},{a + 4},-4,4", "--resolution", "81"])
        assert rc == 0
        data = json.loads((tmp_path / "qfunc_0.json").read_text())
        assert abs(data["riemann_sum"] - 1.0) < 1e-6
        assert data["component_count"] == 1

    def test_bad_window(self, tmp_path):
        rc = main([
            "qfunc", *FAST, "--out", str(tmp_path),
            "--tau", "0", "--window", "1,2,3",
        ])
        assert rc == 2

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("window", ["nan", "inf", "1e308", "-1,nan,-1,1"])
    def test_non_finite_window(self, tmp_path, capsys, window):
        # a window of 1e308 is finite, but its width overflows
        rc = main([
            "qfunc", *FAST, "--out", str(tmp_path),
            "--tau", "0", f"--window={window}", "--resolution", "11",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []


class TestInversionCommand:
    def test_endpoints(self, tmp_path):
        rc = main([
            "inversion", *FAST, "--out", str(tmp_path),
            "--tau-min", "0", "--tau-max", "pi/2", "--steps", "3",
        ])
        assert rc == 0
        lines = (tmp_path / "inversion.csv").read_text().splitlines()
        assert lines[0] == "tau,w"
        w0 = float(lines[1].split(",")[1])
        w_half = float(lines[3].split(",")[1])
        assert abs(w0 - 1.0) < 1e-12
        assert abs(w_half + 1.0) < 1e-9


class TestCatcheckCommand:
    def test_dossier_fields(self, tmp_path):
        # the coherence turns with the field phase as e^{-4i phase}
        for phase in (0.0, 0.3):
            out = tmp_path / str(phase)
            rc = main([
                "catcheck", "--nbar", "50", "--cutoff", "256",
                "--alpha-phase", str(phase), "--out", str(out), "--r", "1",
            ])
            assert rc == 0
            data = json.loads((out / "catcheck_r1.json").read_text())
            assert data["schema_version"] == 1
            assert data["r"] == 1
            assert data["kerr_fidelity_half_period"] > 1.0 - 1e-8
            assert data["cat_fidelity"] >= 0.98
            assert data["cat_nominal_fidelity"] >= 0.98
            assert abs(data["entropy_quarter"] - 0.6931) < 0.01
            assert data["entropy_dip"] < data["entropy_quarter"]
            assert data["rho12_target_deviation"] < 0.05
            rho12 = complex(*data["rho12_dip"]) * complex(math.cos(4 * phase),
                                                          math.sin(4 * phase))
            assert abs(rho12.real + 0.5) < 0.05
            assert abs(rho12.imag) < 0.01

    def test_each_special_time_evolved_once(self, tmp_path, monkeypatch):
        # pi/2 for the Kerr state, pi/4 + delta_1 for the cat and the dip
        # density, pi/4 for the quarter-period entropy
        times = count_evolve(monkeypatch)
        assert main(["catcheck", *FAST, "--out", str(tmp_path)]) == 0
        assert times == [Time(Fraction(1, 2)), Time(Fraction(1, 4) + Fraction(1, 64)),
                         Time(Fraction(1, 4))]

    def test_no_coherent_state_rebuilt(self, tmp_path, monkeypatch):
        # the Kerr and cat targets rotate the amplitudes ModelParams built
        calls, built = [], fock.coherent_state

        def counted(*args, **kwargs):
            calls.append(args)
            return built(*args, **kwargs)

        monkeypatch.setattr(fock, "coherent_state", counted)
        assert main(["catcheck", *FAST, "--out", str(tmp_path)]) == 0
        assert calls == []

    def test_even_r_rejected(self, tmp_path):
        rc = main(["catcheck", *FAST, "--out", str(tmp_path), "--r", "2"])
        assert rc == 2

    @pytest.mark.parametrize("k", ["1", "2"])
    def test_k_other_than_four_rejected(self, tmp_path, capsys, k):
        # the Kerr and cat targets are derived for the four-photon model
        rc = main(["catcheck", *FAST, "--k", k, "--mode", "exact",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert f"k=4, got k={k}" in capsys.readouterr().err
        assert not (tmp_path / "catcheck_r1.json").exists()


class TestConfigResolution:
    def test_config_file_sets_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nbar": 4.0, "cutoff": 32,
                                   "output_dir": str(tmp_path)}))
        rc = main(["pnd", "--config", str(cfg), "--tau", "0"])
        assert rc == 0
        lines = (tmp_path / "pnd_0.csv").read_text().splitlines()
        assert len(lines) == 34

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nbar": 4.0, "cutoff": 64}))
        rc = main([
            "pnd", "--config", str(cfg), "--cutoff", "32",
            "--out", str(tmp_path), "--tau", "0",
        ])
        assert rc == 0
        lines = (tmp_path / "pnd_0.csv").read_text().splitlines()
        assert len(lines) == 34

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nbarr": 4.0}))
        rc = main(["pnd", "--config", str(cfg), "--tau", "0",
                   "--out", str(tmp_path)])
        assert rc == 2

    @pytest.mark.parametrize("config,flags,named", [
        ({"nbar": "50"}, [], "nbar"),
        ({"cutoff": 256.5}, [], "cutoff"),
        ({"k": "4"}, [], "k"),
        ({"k": True}, [], "k"),
        ({"tail_tol": None}, [], "tail_tol"),
        ({"alpha_phase": False}, [], "alpha_phase"),
        ({"mode": 4}, [], "mode"),
        ({"output_dir": 1}, [], "output_dir"),
        ({"nbar": 10 ** 400}, [], "nbar"),
        ([{"nbar": 4.0}], [], "JSON object"),
        (None, ["--nbar", "-1"], "nbar"),
        (None, ["--nbar", "inf"], "nbar"),
        (None, ["--alpha-phase", "inf"], "alpha_phase"),
    ])
    def test_bad_value_refused(self, tmp_path, capsys, config, flags, named):
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            flags = [*flags, "--config", str(cfg)]
        out = tmp_path / "out"
        rc = main(["pnd", "--tau", "0", *flags, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and named in err[0]
        assert not out.exists()

    def test_missing_config_file(self, tmp_path):
        rc = main(["pnd", "--config", str(tmp_path / "nope.json"),
                   "--tau", "0", "--out", str(tmp_path)])
        assert rc == 2


class TestErrorPaths:
    def test_malformed_tau_exit_code(self, tmp_path):
        rc = main(["pnd", *FAST, "--out", str(tmp_path), "--tau", "pie"])
        assert rc == 2

    def test_zero_denominator_exit_code(self, tmp_path, capsys):
        rc = main(["pnd", *FAST, "--out", str(tmp_path), "--tau", "pi/0"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_non_finite_tau_range_exit_code(self, tmp_path, capsys):
        rc = main(["inversion", *FAST, "--out", str(tmp_path),
                   "--tau-max", "1e999", "--steps", "3"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "inversion.csv").exists()

    def test_tail_too_heavy_exit_code(self, tmp_path):
        rc = main(["pnd", "--nbar", "50", "--cutoff", "60",
                   "--out", str(tmp_path), "--tau", "0"])
        assert rc == 2

    @pytest.mark.parametrize("tail_tol", ["nan", "inf"])
    def test_non_finite_tail_tol_exit_code(self, tmp_path, tail_tol):
        # at cutoff 60 the discarded mass is 7.2e-2
        rc = main(["pnd", "--nbar", "50", "--cutoff", "60", "--tail-tol", tail_tol,
                   "--out", str(tmp_path), "--tau", "0"])
        assert rc == 2
        assert not (tmp_path / "pnd_0.csv").exists()

    # each argv runs with --nbar 4 unless it sets its own, and the fragment
    # pins which refusal fired
    REFUSED = [
        (["catcheck", "--k", "1", "--mode", "exact"], "derived for k=4, got k=1"),
        (["catcheck", "--r", "2"], "r must be odd"),
        (["pnd", "--cutoff", "3", "--tau", "0"], "cutoff must be >= k"),
        (["pnd", "--tau", "0", "--tau", "pie"], "malformed tau term"),
        (["pnd", "--tau", "0,1e999"], "tau must be finite"),
        (["qfunc", "--tau", "0", "--window", "inf"], "window parts must be finite"),
        # the window sum is inf: the cell area overflows
        (["qfunc", "--cutoff", "32", "--tau", "0", "--window", "1.5e154",
          "--resolution", "3"], "Q sums to inf"),
        # the dip window sets its own range, so a time range is refused
        (["entropy", "--dip-window", "--tau-min", "1", "--tau-max", "2"],
         "takes no --tau-min or --tau-max"),
        (["pnd", "--tau", "0", "--tail-tol", "0"], "tail_tol must be > 0"),
        (["pnd", "--tau", "0", "--k", "2"], "quadratic mode is defined for k=4"),
        (["pnd", "--tau", "0", "--k", "0", "--mode", "exact"], "k must be >= 1"),
        (["qfunc", "--tau", "0", "--threshold", "1.5"], "threshold_fraction must be in"),
        (["qfunc", "--tau", "0", "--resolution", "1"], "at 1x1"),
        (["qfunc", "--tau", "0", "--window=100,110,100,110"], "no positive Q"),
        (["entropy", "--dip-window", "--steps", "2"], "steps must be >= 3"),
        (["catcheck", "--nbar", "0"], "nbar must be > 0"),
        # phases W_n tau past 2^40 have lost their digits
        (["entropy", "--tau-max", "1e300", "--steps", "3"], r"past 2\^40"),
        (["catcheck", "--nbar", "1e-30", "--cutoff", "32"], r"past 2\^40"),
        (["entropy", "--dip-window", "--nbar", "1e-300", "--cutoff", "32",
          "--steps", "5"], r"past 2\^40"),
        # Q sums to 5.8e305 and 1.132: the cells do not resolve the state
        (["qfunc", "--cutoff", "32", "--tau", "0", "--window", "1e154",
          "--resolution", "3"], "too coarse to resolve"),
        (["qfunc", "--nbar", "50", "--tau", "pi/4", "--resolution", "15"],
         "Q sums to 1.13241 over the window"),
        # exact W_n overflows a double, and 0 * inf would be a NaN phase
        (["pnd", "--k", "200", "--mode", "exact", "--cutoff", "400", "--tau", "0"],
         "overflow a double"),
        (["inversion", "--k", "200", "--mode", "exact", "--cutoff", "400",
          "--tau-max", "0", "--steps", "3"], "overflow a double"),
        (["pnd", "--tau", HUGE + "pi"], "out of the double range"),
        (["pnd", "--tau", "pi/" + HUGE], "out of the double range"),
        (["entropy", "--tau-max", HUGE + "pi"], "out of the double range"),
        # a tolerance of 1 or more passes every truncation
        (["catcheck", "--nbar", "50", "--cutoff", "20", "--tail-tol", "2"],
         "tail_tol must be < 1"),
        (["pnd", "--nbar", "50", "--cutoff", "10", "--tail-tol", "2", "--tau", "0"],
         "tail_tol must be < 1"),
        # inf - inf is a NaN remainder, which once gave NaN rows with exit 0
        (["inversion", "--tau-max", "1e400-1e400", "--steps", "3"], "tau must be finite"),
    ]

    @pytest.mark.parametrize("argv,fragment", REFUSED,
                             ids=[f"argv{i}" for i in range(len(REFUSED))])
    def test_refused_run_leaves_no_directory(self, tmp_path, capsys, argv, fragment):
        out = tmp_path / "new" / "dir"
        rc = main([argv[0], "--nbar", "4", *argv[1:], "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert re.search(fragment, captured.err)
        assert not (tmp_path / "new").exists()

    def test_allocation_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        # stands in for an allocation the host refuses (e.g. --cutoff 1e13);
        # the extreme case itself is never allocated here
        def refuse(state):
            raise MemoryError("Unable to allocate 72.8 TiB")

        monkeypatch.setattr(observables, "pnd", refuse)
        out = tmp_path / "new"
        rc = main(["pnd", *FAST, "--tau", "0", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == "error: Unable to allocate 72.8 TiB\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["pnd", "--tau", "0", "--tau", "pi/4,pi/8"],
        ["entropy", "--steps", "5"],
        ["entropy", "--dip-window", "--steps", "5"],
        ["qfunc", "--tau", "pi/4", "--resolution", "9"],
        ["inversion", "--steps", "5"],
        ["catcheck"],
        ["pnd", "--tau", "pi/4,pi/4", "--tau", "PI/4", "--tau", "2*pi/8", "--tau", "2pi/8"],
    ])
    def test_printed_paths_are_the_files_written(self, tmp_path, capsys, argv):
        assert main([*argv, *FAST, "--out", str(tmp_path)]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert sorted(printed) == sorted(str(p) for p in tmp_path.iterdir())

    def test_non_finite_nbar_exit_code(self, tmp_path):
        rc = main(["pnd", "--nbar", "nan", "--out", str(tmp_path), "--tau", "0"])
        assert rc == 2
        assert not (tmp_path / "pnd_0.csv").exists()


# every finite double, -0.0, subnormals and the extremes included
FINITE = st.floats(allow_nan=False, allow_infinity=False)


BLOCK = _CSV_BLOCK // 3  # rows of the three-column CSV below formatted at a time


class TestCsvWriter:
    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(FINITE, min_size=1, max_size=40),
           rows=st.sampled_from([1, 2, BLOCK - 1, BLOCK, BLOCK + 1]))
    @example(values=[-0.0, 0.0, 5e-324, -2.2e-308, 1.7e308, -1.7e308,
                     1.7976931348623157e308, 0.1, 1e16, 123456789.0], rows=BLOCK + 1)
    # an exact tie, half to even at the 17th digit, and the neighbours of 1e23
    @example(values=[1000000000000000.25, -1000000000000000.75, math.nextafter(1e23, 0.0),
                     math.nextafter(1e23, math.inf)], rows=BLOCK)
    def test_rows_are_seventeen_digit_values(self, values, rows):
        # an integer index column and two float columns built from the values
        columns = (np.arange(rows), np.resize(values, rows),
                   np.resize(values[::-1], rows) * -1.0)
        expected = "n,a,b\n" + "".join(
            ",".join(format(float(v), ".17g") for v in row) + "\n" for row in zip(*columns))
        assert "".join(_csv("n,a,b", *columns)) == expected


QFUNC_ARGV = ["qfunc", "--tau", "pi/4+pi/800", "--alpha-phase", "0.3"]  # nbar 50, 241 x 241


def near_ties() -> list[float]:
    """Doubles v = M 2^-(t+k) whose y = v 10^k = M 5^k / 2^t, in [1e16, 1e17),
    lies within 63 2^-t of a half-integer and off it: M 5^k = 2^(t-1) + c
    (mod 2^t), 0 < |c| < 64.  With t >= 54 bits after the point, y's
    fraction does not fit the double the formatter holds it in, which may
    round it onto the half; only the tie fallback formats such values right."""
    ties = []
    for k in range(23, 46):
        for t in range(54, 64):
            inverse = pow(5 ** k, -1, 2 ** t)
            for c in (*range(1, 64), *range(-63, 0)):
                m = (2 ** (t - 1) + c) * inverse % 2 ** t
                if 2 ** 52 <= m < 2 ** 53 and 10 ** 16 * 2 ** t <= m * 5 ** k < 10 ** 17 * 2 ** t:
                    ties.append(math.ldexp(m, -t - k))
    return ties


class TestTextFormatter:
    """``_text``, the writer's ``%.17g`` in numpy, against Python's ``%``."""

    @staticmethod
    def inputs() -> np.ndarray:
        rng = np.random.default_rng(2024)
        bits = rng.integers(0, 2 ** 64, size=100_000, dtype=np.uint64).view(np.float64)
        powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
        # exact ties at the 17th digit: m/4 in [1e15, 2.25e15) ends in .25 or
        # .75, m/8 in [1e14, 1e15) in .125, .375, .625 or .875
        quarters = (2 * rng.integers(2 * 10 ** 15, 45 * 10 ** 14, size=20_000) + 1) / 4
        eighths = (2 * rng.integers(4 * 10 ** 14, 4 * 10 ** 15, size=20_000) + 1) / 8
        positive = np.concatenate([
            powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
            np.arange(100_001.0), quarters, eighths, near_ties(),
            np.ldexp(rng.random(1000), rng.integers(-1074, -1022, size=1000)),  # subnormals
            [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308],
        ])
        args = build_parser().parse_args(QFUNC_ARGV)
        field = dynamics.field_rank2(dynamics.evolve(_resolve_config(args).params(),
                                                     parse_tau(args.tau)))
        q = observables.q_grid(field, (-12.0, 12.0, -12.0, 12.0), 241, 241).values.ravel()
        return np.concatenate([bits[np.isfinite(bits)], positive, -positive, q])

    def test_bytes_equal_percent(self):
        values = self.inputs()
        got = "".join(_csv("v", values))
        expected = "v\n" + "%.17g\n" * len(values) % tuple(values.tolist())
        wrong = [] if got == expected else [
            (v, g, e) for v, g, e in zip(values.tolist(), got.split("\n")[1:],
                                         expected.split("\n")[1:]) if g != e]
        assert got == expected, wrong[:5]

    def test_non_finite_values_format_as_percent(self):
        values = np.array([math.nan, math.inf, -math.inf, 1.5])
        assert _rows(_text(values)[:, None]) == "nan\ninf\n-inf\n1.5\n"

    def test_qfunc_csv_peak_stays_below_q_grid(self):
        args = build_parser().parse_args(QFUNC_ARGV)
        cfg = _resolve_config(args)
        field = dynamics.field_rank2(dynamics.evolve(cfg.params(), parse_tau(args.tau)))
        (_, chunks), _ = cmd_qfunc(cfg, args)  # the grid is built, its rows are not
        _format_tables()  # built once per process, not per CSV
        tracemalloc.start()
        try:
            rows = sum(chunk.count("\n") for chunk in chunks)
            writer = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            observables.q_grid(field, (-12.0, 12.0, -12.0, 12.0), 241, 241)
            grid = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert rows == 241 * 241 + 1
        assert writer < grid, (writer, grid)


def test_reused_parser_matches_a_fresh_run(tmp_path, capsys):
    # main builds its parser once per process: neither an argv that argparse
    # rejects nor a refused run may leave a trace in it
    with pytest.raises(SystemExit) as rejected:
        main(["pnd", *FAST, "--tau", "0", "--bogus"])
    assert rejected.value.code == 2
    assert main(["pnd", *FAST, "--tau", "pi/", "--out", str(tmp_path / "refused")]) == 2
    argv = ["pnd", "--nbar", "9", "--cutoff", "64", "--tau", "pi/8,pi/3"]
    assert main([*argv, "--out", str(tmp_path / "reused")]) == 0
    env = dict(os.environ, PYTHONPATH=str(Path(jcm4.__file__).parents[1]))
    subprocess.run([sys.executable, "-c", "import sys, jcm4.cli; sys.exit(jcm4.cli.main())",
                    *argv, "--out", str(tmp_path / "fresh")], env=env, check=True,
                   capture_output=True)
    reused, fresh = tmp_path / "reused", tmp_path / "fresh"
    names = sorted(os.listdir(fresh))
    assert sorted(os.listdir(reused)) == names == ["pnd_pi_3.csv", "pnd_pi_8.csv"]
    for name in names:
        assert (reused / name).read_bytes() == (fresh / name).read_bytes()
    assert sorted(os.listdir(tmp_path)) == ["fresh", "reused"]  # the refused run wrote nothing


def test_json_refuses_non_finite():
    with pytest.raises(ValueError):
        _json({"riemann_sum": math.nan})


def test_import_loads_no_scipy():
    # a fresh interpreter, so that no other test's imports count
    env = dict(os.environ, PYTHONPATH=str(Path(jcm4.__file__).parents[1]))
    code = ("import sys, jcm4.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("argv", [
    ["catcheck", "--nbar", "20000", "--cutoff", "21000"],
    ["pnd", "--tau", "pi/4", "--nbar", "20000", "--cutoff", "21000", "--alpha-phase", "0.3"],
], ids=["catcheck", "pnd"])
def test_bytes_do_not_depend_on_the_blas_thread_count(tmp_path, argv):
    # OpenBLAS splits a dot product over its threads above about 1e4 entries,
    # so a reduction through BLAS would round differently with 1 and 2 threads
    src = str(Path(jcm4.__file__).parents[1])
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-c", "import sys, jcm4.cli; sys.exit(jcm4.cli.main())",
                        *argv, "--out", str(out)], env=env, check=True, capture_output=True)
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert outputs[0] == outputs[1]
    assert outputs[0]
