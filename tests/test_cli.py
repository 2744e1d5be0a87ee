"""Command-line interface: formats, determinism, exit codes."""

import json
import math
import os
import shutil
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

import gradpower
from gradpower import cli, expansion, localpower, montecarlo, specfun
from gradpower.cli import run
from gradpower.localpower import SOURCE_CHAIN, SOURCE_TABLE

from helpers import CATALOG_FIXED
from gradpower.expfam import CATALOG_NAMES, catalog_model
from gradpower.teststats import TestKind

GAMMA_ARGS = ["--model", "gamma", "--fixed", "k=2", "--theta0", "1"]

# `model info` output of every catalog entry, byte for byte
MODEL_INFO_GOLDEN = {
    "normal-variance": (
        "# gradpower model action=info name=normal-variance\n"
        "distribution: normal with known mean mu, variance theta tested\n"
        "alpha: 1/(2 theta)\n"
        "zeta: sqrt(theta)\n"
        "d: (x - mu)^2\n"
        "v: -log(2 pi)/2\n"
        "mle: theta_hat = mean((x - mu)^2)\n"
        "fixed: mu (real)\n"
        "support: (-inf, inf)\n"
        "param_space: theta > 0\n"
    ),
    "normal-mean": (
        "# gradpower model action=info name=normal-mean\n"
        "distribution: normal with known variance theta, mean tested\n"
        "alpha: -mu/theta\n"
        "zeta: exp(mu^2/(2 theta))\n"
        "d: x\n"
        "v: -x^2/(2 theta) - log(2 pi theta)/2\n"
        "mle: mu_hat = mean(x)\n"
        "fixed: theta (> 0)\n"
        "support: (-inf, inf)\n"
        "param_space: mu real\n"
    ),
    "invnormal-theta": (
        "# gradpower model action=info name=invnormal-theta\n"
        "distribution: inverse normal with known mean mu, shape theta tested\n"
        "alpha: theta\n"
        "zeta: theta^(-1/2)\n"
        "d: (x - mu)^2 / (2 mu^2 x)\n"
        "v: -log(2 pi x^3)/2\n"
        "mle: theta_hat = 1 / (2 mean(d))\n"
        "fixed: mu (> 0)\n"
        "support: x > 0\n"
        "param_space: theta > 0\n"
    ),
    "invnormal-mu": (
        "# gradpower model action=info name=invnormal-mu\n"
        "distribution: inverse normal with known shape theta, mean mu tested\n"
        "alpha: theta/(2 mu^2)\n"
        "zeta: exp(-theta/mu)\n"
        "d: x\n"
        "v: -theta/(2x) + log(theta/(2 pi x^3))/2\n"
        "mle: mu_hat = mean(x)\n"
        "fixed: theta (> 0)\n"
        "support: x > 0\n"
        "param_space: mu > 0\n"
    ),
    "gamma": (
        "# gradpower model action=info name=gamma\n"
        "distribution: gamma with known shape k, rate theta tested\n"
        "alpha: theta\n"
        "zeta: theta^(-k)\n"
        "d: x\n"
        "v: (k-1) log(x) - log(Gamma(k))\n"
        "mle: theta_hat = k / mean(x)\n"
        "fixed: k (> 0)\n"
        "support: x > 0\n"
        "param_space: theta > 0\n"
    ),
    "tev": (
        "# gradpower model action=info name=tev\n"
        "distribution: truncated extreme value, scale theta tested\n"
        "alpha: 1/theta\n"
        "zeta: theta\n"
        "d: exp(x) - 1\n"
        "v: x\n"
        "mle: theta_hat = mean(exp(x) - 1)\n"
        "fixed: none\n"
        "support: x > 0\n"
        "param_space: theta > 0\n"
    ),
    "pareto": (
        "# gradpower model action=info name=pareto\n"
        "distribution: Pareto with known scale k, exponent theta tested\n"
        "alpha: 1 + theta\n"
        "zeta: 1/(theta k^theta)\n"
        "d: log(x)\n"
        "v: 0\n"
        "mle: theta_hat = 1 / mean(log(x/k))\n"
        "fixed: k (> 0)\n"
        "support: x > k\n"
        "param_space: theta > 0\n"
    ),
    "laplace": (
        "# gradpower model action=info name=laplace\n"
        "distribution: Laplace with known location k, scale theta tested\n"
        "alpha: 1/theta\n"
        "zeta: 2 theta\n"
        "d: |x - k|\n"
        "v: 0\n"
        "mle: theta_hat = mean(|x - k|)\n"
        "fixed: k (real)\n"
        "support: (-inf, inf)\n"
        "param_space: theta > 0\n"
    ),
    "power": (
        "# gradpower model action=info name=power\n"
        "distribution: power on (0, phi) with known phi, exponent theta tested\n"
        "alpha: 1 - theta\n"
        "zeta: phi^theta / theta\n"
        "d: log(x)\n"
        "v: 0\n"
        "mle: theta_hat = 1 / mean(log(phi/x))\n"
        "fixed: phi (> 0)\n"
        "support: 0 < x < phi\n"
        "param_space: theta > 0\n"
    ),
}


def _capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _csv_rows(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    return header, rows


class TestModelCommand:
    def test_list(self, capsys):
        code, out, _ = _capture(capsys, ["model", "list"])
        assert code == 0
        assert "gamma" in out and "tev" in out and out.startswith("# gradpower model")

    def test_info(self, capsys):
        code, out, _ = _capture(capsys, ["model", "info", "pareto"])
        assert code == 0
        assert "d: log(x)" in out and "support: x > k" in out

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_info_golden(self, capsys, name):
        code, out, _ = _capture(capsys, ["model", "info", name])
        assert code == 0
        assert out == MODEL_INFO_GOLDEN[name]

    def test_info_requires_name(self, capsys):
        code, _, err = _capture(capsys, ["model", "info"])
        assert code == 1 and "name" in err

    def test_info_unknown_model(self, capsys):
        code, _, err = _capture(capsys, ["model", "info", "cauchy"])
        assert code == 2 and "unknown model" in err


class TestStatCommand:
    @pytest.fixture()
    def data_file(self, tmp_path):
        path = tmp_path / "obs.txt"
        path.write_text("# ten observations\n" + "\n".join(
            str(v) for v in [1.0, 3.0, 1.5, 2.5, 2.0, 2.0, 1.2, 2.8, 0.8, 3.2]
        ) + "\n")
        return str(path)

    def test_worked_example(self, capsys, data_file):
        code, out, _ = _capture(
            capsys,
            ["stat", "--model", "gamma", "--fixed", "k=1", "--theta0", "1", "--data", data_file],
        )
        assert code == 0
        fields = dict(
            ln.split(": ") for ln in out.splitlines() if not ln.startswith("#")
        )
        assert float(fields["theta_hat"]) == 0.5
        assert float(fields["s_lr"]) == pytest.approx(6.137056388801094, rel=1e-12)
        assert float(fields["s_wald"]) == pytest.approx(10.0, rel=1e-12)
        assert float(fields["s_score"]) == pytest.approx(10.0, rel=1e-12)
        assert float(fields["s_gradient"]) == pytest.approx(5.0, rel=1e-12)

    def test_csv_format(self, capsys, data_file):
        code, out, _ = _capture(
            capsys,
            ["stat", "--model", "gamma", "--fixed", "k=1", "--theta0", "1",
             "--data", data_file, "--format", "csv"],
        )
        assert code == 0
        header, rows = _csv_rows(out)
        assert header[:3] == ["n", "d_bar", "theta_hat"]
        assert len(rows) == 1 and float(rows[0]["s_gradient"]) == 5.0

    def test_data_outside_support(self, capsys, tmp_path):
        path = tmp_path / "neg.txt"
        path.write_text("-1.0\n2.0\n")
        code, _, err = _capture(
            capsys,
            ["stat", "--model", "gamma", "--fixed", "k=1", "--theta0", "1", "--data", str(path)],
        )
        assert code == 2 and "support" in err


class TestPowerCommand:
    def test_size_row(self, capsys):
        code, out, _ = _capture(
            capsys,
            ["power", *GAMMA_ARGS, "--eps", "0", "--n", "50", "--alpha", "0.05"],
        )
        assert code == 0
        header, rows = _csv_rows(out)
        assert header == ["eps", "lambda", "pi_lr", "pi_wald", "pi_score", "pi_gradient"]
        assert len(rows) == 1
        for col in header[2:]:
            assert float(rows[0][col]) == pytest.approx(0.05, abs=1e-12)

    def test_grid_and_lossless_round_trip(self, capsys):
        code, out, _ = _capture(
            capsys,
            ["power", *GAMMA_ARGS, "--eps", "0:1:0.25", "--n", "50", "--alpha", "0.05"],
        )
        assert code == 0
        _, rows = _csv_rows(out)
        assert [float(r["eps"]) for r in rows] == [0.0, 0.25, 0.5, 0.75, 1.0]
        # 17 significant digits parse back to the same double
        for r in rows:
            for v in r.values():
                assert f"{float(v):.17g}" == v

    def test_default_grid_keyword(self, capsys):
        code, out, _ = _capture(
            capsys,
            ["power", *GAMMA_ARGS, "--eps", "grid", "--n", "50", "--alpha", "0.05"],
        )
        assert code == 0
        _, rows = _csv_rows(out)
        eps = [float(r["eps"]) for r in rows]
        assert len(eps) == 21 and eps[0] == 0.0 and eps[-1] == pytest.approx(2.0)

    def test_clamp_warning_on_stderr(self, capsys):
        code, out, err = _capture(
            capsys,
            ["power", "--model", "gamma", "--fixed", "k=0.3", "--theta0", "1",
             "--eps", "2", "--n", "20", "--alpha", "0.01"],
        )
        assert code == 0
        assert "clamped" in err
        _, rows = _csv_rows(out)
        assert float(rows[0]["pi_wald"]) == 0.0


class TestOrderCommand:
    def test_gamma_ordering_text(self, capsys):
        code, out, _ = _capture(
            capsys,
            ["order", *GAMMA_ARGS, "--alpha", "0.05", "--direction", "above"],
        )
        assert code == 0
        assert "ordering: gradient > lr > wald = score (uniform in x)" in out
        assert "pair wald vs score: equal" in out

    def test_source_flag(self, capsys):
        code, out, _ = _capture(
            capsys,
            ["order", "--model", "tev", "--theta0", "1", "--alpha", "0.05",
             "--direction", "above", "--source", "table"],
        )
        assert code == 0
        assert "ordering: gradient > score > lr > wald (uniform in x)" in out


class TestExpandCommand:
    @pytest.fixture()
    def tensor_file(self, tmp_path):
        path = tmp_path / "tensors.json"
        path.write_text(json.dumps(
            {"p": 1, "q": 0, "K": [[2.0]], "k3": [[[4.0]]], "k21": [[[0.0]]]}
        ))
        return str(path)

    def test_expansion_output(self, capsys, tensor_file):
        code, out, _ = _capture(
            capsys,
            ["expand", "--tensors", tensor_file, "--eps", "1", "--n", "50", "--x", "3.8415"],
        )
        assert code == 0
        assert "# lambda=1" in out
        assert "# mean_mixture=" in out and "# mean_literal=" in out
        _, rows = _csv_rows(out)
        assert float(rows[0]["cdf"]) == pytest.approx(0.72838988136047963, abs=1e-10)

    def test_builds_one_expansion(self, capsys, tensor_file, monkeypatch):
        built = []
        inner = expansion.composite_coefficients

        def counting(*args):
            built.append(args)
            return inner(*args)

        monkeypatch.setattr(expansion, "composite_coefficients", counting)
        monkeypatch.setattr(cli, "composite_coefficients", counting)
        code, _, _ = _capture(
            capsys,
            ["expand", "--tensors", tensor_file, "--eps", "1", "--n", "50", "--x", "3.8415"],
        )
        assert code == 0
        assert len(built) == 1

    def test_one_cdf_call_per_command(self, capsys, monkeypatch, tmp_path):
        # the whole x list goes to one cdf_expansion call, which walks the weights once
        calls, walks = [], []
        inner, weights = cli.cdf_expansion, specfun._poisson_weights
        monkeypatch.setattr(cli, "cdf_expansion",
                            lambda *args: calls.append(args[2]) or inner(*args))
        monkeypatch.setattr(specfun, "_poisson_weights",
                            lambda params: walks.append(params) or weights(params))
        doc = json.loads(Path(__file__).with_name("normal_composite_tensors.json").read_text())
        tensors = tmp_path / "both_tested.json"
        tensors.write_text(json.dumps({**doc, "q": 0}))
        code, out, _ = _capture(
            capsys, ["expand", "--tensors", str(tensors), "--eps=0.5,1", "--n", "50",
                     "--x", "0:10:0.5"])
        assert code == 0 and out.count("\n") == 12 + 21
        assert calls == [[0.5 * i for i in range(21)]]
        assert len(walks) == 1

    def test_eps_dimension_mismatch(self, capsys, tensor_file):
        code, _, err = _capture(
            capsys,
            ["expand", "--tensors", tensor_file, "--eps", "1,2", "--n", "50", "--x", "1"],
        )
        assert code == 2 and "--eps" in err

    def test_missing_file(self, capsys):
        code, _, err = _capture(
            capsys,
            ["expand", "--tensors", "/nonexistent.json", "--eps", "1", "--n", "50", "--x", "1"],
        )
        assert code == 2

    def test_overflowing_drift_is_a_domain_error(self, capsys):
        # eps' K eps overflows to inf: refused by name, with no numpy warning on stderr
        tensors = str(Path(__file__).with_name("normal_composite_tensors.json"))
        code, out, err = _capture(
            capsys, ["expand", "--tensors", tensors, "--eps", "1e200", "--n", "50", "--x", "1"])
        assert code == 2 and out == ""
        assert err == "domain error: noncentrality must be >= 0 and finite, got inf\n"

    @pytest.mark.parametrize("name", ["K", "k3", "k21", "k111"])
    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_tensor_entry_is_named(self, capsys, tmp_path, name, bad):
        # one stderr line that names the array, and no numpy warning on the way
        text = Path(__file__).with_name("normal_composite_tensors.json").read_text()
        doc = json.loads(text)
        entry = doc[name][-1]
        while isinstance(entry[-1], list):
            entry = entry[-1]
        entry[-1] = float(bad)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = _capture(
                capsys, ["expand", "--tensors", str(path), "--eps", "0.5", "--n", "50",
                         "--x", "1"])
        assert caught == []
        assert (code, out) == (2, "")
        assert err == f"domain error: {path}: {name} must be finite\n"

    @pytest.mark.parametrize("field, value, message", [
        ("q", 1.5, "q must be an integer, got 1.5"),
        ("p", 2.9, "p must be an integer, got 2.9"),
        ("q", True, "q must be an integer, got True"),
        ("K", [[1.0, 0.5], [0.0, 1.0]], "K must be symmetric"),
    ])
    def test_bad_tensor_file_field_is_named(self, capsys, tmp_path, field, value, message):
        # a fractional or bool count is refused, not truncated into another model, and a
        # validation message follows the path alone
        doc = json.loads(Path(__file__).with_name("normal_composite_tensors.json").read_text())
        doc[field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = _capture(
            capsys, ["expand", "--tensors", str(path), "--eps", "0.5", "--n", "50", "--x", "1"])
        assert (code, out, err) == (2, "", f"domain error: {path}: {message}\n")

    def test_normal_composite_fixture_golden(self, capsys, tmp_path, monkeypatch):
        # normal(mu, v) with mu the nuisance: the composite expansion's full stdout; each
        # cdf is within 6.3e-17 of a 40-digit evaluation of the same expansion
        name = "normal_composite_tensors.json"
        shutil.copy(Path(__file__).resolve().parent / name, tmp_path / name)
        monkeypatch.chdir(tmp_path)  # the header echoes the path
        code, out, _ = _capture(
            capsys, ["expand", "--tensors", name, "--eps", "0.5", "--n", "50", "--x", "1:5:1"])
        assert code == 0
        assert out == (
            "# gradpower expand tensors=normal_composite_tensors.json eps=0.5 n=50 x=1:5:1\n"
            "# f=1\n"
            "# lambda=0.0625\n"
            "# a0=0.29166666666666669\n"
            "# a1=-0.8125\n"
            "# a2=0.5\n"
            "# a3=0.020833333333333332\n"
            "# mean_literal=1.1508883476483185\n"
            "# mean_mixture=1.1957106781186548\n"
            "# variance=3.2399494936611664\n"
            "# third_moment=10.737436867076458\n"
            "x,cdf,clamped\n"
            "1,0.660818497511656,0\n"
            "2,0.81384781821316821,0\n"
            "3,0.88750373099177915,0\n"
            "4,0.92835046640829155,0\n"
            "5,0.95292263918782394,0\n"
        )


class TestSimulateCommand:
    ARGS = ["simulate", *GAMMA_ARGS, "--eps", "0.5", "--n", "50", "--reps", "1500",
            "--alpha", "0.05", "--seed", "42"]

    def test_byte_identical_runs(self, capsys):
        code1, out1, err1 = _capture(capsys, self.ARGS)
        code2, out2, err2 = _capture(capsys, self.ARGS)
        assert code1 == code2 == 0
        assert out1 == out2
        assert "wall_time" in err1  # volatile info kept off stdout

    def test_report_fields(self, capsys):
        code, out, _ = _capture(capsys, [*self.ARGS, "--compare-sources"])
        assert code == 0
        assert "rejection_rate_gradient:" in out
        assert "predicted_power_consistent-chain_lr:" in out
        assert "predicted_power_table_lr:" in out
        assert "s4_mean:" in out
        assert "failures: 0" in out

    def test_threads_flag_refused(self, capsys):
        code, out, err = _capture(capsys, [*self.ARGS, "--threads", "2"])
        assert code == 1 and out == ""
        assert err == "usage error: unrecognized arguments: --threads 2\n"


class TestGoldenOutput:
    """Full stdout pinned across versions: a refactor must not move one byte."""

    @pytest.fixture(autouse=True)
    def _in_tmp(self, tmp_path, monkeypatch):
        # the config header echoes file paths, so run on relative ones
        monkeypatch.chdir(tmp_path)

    POWER = (
        "eps,lambda,pi_lr,pi_wald,pi_score,pi_gradient\n"
        "0,0,0.050000000000000003,0.050000000000000003,0.050000000000000003,"
        "0.050000000000000003\n"
        "0.5,0.25,0.10286459830320273,0.081017778604724824,0.081017778604724824,"
        "0.11378800815244168\n"
        "1,1,0.249691730057719,0.20584808569260016,0.20584808569260016,"
        "0.27161355224027839\n"
    )

    @pytest.mark.parametrize("flag,source", [("consistent", "consistent-chain"),
                                             ("table", "table")])
    def test_power(self, capsys, flag, source):
        code, out, _ = _capture(
            capsys,
            ["power", *GAMMA_ARGS, "--eps", "0:1:0.5", "--n", "50", "--alpha", "0.05",
             "--source", flag],
        )
        assert code == 0
        assert out == (
            "# gradpower power model=gamma fixed=k=2 theta0=1 eps=0:1:0.5 n=50"
            f" alpha=0.050000000000000003 source={source}\n" + self.POWER
        )

    # `power --eps grid` at alpha 0.01 and n = 50, all 21 points: gamma is a natural
    # family (alpha'' = 0), where the two sources build the same rows and print the
    # same powers; tev is not
    GAMMA_GRID = (
            "0,0,0.010000000000000002,"
            "0.010000000000000002,0.010000000000000002,0.010000000000000002\n"
            "0.10000000000000001,0.010000000000000002,0.010726732194780181,"
            "0.0083686688184698571,0.0083686688184698571,0.011905763882935344\n"
            "0.20000000000000001,0.040000000000000008,0.012866747576277768,"
            "0.0079829683576969866,0.0079829683576969866,0.015308637185568158\n"
            "0.30000000000000004,0.090000000000000024,0.016424315597726686,"
            "0.0086865855255085344,0.0086865855255085344,0.020293180633835759\n"
            "0.40000000000000002,0.16000000000000003,0.021473519976198532,"
            "0.010407822497182397,0.010407822497182397,0.027006368715706597\n"
            "0.5,0.25,0.028137795546205897,"
            "0.01314796401825552,0.01314796401825552,0.035632711310181087\n"
            "0.60000000000000009,0.3600000000000001,0.036570591180005961,"
            "0.016971899064273283,0.016971899064273283,0.046369937237872298\n"
            "0.70000000000000007,0.4900000000000001,0.046938533294282367,"
            "0.02200187529414839,0.02200187529414839,0.059406862294349355\n"
            "0.80000000000000004,0.64000000000000012,0.059408232069217567,"
            "0.028414489765199148,0.028414489765199148,0.074905103221226774\n"
            "0.90000000000000002,0.81000000000000005,0.074137489758775404,"
            "0.036440190760358086,0.036440190760358086,0.09298613925798406\n"
            "1,1,0.091271065754623515,"
            "0.046363724955277449,0.046363724955277449,0.11372473615429654\n"
            "1.1000000000000001,1.2100000000000002,0.11094034050890819,"
            "0.058523216297209232,0.058523216297209232,0.13714890261475768\n"
            "1.2000000000000002,1.4400000000000004,0.13326531929951663,"
            "0.073305072601558677,0.073305072601558677,0.16324544264849558\n"
            "1.3,1.6900000000000002,0.15835663733106967,"
            "0.091131875297779524,0.091131875297779524,0.19196901834771474\n"
            "1.4000000000000001,1.9600000000000004,0.18631482180710315,"
            "0.11244098004817912,0.11244098004817912,0.22325174268656517\n"
            "1.5,2.25,0.21722425375905124,"
            "0.13765280794782819,0.13765280794782819,0.25700997666466274\n"
            "1.6000000000000001,2.5600000000000005,0.25114015928254485,"
            "0.16712965309152461,0.16712965309152461,0.29314541237805503\n"
            "1.7000000000000002,2.8900000000000006,0.28806848013538067,"
            "0.20112801126465524,0.20112801126465524,0.33153871457074346\n"
            "1.8,3.2400000000000002,0.32794037090563188,"
            "0.23974953517372016,0.23974953517372016,0.37203578877158766\n"
            "1.9000000000000001,3.6100000000000003,0.37058493622373123,"
            "0.282897259662308,0.282897259662308,0.41442877450444293\n"
            "2,4,0.41570518840943527,"
            "0.33024427241714327,0.33024427241714327,0.45843564640558127\n"
    )
    GRID = {
        ("gamma", "consistent"): GAMMA_GRID,
        ("gamma", "table"): GAMMA_GRID,
        ("tev", "consistent"): (
            "0,0,0.010000000000000002,"
            "0.010000000000000002,0.010000000000000002,0.010000000000000002\n"
            "0.10000000000000001,0.005000000000000001,0.010374299061130368,"
            "0.0056863163956438366,0.012718290393873634,0.012718290393873634\n"
            "0.20000000000000001,0.020000000000000004,0.011512826473646006,"
            "0.0019683411744678726,0.016285069123235071,0.016285069123235071\n"
            "0.30000000000000004,0.045000000000000012,0.013455774844903755,"
            "0,0.020823050751549492,0.020823050751549492\n"
            "0.40000000000000002,0.080000000000000016,0.016262088875304313,"
            "0,0.026470137219674596,0.026470137219674596\n"
            "0.5,0.125,0.020004567358767381,"
            "0,0.033372530355523261,0.033372530355523261\n"
            "0.60000000000000009,0.18000000000000005,0.024764499413366007,"
            "0,0.041677169532950829,0.041677169532950829\n"
            "0.70000000000000007,0.24500000000000005,0.030625937845748775,"
            "0,0.051523590023248078,0.051523590023248078\n"
            "0.80000000000000004,0.32000000000000006,0.03766978418301959,"
            "0,0.063035415834487241,0.063035415834487241\n"
            "0.90000000000000002,0.40500000000000003,0.045967937681658008,"
            "0,0.076311828683062355,0.076311828683062355\n"
            "1,0.5,0.055577831251770515,"
            "0,0.091419473962809222,0.091419473962809222\n"
            "1.1000000000000001,0.60500000000000009,0.066537726769430636,"
            "0,0.10838535593251446,0.10838535593251446\n"
            "1.2000000000000002,0.7200000000000002,0.078863157846264367,"
            "0,0.12719131975558304,0.12719131975558304\n"
            "1.3,0.84500000000000008,0.092544879915614719,"
            "0,0.14777070294536965,0.14777070294536965\n"
            "1.4000000000000001,0.9800000000000002,0.10754861034991815,"
            "0,0.17000765446684582,0.17000765446684582\n"
            "1.5,1.125,0.12381671624367351,"
            "0,0.19373946521335911,0.19373946521335911\n"
            "1.6000000000000001,1.2800000000000002,0.14127184235079043,"
            "0,0.21876203669990629,0.21876203669990629\n"
            "1.7000000000000002,1.4450000000000003,0.15982228106849264,"
            "0,0.24483835250156227,0.24483835250156227\n"
            "1.8,1.6200000000000001,0.17936869054917989,"
            "0,0.27170953406974285,0.27170953406974285\n"
            "1.9000000000000001,1.8050000000000002,0.19981158975616206,"
            "0.0012191901795008675,0.29910778954449269,0.29910778954449269\n"
            "2,2,0.2210589249447317,"
            "0.0096361073906606198,0.32677033372176723,0.32677033372176723\n"
        ),
        ("tev", "table"): (
            "0,0,0.010000000000000002,"
            "0.010000000000000002,0.010000000000000002,0.010000000000000002\n"
            "0.10000000000000001,0.005000000000000001,0.010374299061130368,"
            "0.0056863163956438366,0.012718290393873634,0.012858244703545777\n"
            "0.20000000000000001,0.020000000000000004,0.011512826473646006,"
            "0.0019683411744678726,0.016285069123235071,0.0174034203431826\n"
            "0.30000000000000004,0.045000000000000012,0.013455774844903755,"
            "0,0.020823050751549492,0.024590097116761994\n"
            "0.40000000000000002,0.080000000000000016,0.016262088875304313,"
            "0,0.026470137219674596,0.035374071057878556\n"
            "0.5,0.125,0.020004567358767381,"
            "0,0.033372530355523261,0.050696567643811488\n"
            "0.60000000000000009,0.18000000000000005,0.024764499413366007,"
            "0,0.041677169532950829,0.071465574879598356\n"
            "0.70000000000000007,0.24500000000000005,0.030625937845748775,"
            "0,0.051523590023248078,0.09853387599945182\n"
            "0.80000000000000004,0.32000000000000006,0.03766978418301959,"
            "0,0.063035415834487241,0.13267366329420568\n"
            "0.90000000000000002,0.40500000000000003,0.045967937681658008,"
            "0,0.076311828683062355,0.17454799713774194\n"
            "1,0.5,0.055577831251770515,"
            "0,0.091419473962809222,0.2246798091472314\n"
            "1.1000000000000001,0.60500000000000009,0.066537726769430636,"
            "0,0.10838535593251446,0.28341960783558506\n"
            "1.2000000000000002,0.7200000000000002,0.078863157846264367,"
            "0,0.12719131975558304,0.35091349270856137\n"
            "1.3,0.84500000000000008,0.092544879915614719,"
            "0,0.14777070294536965,0.42707347507483889\n"
            "1.4000000000000001,0.9800000000000002,0.10754861034991815,"
            "0,0.17000765446684582,0.5115523935135825\n"
            "1.5,1.125,0.12381671624367351,"
            "0,0.19373946521335911,0.60372585228629061\n"
            "1.6000000000000001,1.2800000000000002,0.14127184235079043,"
            "0,0.21876203669990629,0.70268356159669787\n"
            "1.7000000000000002,1.4450000000000003,0.15982228106849264,"
            "0,0.24483835250156227,0.80723219146597813\n"
            "1.8,1.6200000000000001,0.17936869054917989,"
            "0,0.27170953406974285,0.9159113560965686\n"
            "1.9000000000000001,1.8050000000000002,0.19981158975616206,"
            "0.0012191901795008675,0.29910778954449269,1\n"
            "2,2,0.2210589249447317,"
            "0.0096361073906606198,0.32677033372176723,1\n"
        ),
    }
    # the clamp count that each command's stderr warning names
    GRID_CLAMPED = {("gamma", "consistent"): 0, ("gamma", "table"): 0,
                    ("tev", "consistent"): 16, ("tev", "table"): 18}

    @pytest.mark.parametrize("model,flag", list(GRID))
    def test_power_grid(self, capsys, model, flag):
        fixed = ["--fixed", "k=2"] if model == "gamma" else []
        code, out, err = _capture(
            capsys,
            ["power", "--model", model, *fixed, "--theta0", "1", "--eps", "grid", "--n", "50",
             "--alpha", "0.01", "--source", flag],
        )
        assert code == 0
        assert out == (
            f"# gradpower power model={model} fixed={fixed[-1] if fixed else '-'} theta0=1"
            f" eps=grid n=50 alpha=0.01 source={cli._SOURCE_FLAG[flag]}\n"
            "eps,lambda,pi_lr,pi_wald,pi_score,pi_gradient\n" + self.GRID[model, flag]
        )
        clamped = self.GRID_CLAMPED[model, flag]
        assert err == (f"warning: {clamped} power value(s) clamped into [0, 1]\n"
                       if clamped else "")

    def test_order(self, capsys):
        code, out, _ = _capture(
            capsys,
            ["order", "--model", "tev", "--theta0", "1", "--alpha", "0.05",
             "--direction", "above"],
        )
        assert code == 0
        assert out == (
            "# gradpower order model=tev fixed=- theta0=1 alpha=0.050000000000000003"
            " direction=above source=consistent-chain eps_grid=0.25,0.5,1,2\n"
            "ordering: score = gradient > lr > wald (uniform in x)\n"
            "uniform: true\n"
            "pair lr vs wald: greater (uniform); csum=0;"
            " C=(0,-3.9999999999999996,-5.333333333333333)\n"
            "pair lr vs score: less (uniform); csum=0; C=(0,2,2.6666666666666665)\n"
            "pair lr vs gradient: less (uniform); csum=0; C=(0,2,2.6666666666666665)\n"
            "pair wald vs score: less (uniform); csum=0; C=(0,6,8)\n"
            "pair wald vs gradient: less (uniform); csum=0; C=(0,6,8)\n"
            "pair score vs gradient: equal (uniform); csum=0; C=(0,0,0)\n"
        )

    def test_order_grid_certified(self, capsys):
        # score and gradient differ in A alone (every C_m is 0): within the tolerance at
        # eps = 0.01, below it at 5, so the pair goes through _grid_queries and _grid_relation
        code, out, _ = _capture(
            capsys,
            ["order", "--model", "invnormal-mu", "--fixed", "theta=1", "--theta0", "100",
             "--alpha", "0.05", "--direction", "above", "--source", "table",
             "--eps-grid", "0.01,5"],
        )
        assert code == 0
        assert out == (
            "# gradpower order model=invnormal-mu fixed=theta=1 theta0=100"
            " alpha=0.050000000000000003 direction=above source=table eps_grid=0.01,5\n"
            "ordering: gradient > score > lr > wald (grid-certified only)\n"
            "uniform: false\n"
            "pair lr vs wald: greater (uniform); csum=0;"
            " C=(0,-0.14999999999999999,-1.2499999999999999e-06)\n"
            "pair lr vs score: less (uniform); csum=0;"
            " C=(0,0.074999999999999997,6.2499999999999995e-07)\n"
            "pair lr vs gradient: less (uniform); csum=-1.8749999999999998e-06;"
            " C=(0,0.074999999999999997,6.2499999999999995e-07)\n"
            "pair wald vs score: less (uniform); csum=0;"
            " C=(0,0.22500000000000001,1.8749999999999998e-06)\n"
            "pair wald vs gradient: less (uniform); csum=-1.8749999999999998e-06;"
            " C=(0,0.22500000000000001,1.8749999999999998e-06)\n"
            "pair score vs gradient: less (grid-certified); csum=-1.8749999999999998e-06;"
            " C=(0,0,0)\n"
        )

    def test_expand(self, capsys):
        idx = range(3)
        doc = {
            "p": 3,
            "q": 1,
            "K": [[2.0, 0.5, 0.25], [0.5, 1.5, 0.125], [0.25, 0.125, 1.0]],
            "k3": [[[0.1 * (r + s + u) + 0.05 * r * s * u for u in idx] for s in idx]
                   for r in idx],
            "k21": [[[0.2 * r - 0.1 * (s + u) + 0.03 * s * u for u in idx] for s in idx]
                    for r in idx],
        }
        with open("tensors.json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        code, out, _ = _capture(
            capsys,
            ["expand", "--tensors", "tensors.json", "--eps", "0.5,-0.25", "--n", "50",
             "--x", "0.5:4:0.5"],
        )
        assert code == 0
        assert out == (
            "# gradpower expand tensors=tensors.json eps=0.5,-0.25 n=50 x=0.5:4:0.5\n"
            "# f=2\n"
            "# lambda=0.1943359375\n"
            "# a0=-6.7943336142424942e-18\n"
            "# a1=-0.017555147058823526\n"
            "# a2=0.017555147058823533\n"
            "# a3=-1.4456028966473392e-19\n"
            "# mean_literal=2.1993012829120087\n"
            "# mean_mixture=2.3936372204120087\n"
            "# variance=4.8170665132960675\n"
            "# third_moment=20.708750608708076\n"
            "x,cdf,clamped\n"
            "0.5,0.18635464563148704,0\n"
            "1,0.33847446362563882,0\n"
            "1.5,0.46253519889557299,0\n"
            "2,0.56362499259609411,0\n"
            "2.5,0.64592963803581549,0\n"
            "3,0.71288780748592651,0\n"
            "3.5,0.76732073416202884,0\n"
            "4,0.81154026512781419,0\n"
        )

    def test_simulate(self, capsys):
        code, out, _ = _capture(
            capsys,
            ["simulate", *GAMMA_ARGS, "--eps", "0.5", "--n", "50", "--reps", "300",
             "--alpha", "0.05", "--seed", "7", "--compare-sources"],
        )
        assert code == 0
        assert out == (
            "# gradpower simulate model=gamma fixed=k=2 theta0=1 eps=0.5 n=50 reps=300"
            " alpha=0.050000000000000003 seed=7 compare_sources=true\n"
            "critical_value: 3.8414588206941263\n"
            "rejection_rate_lr: 0.11333333333333333\n"
            "rejection_rate_wald: 0.080000000000000002\n"
            "rejection_rate_score: 0.080000000000000002\n"
            "rejection_rate_gradient: 0.11666666666666667\n"
            "mc_stderr_lr: 0.018301993415007094\n"
            "mc_stderr_wald: 0.015663120165960973\n"
            "mc_stderr_score: 0.015663120165960973\n"
            "mc_stderr_gradient: 0.018534252575124751\n"
            "predicted_power_consistent-chain_lr: 0.10286459830320273\n"
            "predicted_power_consistent-chain_wald: 0.081017778604724824\n"
            "predicted_power_consistent-chain_score: 0.081017778604724824\n"
            "predicted_power_consistent-chain_gradient: 0.11378800815244168\n"
            "predicted_power_table_lr: 0.10286459830320273\n"
            "predicted_power_table_wald: 0.081017778604724824\n"
            "predicted_power_table_score: 0.081017778604724824\n"
            "predicted_power_table_gradient: 0.11378800815244168\n"
            "s4_mean: 1.56856094198492\n"
            "s4_mean_se: 0.11487368448282094\n"
            "s4_variance: 3.9587890159976094\n"
            "s4_variance_se: 0.520896144958791\n"
            "s4_third_central: 14.693797867944843\n"
            "s4_third_central_se: 2.5614317251834828\n"
            "joint_score_gradient_rate: 0.073333333333333334\n"
            "failures: 0\n"
            "reps_used: 300\n"
            "seed: 7\n"
        )

    def test_stat_csv(self, capsys):
        with open("obs.txt", "w", encoding="utf-8") as fh:
            fh.write("\n".join(str(v) for v in [1.0, 3.0, 1.5, 2.5, 2.0, 2.0, 1.2, 2.8,
                                                 0.8, 3.2]) + "\n")
        code, out, _ = _capture(
            capsys,
            ["stat", "--model", "gamma", "--fixed", "k=1", "--theta0", "1",
             "--data", "obs.txt", "--format", "csv"],
        )
        assert code == 0
        assert out == (
            "# gradpower stat model=gamma fixed=k=1 theta0=1 data=obs.txt format=csv\n"
            "n,d_bar,theta_hat,s_lr,s_wald,s_score,s_gradient,"
            "p_lr,p_wald,p_score,p_gradient\n"
            "10,2,0.5,6.1370563888010938,10,10,5,0.013237750156171508,"
            "0.001565402258002549,0.001565402258002549,0.025347318677468315\n"
        )


class TestExpandListGolden:
    """Full ``expand`` stdout over an x list that mixes walked points with 0, a negative
    value and inf, at f = 3 and at lam = 198, and which x of a list is refused first."""

    @pytest.fixture(autouse=True)
    def _in_tmp(self, tmp_path, monkeypatch):
        # the config header echoes file paths, so run on relative ones
        monkeypatch.chdir(tmp_path)
        idx = range(3)
        f3 = {
            "p": 3,
            "q": 0,
            "K": [[2.0, 0.5, 0.25], [0.5, 1.5, 0.125], [0.25, 0.125, 1.0]],
            "k3": [[[0.1 * (r + s + u) + 0.05 * r * s * u for u in idx] for s in idx]
                   for r in idx],
            "k21": [[[0.2 * r - 0.1 * (s + u) + 0.03 * s * u for u in idx] for s in idx]
                    for r in idx],
        }
        lam200 = {
            "p": 2,
            "q": 0,
            "K": [[1.0, 0.0], [0.0, 0.5]],
            "k3": [[[0.0, 0.001], [0.001, 0.0]], [[0.001, 0.0], [0.0, 0.002]]],
            "k21": [[[0.0, -0.001], [-0.001, 0.0]], [[0.0, 0.0], [0.0, -0.001]]],
        }
        for name, doc in (("f3.json", f3), ("lam200.json", lam200)):
            with open(name, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)

    def test_f3(self, capsys):
        code, out, err = _capture(
            capsys,
            ["expand", "--tensors", "f3.json", "--eps", "0.5,-0.25,1", "--n", "50",
             "--x=0,-1,1e-3,0.5,2,3.5,5,8,12,25,inf"],
        )
        assert code == 0 and err == ""
        assert out == (
            "# gradpower expand tensors=f3.json eps=0.5,-0.25,1 n=50"
            " x=0,-1,1e-3,0.5,2,3.5,5,8,12,25,inf\n"
            "# f=3\n"
            "# lambda=0.828125\n"
            "# a0=0.18138020833333346\n"
            "# a1=-0.25724724264705889\n"
            "# a2=-0.01482306985294124\n"
            "# a3=0.090690104166666674\n"
            "# mean_literal=3.9940799719386062\n"
            "# mean_mixture=4.6520574027155934\n"
            "# variance=10.267361919302068\n"
            "# third_moment=44.886381068308602\n"
            "x,cdf,clamped\n"
            "0,0,0\n"
            "-1,0,0\n"
            "0.001,3.7679650909522763e-06,0\n"
            "0.5,0.039218721812620518,0\n"
            "2,0.2511518800657182,0\n"
            "3.5,0.46378576272505451,0\n"
            "5,0.63381867681994597,0\n"
            "8,0.84360407124001624,0\n"
            "12,0.95502606788742284,0\n"
            "25,0.99949036490129373,0\n"
            "inf,1,0\n"
        )

    def test_lam_near_200(self, capsys):
        code, out, err = _capture(
            capsys,
            ["expand", "--tensors", "lam200.json", "--eps=14,20", "--n", "50",
             "--x=0,-2.5,1e-3,300,350,380,396,398,420,450,520,inf"],
        )
        assert code == 0 and err == ""
        assert out == (
            "# gradpower expand tensors=lam200.json eps=14,20 n=50"
            " x=0,-2.5,1e-3,300,350,380,396,398,420,450,520,inf\n"
            "# f=2\n"
            "# lambda=198\n"
            "# a0=4.6266666666666669\n"
            "# a1=-7.9449999999999994\n"
            "# a2=1.0049999999999999\n"
            "# a3=2.313333333333333\n"
            "# mean_literal=201.96999949238571\n"
            "# mean_mixture=398.28425692603702\n"
            "# variance=812.86873937198629\n"
            "# third_moment=4789.3560390053963\n"
            "x,cdf,clamped\n"
            "0,0,0\n"
            "-2.5,0,0\n"
            "0.001,0,0\n"
            "300,0.0045799050310220543,0\n"
            "350,0.11104976241712707,0\n"
            "380,0.33094482396281322,0\n"
            "396,0.48722791062206061,0\n"
            "398,0.50720415874435776,0\n"
            "420,0.71254246501822804,0\n"
            "450,0.89946652330112742,0\n"
            "520,0.99791618673908622,0\n"
            "inf,1,0\n"
        )

    @pytest.mark.parametrize("xs,err", [
        ("5e-324,nan",
         "domain error: x=5e-324 is too small for the Poisson mixture (x/2 underflows to 0)\n"),
        ("nan,5e-324", "domain error: x must not be NaN\n"),
    ])
    def test_first_refused_x_decides(self, capsys, xs, err):
        code, out, got = _capture(
            capsys,
            ["expand", "--tensors", "f3.json", "--eps", "0.5,-0.25,1", "--n", "50",
             f"--x={xs}"],
        )
        assert (code, out, got) == (2, "", err)


class TestCliContract:
    @pytest.mark.parametrize("grid", ["0:nan:0.1", "0:1:nan", "0:inf:0.1",
                                      "0:2000000:1", "0:1e300:1",
                                      "1:2", "1:a:0.1", "2:1:0.1", "1,a", "a"])
    def test_bad_grid_is_usage_error(self, capsys, grid):
        code, out, err = _capture(
            capsys,
            ["power", *GAMMA_ARGS, "--eps", grid, "--n", "50", "--alpha", "0.05"],
        )
        assert code == 1
        assert "usage error" in err
        assert out == ""

    def test_repeated_fixed_key_is_usage_error(self, capsys):
        code, out, err = _capture(
            capsys,
            ["power", "--model", "gamma", "--fixed", "k=2, k =3", "--theta0", "1",
             "--eps", "0", "--n", "50", "--alpha", "0.05"],
        )
        assert code == 1 and out == ""
        assert err == "usage error: --fixed key 'k' given more than once\n"

    @pytest.mark.parametrize("fixed,code,err", [
        ("k", 1, "usage error: --fixed entry 'k' must look like key=value\n"),
        ("k=x", 1, "usage error: --fixed value 'x' for key 'k' is not a number\n"),
        ("k=2,", 0, ""),  # the empty item is skipped
    ])
    def test_fixed_entries(self, capsys, fixed, code, err):
        got = _capture(capsys, ["power", "--model", "gamma", "--fixed", fixed, "--theta0", "1",
                                "--eps", "0.5", "--n", "50", "--alpha", "0.05"])
        assert got[0] == code and got[2] == err
        if code == 0:
            want = _capture(capsys, ["power", *GAMMA_ARGS, "--eps", "0.5", "--n", "50",
                                     "--alpha", "0.05"])[1]
            assert got[1] == want.replace("fixed=k=2 ", "fixed=k=2, ")

    @pytest.mark.parametrize("argv", [
        ["power", *GAMMA_ARGS, "--eps", "0.5", "--alpha", "0.05"],
        ["expand", "--tensors", str(Path(__file__).with_name("normal_composite_tensors.json")),
         "--eps", "0.5", "--x", "1"],
        ["simulate", *GAMMA_ARGS, "--eps", "0.5", "--reps", "10", "--alpha", "0.05",
         "--seed", "1"],
    ], ids=["power", "expand", "simulate"])
    def test_huge_n_is_a_domain_error(self, capsys, argv):
        huge = 10 ** 400
        code, out, err = _capture(capsys, [*argv, "--n", str(huge)])
        assert code == 2 and out == ""
        assert err == f"domain error: n must be at most {sys.float_info.max}, got {huge}\n"

    def test_main_exits_with_the_code_of_run(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["gradpower", "model", "list"])
        with pytest.raises(SystemExit) as exc:
            cli.main()
        assert exc.value.code == 0
        assert capsys.readouterr().out.splitlines()[1:] == list(CATALOG_NAMES)

    @pytest.mark.parametrize("argv,code", [
        (["power", *GAMMA_ARGS, "--n", "50", "--alpha", "0.05", "--eps", "-1:1:0.25"], 0),
        (["power", *GAMMA_ARGS, "--n", "50", "--alpha", "0.05", "--eps", "-1,2"], 0),
        (["expand", "--tensors", "tensors.json", "--eps", "-0.5", "--n", "50",
          "--x", "-1:1:0.5"], 0),
        # a negative drift magnitude is refused by the library, not by the parser
        (["order", *GAMMA_ARGS, "--alpha", "0.05", "--direction", "above",
          "--eps-grid", "-1,-0.5"], 2),
    ])
    def test_value_starting_with_minus(self, capsys, tmp_path, monkeypatch, argv, code):
        # "--flag -1:1:0.25" is the flag's value, read as "--flag=-1:1:0.25" is
        monkeypatch.chdir(tmp_path)
        (tmp_path / "tensors.json").write_text(json.dumps(
            {"p": 1, "q": 0, "K": [[2.0]], "k3": [[[4.0]]], "k21": [[[0.0]]]}
        ))
        spaced = _capture(capsys, argv)
        joined = _capture(capsys, [*argv[:-2], f"{argv[-2]}={argv[-1]}"])
        assert spaced == joined
        assert spaced[0] == code

    def test_missing_value_is_usage_error(self, capsys):
        code, out, err = _capture(
            capsys, ["power", *GAMMA_ARGS, "--eps", "--n", "50", "--alpha", "0.05"])
        assert code == 1 and out == ""
        assert "argument --eps: expected one argument" in err

    def test_unknown_flag_exit_1(self, capsys):
        code, _, err = _capture(capsys, ["power", *GAMMA_ARGS, "--eps", "0",
                                         "--n", "50", "--alpha", "0.05", "--bogus", "1"])
        assert code == 1
        assert "--bogus" in err

    def test_missing_required_flag_named(self, capsys):
        code, _, err = _capture(capsys, ["power", *GAMMA_ARGS, "--eps", "0", "--n", "50"])
        assert code == 1
        assert "--alpha" in err

    def test_domain_error_exit_2(self, capsys):
        code, _, err = _capture(
            capsys,
            ["power", *GAMMA_ARGS, "--eps", "0", "--n", "50", "--alpha", "2.0"],
        )
        assert code == 2
        # a negative seed is refused, not wrapped to 2**64 - 1
        code, out, err = _capture(
            capsys,
            ["simulate", *GAMMA_ARGS, "--eps", "0", "--n", "50", "--reps", "10",
             "--alpha", "0.05", "--seed", "-1"],
        )
        assert code == 2 and out == ""
        assert "seed must lie in" in err

    @pytest.mark.parametrize("argv", [
        ["power", "--model", "gamma", "--fixed", "k=2", "--theta0", "1e-200",
         "--eps", "1e-201", "--n", "50", "--alpha", "0.05"],
        ["order", "--model", "gamma", "--fixed", "k=2", "--theta0", "1e-120",
         "--alpha", "0.05", "--direction", "above", "--eps-grid", "1e-121"],
    ])
    def test_arithmetic_failure_exit_3(self, capsys, argv):
        # the catalog derivatives divide by an underflowed theta0 ** 2
        code, out, err = _capture(capsys, argv)
        assert code == 3
        assert err.startswith("numeric failure:")
        assert out == ""

    @pytest.mark.parametrize("argv,name,theta0", [
        # theta0 ** 2 underflows to 0 in the derivatives, and theta0 ** 3 overflows
        (["order", "--model", "pareto", "--theta0", "1e-300", "--fixed", "k=1.5",
          "--alpha", "0.05", "--direction", "below"], "pareto", "1e-300"),
        (["power", "--model", "normal-variance", "--theta0", "1e150", "--fixed", "mu=0.001",
          "--eps", "7", "--n", "1000", "--alpha", "1e-300"], "normal-variance", "1e+150"),
        # the Fisher information of the lambda column fails first
        (["power", "--model", "normal-variance", "--fixed", "mu=0.7", "--theta0", "4e-200",
          "--eps", "1e-6", "--n", "1000", "--alpha", "0.01"], "normal-variance", "4e-200"),
        # beta'' = 2k / theta**3 comes out inf without raising: the same fault, not exit 2
        (["power", "--model", "gamma", "--fixed", "k=2", "--theta0", "1e-105",
          "--eps", "1e-106", "--n", "50", "--alpha", "0.05"], "gamma", "1e-105"),
        # every derivative is finite at 2**-341, but 2 alpha'' beta' overflows in the
        # third cumulant, whatever the drift
        (["power", "--model", "normal-variance", "--fixed", "mu=0.7",
          "--theta0", "2.2323972485981933e-103", "--eps", "1e-104", "--n", "50",
          "--alpha", "0.05"], "normal-variance", "2.2323972485981933e-103"),
    ])
    def test_derivatives_past_the_float_range_are_named(self, capsys, argv, name, theta0):
        code, out, err = _capture(capsys, argv)
        assert code == 3 and out == ""
        assert err == (f"numeric failure: derivatives of {name!r} leave the float range"
                       f" at theta0={theta0}\n")

    @pytest.mark.parametrize("argv", [
        ["simulate", "--model", "pareto", "--theta0", "1e-300", "--fixed", "k=1.5",
         "--eps", "0.5", "--n", "50", "--reps", "10", "--alpha", "0.05", "--seed", "1"],
        ["simulate", "--model", "normal-variance", "--theta0", "1e150", "--fixed", "mu=0.001",
         "--eps", "7", "--n", "1000", "--reps", "10", "--alpha", "1e-300", "--seed", "1"],
    ])
    def test_simulate_refuses_such_a_theta0_before_sampling(self, capsys, monkeypatch, argv):
        chunks = []
        monkeypatch.setattr(montecarlo, "_run_chunks", lambda *args: chunks.append(args))
        code, out, err = _capture(capsys, argv)
        assert code == 3 and out == "" and chunks == []
        assert " leave the float range at theta0=" in err

    @pytest.mark.parametrize("argv,err", [
        # (theta_hat - theta0) ** 2 overflows in S2, and alpha(theta0) divides by 0 in S1
        (["stat", "--model", "tev", "--theta0", "1e300"],
         "numeric failure: statistics of 'tev' leave the float range at theta0=1e+300, "),
        (["stat", "--model", "gamma", "--fixed", "k=2", "--theta0", "5e-324"],
         "numeric failure: statistics of 'gamma' leave the float range at theta0=5e-324, "),
        # S1 is inf - inf, which raises nothing; no domain error about an x never given
        (["stat", "--model", "normal-mean", "--fixed", "theta=1e-300", "--theta0", "1e10"],
         "numeric failure: statistics of 'normal-mean' leave the float range"
         " at theta0=10000000000.0, dbar=1.5\n"),
    ])
    def test_stat_past_the_float_range_is_named(self, capsys, tmp_path, argv, err):
        data = tmp_path / "x.txt"
        data.write_text("0.5\n1.5\n2.5\n")
        code, out, got = _capture(capsys, [*argv, "--data", str(data)])
        assert code == 3 and out == ""
        assert got.startswith(err)

    def test_stat_overflowing_data_is_refused_without_a_warning(self, capsys, tmp_path):
        # d(x) = x^2 overflows for 1e300: the infinite mean is refused by the estimate
        data = tmp_path / "x.txt"
        data.write_text("1e300\n3\n")
        code, out, err = _capture(capsys, ["stat", "--model", "normal-variance", "--fixed",
                                           "mu=0.7", "--theta0", "1", "--data", str(data)])
        assert code == 3 and out == ""
        assert err == "numeric failure: non-finite sufficient-statistic mean inf\n"

    @pytest.mark.parametrize("argv", [
        ["power", *GAMMA_ARGS, "--eps", "1e200", "--n", "50", "--alpha", "0.05"],
        ["power", *GAMMA_ARGS, "--eps", "1e120", "--n", "50", "--alpha", "0.05"],
        ["order", *GAMMA_ARGS, "--eps-grid", "1e200", "--direction", "above",
         "--alpha", "0.05"],
        ["simulate", *GAMMA_ARGS, "--eps", "1e200", "--n", "50", "--reps", "10",
         "--alpha", "0.05", "--seed", "1"],
    ])
    def test_huge_drift_is_a_domain_error(self, capsys, argv):
        # eps ** 3 would overflow: refused by one rule before any sampling, no warning
        code, out, err = _capture(capsys, argv)
        assert code == 2 and out == ""
        drift = float(argv[argv.index("--eps-grid" if argv[0] == "order" else "--eps") + 1])
        assert err == (f"domain error: eps must be at most {expansion._DRIFT_MAX} "
                       f"in magnitude, got {drift}\n")

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_overflowing_coefficients_are_a_domain_error(self, capsys, name):
        # below the drift bound P eps^3 still overflows at theta0 = 0.1, for every model
        # but normal-mean, whose coefficients are all zero; no command prints NaN
        fixed = ",".join(f"{k}={v}" for k, v in CATALOG_FIXED[name].items()) or "-"
        base = ["--model", name, "--theta0", "0.1"] + (["--fixed", fixed] if fixed != "-" else [])
        for argv in (["power", *base, "--eps", "5e102", "--n", "50", "--alpha", "0.05"],
                     ["order", *base, "--eps-grid", "1,5e102", "--direction", "above",
                      "--alpha", "0.05"]):
            code, out, err = _capture(capsys, argv)
            if name == "normal-mean":
                assert code == 0 and err == "" and "nan" not in out
            else:
                assert code == 2 and out == ""
                assert err == ("domain error: local power coefficients overflow at"
                               " theta0=0.1, eps=5e+102\n")

    @pytest.mark.parametrize("compare", [[], ["--compare-sources"]])
    def test_simulate_refuses_overflowing_coefficients_before_sampling(
            self, capsys, monkeypatch, compare):
        # the chunks of this point warn from numpy, so none may run before the refusal.
        # alpha' = -1/var is -inf at a variance of 5e-324 without raising: the same fault
        # as a derivative whose division raises, so the same exit 3 and message
        chunks = []
        monkeypatch.setattr(montecarlo, "_run_chunks", lambda *args: chunks.append(args))
        code, out, err = _capture(
            capsys,
            ["simulate", "--model", "normal-mean", "--fixed", "theta=5e-324", "--theta0", "1",
             "--eps", "-1.6803743083905776", "--n", "50", "--reps", "10", "--alpha", "1e-300",
             "--seed", "3", *compare])
        assert code == 3 and out == "" and chunks == []
        assert err == ("numeric failure: derivatives of 'normal-mean' leave the float range"
                       " at theta0=1.0\n")

    def test_overflowing_moment_sums_are_named(self, capsys):
        # S_G^k overflows in the power sums; refused by name, with no numpy warning
        code, out, err = _capture(
            capsys,
            ["simulate", "--model", "invnormal-mu", "--fixed", "theta=1e150", "--theta0", "1",
             "--eps", "0.5", "--n", "50", "--reps", "10", "--alpha", "1e-16", "--seed", "3"])
        assert code == 3 and out == ""
        assert err == ("numeric failure: moment sums of the gradient statistic overflow"
                       " (model='invnormal-mu', theta0=1.0, eps=0.5, n=50, seed=3)\n")

    def test_infinite_statistics_are_failures_not_rejections(self, capsys):
        # a shape of 1e-155 makes most Wald statistics infinite (their true values pass
        # the float range): those rows are failures, so the run is refused by the failure
        # limit, with no numpy warning on the way
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = _capture(
                capsys,
                ["simulate", "--model", "invnormal-mu", "--fixed", "theta=1e-155", "--theta0", "7",
                 "--eps", "4.301078817733611", "--n", "5", "--reps", "200", "--alpha", "0.999999",
                 "--seed", "3"])
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert code == 3 and out == ""
        assert err == ("numeric failure: 121/200 replicates failed: estimation failed in 0,"
                       " a statistic was not finite in 121 (model='invnormal-mu', theta0=7.0,"
                       " eps=4.301078817733611, n=5, seed=3)\n")

    def test_poisson_walk_is_bounded(self, capsys, tmp_path):
        # the composite fixture with both parameters tested (q = 0) has f = 2, and its
        # lam = 7.5e13 would need ~7e7 mixture terms per sweep
        doc = json.loads(Path(__file__).with_name("normal_composite_tensors.json").read_text())
        tensors = tmp_path / "both_tested.json"
        tensors.write_text(json.dumps({**doc, "q": 0}))
        start = time.perf_counter()
        code, out, err = _capture(
            capsys, ["expand", "--tensors", str(tensors), "--eps=1e7,1e7", "--n", "50", "--x", "1"])
        assert code == 3
        assert err.startswith("numeric failure:") and "Poisson" in err
        assert out == ""
        assert time.perf_counter() - start < 30.0
        # at f = 1 the expansion is in closed form, so the fixture's lam = 2.5e13 walks nothing
        code, out, err = _capture(
            capsys,
            ["expand", "--tensors", str(Path(__file__).with_name("normal_composite_tensors.json")),
             "--eps=1e7", "--n", "50", "--x", "1"],
        )
        assert code == 0 and err == ""
        assert out.endswith("x,cdf,clamped\n1,0,0\n")
        # local power walks no Poisson weights, so lam = eps^2 = 1e14 is in closed form
        code, out, err = _capture(
            capsys, ["power", *GAMMA_ARGS, "--eps", "1e7", "--n", "50", "--alpha", "0.05"]
        )
        assert code == 0 and err == ""
        assert out.endswith("eps,lambda,pi_lr,pi_wald,pi_score,pi_gradient\n"
                            "10000000,100000000000000,1,1,1,1\n")

    def test_long_poisson_walk_still_sums(self, capsys):
        code, out, _ = _capture(
            capsys, ["power", *GAMMA_ARGS, "--eps", "1e4", "--n", "50", "--alpha", "0.05"]
        )
        assert code == 0
        assert out.endswith("eps,lambda,pi_lr,pi_wald,pi_score,pi_gradient\n"
                            "10000,100000000,1,1,1,1\n")

    def test_tiny_alpha_names_alpha(self, capsys):
        # every alpha in (0, 1) is valid, even where 1 - alpha rounds to 1
        code, out, _ = _capture(
            capsys,
            ["power", *GAMMA_ARGS, "--eps", "0.5", "--n", "50", "--alpha", "1e-300"],
        )
        assert code == 0
        assert out.startswith("# gradpower power model=gamma fixed=k=2 theta0=1 eps=0.5 n=50"
                              " alpha=1e-300 source=consistent-chain\n")

    def test_non_utf8_data_file_is_domain_error(self, tmp_path, capsys):
        path = tmp_path / "obs.txt"
        path.write_bytes(b"1.0\n\xff\xfe2.0\n")
        code, out, err = _capture(capsys, ["stat", *GAMMA_ARGS, "--data", str(path)])
        assert code == 2 and out == ""
        assert err.startswith("domain error:") and str(path) in err

    @pytest.mark.parametrize("content", [b"\xff\xfe{}", b"5", b"null", b"true"])
    def test_malformed_tensor_file_is_domain_error(self, tmp_path, capsys, content):
        path = tmp_path / "tensors.json"
        path.write_bytes(content)
        code, out, err = _capture(
            capsys,
            ["expand", "--tensors", str(path), "--eps", "1", "--n", "50", "--x", "1"],
        )
        assert code == 2 and out == ""
        assert err.startswith("domain error:") and str(path) in err

    def test_no_partial_output_file_on_usage_error(self, tmp_path, capsys):
        target = tmp_path / "out.csv"
        code, _, _ = _capture(
            capsys,
            ["power", *GAMMA_ARGS, "--eps", "0", "--n", "50", "--alpha", "0.05",
             "--output", str(target), "--bogus", "x"],
        )
        assert code == 1
        assert not target.exists()

    def test_output_file_written(self, tmp_path, capsys):
        target = tmp_path / "out.csv"
        code, out, _ = _capture(
            capsys,
            ["power", *GAMMA_ARGS, "--eps", "0", "--n", "50", "--alpha", "0.05",
             "--output", str(target)],
        )
        assert code == 0 and out == ""
        assert target.exists() and "pi_gradient" in target.read_text()

    def test_help_documents_flags(self, capsys):
        for sub, flags in {
            "stat": ["--model", "--fixed", "--theta0", "--data", "--format"],
            "power": ["--model", "--eps", "--n", "--alpha", "--source"],
            "order": ["--direction", "--eps-grid", "--source"],
            "expand": ["--tensors", "--eps", "--n", "--x"],
            "simulate": ["--reps", "--seed", "--compare-sources"],
        }.items():
            code, out, _ = _capture(capsys, [sub, "--help"])
            assert code == 0
            for flag in flags:
                assert flag in out, (sub, flag)

    def test_no_subcommand(self, capsys):
        code, _, err = _capture(capsys, [])
        assert code == 1 and "subcommand" in err

    def test_model_list_takes_no_name(self, capsys):
        code, out, err = _capture(capsys, ["model", "list", "extra"])
        assert code == 1 and out == ""
        assert err == "usage error: model list takes no model name, got 'extra'\n"

    # one process runs each failing command and then good commands; every
    # result must match a fresh process given the same argv
    GOOD_ARGV = [
        ["power", *GAMMA_ARGS, "--eps", "0:1:0.5", "--n", "50", "--alpha", "0.05"],
        ["order", *GAMMA_ARGS, "--alpha", "0.05", "--direction", "above"],
        ["expand", "--tensors", str(Path(__file__).with_name("normal_composite_tensors.json")),
         "--eps", "0.5", "--n", "400", "--x", "1:5:1"],
    ]
    # name: (exit code, argv); help and version stop the command with exit 0
    FAILING_ARGV = {
        "missing-flag": (1, ["power", *GAMMA_ARGS, "--eps", "0", "--n", "50"]),
        "unknown-subcommand": (1, ["plot", *GAMMA_ARGS]),
        "empty": (1, []),
        "help": (0, ["--help"]),
        "power-help": (0, ["power", "--help"]),
        "version": (0, ["--version"]),
        "alpha-2": (2, ["power", *GAMMA_ARGS, "--eps", "0", "--n", "50", "--alpha", "2"]),
        "output-missing-dir": (2, ["power", *GAMMA_ARGS, "--eps", "0", "--n", "50",
                                   "--alpha", "0.05", "--output", "no-such-dir/out.csv"]),
    }

    @staticmethod
    def _fresh_process(argv, cwd):
        src = str(Path(gradpower.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, COLUMNS="80",
                   PYTHONPATH=src + (os.pathsep + path if path else ""))
        done = subprocess.run([sys.executable, "-m", "gradpower.cli", *argv], cwd=cwd,
                              env=env, capture_output=True, text=True, timeout=60)
        return done.returncode, done.stdout, done.stderr

    @pytest.fixture(scope="class")
    def fresh_good(self, tmp_path_factory):
        cwd = tmp_path_factory.mktemp("fresh")
        return [self._fresh_process(argv, cwd) for argv in self.GOOD_ARGV]

    @pytest.mark.parametrize("name", FAILING_ARGV)
    def test_no_state_leaks_between_calls(self, capsys, tmp_path, monkeypatch, name,
                                          fresh_good):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("COLUMNS", "80")
        code, argv = self.FAILING_ARGV[name]
        failed = _capture(capsys, argv)
        assert failed[0] == code
        assert failed == self._fresh_process(argv, tmp_path)
        assert [_capture(capsys, argv) for argv in self.GOOD_ARGV] == fresh_good
        assert all(code == 0 for code, _, _ in fresh_good)

    def test_parser_built_once(self, capsys, monkeypatch):
        built = []
        init = cli._Parser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs["prog"])
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting_init)
        cli._build_parser.cache_clear()
        calls = [*self.GOOD_ARGV, *(argv for _, argv in self.FAILING_ARGV.values())][:10]
        assert len(calls) == 10
        try:
            for argv in calls:
                _capture(capsys, argv)
        finally:
            cli._build_parser.cache_clear()
        # the main parser and its six subparsers, once for all ten calls
        assert len(built) == 7


class TestCriticalValueReuse:
    """Each null point solves its critical value once, for all four tests and every eps."""

    @pytest.fixture()
    def quantile_calls(self, monkeypatch):
        calls = []
        solve = localpower.central_chisq_quantile

        def counting(df, p, *args, **kwargs):
            calls.append((df, p))
            return solve(df, p, *args, **kwargs)

        monkeypatch.setattr(localpower, "central_chisq_quantile", counting)
        return calls

    def test_power_grid_one_solve_per_command(self, capsys, quantile_calls):
        code, _, _ = _capture(
            capsys,
            ["power", *GAMMA_ARGS, "--eps", "0:1:0.5", "--n", "50", "--alpha", "0.05"],
        )
        assert code == 0
        assert quantile_calls == [(1.0, 0.05)]

    def test_simulate_one_solve_for_both_sources(self, capsys, quantile_calls):
        code, _, _ = _capture(
            capsys,
            ["simulate", *GAMMA_ARGS, "--eps", "0.5", "--n", "50", "--reps", "50",
             "--alpha", "0.05", "--seed", "7", "--compare-sources"],
        )
        assert code == 0
        assert len(quantile_calls) == 1


class TestMixtureReuse:
    """Each command evaluates theta0's derivative terms once; each evaluation point builds
    one table per source from them, computes its df-1 tails once and takes its three
    densities from one closed-form call; local power walks no Poisson weights."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        calls = {"nc_chisq1_tails": [], "terms": [], "tables": [], "densities": [],
                 "walks": []}

        def recording(module, name, log, entry=lambda args, result: args):
            inner = getattr(module, name)

            def wrapper(*args):
                result = inner(*args)
                log.append(entry(args, result))
                return result

            monkeypatch.setattr(module, name, wrapper)

        recording(localpower, "nc_chisq1_tails", calls["nc_chisq1_tails"])
        # theta0 of every derivative evaluation, and (eps, source) of every table built
        recording(localpower, "_null_terms", calls["terms"], lambda args, result: args[1])
        recording(localpower, "_coefficient_table", calls["tables"],
                  lambda args, result: (args[2], args[3]))
        # (lam, x) of every closed-form density call, under the name localpower resolves
        recording(localpower, "_nc_chisq1_densities", calls["densities"])
        # (lam, cdf df, first density df) of every Poisson walk
        recording(specfun, "_mixture_sums", calls["walks"],
                  lambda args, result: (args[0].noncentrality, args[0].df, args[2]))
        return calls

    def test_power_grid(self, capsys, calls):
        code, _, _ = _capture(
            capsys,
            ["power", *GAMMA_ARGS, "--eps", "0:1:0.5", "--n", "50", "--alpha", "0.05"],
        )
        assert code == 0
        assert [lam for lam, _ in calls["nc_chisq1_tails"]] == [0.0, 0.25, 1.0]
        # one closed-form call per nonzero lam, at the query's critical value; eps = 0
        # has an all-zero table, so none there
        crit = specfun.central_chisq_quantile(1.0, 0.05, upper=True)
        assert calls["densities"] == [(0.25, crit), (1.0, crit)]
        assert calls["walks"] == []
        assert calls["terms"] == [1.0]
        assert calls["tables"] == [(0.0, SOURCE_CHAIN), (0.5, SOURCE_CHAIN), (1.0, SOURCE_CHAIN)]

    def test_simulate_both_sources(self, capsys, calls):
        code, _, _ = _capture(
            capsys,
            ["simulate", *GAMMA_ARGS, "--eps", "0.5", "--n", "50", "--reps", "50",
             "--alpha", "0.05", "--seed", "7", "--compare-sources"],
        )
        assert code == 0
        assert [lam for lam, _ in calls["nc_chisq1_tails"]] == [0.25]
        assert [lam for lam, _ in calls["densities"]] == [0.25]
        assert calls["walks"] == []
        assert calls["terms"] == [1.0]
        assert calls["tables"] == [(0.5, SOURCE_CHAIN), (0.5, SOURCE_TABLE)]

    def test_no_walk_at_infinite_n(self, calls):
        query = localpower.PowerQuery(
            catalog_model("gamma", {"k": 2.0}), 1.0, 0.5, math.inf, 0.05)
        for source in localpower.SOURCES:
            for kind in TestKind:
                localpower.local_power(query, kind, source)
        assert [lam for lam, _ in calls["nc_chisq1_tails"]] == [0.25]
        assert calls["densities"] == [] and calls["walks"] == []
        assert calls["terms"] == [1.0]
        assert calls["tables"] == [(0.5, SOURCE_CHAIN), (0.5, SOURCE_TABLE)]

    def test_one_build_per_point_and_source(self, calls):
        # every test and pair of a reused query, each asked for twice, in both sources
        query = localpower.PowerQuery(catalog_model("tev", {}), 1.0, 0.5, 50, 0.05)
        for _ in range(2):
            for source in localpower.SOURCES:
                for i in TestKind:
                    localpower.local_power(query, i, source)
                    for j in TestKind:
                        localpower.power_difference(query, i, j, source)
        assert calls["terms"] == [1.0]
        assert calls["tables"] == [(0.5, SOURCE_CHAIN), (0.5, SOURCE_TABLE)]
        assert [lam for lam, _ in calls["nc_chisq1_tails"]] == [0.125]
        assert [lam for lam, _ in calls["densities"]] == [0.125]

    def test_cdf_expansion_walks_once(self, calls):
        e = expansion.PowerExpansion(2, 0.5, (0.1, -0.3, 0.15, 0.05))
        expansion.cdf_expansion(e, 50, 3.84)
        assert calls["walks"] == [(0.5, 2.0, 4.0)]
        # at n = inf too: the same walk, whose second-order sum the zero scale drops
        expansion.cdf_expansion(e, math.inf, 3.84)
        assert calls["walks"] == [(0.5, 2.0, 4.0)] * 2

    def test_cdf_expansion_walks_nothing_at_f1(self, monkeypatch, calls):
        # f = 1 takes G_1 and g_3, g_5, g_7 in closed form, at n = inf too
        densities = []
        inner = expansion._nc_chisq1_densities
        monkeypatch.setattr(expansion, "_nc_chisq1_densities",
                            lambda *args: densities.append(args) or inner(*args))
        e = expansion.PowerExpansion(1, 0.5, (0.1, -0.3, 0.15, 0.05))
        for n in (50, math.inf):
            expansion.cdf_expansion(e, n, 3.84)
        assert calls["walks"] == []
        assert densities == [(0.5, 3.84)] * 2
