"""Command-line interface: formats, determinism, exit codes."""

import json
import shutil
import time
from pathlib import Path

import pytest

from gradpower import cli, expansion, localpower
from gradpower.cli import run
from gradpower.expfam import CATALOG_NAMES

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

    def test_normal_composite_fixture_golden(self, capsys, tmp_path, monkeypatch):
        # normal(mu, v) with mu the nuisance: the composite expansion's full stdout
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
            "1,0.66081849751165578,0\n"
            "2,0.81384781821316854,0\n"
            "3,0.88750373099177915,0\n"
            "4,0.92835046640829155,0\n"
            "5,0.95292263918782383,0\n"
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

    def test_threads_flag_same_output(self, capsys):
        code1, out1, _ = _capture(capsys, [*self.ARGS, "--threads", "1"])
        code2, out2, _ = _capture(capsys, [*self.ARGS, "--threads", "2"])
        assert code1 == code2 == 0
        assert out1.replace("threads=1", "threads=2") == out2


class TestGoldenOutput:
    """Full stdout pinned across versions: a refactor must not move one byte."""

    @pytest.fixture(autouse=True)
    def _in_tmp(self, tmp_path, monkeypatch):
        # the config header echoes file paths, so run on relative ones
        monkeypatch.chdir(tmp_path)

    POWER = (
        "eps,lambda,pi_lr,pi_wald,pi_score,pi_gradient\n"
        "0,0,0.049999999999999933,0.049999999999999933,0.049999999999999933,"
        "0.049999999999999933\n"
        "0.5,0.25,0.10286459830320278,0.081017778604724866,0.081017778604724866,"
        "0.11378800815244174\n"
        "1,1,0.249691730057719,0.20584808569260016,0.20584808569260016,"
        "0.27161355224027844\n"
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
            "pair lr vs wald: greater (uniform); csum=8.8817841970012523e-16;"
            " C=(8.8817841970012523e-16,-3.9999999999999996,-5.333333333333333)\n"
            "pair lr vs score: less (uniform); csum=0; C=(0,2,2.6666666666666665)\n"
            "pair lr vs gradient: less (uniform); csum=0; C=(0,2,2.6666666666666665)\n"
            "pair wald vs score: less (uniform); csum=0; C=(0,6,8)\n"
            "pair wald vs gradient: less (uniform); csum=0; C=(0,6,8)\n"
            "pair score vs gradient: equal (uniform); csum=0; C=(0,0,0)\n"
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
            "4,0.8115402651278143,0\n"
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
            " alpha=0.050000000000000003 seed=7 threads=1 compare_sources=true\n"
            "critical_value: 3.8414588206941263\n"
            "rejection_rate_lr: 0.11333333333333333\n"
            "rejection_rate_wald: 0.080000000000000002\n"
            "rejection_rate_score: 0.080000000000000002\n"
            "rejection_rate_gradient: 0.11666666666666667\n"
            "mc_stderr_lr: 0.018301993415007094\n"
            "mc_stderr_wald: 0.015663120165960973\n"
            "mc_stderr_score: 0.015663120165960973\n"
            "mc_stderr_gradient: 0.018534252575124751\n"
            "predicted_power_consistent-chain_lr: 0.10286459830320278\n"
            "predicted_power_consistent-chain_wald: 0.081017778604724866\n"
            "predicted_power_consistent-chain_score: 0.081017778604724866\n"
            "predicted_power_consistent-chain_gradient: 0.11378800815244174\n"
            "predicted_power_table_lr: 0.10286459830320278\n"
            "predicted_power_table_wald: 0.081017778604724866\n"
            "predicted_power_table_score: 0.081017778604724866\n"
            "predicted_power_table_gradient: 0.11378800815244174\n"
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


class TestCliContract:
    @pytest.mark.parametrize("grid", ["0:nan:0.1", "0:1:nan", "0:inf:0.1",
                                      "0:2000000:1", "0:1e300:1"])
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

    def test_poisson_walk_is_bounded(self, capsys):
        # lam = eps^2 = 1e14 would need ~8e7 mixture terms per sweep
        start = time.perf_counter()
        code, out, err = _capture(
            capsys, ["power", *GAMMA_ARGS, "--eps", "1e7", "--n", "50", "--alpha", "0.05"]
        )
        assert code == 3
        assert err.startswith("numeric failure:") and "Poisson" in err
        assert out == ""
        assert time.perf_counter() - start < 30.0

    def test_long_poisson_walk_still_sums(self, capsys):
        code, out, _ = _capture(
            capsys, ["power", *GAMMA_ARGS, "--eps", "1e4", "--n", "50", "--alpha", "0.05"]
        )
        assert code == 0
        assert out.endswith("eps,lambda,pi_lr,pi_wald,pi_score,pi_gradient\n"
                            "10000,100000000,1,1,1,1\n")

    def test_tiny_alpha_names_alpha(self, capsys):
        code, out, err = _capture(
            capsys,
            ["power", *GAMMA_ARGS, "--eps", "0.5", "--n", "50", "--alpha", "1e-300"],
        )
        assert code == 2
        assert "alpha" in err and "got 1.0" not in err
        assert out == ""

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
            "simulate": ["--reps", "--seed", "--threads", "--compare-sources"],
        }.items():
            code, out, _ = _capture(capsys, [sub, "--help"])
            assert code == 0
            for flag in flags:
                assert flag in out, (sub, flag)

    def test_no_subcommand(self, capsys):
        code, _, err = _capture(capsys, [])
        assert code == 1 and "subcommand" in err


class TestCriticalValueReuse:
    """Each evaluation point solves its critical value once, for all four tests."""

    @pytest.fixture()
    def quantile_calls(self, monkeypatch):
        calls = []
        solve = localpower.central_chisq_quantile

        def counting(df, p, *args, **kwargs):
            calls.append((df, p))
            return solve(df, p, *args, **kwargs)

        monkeypatch.setattr(localpower, "central_chisq_quantile", counting)
        return calls

    def test_power_grid_one_solve_per_eps(self, capsys, quantile_calls):
        code, _, _ = _capture(
            capsys,
            ["power", *GAMMA_ARGS, "--eps", "0:1:0.5", "--n", "50", "--alpha", "0.05"],
        )
        assert code == 0
        assert len(quantile_calls) == 3

    def test_simulate_one_solve_for_both_sources(self, capsys, quantile_calls):
        code, _, _ = _capture(
            capsys,
            ["simulate", *GAMMA_ARGS, "--eps", "0.5", "--n", "50", "--reps", "50",
             "--alpha", "0.05", "--seed", "7", "--compare-sources"],
        )
        assert code == 0
        assert len(quantile_calls) == 1


class TestMixtureReuse:
    """Each evaluation point builds a table per source and walks each mixture once."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        counts = {"nc_chisq_cdf": 0, "power_coefficients": 0}

        def counting(name):
            inner = getattr(localpower, name)

            def wrapper(*args):
                counts[name] += 1
                return inner(*args)

            return wrapper

        for name in counts:
            monkeypatch.setattr(localpower, name, counting(name))
        return counts

    def test_power_grid(self, capsys, calls):
        code, _, _ = _capture(
            capsys,
            ["power", *GAMMA_ARGS, "--eps", "0:1:0.5", "--n", "50", "--alpha", "0.05"],
        )
        assert code == 0
        # eps = 0 has an all-zero table, so only G_1 is walked there
        assert calls == {"nc_chisq_cdf": 1 + 4 + 4, "power_coefficients": 3}

    def test_simulate_both_sources(self, capsys, calls):
        code, _, _ = _capture(
            capsys,
            ["simulate", *GAMMA_ARGS, "--eps", "0.5", "--n", "50", "--reps", "50",
             "--alpha", "0.05", "--seed", "7", "--compare-sources"],
        )
        assert code == 0
        assert calls == {"nc_chisq_cdf": 4, "power_coefficients": 2}
