"""Command line interface: exit codes, config plumbing, determinism."""

import dataclasses
import json

import numpy as np
import pytest

from critedge import cli
from critedge.errors import ConfigError
from critedge.spectrum import DeformationSpectrum
from critedge.synthesis import (
    quartet_deformation,
    random_deformation_critical,
    random_real_critical,
)


def write_spectrum(path, spec):
    spec.save(path)
    return str(path)


@pytest.fixture
def pm_file(tmp_path):
    spec = DeformationSpectrum(
        np.array([1.0 + 0j, -1.0 + 0j]), np.array([50, 50]), 100
    )
    return write_spectrum(tmp_path / "pm.json", spec)


# ----------------------------------------------------------------- analyze


def test_analyze_critical_spectrum(pm_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = cli.main(["analyze", pm_file, "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["alpha"] == pytest.approx(-1.0 / 3.0, abs=1e-12)
    assert report["is_critical"] is True


def test_analyze_quartet_alpha(tmp_path):
    spec = quartet_deformation(0.5, n=8)
    f = write_spectrum(tmp_path / "q.json", spec)
    out = tmp_path / "q_report.json"
    assert cli.main(["analyze", f, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["alpha"] == pytest.approx(-1.0 / 11.0, abs=1e-12)


def test_analyze_non_critical_exits_1(tmp_path):
    spec = DeformationSpectrum(
        np.array([2.0 + 0j, -2.0 + 0j]), np.array([8, 8]), 16
    )
    f = write_spectrum(tmp_path / "off.json", spec)
    out = tmp_path / "off_report.json"
    assert cli.main(["analyze", f, "--out", str(out)]) == 1
    assert json.loads(out.read_text())["is_critical"] is False


def test_analyze_zero_eigenvalue_exits_2(tmp_path, capsys):
    spec = DeformationSpectrum(np.array([0.0 + 0j, 1.0 + 0j]), np.array([4, 4]), 8)
    f = write_spectrum(tmp_path / "zero.json", spec)
    assert cli.main(["analyze", f]) == 2
    assert "ZeroEigenvalue" in capsys.readouterr().err


def test_missing_file_exits_2(capsys):
    assert cli.main(["analyze", "/nonexistent/spectrum.json"]) == 2


# -------------------------------------------------------------------- flow


def test_flow_build_and_check_cycle(tmp_path, capsys):
    a = random_deformation_critical(3, n=400)
    f = write_spectrum(tmp_path / "a.json", a)
    path_file = tmp_path / "path.jsonl"
    report_file = tmp_path / "path.report.json"
    rc = cli.main(["flow", f, "--out", str(path_file), "--report", str(report_file)])
    assert rc == 0
    report = json.loads(report_file.read_text())
    assert report["passed"] is True
    assert report["support_bound"] >= report["final_support"]

    rc = cli.main(["flow", "--check", str(path_file), "--frak-c1",
                   str(report["frak_c1"])])
    assert rc == 0
    assert "overall: pass" in capsys.readouterr().out


def test_flow_check_locates_corruption(tmp_path, capsys):
    a = random_deformation_critical(3, n=400)
    f = write_spectrum(tmp_path / "a.json", a)
    path_file = tmp_path / "path.jsonl"
    assert cli.main(["flow", f, "--out", str(path_file)]) == 0

    lines = path_file.read_text().splitlines()
    row = json.loads(lines[len(lines) // 2])
    row["eigenvalues"] = [[re * 1.07, im * 1.07] for re, im in row["eigenvalues"]]
    lines[len(lines) // 2] = json.dumps(row)
    path_file.write_text("\n".join(lines) + "\n")

    rc = cli.main(["flow", "--check", str(path_file), "--frak-c1", "12.0"])
    assert rc == 1
    assert "offender" in capsys.readouterr().out


@pytest.mark.parametrize("frak_c1", ["0", "1.0", "-6"])
def test_flow_check_rejects_frak_c1_at_most_1(pm_file, tmp_path, capsys, frak_c1):
    path_file = tmp_path / "p.jsonl"
    assert cli.main(["flow", pm_file, "--grid", "9", "--out", str(path_file)]) == 0
    capsys.readouterr()
    assert cli.main(["flow", "--check", str(path_file), "--frak-c1", frak_c1]) == 2
    captured = capsys.readouterr()
    assert "frak_c1 must exceed 1" in captured.err
    assert captured.out == ""


def test_flow_real_spectrum_routes_to_hermitian(tmp_path):
    b = random_real_critical(1)
    s = np.sqrt(np.sum(b.weights * b.eigenvalues**2))
    a = b.with_eigenvalues(s / b.eigenvalues)
    f = write_spectrum(tmp_path / "real.json", a)
    path_file = tmp_path / "real_path.jsonl"
    assert cli.main(["flow", f, "--out", str(path_file)]) == 0
    from critedge.flow import FlowPath

    path = FlowPath.load_jsonl(path_file)
    assert path.final.canonical(1e-10).eigenvalues.size == 2


def test_flow_non_critical_exits_1(tmp_path, capsys):
    spec = DeformationSpectrum(np.array([2.0 + 0j, -2.0 + 0j]), np.array([8, 8]), 16)
    f = write_spectrum(tmp_path / "off.json", spec)
    assert cli.main(["flow", f, "--out", str(tmp_path / "p.jsonl")]) == 1


def test_flow_without_spectrum_or_check_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["flow"])
    assert exc.value.code == 2


# ---------------------------------------------------------------- simulate


def test_simulate_correlation_writes_csv_and_summary(pm_file, tmp_path):
    out = tmp_path / "corr.csv"
    rc = cli.main([
        "simulate", pm_file, "--statistic", "correlation",
        "--test-function", "radial-bump", "--trials", "5", "--out", str(out),
    ])
    assert rc == 0
    assert out.read_text().startswith("trial,value")
    summary = json.loads((tmp_path / "corr.summary.json").read_text())
    assert summary["trials"] == 5
    assert summary["test_function"] == "radial-bump"
    assert np.isfinite(summary["value"]) and summary["std_error"] >= 0


@pytest.mark.parametrize("statistic", ["correlation", "radius"])
def test_simulate_standard_error_needs_two_trials(pm_file, tmp_path, capsys, statistic):
    # one rule for both per-trial statistics: mean, std(ddof=1)/sqrt(trials),
    # and no estimate at all from a single trial
    out = tmp_path / "s.csv"
    argv = ["simulate", pm_file, "--statistic", statistic, "--out", str(out)]
    assert cli.main([*argv, "--trials", "1"]) == 1
    assert "at least two trials" in capsys.readouterr().err
    assert not (tmp_path / "s.summary.json").exists()
    assert cli.main([*argv, "--trials", "3"]) == 0
    values = np.array([float(row.split(",")[1]) for row in out.read_text().splitlines()[1:]])
    summary = json.loads((tmp_path / "s.summary.json").read_text())
    assert summary["value"] == float(np.mean(values))
    assert summary["std_error"] == float(np.std(values, ddof=1) / np.sqrt(3))


def test_simulate_is_byte_deterministic(pm_file, tmp_path):
    outs = []
    for tag in ("x", "y"):
        out = tmp_path / f"{tag}.csv"
        rc = cli.main([
            "simulate", pm_file, "--statistic", "radius",
            "--trials", "3", "--seed", "11", "--out", str(out),
        ])
        assert rc == 0
        outs.append(out.read_bytes() + (tmp_path / f"{tag}.summary.json").read_bytes())
    assert outs[0] == outs[1]


def test_simulate_girko_statistic(pm_file, tmp_path):
    out = tmp_path / "girko.csv"
    rc = cli.main([
        "simulate", pm_file, "--statistic", "girko", "--quad", "48", "--out", str(out),
    ])
    assert rc == 0
    summary = json.loads((tmp_path / "girko.summary.json").read_text())
    assert abs(summary["lhs"] - summary["rhs"]) == pytest.approx(summary["value"])
    # one matrix gives no standard error, so the summary claims none
    assert "std_error" not in summary


def test_simulate_from_path_endpoint(tmp_path):
    a = random_deformation_critical(3, n=400)
    f = write_spectrum(tmp_path / "a.json", a)
    path_file = tmp_path / "path.jsonl"
    assert cli.main(["flow", f, "--out", str(path_file)]) == 0
    out = tmp_path / "tail.csv"
    rc = cli.main([
        "simulate", str(path_file), "--statistic", "sv-tail",
        "--endpoint", "final", "--trials", "4", "--eta", "10.0",
        "--out", str(out),
    ])
    assert rc == 0
    summary = json.loads((tmp_path / "tail.summary.json").read_text())
    assert summary["value"] == 1.0  # every smallest sv sits below eta = 10


@pytest.mark.parametrize("command", [["flow", "--check"], ["simulate"]])
def test_malformed_path_file_exits_2(tmp_path, capsys, command):
    path_file = tmp_path / "path.jsonl"
    row = {"t": 0.0, "eigenvalues": [[1.0, 0.0]], "multiplicities": [4]}
    path_file.write_text(json.dumps(row) + "\n")  # no residuals, no kinds
    assert cli.main([*command, str(path_file)]) == 2
    assert "cannot read path" in capsys.readouterr().err


# ----------------------------------------------------------------- compare


def write_summary(path, value, std_error):
    path.write_text(json.dumps({"value": value, "std_error": std_error}))
    return str(path)


def test_compare_refuses_girko_summaries(tmp_path, capsys):
    f = write_spectrum(tmp_path / "a.json", random_deformation_critical(0, n=12))
    for seed in ("1", "2"):
        assert cli.main([
            "simulate", f, "--statistic", "girko", "--quad", "16", "--seed", seed,
            "--out", str(tmp_path / f"g{seed}.csv"),
        ]) == 0
    out = tmp_path / "verdict.json"
    rc = cli.main([
        "compare", str(tmp_path / "g1.summary.json"), str(tmp_path / "g2.summary.json"),
        "--out", str(out),
    ])
    assert rc == 2
    assert "lacks value/std_error" in capsys.readouterr().err
    assert not out.exists()


def test_compare_with_zero_combined_error_exits_1(tmp_path, capsys):
    a = write_summary(tmp_path / "a.json", 1.0, 0.0)
    b = write_summary(tmp_path / "b.json", 2.0, 0.0)
    out = tmp_path / "verdict.json"
    assert cli.main(["compare", a, b, "--out", str(out)]) == 1
    assert "ConditionViolated" in capsys.readouterr().err
    assert not out.exists()


def test_compare_agreement_and_rejection(tmp_path, capsys):
    a = write_summary(tmp_path / "a.json", 1.00, 0.05)
    b = write_summary(tmp_path / "b.json", 1.05, 0.05)
    out = tmp_path / "verdict.json"
    rc = cli.main(["compare", a, b, "--out", str(out)])
    assert rc == 0
    verdict = json.loads(out.read_text())
    assert verdict["agree_2sigma"] is True
    assert verdict["z_score"] == pytest.approx(0.05 / np.hypot(0.05, 0.05))

    c = write_summary(tmp_path / "c.json", 2.0, 0.05)
    rc = cli.main(["compare", a, c, "--out", str(out)])
    assert rc == 1
    verdict = json.loads(out.read_text())
    assert verdict["distinct_3sigma"] is True


# ------------------------------------------------------------------ config


def test_config_file_and_flag_precedence(pm_file, tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"trials": 7, "seed": 3}))
    out = tmp_path / "r.csv"
    rc = cli.main([
        "simulate", pm_file, "--statistic", "radius",
        "--config", str(cfg_file), "--trials", "2", "--out", str(out),
    ])
    assert rc == 0
    summary = json.loads((tmp_path / "r.summary.json").read_text())
    assert summary["trials"] == 2  # flag beats file
    assert summary["seed"] == 3  # file beats default


def test_config_unknown_key_rejected(pm_file, tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"trails": 7}))
    rc = cli.main([
        "simulate", pm_file, "--statistic", "radius", "--config", str(cfg_file),
    ])
    assert rc == 2
    assert "trails" in capsys.readouterr().err


def test_config_range_validation(pm_file, capsys):
    assert cli.main(["simulate", pm_file, "--statistic", "radius", "--trials", "0"]) == 2
    assert cli.main(["analyze", pm_file, "--frak-c", "0.5"]) == 2


@pytest.mark.parametrize(
    "argv, keys, message",
    [
        (["analyze", "SPEC"], {"trials": 5, "grid": 9, "model": "iid-custom"},
         "analyze does not read config keys: grid, model, trials"),
        (["flow", "--check", "PATH"], {"out": "OUT", "grid": 65, "h0": 5},
         "flow --check does not read config keys: grid, h0, out"),
        (["compare", "SUMMARY", "SUMMARY"], {"seed": 1}, "compare does not read config keys: seed"),
    ],
    ids=["analyze", "flow-check", "compare"],
)
def test_config_key_the_subcommand_does_not_read_exits_2(
    pm_file, tmp_path, argv, keys, message, capsys
):
    path_file, out = tmp_path / "p.jsonl", tmp_path / "x.json"
    assert cli.main(["flow", pm_file, "--grid", "9", "--out", str(path_file)]) == 0
    names = {"SPEC": pm_file, "PATH": str(path_file),
             "SUMMARY": write_summary(tmp_path / "s.json", 1.0, 0.1)}
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({k: str(out) if v == "OUT" else v for k, v in keys.items()}))
    capsys.readouterr()
    assert cli.main([*(names.get(a, a) for a in argv), "--config", str(cfg_file)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_runconfig_serialize_roundtrip(tmp_path):
    cfg = cli.RunConfig(trials=9, seed=4, model="iid-custom")
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps(dataclasses.asdict(cfg)))
    back = cli.RunConfig.parse(str(cfg_file), {}, "all", cli.RunConfig.field_names())
    assert back == cfg


@pytest.mark.parametrize(
    "argv, message",
    [
        (["analyze", "SPEC", "--grid", "65"], "unrecognized arguments"),
        (["flow", "SPEC", "--trials", "3"], "unrecognized arguments"),
        (["simulate", "SPEC", "--frak-c", "6"], "unrecognized arguments"),
        (["compare", "SPEC", "SPEC", "--seed", "1"], "unrecognized arguments"),
        (
            ["flow", "--check", "PATH", "--grid", "65", "--tol", "1e-3", "--h0", "5",
             "--out", "OUT", "--report", "REPORT"],
            "flow --check does not read --grid, --tol, --h0, --out, --report",
        ),
        (["flow", "SPEC", "--check", "PATH"], "flow --check does not read spectrum"),
        (["flow", "SPEC", "--frak-c1", "0.5"], "flow without --check does not read --frak-c1"),
        (["flow", "--check", "PATH", "--frak-c-small", "-1"], "unrecognized arguments"),
        (["simulate", "SPEC", "--statistic", "radius", "--n", "64"], "unrecognized arguments"),
    ],
    ids=["analyze-grid", "flow-trials", "simulate-frak-c", "compare-seed",
         "flow-check-build-flags", "flow-check-spectrum", "flow-build-frak-c1",
         "flow-check-frak-c-small", "simulate-n"],
)
def test_flag_the_subcommand_does_not_read_exits_2(pm_file, tmp_path, argv, message, capsys):
    names = {"SPEC": pm_file, "PATH": str(tmp_path / "p.jsonl"),
             "OUT": str(tmp_path / "x.json"), "REPORT": str(tmp_path / "y.json")}
    with pytest.raises(SystemExit) as exc:
        cli.main([names.get(a, a) for a in argv])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not any((tmp_path / f).exists() for f in ("x.json", "y.json"))


def test_runconfig_rejects_bad_values():
    with pytest.raises(ConfigError):
        cli.RunConfig(trials=0)
    with pytest.raises(ConfigError):
        cli.RunConfig(model="wishart")
    with pytest.raises(ConfigError):
        cli.RunConfig(delta=1.5)
