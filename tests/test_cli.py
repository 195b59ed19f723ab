import json

import numpy as np
import pytest

from edgeteleport import ssh_lattice
from edgeteleport.cli import main


def run_cli(argv):
    return main(argv)


def test_spectrum_three_sites(tmp_path):
    out = tmp_path / "spec.csv"
    assert run_cli(["spectrum", "--sites", "3", "--t", "1", "--tprime", "0.5",
                    "--out", str(out)]) == 0
    lines = out.read_text().split("\n")
    assert lines[0] == "index,energy_analytic,energy_numeric,abs_diff"
    rows = [ln.split(",") for ln in lines[1:4]]
    assert len(rows) == 3
    assert float(rows[1][1]) == 0.0  # middle level is the zero mode
    assert float(rows[0][1]) == pytest.approx(-np.sqrt(1.25), abs=1e-14)


def test_spectrum_even_sites_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["spectrum", "--sites", "4", "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    assert "num_sites must be odd" in capsys.readouterr().err


def test_spectrum_agreement_59(tmp_path):
    out = tmp_path / "spec59.csv"
    run_cli(["spectrum", "--sites", "59", "--t", "1", "--tprime", "0.6667",
             "--out", str(out)])
    rows = [ln.split(",") for ln in out.read_text().strip().split("\n")[1:]]
    assert len(rows) == 59
    assert max(float(r[3]) for r in rows) < 1e-10


def test_spectrum_with_huge_bonds_writes_finite_levels(tmp_path):
    out = tmp_path / "spec.csv"
    assert run_cli(["spectrum", "--sites", "3", "--t", "1e200", "--tprime", "0.5",
                    "--out", str(out)]) == 0
    table = np.loadtxt(out, delimiter=",", skiprows=1)
    np.testing.assert_array_equal(table[:, 1], [-1e200, 0.0, 1e200])
    assert np.all(np.isfinite(table))


@pytest.mark.parametrize("argv, message", [
    (["--sites", "5", "--t", "1.7e308", "--tprime", "1.7e308"], "overflow at t=1.7e+308"),
    (["--sites", "4003"], "cap of 4001 sites"),
])
def test_spectrum_out_of_range_exits_2(tmp_path, capsys, argv, message):
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        run_cli(["spectrum", *argv, "--out", str(out)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_zeromode_dimerized(tmp_path):
    out = tmp_path / "zm.csv"
    run_cli(["zeromode", "--sites", "7", "--t", "1", "--tprime", "0",
             "--out", str(out)])
    rows = [ln.split(",") for ln in out.read_text().strip().split("\n")[1:]]
    densities = [float(r[1]) for r in rows]
    assert densities[0] == 1.0
    assert all(d == 0.0 for d in densities[1:])


def test_zeromode_profile_sums_to_one(tmp_path):
    out = tmp_path / "zm59.csv"
    run_cli(["zeromode", "--sites", "59", "--t", "1", "--tprime", "0.66666666666666663",
             "--out", str(out)])
    text = out.read_text()
    assert "\r" not in text
    rows = [ln.split(",") for ln in text.strip().split("\n")[1:]]
    densities = np.array([float(r[1]) for r in rows])
    assert abs(densities.sum() - 1.0) < 1e-12
    assert densities[0] == pytest.approx((1 - (2 / 3) ** 2) / (1 - (2 / 3) ** 60), abs=1e-10)
    assert np.all(densities[1::2] == 0.0)


def test_zeromode_past_its_cap_exits_2_before_computing(tmp_path, capsys, monkeypatch):
    def no_zero_mode(params):
        raise AssertionError("the zero mode was computed")

    monkeypatch.setattr(ssh_lattice, "zero_mode", no_zero_mode)
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        run_cli(["zeromode", "--sites", "1000003", "--out", str(out)])
    assert exc.value.code == 2
    assert "cap of 1000001 sites" in capsys.readouterr().err
    assert not out.exists()


def _strict_json(text):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=reject)


def test_hubbard_json(capsys):
    assert run_cli(["hubbard", "--e2", "1", "--lambda", "0.01"]) == 0
    payload = _strict_json(capsys.readouterr().out)
    assert payload["E0_perturbative"] == pytest.approx(-4e-4)
    assert payload["E0_exact"] == pytest.approx((1 - np.sqrt(1 + 16e-4)) / 2, abs=1e-14)
    assert payload["triplet_gap"] == pytest.approx(4e-4, rel=0.01)
    assert 0.999 < payload["singlet_overlap"] < 1.0


def test_hubbard_rejects_zero_e2(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["hubbard", "--e2", "0", "--lambda", "0.01"])
    assert exc.value.code == 2


@pytest.mark.parametrize("args", [["--e2", "nan", "--lambda", "0.01"],
                                  ["--e2", "1", "--lambda", "nan"]])
def test_hubbard_rejects_non_finite_couplings(args, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["hubbard", *args])
    assert exc.value.code == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:lam/e2 > 0.1")
@pytest.mark.parametrize("e2, lam", [("1", "1e200"), ("1e-320", "1"), ("1", "1.7e308")])
def test_hubbard_rejects_non_finite_report(e2, lam, capsys):
    # lambda^2 overflows, -4 lambda^2 / e2 is -inf, or the Hamiltonian's
    # sector block overflows: no JSON report is printed
    with pytest.raises(SystemExit) as exc:
        run_cli(["hubbard", "--e2", e2, "--lambda", lam])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no finite report" in captured.err


def test_teleport_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run_cli(["teleport", "--variant", "electronic", "--g1", "1,0",
                    "--g2", "0,0", "--trials", "200", "--seed", "7",
                    "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["trials"] == 200
    assert payload["seed"] == 7
    assert payload["min_fidelity"] >= 1 - 1e-12
    assert sum(payload["branch_counts"].values()) == 200
    summary = capsys.readouterr().out
    assert "min_fidelity" in summary


def test_teleport_rejects_unnormalized_g(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli(["teleport", "--g1", "1,0", "--g2", "1,0", "--trials", "10",
                 "--out", str(tmp_path / "x.json")])
    assert exc.value.code == 2


def test_teleport_rejects_negative_seed(tmp_path, capsys):
    out = tmp_path / "r.json"
    with pytest.raises(SystemExit) as exc:
        run_cli(["teleport", "--seed", "-1", "--trials", "5", "--out", str(out)])
    assert exc.value.code == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_teleport_seed_domain(tmp_path, capsys):
    out = tmp_path / "r.json"
    with pytest.raises(SystemExit) as exc:
        run_cli(["teleport", "--seed", str(2**64), "--trials", "5", "--out", str(out)])
    assert exc.value.code == 2
    assert "seed must be < 2**64" in capsys.readouterr().err
    assert not out.exists()
    reports = {}
    for seed in (2**63, 2**63 + 5, 2**64 - 1):
        assert run_cli(["teleport", "--variant", "coldatom", "--seed", str(seed),
                        "--trials", "200", "--out", str(out)]) == 0
        reports[seed] = json.loads(out.read_text())
        assert reports[seed]["seed"] == seed
    # 2**63 and 2**63 + 5 would share a stream if the key went through float
    a, b = reports[2**63], reports[2**63 + 5]
    assert (a["branch_counts"], a["rounds_histogram"]) != (b["branch_counts"], b["rounds_histogram"])


@pytest.mark.parametrize("g1, g2", [("nan,0", "0,0"), ("1,0", "0,nan")])
def test_teleport_rejects_non_finite_g(tmp_path, capsys, g1, g2):
    out = tmp_path / "x.json"
    with pytest.raises(SystemExit) as exc:
        run_cli(["teleport", "--g1", g1, "--g2", g2, "--trials", "10", "--out", str(out)])
    assert exc.value.code == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_teleport_rejects_overflowing_g(tmp_path, capsys):
    out = tmp_path / "x.json"
    with pytest.raises(SystemExit) as exc:
        run_cli(["teleport", "--g1", "1e200,0", "--trials", "10", "--out", str(out)])
    assert exc.value.code == 2
    assert "amplitudes must be normalized" in capsys.readouterr().err
    assert not out.exists()


def test_teleport_normalizes_near_unit_inputs(tmp_path):
    out = tmp_path / "r.json"
    g = 1.0 / np.sqrt(2) + 2e-7  # inside the 1e-6 window
    assert run_cli(["teleport", "--g1", f"{g},0", "--g2", f"{g},0",
                    "--trials", "20", "--seed", "3", "--out", str(out)]) == 0


def test_teleport_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["teleport", "--variant", "coldatom", "--g1", "0.6,0", "--g2", "0,0.8",
            "--trials", "300", "--seed", "21"]
    run_cli(args + ["--out", str(a)])
    run_cli(args + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_teleport_mixed_variant(tmp_path):
    out = tmp_path / "m.json"
    assert run_cli(["teleport", "--variant", "mixed", "--g1", "1,0", "--g2", "0,0",
                    "--trials", "25", "--seed", "4", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["min_fidelity"] >= 1 - 1e-10
