import errno
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import edgeteleport
from edgeteleport import ssh_lattice
from edgeteleport.cli import main
from edgeteleport.hubbard import CouplingParams, hubbard_report


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


def test_teleport_refuses_more_than_2_64_trials(tmp_path, capsys, monkeypatch):
    def no_trials(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(edgeteleport.protocol, "_run_trials_batched", no_trials)
    out = tmp_path / "r.json"
    with pytest.raises(SystemExit) as exc:
        run_cli(["teleport", "--trials", str(2**64 + 1), "--out", str(out)])
    assert exc.value.code == 2
    assert "need at most 2**64 trials" in capsys.readouterr().err
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


# one call of each command that writes --out
_OUT_ARGV = {
    "teleport": ["teleport", "--variant", "coldatom", "--g1", "0.6,0", "--g2", "0,0.8",
                 "--trials", "50", "--seed", "21"],
    "spectrum": ["spectrum", "--sites", "59", "--tprime", "0.6667"],
    "zeromode": ["zeromode", "--sites", "59", "--tprime", "0.6667"],
}


@pytest.mark.parametrize("command", sorted(_OUT_ARGV))
def test_out_is_overwritten_in_place_with_a_fresh_files_bytes(tmp_path, command):
    fresh, out = tmp_path / "fresh", tmp_path / "out"
    assert run_cli([*_OUT_ARGV[command], "--out", str(fresh)]) == 0
    expected = fresh.read_bytes()
    assert 3 < len(expected) < 5000
    out.write_bytes(b"")
    inode = out.stat().st_ino
    for junk in (b"x" * 5000, b"y" * 3):  # longer, then shorter than the output
        out.write_bytes(junk)
        assert run_cli([*_OUT_ARGV[command], "--out", str(out)]) == 0
        assert out.read_bytes() == expected
    assert out.stat().st_ino == inode  # rewritten, not replaced
    assert run_cli([*_OUT_ARGV[command], "--out", os.devnull]) == 0


@pytest.mark.parametrize("command", sorted(_OUT_ARGV))
@pytest.mark.parametrize("where", ["missing directory", "directory", "read-only file"])
def test_out_that_cannot_be_opened_exits_2_naming_the_path(tmp_path, capsys, monkeypatch,
                                                           command, where):
    out = {"missing directory": tmp_path / "missing" / "x.out", "directory": tmp_path,
           "read-only file": tmp_path / "kept.out"}[where]
    if where == "read-only file":
        out.write_text("kept")
        out.chmod(0o444)
        if os.access(out, os.W_OK):  # root ignores the mode bits: refuse as for a user
            os_open = os.open

            def refuse(path, flags, *args):
                if path == str(out) and flags & (os.O_WRONLY | os.O_RDWR):
                    raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
                return os_open(path, flags, *args)

            monkeypatch.setattr(os, "open", refuse)
    with pytest.raises(SystemExit) as exc:
        run_cli([*_OUT_ARGV[command], "--out", str(out)])
    assert exc.value.code == 2
    assert f"cannot write --out {out}: " in capsys.readouterr().err
    if where == "read-only file":
        assert out.read_text() == "kept"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("command", sorted(_OUT_ARGV))
def test_out_on_a_full_device_exits_2_naming_the_path(capsys, command):
    # opening /dev/full succeeds; the bytes fail at the flush on close
    with pytest.raises(SystemExit) as exc:
        run_cli([*_OUT_ARGV[command], "--out", "/dev/full"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"error: cannot write --out /dev/full: {os.strerror(errno.ENOSPC)}\n")


_USAGE = "usage: edgeteleport [-h] {spectrum,zeromode,hubbard,teleport} ...\n"
_TELEPORT_USAGE = """\
usage: edgeteleport teleport [-h] [--variant {electronic,coldatom,mixed}]
                             [--g1 G1] [--g2 G2] [--trials TRIALS]
                             [--seed SEED] --out OUT
"""
_TOP_HELP = _USAGE + """
Edge modes of an odd-site alternating-bond wire and spin teleportation between
wires.

positional arguments:
  {spectrum,zeromode,hubbard,teleport}
    spectrum            closed-form vs numerical spectrum as CSV
    zeromode            zero-mode probability density as CSV
    hubbard             edge-coupling ground state report as JSON
    teleport            run seeded teleportation trials

options:
  -h, --help            show this help message and exit
"""
_TELEPORT_HELP = _TELEPORT_USAGE + """
options:
  -h, --help            show this help message and exit
  --variant {electronic,coldatom,mixed}
  --g1 G1               spin-up amplitude as RE,IM
  --g2 G2               spin-down amplitude as RE,IM
  --trials TRIALS
  --seed SEED
  --out OUT             output JSON path
"""


def _error(message, usage=_USAGE, prog="edgeteleport"):
    return f"{usage}{prog}: error: {message}\n"


# Exit code, stdout and stderr of each argv: the messages and usage lines of
# the top parser's parse_args, which dispatching straight to a subcommand's
# parser must keep byte for byte.  "{out}" is a writable path.
_PINNED_RUNS = [
    ([], 2, "", _error("the following arguments are required: command")),
    (["--help"], 0, _TOP_HELP, ""),
    (["-h", "teleport"], 0, _TOP_HELP, ""),
    (["bogus"], 2, "", _error("argument command: invalid choice: 'bogus' (choose from "
                              "'spectrum', 'zeromode', 'hubbard', 'teleport')")),
    (["teleport", "--help"], 0, _TELEPORT_HELP, ""),
    (["teleport", "-h", "extra"], 0, _TELEPORT_HELP, ""),
    (["teleport", "--trials", "5", "--out", "{out}", "extra"], 2, "",
     _error("unrecognized arguments: extra")),
    (["teleport", "--bogus", "--out", "{out}"], 2, "", _error("unrecognized arguments: --bogus")),
    (["spectrum", "--sites", "3", "--out", "{out}", "--", "x"], 2, "",
     _error("unrecognized arguments: -- x")),
    (["zeromode", "--sites=--", "--out", "{out}"], 2, "",
     _error("an option is missing its value")),
    (["teleport", "--g1=--", "--out", "{out}"], 2, "", _error("an option is missing its value")),
    (["teleport", "--trials", "5", "--out=--"], 2, "", _error("an option is missing its value")),
    (["teleport", "--trials", "5"], 2, "",
     _error("the following arguments are required: --out", _TELEPORT_USAGE,
            "edgeteleport teleport")),
    (["teleport", "--seed", "x", "--out", "{out}"], 2, "",
     _error("argument --seed: invalid int value: 'x'", _TELEPORT_USAGE, "edgeteleport teleport")),
    (["hubbard"], 2, "",
     _error("the following arguments are required: --e2, --lambda",
            "usage: edgeteleport hubbard [-h] --e2 E2 --lambda LAM\n", "edgeteleport hubbard")),
    (["teleport", "--variant", "coldatom", "--tri", "5", "--out", "{out}"], 0,
     "variant=coldatom trials=5 seed=0 min_fidelity=1 mean_rounds=1.4\n", ""),
    (["teleport", "--g1", "1,1", "--out", "{out}"], 2, "",
     _error("|g1|^2 + |g2|^2 = 2; amplitudes must be normalized")),
    (["teleport", "--g1", "nan,0", "--out", "{out}"], 2, "",
     _error("--g1/--g2: |g1|^2 + |g2|^2 is not finite")),
    (["teleport", "--g2=1.7e308,1.7e308", "--out", "{out}"], 2, "",
     _error("|g1|^2 + |g2|^2 = inf; amplitudes must be normalized")),
    (["hubbard", "--e2", "1", "--lambda=-1"], 2, "", _error("lambda must be >= 0")),
    (["hubbard", "--e2", "1", "--lambda", "1.7e308"], 2, "",
     _error("e2=1.0, lambda=1.7e+308 give no finite report: no ground state at e2=1.0, "
            "lam=1.7e+308: Hamiltonian block of sector (0, None, None) is not finite")),
]


@pytest.mark.parametrize("argv, code, out, err", _PINNED_RUNS,
                         ids=[" ".join(argv) or "no-args" for argv, *_ in _PINNED_RUNS])
def test_exit_code_and_messages_are_pinned(tmp_path, capsys, monkeypatch, argv, code, out, err):
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps at the terminal width
    argv = [a.format(out=tmp_path / "r.out") for a in argv]
    try:
        got = run_cli(argv)
    except SystemExit as exc:
        got = exc.code
    assert (got, *capsys.readouterr()) == (code, out, err)


def test_console_entry_point_reads_sys_argv(tmp_path, capsys):
    # python -m runs main() with argv=None, so it parses sys.argv[1:]
    argv = ["teleport", "--variant", "coldatom", "--g1", "0.6,0", "--g2", "0,0.8",
            "--trials", "50", "--seed", "21"]
    assert run_cli([*argv, "--out", str(tmp_path / "in-process.json")]) == 0
    summary = capsys.readouterr().out
    src = os.path.dirname(os.path.dirname(edgeteleport.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-m", "edgeteleport.cli", *argv,
                          "--out", str(tmp_path / "child.json")],
                         capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert (run.returncode, run.stdout, run.stderr) == (0, summary, "")
    assert (tmp_path / "child.json").read_bytes() == (tmp_path / "in-process.json").read_bytes()
    run = subprocess.run([sys.executable, "-m", "edgeteleport.cli", *argv, "--out",
                          str(tmp_path / "x.json"), "extra"],
                         capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert (run.returncode, run.stdout, run.stderr) == (
        2, "", _error("unrecognized arguments: extra"))


# lambda = 0 (a degenerate neutral ground space) and a subnormal lambda give a
# report; at 1e308 the eigenvalues overflow and at 1.7e308 the sector block does
_HUBBARD_EDGES = [(e2, lam, int(lam > 1)) for lam in (0.0, 5e-324, 1e308, 1.7e308)
                  for e2 in (1.0, 1e-300, 1.7e308)]


@pytest.mark.filterwarnings("ignore:lam/e2 > 0.1")
def test_hubbard_prints_the_bytes_of_json_dumps(capsys):
    # lambda = 0.1 (i + 1) / 33 at e2 = 1: the couplings of a chain-sweep benchmark pass
    couplings = [(1.0, 0.1 * (i + 1) / 33, 0) for i in range(33)] + _HUBBARD_EDGES
    for e2, lam, fails in couplings:
        try:
            report = json.dumps(hubbard_report(CouplingParams(e2, lam)), indent=2, allow_nan=False)
            expected = (0, report + "\n", "")
        except ValueError as exc:
            expected = (2, "", _error(f"e2={e2!r}, lambda={lam!r} give no finite report: {exc}"))
        assert expected[0] == 2 * fails, (e2, lam)
        try:
            code = run_cli(["hubbard", "--e2", repr(e2), "--lambda", repr(lam)])
        except SystemExit as exc:
            code = exc.code
        assert (code, *capsys.readouterr()) == expected, (e2, lam)
