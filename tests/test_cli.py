import json
import subprocess
import sys

import numpy as np
import pytest

from perigid.cli import main
from perigid.framework import load_framework


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def gen_file(tmp_path, capsys, *args):
    target = tmp_path / "fw.json"
    code, _ = run_cli(["gen", *args, "-o", str(target)], capsys)
    assert code == 0
    return target


def test_gen_stressed(tmp_path, capsys):
    target = gen_file(tmp_path, capsys, "stressed")
    fw = load_framework(target)
    assert fw.m == 8


def test_gen_simplex_dim4(tmp_path, capsys):
    target = gen_file(tmp_path, capsys, "simplex", "--dim", "4", "--variant", "base")
    assert load_framework(target).m == 10


def test_gen_removed_variant(tmp_path, capsys):
    target = gen_file(tmp_path, capsys, "simplex", "--dim", "3", "--variant", "removed:2")
    assert load_framework(target).m == 8


def test_gen_to_stdout(capsys):
    code = main(["gen", "stressed"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["dimension"] == 3


def test_analyze_reports_dof(tmp_path, capsys):
    target = gen_file(tmp_path, capsys, "stressed")
    code, out = run_cli(["analyze", str(target)], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["dof"] == 2 and data["stress_dim"] == 1

    target = gen_file(tmp_path, capsys, "simplex", "--dim", "3", "--variant", "enhanced")
    _, out = run_cli(["analyze", str(target)], capsys)
    assert json.loads(out)["dof"] == 0

    target = gen_file(tmp_path, capsys, "simplex", "--dim", "2", "--variant", "base")
    _, out = run_cli(["analyze", str(target)], capsys)
    assert json.loads(out)["dof"] == 2


def test_cone_counts_and_pairs_csv(tmp_path, capsys):
    target = gen_file(tmp_path, capsys, "stressed")
    pairs = tmp_path / "pairs.csv"
    code, out = run_cli(["cone", str(target), "--radius", "2", "--pairs", str(pairs)], capsys)
    assert code == 0
    data = json.loads(out)
    assert len(data["rays"]) == 2
    assert data["stable_radius"] == 2
    assert pairs.read_text().startswith("orbit_a,orbit_b,shift_1")

    target = gen_file(tmp_path, capsys, "simplex", "--dim", "3", "--variant", "base")
    _, out = run_cli(["cone", str(target)], capsys)
    assert len(json.loads(out)["rays"]) == 3

    target = gen_file(tmp_path, capsys, "simplex", "--dim", "3", "--variant", "enhanced")
    _, out = run_cli(["cone", str(target)], capsys)
    assert json.loads(out)["rays"] == []


def test_cone_out_file_gets_the_stdout_bytes(tmp_path, capsys):
    target = gen_file(tmp_path, capsys, "stressed")
    _, expected = run_cli(["cone", str(target)], capsys)
    report = tmp_path / "cone.json"
    code, out = run_cli(["cone", str(target), "-o", str(report)], capsys)
    assert code == 0 and out == ""
    assert report.read_text() == expected


def test_cone_rejects_radius_below_one(tmp_path, capsys):
    target = gen_file(tmp_path, capsys, "stressed")
    assert main(["cone", str(target), "--radius", "0"]) == 2
    assert capsys.readouterr().err == "error: radius must be at least 1\n"


def test_star_report(tmp_path, capsys):
    target = gen_file(tmp_path, capsys, "stressed")
    code, out = run_cli(["star", str(target), "--orbit", "green"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["orbit"] == "green"
    assert data["pointed_codim2"] is True
    assert "lineality_dim" in data and "separating_normal" in data


def test_simulate_mechanism_passes(tmp_path, capsys):
    target = gen_file(tmp_path, capsys, "simplex", "--dim", "2", "--variant", "removed:1")
    outdir = tmp_path / "sim"
    code, out = run_cli(
        ["simulate", str(target), "--ray", "0", "--steps", "25", "--outdir", str(outdir)],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert (outdir / "audit.csv").exists()
    assert (outdir / "frame_0000.obj").exists()


def test_simulate_reversed_direction_fails_audit(tmp_path, capsys):
    target = gen_file(tmp_path, capsys, "simplex", "--dim", "2", "--variant", "removed:1")
    # Write the reversed expansive direction by hand.
    from perigid import FlexClass, analyze, classify_flex

    fw = load_framework(target)
    flex = analyze(fw).flex_basis[0]
    if classify_flex(fw, flex) is FlexClass.NOT_EXPANSIVE:
        flex = -flex
    direction = tmp_path / "dir.json"
    direction.write_text(json.dumps((-flex).tolist()))
    outdir = tmp_path / "sim"
    code, out = run_cli(
        ["simulate", str(target), "--direction", str(direction), "--steps", "25", "--outdir", str(outdir)],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["passed"] is False


def test_simulate_rigid_is_numerical_failure(tmp_path, capsys):
    target = gen_file(tmp_path, capsys, "simplex", "--dim", "3", "--variant", "enhanced")
    direction = tmp_path / "dir.json"
    rng = np.random.default_rng(0)
    direction.write_text(json.dumps(rng.standard_normal(15).tolist()))
    code, _ = run_cli(
        ["simulate", str(target), "--direction", str(direction), "--outdir", str(tmp_path)],
        capsys,
    )
    assert code == 3


@pytest.mark.parametrize(
    "content",
    [
        '{"x": 1}', "[[1, 2], [3]]", '"abc"', "[[0, 0, 0, 0, 0, 0, 0, 0]]",
        pytest.param(f"[{10**400}, 0, 0, 0, 0, 0, 0, 0]", id="int-beyond-float"),
    ],
)
def test_simulate_rejects_malformed_direction_file(tmp_path, capsys, content):
    target = gen_file(tmp_path, capsys, "simplex", "--dim", "2", "--variant", "removed:1")
    direction = tmp_path / "dir.json"
    direction.write_text(content)
    outdir = tmp_path / "sim"
    code = main(["simulate", str(target), "--direction", str(direction), "--outdir", str(outdir)])
    assert code == 2
    assert capsys.readouterr().err == "error: direction file must hold a list of numbers\n"
    assert not outdir.exists()


def test_simulate_nan_direction_is_numerical_failure(tmp_path, capfd):
    target = gen_file(tmp_path, capfd, "simplex", "--dim", "2", "--variant", "removed:1")
    direction = tmp_path / "dir.json"
    direction.write_text("[NaN, 0, 0, 0, 0, 0, 0, 0]")
    outdir = tmp_path / "sim"
    code = main(["simulate", str(target), "--direction", str(direction), "--outdir", str(outdir)])
    assert code == 3
    assert capfd.readouterr().err == "error: numerical failure: motion vector is not finite\n"
    assert not outdir.exists()


@pytest.mark.parametrize(
    "dim, extra",
    [
        (2, ["--steps", "0"]),
        (2, ["--h", "0"]),
        (2, ["--supercell", "-1"]),
        (4, ["--format", "obj"]),
        (2, ["--ray", "99"]),
    ],
)
def test_simulate_rejects_bad_arguments_before_work(tmp_path, capsys, dim, extra):
    target = gen_file(tmp_path, capsys, "simplex", "--dim", str(dim), "--variant", "removed:1")
    outdir = tmp_path / "sim"
    code = main(["simulate", str(target), "--ray", "0", "--outdir", str(outdir), *extra])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    if "--ray" in extra:  # the last --ray wins
        assert "out of range" in err
    assert not outdir.exists()


def test_exit_codes(tmp_path, capsys):
    assert main(["gen", "simplex", "--variant", "bogus"]) == 2  # usage
    missing = tmp_path / "missing.json"
    assert main(["analyze", str(missing)]) == 4  # I/O
    bad = tmp_path / "bad.json"
    bad.write_text("{\"dimension\": 3}")
    assert main(["analyze", str(bad)]) == 2  # schema
    huge = json.loads(gen_file(tmp_path, capsys, "stressed").read_text())
    huge["vertex_orbits"][0]["position"][0] = 10**400  # an int no float holds
    bad.write_text(json.dumps(huge))
    assert main(["analyze", str(bad)]) == 2  # schema, not an OverflowError
    capsys.readouterr()


def test_gen_unwritable_path_is_io_error(tmp_path, capsys):
    target = tmp_path / "nodir" / "out.json"
    assert main(["gen", "stressed", "-o", str(target)]) == 4
    capsys.readouterr()


def test_determinism(tmp_path, capsys):
    a = gen_file(tmp_path, capsys, "stressed")
    b = tmp_path / "b.json"
    code, _ = run_cli(["gen", "stressed", "-o", str(b)], capsys)
    assert a.read_text() == b.read_text()
    # stdout and -o carry the same bytes, one trailing newline included.
    code, out = run_cli(["gen", "stressed"], capsys)
    assert code == 0 and out.encode() == b.read_bytes()
    _, out1 = run_cli(["cone", str(a)], capsys)
    _, out2 = run_cli(["cone", str(b)], capsys)
    assert out1 == out2


def test_env_tolerance_override(tmp_path, capsys, monkeypatch):
    target = gen_file(tmp_path, capsys, "stressed")
    monkeypatch.setenv("PERIGID_TOL_RANK", "1e-7")
    _, out = run_cli(["analyze", str(target)], capsys)
    assert json.loads(out)["tolerance"] == 1e-7
    monkeypatch.setenv("PERIGID_TOL_RANK", "not-a-number")
    code, _ = run_cli(["analyze", str(target)], capsys)
    assert code == 2


@pytest.mark.parametrize("name, raw", [("PERIGID_TOL_RANK", "nan"), ("PERIGID_TOL_NEWTON", "0")])
def test_env_tolerance_must_be_positive(tmp_path, capsys, monkeypatch, name, raw):
    target = gen_file(tmp_path, capsys, "stressed")
    monkeypatch.setenv(name, raw)
    assert main(["analyze", str(target)]) == 2
    assert capsys.readouterr().err == f"error: {name} must be positive, got {raw!r}\n"


def test_module_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "perigid", "gen", "stressed"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["dimension"] == 3
