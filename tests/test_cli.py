import csv
import hashlib
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from perigid import SimplexVariant, simplex_framework, stressed_framework, with_edge_orbit
from perigid.cli import _build_parser, main
from perigid.framework import EdgeOrbit, Placement, QuotientGraph, load_framework, save_framework
from perigid.framework import validate_framework

from conftest import make_framework


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


# SHA-256 of `perigid cone --pairs` CSVs, recorded at commit d9a694d with
# numpy 2.4.6, when the audit enumerated the pairs a second time.
PAIRS_CSV_DIGESTS = {
    ("stressed", 2): "758e6e1b8d8e5d8755818c5e61c426b252029be4684c931bbcb955f4f9024c54",
    ("base", 2): "b8e579513b81a40895f4a84d87ee2b927f56739d5eb418c547737f00145a9152",
    ("enhanced", 1): "a943950899e627db053d291c85a5b538d31b77d93debed65b65a53cefcd344fc",
}


@pytest.mark.parametrize("kind, radius", sorted(PAIRS_CSV_DIGESTS))
def test_cone_pairs_csv_comes_from_one_enumeration(kind, radius, tmp_path, capsys, monkeypatch):
    # `perigid cone --pairs` builds its cone with the public `expansive_cone`,
    # so the library's entry point (and whatever wraps it) sees every CLI cone.
    from perigid import analyze, expansive

    fw = stressed_framework() if kind == "stressed" else simplex_framework(3, SimplexVariant(kind))
    target, pairs, expected = tmp_path / "fw.json", tmp_path / "pairs.csv", tmp_path / "expected.csv"
    save_framework(fw, target)
    calls = {"expansive_cone": 0, "_pair_chunks": 0}
    for name in calls:

        def counted(*args, _name=name, _original=getattr(expansive, name), **kwargs):
            # The probe's passes over the shell are not the cone's pairs.
            calls[_name] += not kwargs.get("shell", False)
            return _original(*args, **kwargs)

        monkeypatch.setattr(expansive, name, counted)
    code, _ = run_cli(["cone", str(target), "--radius", str(radius), "--pairs", str(pairs)], capsys)
    assert code == 0
    # One pass of the pair stream builds the rows of both the cone and the
    # audit; the flex dimension 0 cone has no rays but its pairs are still audited.
    assert calls == {"expansive_cone": 1, "_pair_chunks": 1}
    assert hashlib.sha256(pairs.read_bytes()).hexdigest() == PAIRS_CSV_DIGESTS[kind, radius]
    monkeypatch.undo()
    expansive.expansive_cone(fw, analyze(fw), radius, pairs_csv=expected)
    assert pairs.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("failing, written", [("extremal_rays", False), ("find_stable_radius", True)])
def test_cone_pairs_csv_is_written_after_the_rays_and_before_the_probe(
    failing, written, tmp_path, capsys, monkeypatch
):
    # A double description that fails leaves no audit; a probe that fails
    # comes after the audit is written.
    from perigid import expansive
    from perigid.errors import NumericalFailureError

    target, pairs = gen_file(tmp_path, capsys, "stressed"), tmp_path / "p.csv"

    def fail(*args, **kwargs):
        raise NumericalFailureError("planted")

    monkeypatch.setattr(expansive, failing, fail)
    code = main(["cone", str(target), "--radius", "2", "--pairs", str(pairs)])
    assert code == 3
    assert "planted" in capsys.readouterr().err
    assert pairs.exists() is written


def test_cone_with_a_shell_that_cuts(tmp_path, capsys):
    # The R = 1 rays of the d = 2 base are cut by the R = 2 shell, so the
    # probe inserts that shell and reads radius 2.
    target = gen_file(tmp_path, capsys, "simplex", "--dim", "2")
    pairs = tmp_path / "pairs.csv"
    code, out = run_cli(["cone", str(target), "--radius", "1", "--pairs", str(pairs)], capsys)
    assert code == 0
    assert json.loads(out)["stable_radius"] == 2
    assert len(pairs.read_text().splitlines()) == 1 + 9 + 2 * 4


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


LATTICE3 = [[1, 0.2, 0.1], [0, 1.1, 0.3], [0, 0, 0.9]]
A_LOOPS = [("a", "a", (1, 0, 0)), ("a", "a", (0, 1, 0)), ("a", "a", (0, 0, 1))]


@pytest.mark.parametrize(
    "positions, edges, lineality, digest",
    [
        (
            {"a": [0.0, 0.0, 0.0], "b": [0.3, 0.4, 0.2]},
            A_LOOPS + [("a", "b", (0, 0, 0)), ("a", "b", (1, 1, 0))],
            3,
            "59e306d1540a95009127f4a3b20f5a4215b282fbd46fec19fbbe5757e0049e1e",
        ),
        (
            {"a": [0.0, 0.0, 0.0]},
            A_LOOPS[:2],
            2,
            "dab5d192c19545ba37fc34ffae236225ee0bff6c924668a56fed3f1e3e0269a6",
        ),
    ],
    ids=["spanning", "planar"],
)
def test_star_report_with_a_positive_dependence(tmp_path, positions, edges, lineality, digest):
    # Bars along lattice vectors put +-L e_i in orbit a's star, so it has a
    # positive dependence (no built-in star has one) and every vector in its
    # lineality space; the planar star's normal comes from that basis.
    target, report = tmp_path / "fw.json", tmp_path / "star.json"
    save_framework(make_framework(3, positions, LATTICE3, edges), target)
    assert main(["star", str(target), "--orbit", "a", "-o", str(report)]) == 0
    data = json.loads(report.read_bytes())
    assert data["lineality_dim"] == lineality and data["positive_dependence"] is not None
    assert hashlib.sha256(report.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "edges, orbit",
    [([], "a"), ([("a", "b", (0, 0)), ("b", "a", (0, 1))], "c")],
    ids=["one_orbit_no_bars", "bars_avoid_c"],
)
def test_star_of_an_orbit_without_bars_is_a_usage_error(tmp_path, capsys, edges, orbit):
    names = "a" if not edges else "abc"
    positions = {o: [0.25 * i, 0.5 * (i % 2)] for i, o in enumerate(names)}
    target = tmp_path / "fw.json"
    save_framework(make_framework(2, positions, np.eye(2), edges), target)
    assert main(["star", str(target), "--orbit", orbit]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: orbit '{orbit}' has no incident bar; its star is empty\n"


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
        (2, ["--h", "inf"]),
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


def test_simulate_overflowing_step_is_numerical_failure(tmp_path, capfd):
    target = gen_file(tmp_path, capfd, "simplex", "--dim", "2", "--variant", "removed:1")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["simulate", str(target), "--ray", "0", "--h", "1e308", "--outdir", str(tmp_path)])
    assert code == 3
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    captured = capfd.readouterr()
    assert "error: numerical failure: corrector residual is inf" in captured.err
    assert "LinAlgError" not in captured.out + captured.err
    assert "DLASCL" not in captured.out + captured.err


def renamed(fw, names):
    """The framework with vertex orbit o renamed names[o]."""
    graph = QuotientGraph(
        fw.dimension,
        tuple(names[o] for o in fw.graph.vertex_orbits),
        tuple(EdgeOrbit(names[t], names[h], w) for t, h, w in fw.graph.edge_orbits),
    )
    positions = {names[o]: p for o, p in fw.placement.positions.items()}
    return validate_framework(graph, Placement(positions, fw.placement.lattice))


def test_csv_artifacts_quote_orbit_ids(tmp_path, capsys):
    # Ids holding a comma, a quote and a line feed read back as one field each.
    names = {"red": "r,ed", "green": 'gr"e\neen'}
    fw = renamed(with_edge_orbit(stressed_framework(), "red", "red", (1, 0, 0)), names)
    target = tmp_path / "fw.json"
    save_framework(fw, target)
    pairs = tmp_path / "pairs.csv"
    assert run_cli(["cone", str(target), "--radius", "1", "--pairs", str(pairs)], capsys)[0] == 0
    outdir = tmp_path / "sim"
    code, _ = run_cli(
        ["simulate", str(target), "--ray", "0", "--steps", "2", "--radius", "1", "--format", "csv",
         "--outdir", str(outdir)],
        capsys,
    )
    assert code == 0
    for path, orbit_columns in ((pairs, (0, 1)), (outdir / "audit.csv", (0, 1)), (outdir / "frames.csv", (1,))):
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert rows and all(len(row) == len(header) for row in rows)
        assert {row[c] for row in rows for c in orbit_columns} == set(names.values())


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


def test_parser_is_built_once_per_process(capsys):
    # A usage error, then a valid command, through one cached parser: the
    # same exit codes and bytes as with a fresh parser for each call.
    calls = [
        ["simulate", "--ray", "x"], ["gen", "stressed"], ["bogus"], ["gen", "simplex", "--dim", "2"]
    ]

    def run(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    fresh = []
    for argv in calls:
        _build_parser.cache_clear()
        fresh.append(run(argv))
    assert [r[0] for r in fresh] == [2, 0, 2, 0]
    assert fresh[0][2].startswith("usage: perigid simulate")
    _build_parser.cache_clear()
    assert [run(argv) for argv in calls] == fresh
    assert _build_parser.cache_info().misses == 1


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


@pytest.mark.parametrize(
    "name, raw",
    [
        ("PERIGID_TOL_RANK", "nan"),
        ("PERIGID_TOL_NEWTON", "0"),
        ("PERIGID_TOL_RANK", "inf"),
        ("PERIGID_TOL_RANK", "1e309"),
        ("PERIGID_TOL_NEWTON", "inf"),
    ],
)
def test_env_tolerance_must_be_positive(tmp_path, capsys, monkeypatch, name, raw):
    # An infinite rank tolerance would be printed as `"tolerance": inf`, which
    # is not JSON; an infinite corrector tolerance would skip the corrector.
    target = gen_file(tmp_path, capsys, "stressed")
    monkeypatch.setenv(name, raw)
    assert main(["analyze", str(target)]) == 2
    assert capsys.readouterr().err == f"error: {name} must be positive and finite, got {raw!r}\n"


# Shifts and lattices near the float range, through `python -m perigid` in a
# subprocess with a timeout: numpy's overflow warnings go to stderr there, as
# a user sees them, and a hang fails the test instead of stalling the suite.
# Each test reads the whole of stderr, so a warning before the error line fails it.


def edited_file(tmp_path, capsys, gen_args, edit):
    """A `perigid gen` file after `edit` changed its JSON data in place."""
    target = gen_file(tmp_path, capsys, *gen_args)
    data = json.loads(target.read_text())
    edit(data)
    target.write_text(json.dumps(data))
    return target


def run_module(*args):
    return subprocess.run([sys.executable, "-m", "perigid", *map(str, args)], capture_output=True, text=True, timeout=20)


def set_first_shift(shift):
    return lambda data: data["edge_orbits"][0].update(shift=shift)


@pytest.mark.parametrize(
    "gen_args, shift, command",
    [
        (["simplex", "--dim", "2"], [10**160, 0], "analyze"),
        (["stressed"], [10**160, 0, 0], "analyze"),
        (["stressed"], [10**160, 0, 0], "cone"),
    ],
)
def test_a_shift_whose_rows_overflow_is_a_numerical_failure(tmp_path, capsys, gen_args, shift, command):
    # Shift times separation overflows in the rigidity rows; an SVD of those
    # rows once ran for longer than the timeout.
    result = run_module(command, edited_file(tmp_path, capsys, gen_args, set_first_shift(shift)))
    assert result.returncode == 3
    assert result.stderr == "error: numerical failure: constraint matrix is not finite\n"


def test_a_lattice_of_norm_ten_to_the_200_loads(tmp_path, capsys):
    # The stressed framework scaled by 10**200: det(L) and the column norm
    # to the d-th power both overflowed to inf, and inf <= tol * inf
    # rejected a well-conditioned lattice.  Scaled, the answer is the
    # unscaled one.
    def scale(data):
        data["lattice"] = [[10**200 * x for x in row] for row in data["lattice"]]
        for orbit in data["vertex_orbits"]:
            orbit["position"] = [1e200 * x for x in orbit["position"]]

    result = run_module("analyze", edited_file(tmp_path, capsys, ["stressed"], scale))
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert (report["rank"], report["dof"], report["stress_dim"]) == (7, 2, 1)

    # With its positions unscaled, the bar of shift 0 is 10**-200 of the
    # lattice's scale: the zero-length test rejects it, not the lattice test.
    def lattice_only(data):
        data["lattice"] = [[10**200 * x for x in row] for row in data["lattice"]]

    result = run_module("analyze", edited_file(tmp_path, capsys, ["stressed"], lattice_only))
    assert result.returncode == 2
    assert result.stderr.splitlines()[-1].endswith("realizes to a zero vector")


def scale_by(k):
    """Positions and lattice times 10**k: the same rows times 10**k."""

    def scale(data):
        data["lattice"] = [[10**k * x for x in row] for row in data["lattice"]]
        for orbit in data["vertex_orbits"]:
            orbit["position"] = [float(10**k) * x for x in orbit["position"]]

    return scale


# SHA-256 of the stdout of `analyze` and `cone --radius 2` on the stressed
# framework times 10**150, recorded before the overflow checks of the
# relative tests, with numpy 2.4.6 and OpenBLAS 0.3.31.
SCALED_150_DIGESTS = {
    "analyze": "18320c1ddb0f1ec4ceffbbfc67358e6d027805fe40f1ea7addb3dc59da49111b",
    "cone": "a163e5992b85a16b3ea047afe9475d22a573b2e6702ac6d964e4fe1a4ea374ac",
}


@pytest.mark.parametrize("command", sorted(SCALED_150_DIGESTS))
def test_a_framework_times_ten_to_the_150_answers_as_before(tmp_path, capsys, command):
    target = edited_file(tmp_path, capsys, ["stressed"], scale_by(150))
    result = run_module(command, target, *(["--radius", 2] if command == "cone" else []))
    assert (result.returncode, result.stderr) == (0, "")
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == SCALED_150_DIGESTS[command]


@pytest.mark.parametrize("k", [160, 200])
def test_analyze_of_a_framework_past_the_square_root_of_the_float_range_warns_nothing(tmp_path, capsys, k):
    # Its bar lengths overflowed in np.linalg.norm, with a RuntimeWarning,
    # which `-W error::RuntimeWarning` made exit 1.
    target = edited_file(tmp_path, capsys, ["stressed"], scale_by(k))
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "perigid", "analyze", str(target)],
        capture_output=True, text=True, timeout=20,
    )
    assert (result.returncode, result.stderr) == (0, "")
    report = json.loads(result.stdout)
    assert (report["rank"], report["dof"], report["stress_dim"]) == (7, 2, 1)


def test_cone_of_a_framework_times_ten_to_the_160_is_one_error_line(tmp_path, capsys):
    # Every pair row's norm overflowed, the rows were dropped against an
    # infinite scale, and the cone was refused as "full lineality".
    result = run_module("cone", edited_file(tmp_path, capsys, ["stressed"], scale_by(160)), "--radius", 2)
    assert result.returncode == 3
    assert result.stderr == (
        "error: numerical failure: pair row norm is not finite; coordinates too large for a relative test\n"
    )


def test_a_shift_beyond_the_float_range_is_one_short_line(tmp_path, capsys):
    # The edge is named by its index and ends; its 401-digit shift is not printed.
    target = edited_file(tmp_path, capsys, ["simplex", "--dim", "2"], set_first_shift([10**400, 0]))
    assert main(["analyze", str(target)]) == 2
    err = capsys.readouterr().err
    assert err == "error: invalid input: edge orbit 0 (green -> red) has a shift coordinate beyond the float range\n"
    assert len(err) < 200


def test_module_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "perigid", "gen", "stressed"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["dimension"] == 3


# SHA-256 of the frame files (concatenated in the order stdout lists them),
# audit.csv and stdout of `perigid simulate --ray 0 --steps 10`, recorded at
# commit 8a71bae with numpy 2.4.6 and OpenBLAS on x86-64 (other BLAS builds
# may round differently).
MOTION_DIGESTS = {
    "removed1_d2": (
        "acba144216475dd3ea8dc97c47210bcb7cd0cef6631e5428c7536808b7863c7f",
        "64fb516aea81e5f50af7322b7f5f41a6007368b5c356f02c1e770a114555dc14",
        "c747d3cb754278ce8167c9d789741b915dbc2ec1b182b374864dbaa6d14a8392",
    ),
    "removed1_d3": (
        "5814f1e712e6e0980f58fbd09006e2d9ac8dec37ad72d71e915a25988be371fa",
        "1ef468e7815d1a855bfceac5e0f7963a0f5e335e47c4d437ead7110dc22a876c",
        "7c6293223c24c8d54b63fcb606ae2a1874dc9cb02570437e86d104ff9764dfd1",
    ),
    "removed1_d4": (
        "d120e1a741fd8642f14477a655c2bebb69ab741c77c37d12e69d1a9979123171",
        "6b49304bff32b74c0dc97ac50a217dd87f4a23b3c67e1397db03bb30f0e86412",
        "e4eb7bf40fb5e0b4f664806ba7cf0a18477b68ac91bd58cb7d99ca444dd3729a",
    ),
    "stressed_rr100": (
        "d90fc73dd615601c9878c848d97db5e03fe8bcd79cb6c99c777999dfc1df7855",
        "4f06758d358d2ef455d105c28938d39aff4b550ca64be3a63f835360312c2c82",
        "e12b117fb1dd7a32cace60feb37c9afd8cd9088c84d54b5e3237228f5a6f7703",
    ),
}


def motion_input(name):
    if name == "stressed_rr100":
        return "obj", with_edge_orbit(stressed_framework(), "red", "red", (1, 0, 0))
    d = int(name[-1])
    fw = simplex_framework(d, SimplexVariant("removed", 1), regular=True)
    return ("obj" if d < 4 else "csv"), fw


@pytest.mark.parametrize("name", sorted(MOTION_DIGESTS))
def test_simulate_bytes(tmp_path, capsys, name):
    fmt, fw = motion_input(name)
    target = tmp_path / "fw.json"
    save_framework(fw, target)
    outdir = tmp_path / "sim"
    code, out = run_cli(
        ["simulate", str(target), "--ray", "0", "--steps", "10", "--format", fmt,
         "--outdir", str(outdir)],
        capsys,
    )
    assert code == 0
    summary = json.loads(out)
    frames = b"".join((outdir / f).read_bytes() for f in summary["frames"])
    digests = tuple(
        hashlib.sha256(blob).hexdigest()
        for blob in (frames, (outdir / summary["audit"]).read_bytes(), out.encode())
    )
    assert digests == MOTION_DIGESTS[name]


# The gauged corrector stalls on these rotations of the stressed framework
# plus the red-red (1,0,0) bar: the rotation the perfbench motion workload
# draws for it at seed 1504 (lattice (0, 0) entry -1.3e-4), and a quarter
# turn about z (that entry exactly 0).  Each stalled step is corrected again
# with every coordinate free, and the run must pass the workload's checks.
ROTATIONS = {
    "seed1504": [
        [-0.00013099495235513459, -0.6144574115816099, 0.7889499807926679],
        [-0.7856501674519867, -0.4880372385658026, -0.38022817906584894],
        [0.6186709927117872, -0.6198884924932014, -0.48268463788639265],
    ],
    "quarter_turn_z": [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
}


@pytest.mark.parametrize("name", sorted(ROTATIONS))
def test_simulate_rotated_input_where_the_gauge_stalls(tmp_path, capsys, name):
    _, fw = motion_input("stressed_rr100")
    q, pl = np.array(ROTATIONS[name]), fw.placement
    rotated = Placement({o: q @ p for o, p in pl.positions.items()}, q @ pl.lattice)
    target = tmp_path / "fw.json"
    save_framework(validate_framework(fw.graph, rotated), target)
    code, out = run_cli(
        ["simulate", str(target), "--ray", "0", "--steps", "50", "--outdir", str(tmp_path / "sim")],
        capsys,
    )
    assert code == 0, capsys.readouterr().err
    summary = json.loads(out)
    assert summary["steps"] == 50
    assert summary["passed"] and summary["num_violations"] == 0
    assert summary["max_residual"] < 1e-10
