import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pentavec import cli, forking, suites
from pentavec.algebra import wedge
from pentavec.cli import main
from pentavec.errors import PentavecError
from pentavec.fileio import Record, emit_record, read_record, transform_to_payload, write_record
from pentavec.grids import Grid
from pentavec.poincare import (
    PoincareTransform,
    build_generator_tensor,
    build_param_tensor,
    homogeneous_rep,
    transform_parallel,
)


def test_verify_single_suite_passes(capsys):
    assert main(["verify", "algebra", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "suite algebra: PASS" in out
    assert "overall: PASS" in out


def test_verify_machine_format(capsys):
    assert main(["verify", "clifford", "--format", "machine"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines
    pattern = re.compile(r"^clifford\.[a-z0-9-]+ \S+ \S+ (pass|fail)$")
    for line in lines:
        assert pattern.match(line), line


def test_verify_unknown_suite_exits_via_argparse():
    with pytest.raises(SystemExit) as info:
        main(["verify", "nonsense"])
    assert info.value.code == 2


def test_verify_failing_check_exits_1(capsys, monkeypatch):
    monkeypatch.setitem(suites._SUITES, "algebra", lambda options, rng: [suites.CheckResult("forced", 1.0, 0.0)])
    assert main(["verify", "algebra"]) == 1
    out = capsys.readouterr().out
    assert "overall: FAIL" in out


def fake_suite(name):
    """A cheap suite: one check drawn from the suite's own generator."""
    return lambda options, rng: [suites.CheckResult(f"{name}-draw", float(rng.normal()), 1.0)]


@pytest.fixture
def fake_suites(monkeypatch):
    for name in suites.SUITE_NAMES:
        monkeypatch.setitem(suites._SUITES, name, fake_suite(name))


@pytest.mark.parametrize("name", suites.SUITE_NAMES)
def test_verify_one_suite_prints_its_lines_of_verify_all(capsys, fake_suites, name):
    # each suite draws from its own generator, seeded by its place in
    # SUITE_NAMES, so it reads the same alone as after the suites before it
    args = ["--format", "machine", "--seed", "7"]
    main(["verify", "all", *args])
    every = capsys.readouterr().out.splitlines()
    assert [line.split(".")[0] for line in every] == list(suites.SUITE_NAMES)
    main(["verify", name, *args])
    assert capsys.readouterr().out.splitlines() == [every[suites.SUITE_NAMES.index(name)]]


def raises(message):
    def suite(options, rng):
        raise PentavecError(message)

    return suite


@pytest.mark.parametrize(
    "failing, first",
    [(("bases", "conservation"), "bases"), (("conservation",), "conservation"), (("poincare", "algebra"), "algebra")],
)
def test_verify_stops_at_the_first_suite_error_in_order(capsys, fake_suites, monkeypatch, failing, first):
    ran = []

    def counted(name, suite):
        return lambda options, rng: ran.append(name) or suite(options, rng)

    for name in suites.SUITE_NAMES:
        suite = raises(f"{name} fails") if name in failing else suites._SUITES[name]
        monkeypatch.setitem(suites._SUITES, name, counted(name, suite))
    assert main(["verify", "all"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {first} fails\n")  # no report of the suites before it
    assert ran == list(suites.SUITE_NAMES[: suites.SUITE_NAMES.index(first) + 1])


@pytest.mark.parametrize("scheme", ["central2", "central4"])
@pytest.mark.parametrize("seed", ["1", "42", "1234"])
def test_verify_forks_no_helper_and_prints_the_same_lines_on_one_cpu(capsys, monkeypatch, seed, scheme):
    # The suites run in turn in this process; without fork, the grid kernels
    # also keep their rows in one thread, and every value is the same.
    forks, forked = [], forking.forked
    monkeypatch.setattr(forking, "forked", lambda child, parent: forks.append(1) or forked(child, parent))
    args = ["verify", "all", "--format", "machine", "--seed", seed, "--scheme", scheme]
    assert main(args) == 0
    two = capsys.readouterr()
    with monkeypatch.context() as patch:
        patch.delattr(os, "fork")
        assert not forking.can_fork()
        assert main(args) == 0
    assert capsys.readouterr() == two
    assert forks == []


def pinned_gates(scheme):
    """(suite.check, gate, mode) of every check, read from tests/check_gates.txt."""
    rows = []
    for line in (Path(__file__).parent / "check_gates.txt").read_text().splitlines():
        if line and not line.startswith("#"):
            name, gate, mode, *central4 = line.split()
            rows.append((name, float(central4[0] if central4 and scheme == "central4" else gate), mode))
    return rows


@pytest.mark.parametrize("scheme", ["central2", "central4"])
def test_verify_all_gates_are_pinned(scheme):
    options = suites.SuiteOptions(scheme=scheme)
    reports = [suites.run_suite(name, options) for name in suites.SUITE_NAMES]
    got = [(f"{report.name}.{check.name}", check.gate, check.mode) for report in reports for check in report.checks]
    assert got == pinned_gates(scheme)


@pytest.mark.parametrize(
    "args, fragment",
    [
        pytest.param(["algebra", "--seed", "-1"], "seed must be non-negative, got -1", id="negative-seed"),
        pytest.param(["connection", "--grid", "1"], "grid resolution must be between 2 and", id="grid-1"),
        pytest.param(["conservation", "--grid", "100000"], "got 100000", id="grid-100000"),
        pytest.param(["poincare", "--kappa", "inf"], "kappa must be finite, got inf", id="kappa-inf"),
        pytest.param(["poincare", "--kappa", "-inf"], "kappa must be finite, got -inf", id="kappa-minus-inf"),
        pytest.param(["poincare", "--kappa=-inf"], "kappa must be finite, got -inf", id="kappa-equals-minus-inf"),
    ],
)
def test_verify_bad_arguments_exit_2(capsys, args, fragment):
    assert main(["verify", *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and "Traceback" not in err
    assert fragment in err


def test_verify_connection_reports_every_check_at_large_kappa(capsys):
    # N(x; kappa) has condition number ~kappa^2 |x|^2, but it is unit
    # triangular, so no check may stop on a condition estimate.
    assert main(["verify", "connection", "--format", "machine"]) == 0
    names = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert main(["verify", "connection", "--kappa=1e4", "--format", "machine"]) in (0, 1)
    captured = capsys.readouterr()
    assert captured.err == ""
    assert [line.split()[0] for line in captured.out.splitlines()] == names
    assert len(names) == 11


def write_transform(path, t):
    write_record(path, Record("poincare_transform", transform_to_payload(t)))


def test_verify_imports_no_scipy():
    # the runtime depends on numpy alone; the test extra installs scipy, so
    # a fresh interpreter shows whether a suite still reaches for it
    code = (
        "import sys\n"
        "from pentavec.cli import main\n"
        "main(['verify', 'all', '--grid', '5', '--format', 'machine'])\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("algebra.") and lines[-1] == "[]", proc.stdout


def test_package_namespace_loads_nothing_and_names_the_version():
    # every name is imported from its module, so the package itself loads
    # no submodule and not numpy
    code = (
        "import sys, pentavec\n"
        "print(sorted(m for m in sys.modules if m.startswith('pentavec.') or m.split('.')[0] == 'numpy'))\n"
        "print(pentavec.__version__)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded, version = proc.stdout.splitlines()
    assert loaded == "[]"
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
    assert version == pyproject["project"]["version"]


def test_cli_import_loads_neither_the_suites_nor_clifford():
    # transform and basis never run a suite, so the CLI imports the suites
    # (and through them clifford) only when verify runs
    code = "import sys, pentavec.cli\nprint(sorted(m for m in sys.modules if m.startswith('pentavec.')))\n"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.strip()
    assert "'pentavec.suites'" not in loaded and "'pentavec.clifford'" not in loaded, loaded
    assert "'pentavec.poincare'" in loaded, loaded
    assert cli.SUITE_NAMES == suites.SUITE_NAMES


def test_transform_vector_round_trip(tmp_path, capsys):
    t = PoincareTransform(np.eye(4), [0.5, 1.0, -1.0, 2.0])
    vec = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    write_record(tmp_path / "v.pvec", Record("five_vector", vec, basis="P", kappa=0.7))
    write_transform(tmp_path / "t.pvec", t)
    write_transform(tmp_path / "ti.pvec", t.inverse())

    assert main([
        "transform", str(tmp_path / "v.pvec"), str(tmp_path / "t.pvec"),
        "-o", str(tmp_path / "v2.pvec"),
    ]) == 0
    moved = read_record(tmp_path / "v2.pvec")
    expected = transform_parallel(vec, t, 0.7)
    assert np.allclose(moved.payload, expected, atol=1e-15)
    assert moved.basis == "P"

    assert main([
        "transform", str(tmp_path / "v2.pvec"), str(tmp_path / "ti.pvec"),
        "-o", str(tmp_path / "v3.pvec"),
    ]) == 0
    back = read_record(tmp_path / "v3.pvec")
    assert np.allclose(back.payload, vec, atol=1e-12)


def test_transform_requires_frame(tmp_path, capsys):
    write_record(tmp_path / "v.pvec", Record("five_vector", np.arange(5.0)))
    write_transform(tmp_path / "t.pvec", PoincareTransform(np.eye(4), np.zeros(4)))
    code = main([
        "transform", str(tmp_path / "v.pvec"), str(tmp_path / "t.pvec"),
        "-o", str(tmp_path / "out.pvec"),
    ])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    # an explicit frame on the command line fixes it
    assert main([
        "transform", str(tmp_path / "v.pvec"), str(tmp_path / "t.pvec"),
        "-o", str(tmp_path / "out.pvec"), "--basis", "O",
    ]) == 0


@pytest.mark.parametrize(
    "header, flags, used",
    [
        pytest.param({"basis": "P", "kappa": 0.7}, [], ["frame: P (header)", "kappa: 0.7 (header)"], id="header"),
        pytest.param(
            {"basis": "O", "kappa": 0.7}, ["--basis", "P", "--kappa", "2"], ["frame: P (flag)", "kappa: 2.0 (flag)"], id="flag"
        ),
        pytest.param({"basis": "P"}, [], ["frame: P (header)", "kappa: 1.0 (default)"], id="default"),
        pytest.param({}, ["--basis", "O"], ["frame: O (flag)"], id="orthonormal-frame-uses-no-kappa"),
    ],
)
def test_transform_says_which_frame_and_kappa_it_used(tmp_path, capsys, header, flags, used):
    write_record(tmp_path / "v.pvec", Record("five_vector", np.arange(5.0), **header))
    write_transform(tmp_path / "t.pvec", PoincareTransform(np.eye(4), [0.5, 1.0, -1.0, 2.0]))
    out = tmp_path / "out.pvec"
    assert main(["transform", str(tmp_path / "v.pvec"), str(tmp_path / "t.pvec"), "-o", str(out), *flags]) == 0
    assert capsys.readouterr().out.splitlines() == used + [f"wrote {out}"]


def test_transform_rejects_wrong_transform_kind(tmp_path, capsys):
    write_record(tmp_path / "v.pvec", Record("five_vector", np.arange(5.0), basis="O"))
    write_record(tmp_path / "w.pvec", Record("five_vector", np.arange(5.0), basis="O"))
    code = main([
        "transform", str(tmp_path / "v.pvec"), str(tmp_path / "w.pvec"),
        "-o", str(tmp_path / "out.pvec"),
    ])
    assert code == 2
    assert "poincare_transform" in capsys.readouterr().err


def test_transform_missing_file(tmp_path, capsys):
    code = main([
        "transform", str(tmp_path / "absent.pvec"), str(tmp_path / "t.pvec"),
        "-o", str(tmp_path / "out.pvec"),
    ])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_transform_non_lorentz_exits_2(tmp_path, capsys):
    write_record(tmp_path / "v.pvec", Record("five_vector", np.arange(5.0), basis="O"))
    payload = np.concatenate([2.0 * np.eye(4).ravel(), np.zeros(4)])
    write_record(tmp_path / "t.pvec", Record("poincare_transform", payload))
    code = main([
        "transform", str(tmp_path / "v.pvec"), str(tmp_path / "t.pvec"),
        "-o", str(tmp_path / "out.pvec"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "residual 3.000e+00 > bound" in err


def test_transform_overflow_exits_2(tmp_path, capsys):
    write_record(tmp_path / "v.pvec", Record("five_vector", [1e308, 1e308, 0.0, 0.0, 0.0], basis="O"))
    boost = np.eye(4)
    boost[0, 0] = boost[1, 1] = np.cosh(1.0)
    boost[0, 1] = boost[1, 0] = np.sinh(1.0)
    write_transform(tmp_path / "t.pvec", PoincareTransform(boost, np.zeros(4)))
    code = main([
        "transform", str(tmp_path / "v.pvec"), str(tmp_path / "t.pvec"),
        "-o", str(tmp_path / "out.pvec"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "non-finite" in err
    assert not (tmp_path / "out.pvec").exists()


def boost_transform():
    boost = np.eye(4)
    boost[0, 0] = boost[1, 1] = np.cosh(0.3)
    boost[0, 1] = boost[1, 0] = np.sinh(0.3)
    return PoincareTransform(boost, [1.0, 0.5, -0.5, 0.25])


def tensor_payload(kind):
    """A parameter or generator tensor (5, 5) drawn at a fixed seed."""
    rng = np.random.default_rng(23)
    if kind == "param_tensor":
        return build_param_tensor(rng.normal(size=(4, 4)), rng.normal(size=4))
    omega = rng.normal(size=(4, 4))
    return build_generator_tensor(omega - omega.T, rng.normal(size=4))


@pytest.mark.parametrize("kind", ["param_tensor", "generator_tensor"])
def test_transform_tensor_record_is_conjugation_by_homogeneous_rep(tmp_path, capsys, kind):
    t = boost_transform()
    payload = tensor_payload(kind)
    rep = homogeneous_rep(t, 1.0)
    if kind == "param_tensor":
        expected = np.linalg.solve(rep, payload @ rep)
    else:
        rep_inv = np.linalg.inv(rep)
        expected = rep_inv @ payload @ rep_inv.T
    write_record(tmp_path / "in.pvec", Record(kind, payload))
    write_transform(tmp_path / "t.pvec", t)
    out = tmp_path / "out.pvec"
    assert main(["transform", str(tmp_path / "in.pvec"), str(tmp_path / "t.pvec"), "-o", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out}\n"
    moved = read_record(out)
    assert moved.kind == kind
    assert np.max(np.abs(moved.payload - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize(
    "kind, entry, change, fragment",
    [
        pytest.param("param_tensor", (4, 4), 1.0, "zero fifth column and unit corner", id="param-corner-2"),
        pytest.param("param_tensor", (1, 4), 0.5, "zero fifth column and unit corner", id="param-fifth-column"),
        pytest.param("generator_tensor", (0, 1), 1.0, "generator tensor must be antisymmetric", id="generator-asymmetric"),
    ],
)
def test_transform_bad_tensor_record_exits_2(tmp_path, capsys, kind, entry, change, fragment):
    payload = tensor_payload(kind)
    payload[entry] += change
    write_record(tmp_path / "in.pvec", Record(kind, payload))
    write_transform(tmp_path / "t.pvec", boost_transform())
    out = tmp_path / "out.pvec"
    assert main(["transform", str(tmp_path / "in.pvec"), str(tmp_path / "t.pvec"), "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
    assert fragment in captured.err
    assert not out.exists()


def kappa_record(kind):
    """A small record of each kind that the --kappa flag may reach."""
    grid = Grid(origin=(0.0,) * 4, spacing=(0.5,) * 4, shape=(2, 1, 1, 1))
    if kind == "moment_field":
        return Record(kind, np.zeros(grid.shape + (4, 5, 5)), basis="P", grid=grid)
    if kind == "five_vector_field":
        return Record(kind, np.ones(grid.shape + (5,)), basis="P", grid=grid)
    if kind == "five_vector":
        return Record(kind, np.arange(5.0), basis="P")
    return Record(kind, tensor_payload(kind))


@pytest.mark.parametrize("kind", ["moment_field", "five_vector_field", "five_vector", "param_tensor"])
@pytest.mark.parametrize("kappa", ["nan", "inf", "-inf"])
def test_transform_non_finite_kappa_flag_exits_2(tmp_path, capsys, kind, kappa):
    write_record(tmp_path / "in.pvec", kappa_record(kind))
    write_transform(tmp_path / "t.pvec", boost_transform())
    out = tmp_path / "out.pvec"
    args = ["transform", str(tmp_path / "in.pvec"), str(tmp_path / "t.pvec"), "-o", str(out)]
    for flag in ([f"--kappa={kappa}"], ["--kappa", kappa]):
        assert main(args + flag) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: kappa must be finite, got {kappa}\n"
        assert not out.exists()


@pytest.mark.parametrize("kappa", ["nan", "inf", "-inf"])
def test_non_finite_kappa_is_one_error_for_transform_and_verify(tmp_path, capsys, kappa):
    write_record(tmp_path / "in.pvec", kappa_record("five_vector_field"))
    write_transform(tmp_path / "t.pvec", boost_transform())
    commands = (
        ["transform", str(tmp_path / "in.pvec"), str(tmp_path / "t.pvec"), "-o", str(tmp_path / "out.pvec")],
        ["verify", "poincare"],
    )
    for command in commands:
        assert main([*command, "--kappa", kappa]) == 2
        assert capsys.readouterr() == ("", f"error: kappa must be finite, got {kappa}\n")


@pytest.mark.parametrize("kappa", ["-1e3", "-1", "-.5", "2", "-0"])
def test_kappa_flag_takes_a_negative_value_after_a_space(tmp_path, capsys, kappa):
    write_record(tmp_path / "in.pvec", kappa_record("five_vector_field"))
    write_transform(tmp_path / "t.pvec", boost_transform())
    outputs = []
    for flag in ([f"--kappa={kappa}"], ["--kappa", kappa]):
        out = tmp_path / f"out{len(outputs)}.pvec"
        assert main(["transform", str(tmp_path / "in.pvec"), str(tmp_path / "t.pvec"), "-o", str(out), *flag]) == 0
        assert capsys.readouterr().out.splitlines()[1] == f"kappa: {float(kappa)!r} (flag)"
        assert main(["verify", "clifford", "--format", "machine", *flag]) == 0
        outputs.append((out.read_bytes(), capsys.readouterr()))
    assert outputs[0] == outputs[1]


def test_transform_moment_field(tmp_path, capsys):
    from pentavec.stress_energy import assemble_moment_field, constant_stress_samples

    grid = Grid(origin=(-0.5,) * 4, spacing=(0.25,) * 4, shape=(3, 3, 3, 3))
    theta, sigma = constant_stress_samples(np.diag([1.0, 0.5, 0.5, 0.5]), grid)
    current = assemble_moment_field(theta, sigma, grid)
    write_record(
        tmp_path / "m.pvec",
        Record("moment_field", current.values, basis="P", kappa=1.0, grid=grid),
    )
    t = PoincareTransform(np.eye(4), [1.0, 0.0, 0.0, 0.0])
    write_transform(tmp_path / "t.pvec", t)
    write_transform(tmp_path / "ti.pvec", t.inverse())
    assert main([
        "transform", str(tmp_path / "m.pvec"), str(tmp_path / "t.pvec"),
        "-o", str(tmp_path / "m2.pvec"),
    ]) == 0
    assert capsys.readouterr().out.splitlines()[:2] == [
        "frame: P (header)",
        "kappa: nonzero (header); this law reads only whether kappa is zero",
    ]
    assert main([
        "transform", str(tmp_path / "m2.pvec"), str(tmp_path / "ti.pvec"),
        "-o", str(tmp_path / "m3.pvec"), "--kappa", "1",
    ]) == 0
    assert capsys.readouterr().out.splitlines()[:2] == [
        "frame: P (header)",
        "kappa: nonzero (flag); this law reads only whether kappa is zero",
    ]
    back = read_record(tmp_path / "m3.pvec")
    assert np.max(np.abs(back.payload - current.values)) <= 1e-9


def test_transform_moment_field_reads_only_whether_kappa_is_zero(tmp_path, capsys):
    grid = Grid(origin=(0.0,) * 4, spacing=(0.5,) * 4, shape=(2, 1, 1, 1))
    payload = np.random.default_rng(3).normal(size=grid.shape + (4, 5, 5))
    write_record(tmp_path / "in.pvec", Record("moment_field", payload, basis="P", grid=grid))
    write_transform(tmp_path / "t.pvec", boost_transform())
    outputs = set()
    for kappa, word in (("0.5", "nonzero"), ("2", "nonzero"), ("1e5", "nonzero"), ("0", "zero")):
        out = tmp_path / f"out{kappa}.pvec"
        assert main(["transform", str(tmp_path / "in.pvec"), str(tmp_path / "t.pvec"), "-o", str(out), f"--kappa={kappa}"]) == 0
        line = capsys.readouterr().out.splitlines()[1]
        assert line == f"kappa: {word} (flag); this law reads only whether kappa is zero"
        if word == "nonzero":
            outputs.add(out.read_bytes())
    assert len(outputs) == 1


def malformed_records():
    """A broken record per case, with a fragment of the one error line it must give."""
    grid = Grid(origin=(0.0,) * 4, spacing=(0.5,) * 4, shape=(1, 1, 1, 40))
    payload = np.arange(200.0).reshape(grid.shape + (5,)) / 7.0
    text = emit_record(Record("five_vector_field", payload, basis="O", grid=grid))
    lines = text.splitlines(keepends=True)  # data sentinel on line 8, sample 8k+j on line 9+k

    def with_line(no, change):
        return "".join(lines[: no - 1] + [change(lines[no - 1])] + lines[no:])

    scalar = emit_record(Record("scalar_field", np.zeros(grid.shape), grid=grid))
    wrapped = scalar[: scalar.index("data\n") + 5].replace("shape 1 1 1 40", "shape 4294967296 4294967296 1 1")
    non_utf8 = with_line(20, lambda line: "\xff" + line).encode("latin-1")
    deep_bad = with_line(27, lambda line: " ".join(["x" if k == 1 else t for k, t in enumerate(line.split(" "))]))
    return [
        pytest.param(wrapped.encode(), "needs 18446744073709551616 values, got 0 (line 7)", id="shape-wraparound"),
        pytest.param(non_utf8, "byte 0xff is not UTF-8 text (line 20, column 1)", id="non-utf8"),
        pytest.param(deep_bad.encode(), "bad number 'x' at sample 145 (line 27, column", id="deep-bad-token"),
        pytest.param(text[: len(text) // 2].encode(), "needs 200 values, got", id="truncated"),
        *header_cases(),
    ]


# bad values for each header line of a field record, each with a fragment of its error line
BAD_HEADERS = [
    ("kind", "nonsense", "unknown kind 'nonsense' (line 2)"),
    ("labels", "0 1 2 3", "expects labels '0 1 2 3 5' (line 3)"),
    ("basis", "Q", "basis flag must be one of ('O', 'P', 'regular') (line 4)"),
    ("kappa", "x", "bad kappa value 'x' (line 5)"),
    ("kappa", "nan", "kappa must be finite (line 5)"),
    ("origin", "0 0 x 0", "bad origin value in '0 0 x 0' (line 6)"),
    ("origin", "0 0 0", "'origin' needs four values, got 3 (line 6)"),
    ("origin", "0 inf 0 0", "grid origin must be finite (line 6)"),
    ("spacing", "0.5 0.5 x 0.5", "bad spacing value in '0.5 0.5 x 0.5' (line 7)"),
    ("spacing", "0.5 0.5 0.5 0.5 0.5", "'spacing' needs four values, got 5 (line 7)"),
    ("spacing", "0.5 nan 0.5 0.5", "grid spacing must be finite (line 7)"),
    ("spacing", "0.5 0 0.5 0.5", "spacings must be positive (line 7)"),
    ("shape", "1 1 2 2.0", "bad shape value in '1 1 2 2.0' (line 8)"),
    ("shape", "1 1 2", "'shape' needs four values, got 3 (line 8)"),
    ("shape", "1 1 0 2", "each axis needs at least one sample (line 8)"),
]


def header_cases():
    """Each header line given a bad value, then each given twice."""
    grid = Grid(origin=(0.0,) * 4, spacing=(0.5,) * 4, shape=(1, 1, 2, 2))
    text = emit_record(Record("five_vector_field", np.ones(grid.shape + (5,)), basis="O", kappa=0.5, grid=grid))
    lines = text.splitlines(keepends=True)
    keys = [line.split()[0] for line in lines[1:8]]  # kind, labels, basis, kappa, origin, spacing, shape
    cases = []
    for key, value, fragment in BAD_HEADERS:
        changed = [f"{key} {value}\n" if line.split()[0] == key else line for line in lines]
        cases.append(pytest.param("".join(changed).encode(), fragment, id=f"bad-{key}-{value.replace(' ', '_')}"))
    for no, key in enumerate(keys, start=2):
        repeated = lines[:no] + [lines[no - 1]] + lines[no:]
        fragment = f"duplicate header key {key!r} (line {no + 1})"
        cases.append(pytest.param("".join(repeated).encode(), fragment, id=f"duplicate-{key}"))
    return cases


@pytest.mark.parametrize("data, fragment", malformed_records())
def test_transform_malformed_record_exits_2(tmp_path, capsys, data, fragment):
    (tmp_path / "in.pvec").write_bytes(data)
    write_transform(tmp_path / "t.pvec", PoincareTransform(np.eye(4), np.zeros(4)))
    code = main([
        "transform", str(tmp_path / "in.pvec"), str(tmp_path / "t.pvec"),
        "-o", str(tmp_path / "out.pvec"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and "Traceback" not in err
    assert fragment in err
    assert not (tmp_path / "out.pvec").exists()


def reference_wedge_payload():
    e = np.eye(5)
    return wedge(e[:4], e[4])


def test_basis_orthonormal_mode(tmp_path, capsys):
    write_record(tmp_path / "w.pvec", Record("four_basis_bivectors", reference_wedge_payload()))
    assert main([
        "basis", str(tmp_path / "w.pvec"), "-o", str(tmp_path / "b.pvec"),
        "--mode", "orthonormal",
    ]) == 0
    out = capsys.readouterr().out
    assert "flags: standard=yes regular=yes orthonormal=yes" in out
    rec = read_record(tmp_path / "b.pvec")
    assert rec.kind == "basis" and rec.basis == "O"
    assert np.allclose(rec.payload, np.eye(5), atol=1e-12)


def test_basis_regular_mode_scaled_input(tmp_path, capsys):
    write_record(
        tmp_path / "w.pvec",
        Record("four_basis_bivectors", 2.0 * reference_wedge_payload()),
    )
    assert main([
        "basis", str(tmp_path / "w.pvec"), "-o", str(tmp_path / "b.pvec"),
        "--mode", "regular",
    ]) == 0
    rec = read_record(tmp_path / "b.pvec")
    assert rec.basis == "regular"
    assert np.allclose(rec.payload, np.diag([2.0, 2.0, 2.0, 2.0, 1.0]), atol=1e-10)


def test_basis_negate_direction(tmp_path, capsys):
    write_record(tmp_path / "w.pvec", Record("four_basis_bivectors", reference_wedge_payload()))
    assert main([
        "basis", str(tmp_path / "w.pvec"), "-o", str(tmp_path / "b.pvec"),
        "--mode", "orthonormal", "--negate-direction",
    ]) == 0
    rec = read_record(tmp_path / "b.pvec")
    assert np.allclose(rec.payload, -np.eye(5), atol=1e-12)


def test_basis_from_four_components(tmp_path, capsys):
    # rows are four-vectors; their wedge embeddings seed the construction
    write_record(tmp_path / "c.pvec", Record("four_basis_components", np.eye(4)))
    assert main([
        "basis", str(tmp_path / "c.pvec"), "-o", str(tmp_path / "b.pvec"),
        "--mode", "orthonormal",
    ]) == 0
    rec = read_record(tmp_path / "b.pvec")
    assert np.allclose(rec.payload, np.eye(5), atol=1e-12)


def test_basis_rejects_non_orthonormal_in_strict_mode(tmp_path, capsys):
    write_record(
        tmp_path / "w.pvec",
        Record("four_basis_bivectors", 2.0 * reference_wedge_payload()),
    )
    code = main([
        "basis", str(tmp_path / "w.pvec"), "-o", str(tmp_path / "b.pvec"),
        "--mode", "orthonormal",
    ])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_basis_rejects_wrong_kind(tmp_path, capsys):
    write_record(tmp_path / "v.pvec", Record("five_vector", np.arange(5.0)))
    code = main([
        "basis", str(tmp_path / "v.pvec"), "-o", str(tmp_path / "b.pvec"),
        "--mode", "regular",
    ])
    assert code == 2
    assert "four_basis" in capsys.readouterr().err


def basis_inputs():
    """Bad inputs to ``basis``: record text, mode, and a fragment of the one error line."""
    ref = reference_wedge_payload()
    crossed = ref.copy()
    crossed[3] = wedge(np.eye(5)[0], np.eye(5)[1])
    skewed = ref.copy()
    skewed[2, 0, 1] = 1e-6  # b^(01) = 1e-6 but b^(10) = 0
    four = emit_record(Record("four_basis_bivectors", ref))
    three = four[: four.index("data\n") + 5] + " ".join("%.17g" % v for v in ref[:3].ravel()) + "\n"
    return [
        pytest.param(emit_record(Record("five_vector", np.arange(5.0))), "orthonormal", "got 'five_vector'", id="wrong-kind"),
        pytest.param(three, "regular", "needs 100 values, got 75", id="three-wedges"),
        pytest.param(
            emit_record(Record("four_basis_bivectors", 2.0 * ref)),
            "orthonormal",
            "induced inner products do not match diag(+ - - -)",
            id="non-orthonormal",
        ),
        pytest.param(emit_record(Record("four_basis_bivectors", crossed)), "regular", "common-direction", id="crossed"),
        pytest.param(
            emit_record(Record("four_basis_bivectors", skewed)),
            "orthonormal",
            "must be antisymmetric",
            id="non-antisymmetric",
        ),
        pytest.param(
            emit_record(Record("four_basis_bivectors", np.zeros((4, 5, 5)))),
            "regular",
            "numerically degenerate",
            id="zero-wedges",
        ),
        # the frame is built, but its four-vectors near 1e300 square past the float range
        pytest.param(
            emit_record(Record("four_basis_bivectors", 1e300 * ref)),
            "regular",
            "frame inner products overflow",
            id="overflow",
        ),
    ]


# Wedges near 1e-160, whose induced Gram matrix would underflow to subnormals
# unscaled: the regular frame is that of the unit-scale wedges with its
# four-vectors scaled.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "kind, payload, scale",
    [
        pytest.param("four_basis_bivectors", 1e-160 * reference_wedge_payload(), 1e-160, id="underflow"),
        pytest.param("four_basis_components", 1e-160 * np.diag([1.0, 2.0, 3.0, 4.0]), 1e-160, id="underflow-components"),
    ],
)
def test_basis_builds_regular_frames_far_from_unit_scale(tmp_path, capsys, kind, payload, scale):
    write_record(tmp_path / "w.pvec", Record(kind, payload))
    assert main(["basis", str(tmp_path / "w.pvec"), "-o", str(tmp_path / "b.pvec"), "--mode", "regular"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "flags: standard=yes regular=yes orthonormal=no"
    unit = payload / scale
    write_record(tmp_path / "unit.pvec", Record(kind, unit))
    assert main(["basis", str(tmp_path / "unit.pvec"), "-o", str(tmp_path / "u.pvec"), "--mode", "regular"]) == 0
    capsys.readouterr()
    cols, unit_cols = read_record(tmp_path / "b.pvec").payload, read_record(tmp_path / "u.pvec").payload
    assert np.array_equal(cols[:, 4], unit_cols[:, 4])
    assert np.max(np.abs(cols[:, :4] / scale - unit_cols[:, :4])) <= 1e-15 * np.max(np.abs(unit_cols))


# a numpy warning would print lines of its own to stderr
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("text, mode, fragment", basis_inputs())
def test_basis_bad_input_exits_2(tmp_path, capsys, text, mode, fragment):
    (tmp_path / "w.pvec").write_text(text)
    assert main(["basis", str(tmp_path / "w.pvec"), "-o", str(tmp_path / "b.pvec"), "--mode", mode]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and "Traceback" not in err
    assert fragment in err
    assert not (tmp_path / "b.pvec").exists()
