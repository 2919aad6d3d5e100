"""Command line interface: verbs, outputs, exit codes, determinism."""

import json
import math

import numpy as np
import pytest

import levyarc as la
from levyarc.cli import main


@pytest.fixture()
def workdir(tmp_path):
    delta1 = la.half_line_measure(atoms=[(1.0, 1.0)])
    (tmp_path / "delta1.json").write_text(json.dumps(la.to_json(delta1)))
    (tmp_path / "zero.json").write_text(json.dumps(la.to_json(la.PolarMeasure.zero(1))))
    triplet = la.Triplet([[0.0]], delta1, [0.5])
    (tmp_path / "poisson.json").write_text(json.dumps(triplet.to_json()))
    xs = np.linspace(1e-4, 1.0, 50)
    ramp = la.TableDensity([float(x) for x in xs], [float(x) for x in xs])
    (tmp_path / "ramp.json").write_text(json.dumps(la.to_json(la.half_line_measure(density=ramp))))
    return tmp_path


def run(*argv):
    return main([str(a) for a in argv])


# ---------------------------------------------------------------------------
# transform
# ---------------------------------------------------------------------------

def test_transform_chain_writes_outputs(workdir):
    out = workdir / "t"
    rc = run("transform", "--chain", "a1", "--in", workdir / "delta1.json",
             "--out", out, "--grid", "0.05:0.99:7")
    assert rc == 0
    obj = json.loads((out / "transformed.json").read_text())
    m = la.from_json(obj)
    assert isinstance(m.components[0][1].density, la.TableDensity)
    lines = (out / "transformed.csv").read_text().strip().splitlines()
    assert lines[0] == "component,r,density"
    assert len(lines) == 8
    # grid points carry exact kernel evaluations of the point mass image
    for row in lines[1:]:
        _, r, val = row.split(",")
        r = float(r)
        assert float(val) == pytest.approx(2.0 / (math.pi * math.sqrt(1 - r * r)), rel=1e-9)


def test_transform_zero_measure_gives_zero(workdir):
    out = workdir / "t0"
    assert run("transform", "--chain", "a1", "--in", workdir / "zero.json", "--out", out) == 0
    obj = json.loads((out / "transformed.json").read_text())
    assert la.from_json(obj).is_zero


def test_transform_chain_composition(workdir):
    out = workdir / "tc"
    rc = run("transform", "--chain", "pow2,a1", "--in", workdir / "delta1.json",
             "--out", out, "--grid", "0.1:0.99:5")
    assert rc == 0


def test_transform_of_written_table(workdir):
    # a transformed.json holds a table; chaining another kernel onto it must
    # converge on the table's knots
    t = workdir / "t1"
    assert run("transform", "--chain", "a1", "--in", workdir / "delta1.json", "--out", t) == 0
    out = workdir / "t12"
    assert run("transform", "--in", t / "transformed.json", "--chain", "a2",
               "--out", out, "--grid", "0.1:5:9") == 0
    exact = la.arcsine2(la.arcsine1(la.half_line_measure(atoms=[(1.0, 1.0)])))
    want = exact.components[0][1].density
    # the table loses the singular edge mass of the a1 image, so values sit
    # just below the exact route
    for row in (out / "transformed.csv").read_text().strip().splitlines()[1:]:
        _, r, val = row.split(",")
        ref = want.value(float(r))
        assert 0.9 * ref <= float(val) <= ref


def test_transform_unknown_op_is_usage_error(workdir, capsys):
    rc = run("transform", "--chain", "warp", "--in", workdir / "delta1.json",
             "--out", workdir / "e")
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "UsageError"


# ---------------------------------------------------------------------------
# invert
# ---------------------------------------------------------------------------

def test_invert_round_trip_through_files(workdir):
    t = workdir / "t2"
    i = workdir / "i"
    assert run("transform", "--chain", "a1", "--in", workdir / "delta1.json", "--out", t) == 0
    assert run("invert", "--in", t / "transformed.json", "--out", i,
               "--grid", "0.1:0.9:5") == 0
    rows = (i / "tails.csv").read_text().strip().splitlines()
    assert rows[0] == "component,u,tail"
    # the tabulated image loses the singular edge mass, so tails sit just
    # below the exact value 1
    for row in rows[1:]:
        tailval = float(row.split(",")[2])
        assert 0.8 < tailval <= 1.0


def test_invert_non_image_maps_to_exit_3(workdir, capsys):
    rc = run("invert", "--in", workdir / "ramp.json", "--out", workdir / "x")
    assert rc == 3
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "NotInRange"


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def test_classify_writes_reports(workdir, capsys):
    out = workdir / "c"
    rc = run("classify", "jurek", "class_a", "--in", workdir / "delta1.json", "--out", out)
    assert rc == 0
    obj = json.loads((out / "classify.json").read_text())
    assert obj["jurek"]["verdict"] == "non_member"
    assert obj["class_a"]["verdict"] == "non_member"


def test_classify_unknown_class_is_usage_error(workdir):
    assert run("classify", "galois", "--in", workdir / "delta1.json",
               "--out", workdir / "c2") == 2


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------

def test_sample_writes_deterministic_outputs(workdir):
    a, b = workdir / "s1", workdir / "s2"
    for out in (a, b):
        rc = run("sample", "cos_pi_half", "--in", workdir / "poisson.json",
                 "--paths", 400, "--steps", 50, "--seed", 5, "--out", out)
        assert rc == 0
    assert (a / "samples.csv").read_bytes() == (b / "samples.csv").read_bytes()
    assert (a / "ecf.csv").read_bytes() == (b / "ecf.csv").read_bytes()
    rows = (a / "samples.csv").read_text().strip().splitlines()
    assert rows[0] == "x1" and len(rows) == 401
    side = json.loads((a / "samples.json").read_text())
    assert side["config"]["seed"] == 5


def test_sample_identity_integrand(workdir):
    out = workdir / "sid"
    rc = run("sample", "--in", workdir / "poisson.json",
             "--paths", 64, "--steps", 1, "--seed", 2, "--out", out)
    assert rc == 0
    vals = [float(x) for x in (out / "samples.csv").read_text().strip().splitlines()[1:]]
    assert all(abs(v - round(v)) < 1e-12 for v in vals)


# ---------------------------------------------------------------------------
# verify and fixtures
# ---------------------------------------------------------------------------

def test_verify_named_checks_pass(capsys):
    assert run("verify", "laplace", "frachalf") == 0
    txt = capsys.readouterr().out
    assert "laplace: PASS" in txt and "frachalf: PASS" in txt
    assert "2/2 checks passed" in txt


def test_verify_unknown_check_is_usage_error():
    assert run("verify", "nonsense") == 2


def test_fixtures_dump(workdir, capsys):
    rc = run("fixtures", "--out", workdir / "f")
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert set(obj) == {"EX1", "EX2", "EX3", "JUREK_CE"}
    disk = json.loads((workdir / "f" / "fixtures.json").read_text())
    assert disk == obj


# ---------------------------------------------------------------------------
# usage plumbing
# ---------------------------------------------------------------------------

def test_no_arguments_is_usage_error(capsys):
    assert run() == 2


def test_malformed_measure_file_is_usage_error(workdir, capsys):
    bad = workdir / "bad.json"
    bad.write_text('{"d": 1, "components": [{"direction": [2.0], "weight": 1.0}]}')
    rc = run("transform", "--chain", "a1", "--in", bad, "--out", workdir / "xx")
    assert rc == 2


def test_csv_round_trips_full_precision(workdir):
    out = workdir / "prec"
    assert run("transform", "--chain", "a1", "--in", workdir / "delta1.json",
               "--out", out, "--grid", "0.3:0.7:3") == 0
    m = la.from_json(json.loads((out / "transformed.json").read_text()))
    d = m.components[0][1].density
    for row in (out / "transformed.csv").read_text().strip().splitlines()[1:]:
        _, r, val = row.split(",")
        assert float(val) == d.value(float(r))
