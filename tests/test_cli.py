"""Command line interface: verbs, outputs, exit codes, determinism."""

import json
import math
import time

import numpy as np
import pytest
from scipy import integrate as sp_integrate
from scipy.special import ellipkm1, k0

import levyarc as la
from levyarc import cli as cli_mod
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
    (tmp_path / "garbage.json").write_text("{not json")
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
    assert la.from_json(obj).is_zero()


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


def _elliptic_mixture_of_ex2(r):
    """a2(a1(EX2))(r) = int_0^1 u^(-1) g(r/u) (2/pi)^2 K(1 - u^2) du with
    g(x) = (sqrt(pi)/2) e^(-x^2/4), the EX2 density after r -> r^(1/2);
    by scipy's quad."""
    f = lambda u: (math.sqrt(math.pi) / 2.0 * math.exp(-r * r / (4.0 * u * u))
                   * (2.0 / math.pi) ** 2 * ellipkm1(u * u) / u)
    return sp_integrate.quad(f, 0.0, 1.0, epsabs=0.0, epsrel=1e-13, limit=500)[0]


@pytest.mark.parametrize("chain, provenance", [
    ("ups0,a1", "a1(upsilon(exp_power))"),
    ("a1,a2", "a2(a1(exp_power))"),
])
def test_depth2_chains_on_ex2_default_grid(workdir, chain, provenance):
    ex2 = la.fixture_catalog()["EX2"].measure
    (workdir / "ex2.json").write_text(json.dumps(la.to_json(ex2)))
    out = workdir / chain.replace(",", "_")
    t0 = time.perf_counter()
    assert run("transform", "--in", workdir / "ex2.json", "--chain", chain, "--out", out) == 0
    assert time.perf_counter() - t0 < 2.0
    dens = json.loads((out / "transformed.json").read_text())["components"][0]["density"]
    assert dens["provenance"] == provenance
    rows = [(float(r), float(v)) for r, v in zip(dens["xs"], dens["ys"]) if 0.01 <= r <= 10.0]
    for r, v in rows[::150]:
        want = k0(r) if chain == "ups0,a1" else _elliptic_mixture_of_ex2(r)
        assert v == pytest.approx(want, rel=1e-9), r


def test_chain_over_a1_of_a_written_table(workdir):
    ex2 = la.fixture_catalog()["EX2"].measure
    (workdir / "ex2.json").write_text(json.dumps(la.to_json(ex2)))
    table = workdir / "table"
    assert run("transform", "--in", workdir / "ex2.json", "--grid", "1e-4:100:193",
               "--out", table) == 0
    out = workdir / "chain"
    assert run("transform", "--in", table / "transformed.json", "--chain", "a1,ups0",
               "--out", out, "--grid", "0.1:5:9") == 0
    ys = [float(row.split(",")[2]) for row in
          (out / "transformed.csv").read_text().strip().splitlines()[1:]]
    assert len(ys) == 9 and all(math.isfinite(y) and y > 0.0 for y in ys)


@pytest.mark.parametrize("infile, chain, build", [
    ("delta1.json", "ups:-2:2", lambda m: la.upsilon_alpha_beta(m, -2.0, 2.0)),
    ("ramp.json", "powhalf", lambda m: la.power_reparam(m, 0.5)),
])
def test_transform_writes_the_density_of_its_chain(workdir, infile, chain, build):
    out = workdir / "chain"
    assert run("transform", "--chain", chain, "--in", workdir / infile, "--out", out,
               "--grid", "0.05:0.99:7") == 0
    want = build(la.from_json(json.loads((workdir / infile).read_text()))).components[0][1]
    got = la.from_json(json.loads((out / "transformed.json").read_text())).components[0][1]
    assert got.atoms == want.atoms == ()
    assert got.density.provenance_name() == want.density.provenance_name()
    rows = [row.split(",") for row in (out / "transformed.csv").read_text().strip().splitlines()[1:]]
    rs = np.array([float(r) for _, r, _ in rows])
    assert len(rows) == 7 and [float(v) for *_, v in rows] == want.density.values(rs).tolist()


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


def test_invert_component_without_density_maps_to_exit_3(workdir, capsys):
    doc = {"d": 1, "components": [{"direction": [1.0], "weight": 1.0, "atoms": []}]}
    (workdir / "empty.json").write_text(json.dumps(doc))
    assert run("invert", "--in", workdir / "empty.json", "--out", workdir / "x") == 3
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "NotInRange" and "component 0 has no density" in err["message"]


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
                 "--paths", 400, "--seed", 5, "--out", out)
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
             "--paths", 64, "--seed", 2, "--out", out)
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


def test_consecutive_calls_in_one_process(workdir, capsys):
    # the parser is built once and reused: a usage error leaves nothing
    # behind for the next call
    assert run("transform", "--chain", "warp", "--in", workdir / "delta1.json",
               "--out", workdir / "e") == 2
    first = capsys.readouterr()
    assert json.loads(first.err.strip().splitlines()[-1])["error"] == "UsageError"
    out = workdir / "ok"
    assert run("transform", "--chain", "a1", "--in", workdir / "delta1.json",
               "--out", out, "--grid", "0.1:0.9:3") == 0
    second = capsys.readouterr()
    assert second.err == "" and second.out.startswith("wrote ")
    assert len((out / "transformed.csv").read_text().strip().splitlines()) == 4
    assert run("verify", "nonsense") == 2


def test_malformed_measure_file_is_usage_error(workdir, capsys):
    bad = workdir / "bad.json"
    bad.write_text('{"d": 1, "components": [{"direction": [2.0], "weight": 1.0}]}')
    rc = run("transform", "--chain", "a1", "--in", bad, "--out", workdir / "xx")
    assert rc == 2


@pytest.mark.parametrize("argv, kind", [
    (["sample", "warp", "--in", "poisson.json"], "UsageError"),
    (["sample", "--paths", "0", "--in", "poisson.json"], "UsageError"),
    (["sample", "--eps", "nan", "--in", "poisson.json"], "UsageError"),
    (["sample", "--in", "delta1.json"], "MalformedMeasure"),
    (["invert", "--grid", "0:1:3", "--in", "delta1.json"], "UsageError"),
    (["invert", "--tol", "-1", "--in", "delta1.json"], "UsageError"),
    (["transform", "--grid", "-1:1:3", "--in", "delta1.json"], "UsageError"),
    (["transform", "--chain", "ups:1", "--in", "delta1.json"], "UsageError"),
    (["transform", "--chain", "ups:x:1", "--in", "delta1.json"], "UsageError"),
    (["transform", "--chain", "a1", "--in", "missing.json"], "UsageError"),
    (["transform", "--chain", "a1", "--in", "garbage.json"], "UsageError"),
])
def test_input_errors_exit_2(workdir, capsys, argv, kind):
    # a measure file is not a triplet: its missing Sigma is malformed input
    argv = [str(workdir / a) if a.endswith(".json") else a for a in argv]
    assert run(*argv, "--out", workdir / "o") == 2
    assert json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"] == kind


def test_internal_errors_are_not_usage_errors(workdir, monkeypatch):
    # only input errors map to exit 2; a ValueError raised inside an
    # operation is a bug and surfaces as one
    def broken(m):
        raise ValueError("internal")

    monkeypatch.setitem(cli_mod._CLASS_TESTS, "jurek", broken)
    with pytest.raises(ValueError, match="internal"):
        run("classify", "jurek", "--in", workdir / "delta1.json", "--out", workdir / "o")


def test_quadrature_failure_inside_a_verb_exits_4(workdir, monkeypatch, capsys):
    def stalls(m):
        raise la.QuadratureNonConvergence("jurek screen at r=1", 0.5, 1e-3)

    monkeypatch.setitem(cli_mod._CLASS_TESTS, "jurek", stalls)
    assert run("classify", "jurek", "--in", workdir / "delta1.json", "--out", workdir / "o") == 4
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "QuadratureNonConvergence" and "jurek screen at r=1" in err["message"]


def test_csv_round_trips_full_precision(workdir):
    out = workdir / "prec"
    assert run("transform", "--chain", "a1", "--in", workdir / "delta1.json",
               "--out", out, "--grid", "0.3:0.7:3") == 0
    m = la.from_json(json.loads((out / "transformed.json").read_text()))
    d = m.components[0][1].density
    for row in (out / "transformed.csv").read_text().strip().splitlines()[1:]:
        _, r, val = row.split(",")
        assert float(val) == d.value(float(r))


# ---------------------------------------------------------------------------
# fuzzing: every outcome is an exit code, never a traceback
# ---------------------------------------------------------------------------

from hypothesis import given, settings
from hypothesis import strategies as st

_EXP_POWER = {"kind": "exp_power", "c": 0.785, "a": -0.5, "b": 1.0, "p": 0.5, "support": [0.0, None]}
_TABLE = {"kind": "table", "xs": [0.1, 0.5, 1.0], "ys": [1.0, 0.5, 0.0]}
_MEASURE = {"d": 1, "components": [
    {"direction": [1.0], "weight": 1.0, "atoms": [[1.0, 1.0]], "density": _EXP_POWER}]}
_MEASURES = [_MEASURE, {"d": 1, "components": [{"direction": [1.0], "density": _TABLE}]},
             {"d": 2, "components": [{"direction": [0.6, 0.8], "atoms": [[0.5, 2.0]]}]}]
_TRIPLET = {"Sigma": [[0.5]], "nu": _MEASURE, "gamma": [0.1]}

_scalars = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3),
    st.sampled_from([0, 1, -1, 2, 0.5, -0.5, 3.5, float("nan"), float("inf"), -float("inf")]))
_json = st.recursive(_scalars, lambda kids: st.one_of(
    st.lists(kids, max_size=3),
    st.dictionaries(st.sampled_from(["d", "components", "direction", "weight", "atoms",
                                     "density", "kind", "c", "a", "b", "p", "support",
                                     "xs", "ys", "Sigma", "nu", "gamma"]), kids, max_size=4)),
    max_leaves=8)


def _paths(doc, here=()):
    """Every key or index path inside a JSON document."""
    yield here
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for k, v in items:
        yield from _paths(v, here + (k,))


@st.composite
def _documents(draw, bases):
    """Fuzzed JSON, or one of bases with one value replaced by fuzzed JSON
    or one key dropped."""
    if draw(st.integers(0, 3)) == 0:
        return draw(_json)
    doc = json.loads(json.dumps(draw(st.sampled_from(bases))))
    path = draw(st.sampled_from(list(_paths(doc))))
    if not path:
        return draw(_json)
    parent = doc
    for k in path[:-1]:
        parent = parent[k]
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(_json)
    return doc


@settings(max_examples=60)
@given(st.data())
def test_fuzzed_json_parses_or_raises_malformed(data):
    for parse, bases in ((la.from_json, _MEASURES), (la.Triplet.from_json, [_TRIPLET])):
        doc = data.draw(_documents(bases))
        try:
            parse(doc)
        except la.MalformedMeasure:
            pass


def _cli_exit(argv, doc):
    import contextlib
    import io
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/in.json"
        with open(path, "w") as fh:
            json.dump(doc, fh)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return main([a.replace("IN", path).replace("OUT", tmp) for a in argv])


_grids = st.sampled_from(["0.1:2:3", "0:1:3", "-1:1:3", "1:0:3", "1:2", "a:b:c", "1:2:1",
                          "nan:1:3", "1:inf:3", "1e-3:100:4"])


@settings(max_examples=40)
@given(st.data())
def test_fuzzed_cli_verbs_end_in_an_exit_code(data):
    verb = data.draw(st.sampled_from(["classify", "invert", "sample", "transform"]))
    if verb == "sample":
        doc = data.draw(_documents([_TRIPLET]))
        argv = ["sample", data.draw(st.sampled_from(["id", "cos_pi_half", "log", "warp"])),
                "--paths", data.draw(st.sampled_from(["3", "0", "-2", "x", "1.5"])),
                "--eps", data.draw(st.sampled_from(["1e-3", "0.5", "0", "-1", "nan", "inf", "x"])),
                "--seed", data.draw(st.sampled_from(["0", "-3", "x"])),
                "--grid", data.draw(_grids)]
    else:
        doc = data.draw(_documents(_MEASURES))
        argv = {"classify": lambda: ["classify"] + data.draw(st.lists(st.sampled_from(
                    ["jurek", "class_a", "type_g", "class_b", "galois"]), max_size=2)),
                "invert": lambda: ["invert", "--grid", data.draw(_grids), "--tol",
                                   data.draw(st.sampled_from(["1e-10", "0", "-1", "nan", "x"]))],
                "transform": lambda: ["transform", "--grid", data.draw(_grids), "--chain",
                                      data.draw(st.sampled_from(["", "a1", "a2", "ups0", "pow2",
                                                                 "powhalf", "ups:-1:1", "ups:3:1",
                                                                 "ups:x", "warp"]))]}[verb]()
    argv += ["--in", "IN", "--out", "OUT"]
    assert _cli_exit(argv, doc) in (0, 2, 3, 4)
