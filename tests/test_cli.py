import argparse
import gc
import json
import random
from fractions import Fraction

import numpy as np
import pytest

import oracle
from altkit import catalog, claims, cli, identities, lie, units
from altkit.core import Algebra


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(out):
    return [json.loads(line) for line in out.strip().splitlines()]


def test_describe_roundtrip(capsys):
    code, out, _ = run(capsys, "describe", "--algebra", "quaternions",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    again = Algebra.from_dict(data)
    assert again.to_dict() == data


def test_describe_text(capsys):
    code, out, _ = run(capsys, "describe", "--algebra", "complex")
    assert code == 0
    assert "dimension 2" in out


def test_check_associative_exit_zero(capsys):
    code, out, _ = run(capsys, "check", "--algebra", "quaternions",
                       "--identity", "associative", "--format", "json")
    assert code == 0
    assert json.loads(out)["holds"] is True


def test_check_left_alt_exit_one_with_witness(capsys):
    code, out, _ = run(capsys, "check", "--algebra", "ak",
                       "--param", "k=1", "--param", "a11=1", "--param", "a12=1",
                       "--identity", "left-alt", "--format", "json")
    assert code == 1
    data = json.loads(out)
    assert data["holds"] is False
    assert data["witness"] is not None
    assert data["witness"]["defect"] != ["0"] * 4


def test_check_partial_wiring(capsys):
    code, out, _ = run(capsys, "check", "--algebra", "ak", "--param", "k=2",
                       "--identity", "partial-left-alt", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["holds"] is True
    assert data["method"] == "exhaustive-basis"


def test_check_partial_wiring_sphere(capsys):
    code, out, _ = run(capsys, "check", "--algebra", "quaternions",
                       "--identity", "partial-right-alt", "--format", "json")
    assert code == 0


def test_check_strictly_middle(capsys):
    code, out, _ = run(capsys, "check", "--algebra", "tc",
                       "--param", "a=1", "--param", "h=1",
                       "--identity", "strictly-middle", "--format", "json")
    assert code == 0
    assert json.loads(out)["strict"] is True


def test_classify_quaternion_point(capsys):
    code, out, _ = run(capsys, "classify", "--family", "tn",
                       "--param", "a=-1", "--param", "g=1",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["type"] == "H"
    assert data["witness_verified"] is True


def test_units_subcommand(capsys):
    code, out, _ = run(capsys, "units", "--algebra", "quaternions",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "sphere"
    assert data["equation"] == {"x2": "1", "y2": "1", "z2": "1", "rhs": "1"}
    assert len(data["points"]) <= 50


def test_nucleus_subcommand(capsys):
    code, out, _ = run(capsys, "nucleus", "--algebra", "quaternions",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["dim"] == 1


def test_decompose_subcommand(capsys):
    code, out, _ = run(capsys, "decompose", "--algebra", "quaternions",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["tp_params"]["delta2"] == "1"
    assert data["verdicts"]["anticommutation"] is True


@pytest.mark.parametrize("matrix", [
    [[1, 0, 0], [0, 1, 0], [0, 0, -1]],
    [[1, 0, 0, 0], [0, 1, 0], [0, 0, -1, 0], [0, 0, 0, -1]],
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1], [0, 0, 0, 0]],
    5,
    [1, 0, 0, 0],
])
def test_decompose_rejects_a_reflection_of_the_wrong_shape(capsys, tmp_path, matrix):
    path = tmp_path / "r.json"
    path.write_text(json.dumps(matrix))
    code, out, err = run(capsys, "decompose", "--algebra", "quaternions",
                         "--reflection-file", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("altkit: error:") and "4x4" in err


def test_lieify_subcommand(capsys):
    code, out, _ = run(capsys, "lieify", "--algebra", "tp",
                       "--param", "delta2=1", "--param", "beta2=-1",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["jacobi"] is True
    assert data["classification"]["type"] == "g1_plus_g37"
    assert data["classification"]["beta"] == "2"


@pytest.mark.parametrize("source", [("--algebra", "tp", "--param", "delta1=1"),
                                    ("--algebra", "ak", "--param", "k=2"), ("--file",)])
def test_lieify_derived_dims_come_from_the_classification(tmp_path, capsys, source):
    if source == ("--file",):
        A = catalog.tp(delta1=1, beta2=-1).to_float()
        path = tmp_path / "tp.json"
        path.write_text(A.dumps())
        source += (str(path),)
    else:
        A = catalog.build(source[1], **dict([source[3].split("=")]))
    L = lie.lieify(A)
    dims, (ok, _) = lie.derived_dims(L), lie.check_jacobi(L)
    code, out, _ = run(capsys, "lieify", *source, "--format", "json")
    assert code == 0 and json.loads(out)["derived_dims"] == dims
    code, out, _ = run(capsys, "lieify", *source)
    assert out.splitlines()[0] == f"jacobi: {ok}; derived dims: {dims}"


def test_repeated_calls_leave_no_parser_garbage(capsys):
    run(capsys, "verify-paper", "--only", "ak.dimension")  # builds the parser
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for _ in range(5):
            assert run(capsys, "verify-paper", "--only", "ak.dimension")[0] == 0
        gc.collect()
        parsers = [o for o in gc.garbage if isinstance(o, argparse.ArgumentParser)]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert parsers == []


def test_eps_help_shows_the_current_default(monkeypatch, capsys):
    for value in ("1e-3", "1e-9"):
        monkeypatch.setenv("ALTKIT_EPS", value)
        with pytest.raises(SystemExit):
            cli.main(["check", "--help"])
        assert f"(default {float(value)})" in capsys.readouterr().out


def test_file_input(tmp_path, capsys):
    from altkit import catalog

    path = tmp_path / "alg.json"
    path.write_text(catalog.quaternions().dumps())
    code, out, _ = run(capsys, "check", "--file", str(path),
                       "--identity", "associative")
    assert code == 0


# the catalog test tables as CLI arguments
CLI_TABLES = [
    ("ak", "k=1", "a11=1", "a12=1"), ("ak", "k=2", "a11=1/3", "a12=2", "a21=5/2", "a22=7"),
    ("ak", "k=3"),
    ("tn", "a=-3", "b=1", "c=2", "d=1/2", "f=1", "g=-1", "h=3", "e=-2/3"),
    ("tn", "a=2", "b=1"), ("tn", "a=-1", "g=1", "h=1"), ("tn", "a=4", "g=-1"),
    ("tc", "a=2", "b=-1/3", "f=1", "g=2", "h=1"),
    ("tp", "alpha1=-1", "beta2=-1", "delta2=1", "gamma1=-1"),
    ("mplus",), ("mzero",), ("quaternions",), ("complex",),
]


@pytest.mark.parametrize("table", CLI_TABLES, ids=" ".join)
def test_a_described_table_gets_the_answers_of_its_family(tmp_path, capsys, table):
    # a catalog table read from its JSON is recognised, so --file and
    # --algebra take one code path
    name, *params = table
    catalog_args = ["--algebra", name] + [x for p in params for x in ("--param", p)]
    code, out, _ = run(capsys, "describe", *catalog_args, "--format", "json")
    assert code == 0
    path = tmp_path / "table.json"
    path.write_text(out)
    verbs = [("check", "--identity", kind) for kind in cli.CHECK_NAMES]
    verbs += [("units",), ("classify",)]
    for verb, *rest in verbs:
        argv = [*rest, "--format", "json"]
        assert run(capsys, verb, *catalog_args, *argv) == \
            run(capsys, verb, "--file", str(path), *argv), (verb, *rest)


def test_a_described_tn_table_keeps_its_exact_locus(tmp_path, capsys):
    # the table's only units are +-i: a proof, not a Newton cloud whose
    # noise points fail the law just past eps
    path = tmp_path / "tn.json"
    path.write_text(catalog.tn(a=2, b=1).dumps())
    code, out, _ = run(capsys, "check", "--file", str(path), "--identity", "partial-left-alt")
    assert code == 0 and out == "partial-left-alt: holds [exhaustive-basis]\n"
    path.write_text(catalog.quaternions().dumps())
    code, out, _ = run(capsys, "classify", "--file", str(path))
    assert code == 0 and out.startswith("type: H\n")


def test_units_bad_newton_arguments_exit_two(tmp_path, capsys):
    path = tmp_path / "alg.json"
    path.write_text(Algebra([[[1, 0], [0, 1]], [[0, 1], [-1, 0]]],
                            unit=[1, 0]).dumps())
    tn_path = tmp_path / "tn.json"
    tn_path.write_text(catalog.tn(a=2, b=1).dumps())
    # on the Newton path and on those that never run it: a tn family's
    # exact locus, from the catalog or a described file, and tc's +-i
    for flags in (("--samples", "-3"), ("--eps", "nan"), ("--eps", "inf")):
        for argv in (("units", "--file", str(path)), ("units", "--algebra", "mplus"),
                     ("units", "--file", str(tn_path)),
                     ("check", "--algebra", "quaternions", "--identity", "partial-left-alt"),
                     ("check", "--file", str(tn_path), "--identity", "partial-left-alt"),
                     ("check", "--algebra", "tc", "--identity", "partial-flexible")):
            code, out, err = run(capsys, *argv, *flags)
            assert code == 2 and out == "" and "altkit: error" in err, (argv, flags)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_parameter_is_an_input_error(capsys, value):
    # a NaN entry makes every comparison false, so it must stop at input
    code, out, err = run(capsys, "check", "--family", "tc", "--param", f"a={value}",
                         "--identity", "commutative", "--format", "json")
    assert code == 2 and out == ""
    assert "altkit: error: structure constant must be finite" in err
    code, out, err = run(capsys, "units", "--family", "tn", "--param", f"b={value}")
    assert code == 2 and out == "" and "must be finite" in err


def test_usage_errors(capsys):
    code, _, err = run(capsys, "describe", "--algebra", "nope")
    assert code == 2 and "unknown family" in err

    code, _, err = run(capsys, "describe", "--algebra", "ak", "--param", "a11")
    assert code == 2

    code, _, err = run(capsys, "describe", "--file", "/does/not/exist")
    assert code == 2

    code, _, err = run(capsys, "describe", "--algebra", "tn", "--file", "x")
    assert code == 2 and "exactly one" in err


# algebra JSON that is not a nonempty n*n*n nested list with string labels,
# a list unit and an int dim: an input error, never a traceback
@pytest.mark.parametrize("data", [
    {"sc": 5}, {"sc": [[1]]}, {"sc": []}, {"sc": ["1"]},
    {"sc": [[[1]]], "unit": 3}, {"sc": [[[1]]], "labels": 5},
    {"sc": [[[1]]], "labels": [1]}, {"sc": [[[1]]], "dim": "1"},
])
@pytest.mark.parametrize("verb", ["describe", "lieify"])
def test_malformed_algebra_json_is_a_usage_error(capsys, tmp_path, verb, data):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, verb, "--file", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("altkit: error:")


@pytest.mark.parametrize("family, params, names, takes", [
    ("complex", ["x=1"], "has no parameter x", "no parameters"),
    ("tn", ["bogus=1"], "has no parameter bogus", "a, b, c, d, f, g, h, e"),
    ("ak", [], "needs parameter k", "k, a11, a12, ..., ak1, ak2"),
    ("ak", ["k=2", "b=1"], "has no parameter b at k = 2", "k, a11, a12, a21, a22"),
    ("mplus", ["a=1"], "has no parameter a", "no parameters"),
    ("tp", ["alpha=1"], "has no parameter alpha",
     "alpha1, alpha2, beta1, beta2, delta1, delta2, gamma1, gamma2"),
])
def test_bad_parameter_names_name_the_family(capsys, family, params, names, takes):
    args = [x for p in params for x in ("--param", p)]
    code, out, err = run(capsys, "describe", "--algebra", family, *args)
    assert code == 2 and out == ""
    assert err == f"altkit: error: family {family!r} {names}; it takes {takes}\n"


def test_non_integral_k_is_an_input_error(capsys):
    for k in ("3/2", "2.9"):
        code, out, err = run(capsys, "describe", "--algebra", "ak", "--param", f"k={k}")
        assert code == 2 and out == ""
        assert "k must be an integer" in err


def test_eps_only_on_verbs_that_read_it(capsys):
    for argv in (["verify-paper", "--eps", "1e-3"],
                 ["describe", "--algebra", "quaternions", "--eps", "1e-3"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
    code, _, _ = run(capsys, "nucleus", "--algebra", "quaternions", "--eps", "1e-3")
    assert code == 0


def test_seed_and_samples_only_on_verbs_that_read_them(capsys):
    for argv in (["describe", "--algebra", "quaternions", "--seed", "1"],
                 ["describe", "--algebra", "quaternions", "--samples", "5"],
                 ["nucleus", "--algebra", "quaternions", "--seed", "1"],
                 ["nucleus", "--algebra", "quaternions", "--samples", "5"],
                 ["decompose", "--algebra", "mplus", "--seed", "1"],
                 ["decompose", "--algebra", "mplus", "--samples", "5"],
                 ["lieify", "--algebra", "mplus", "--seed", "1"],
                 ["lieify", "--algebra", "mplus", "--samples", "5"],
                 ["classify", "--algebra", "mplus", "--seed", "1"],
                 ["classify", "--algebra", "mplus", "--samples", "5"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
    capsys.readouterr()
    for argv in (["units", "--algebra", "complex", "--seed", "1", "--samples", "5"],
                 ["check", "--algebra", "quaternions", "--identity", "partial-left-alt",
                  "--seed", "1", "--samples", "5"]):
        code, _, _ = run(capsys, *argv)
        assert code == 0


def test_verify_paper_records_crashing_claim(capsys, monkeypatch):
    def boom(opt):
        raise ValueError("bad input")

    crash = claims.Claim("ak.crash", "ak", "a claim that raises", boom)
    monkeypatch.setattr(claims, "CLAIMS", [crash] + claims.CLAIMS[:1])
    results = claims.run_claims(only="ak")
    assert [(r.id, r.passed) for r in results] == [("ak.crash", False),
                                                    ("ak.dimension", True)]
    assert results[0].detail == "ERROR: ValueError: bad input"

    code, out, _ = run(capsys, "verify-paper", "--only", "ak", "--format", "json")
    assert code == 1
    rows = json_lines(out)
    assert all(set(row) == {"id", "description", "passed", "detail"} for row in rows)
    assert rows[0]["detail"] == "ERROR: ValueError: bad input"


def test_verify_paper_group(capsys):
    code, out, _ = run(capsys, "verify-paper", "--only", "ak")
    assert code == 0
    assert out.count("PASS") == 4


def test_verify_paper_full_run(capsys):
    code, out, _ = run(capsys, "verify-paper")
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) >= 20
    failing = [l for l in lines if l.startswith("FAIL")]
    # the one honest failure: no real basis change turns the beta < 0
    # brackets into the compact canonical table
    assert [l.split()[1] for l in failing] == ["lie.case-witnesses"]
    assert code == 1


def test_verify_paper_json(capsys):
    code, out, _ = run(capsys, "verify-paper", "--only", "locus",
                       "--format", "json")
    assert code == 0
    rows = json_lines(out)
    assert all(row["passed"] for row in rows)
    assert len(rows) == 5


def test_locus_claims_share_their_newton_clouds_within_one_run(monkeypatch):
    # newton-scalar-part and sampled-on-quadric read the same three clouds:
    # one run solves each once, and the next run solves them again
    calls = []
    solve = units.solve_units_sampled

    def counted(A, *args, **kwargs):
        calls.append(A.family[0])
        return solve(A, *args, **kwargs)

    monkeypatch.setattr(units, "solve_units_sampled", counted)
    results = claims.run_claims(only="locus")
    assert len(results) == 5 and all(r.passed for r in results)
    assert calls == ["mplus", "mzero", "quaternions"]
    for only in ("locus.newton-scalar-part", "locus.sampled-on-quadric"):
        calls.clear()
        [result] = claims.run_claims(only=only, seed=3, samples=20)
        assert result.passed and len(calls) == 3, (only, calls)
    # the clouds are not an option: a caller cannot hand in another run's
    with pytest.raises(TypeError):
        claims.SuiteOptions(seed=0, samples=25, clouds=[])


def _element_loop_bilinearity(seed):
    """Reference: the bilinearity claim as one Element per sample, its draws
    in order.  Returns the two algebras, each sample's (al, be, x, y, z) and
    the generator's final state."""
    rng = random.Random(seed)
    algebras = (catalog.quaternions(),
                catalog.ak(2, a11=2, a12=Fraction(1, 2), a21=3, a22=1))
    samples = []
    for n in range(1000):
        alg = algebras[n % 2]
        al = oracle.random_rational(rng)
        be = oracle.random_rational(rng)
        x = oracle.random_element(alg, rng)
        y = oracle.random_element(alg, rng)
        z = oracle.random_element(alg, rng)
        left = alg.multiply(al * x + be * y, z)
        assert left == al * alg.multiply(x, z) + be * alg.multiply(y, z)
        right = alg.multiply(z, al * x + be * y)
        assert right == al * alg.multiply(z, x) + be * alg.multiply(z, y)
        samples.append((al, be, x, y, z))
    return algebras, samples, rng.getstate()


@pytest.mark.parametrize("seed", [0, 7, 2024])
def test_bilinearity_checks_the_element_loop_samples(seed):
    algebras, samples, state = _element_loop_bilinearity(seed)
    rng = random.Random(seed)
    draws = claims._bilinearity_draws(rng, algebras, len(samples))
    assert rng.getstate() == state
    assert [D.dtype for D in draws] == [np.int64, np.int64]
    for a, (alg, D) in enumerate(zip(algebras, draws)):
        mine = samples[a::2]
        n = alg.dim
        # the same draws, each as its value over 12
        assert D.tolist() == [[int(12 * v) for v in (al, be, *x.coords, *y.coords, *z.coords)]
                              for al, be, x, y, z in mine]
        al, be = D[:, :1], D[:, 1:2]
        x, y, z = D[:, 2:2 + n], D[:, 2 + n:2 + 2 * n], D[:, 2 + 2 * n:]
        w = al * x + be * y
        # each row of multiply_rows is _scale times `multiply` of its sample;
        # a product of values over 12 and 144 is over 1728
        for rows, den, pair in ((alg.multiply_rows(x, z), 144, lambda s: (s[2], s[4])),
                                (alg.multiply_rows(z, y), 144, lambda s: (s[4], s[3])),
                                (alg.multiply_rows(w, z), 1728,
                                 lambda s: (s[0] * s[2] + s[1] * s[3], s[4]))):
            assert [[Fraction(int(c), den) for c in row] for row in rows] == \
                [[c * alg._scale for c in alg.multiply(*pair(s)).coords] for s in mine]


@pytest.mark.parametrize("samples", [0, 1, 101])
def test_bilinearity_draws_past_int64_hold_python_ints(samples):
    # a cube past `_fits_int64` keeps its draws as Python ints: an np.int64
    # left in the object array would overflow silently in the products
    rng, algebras = random.Random(5), (catalog.quaternions(),
                                       catalog.ak(2, a11=2**40, a12=Fraction(1, 2)))
    ref = random.Random(5)
    want = [[], []]
    for s in range(samples):
        alg = algebras[s % 2]
        al, be = oracle.random_rational(ref), oracle.random_rational(ref)
        xyz = [c for _ in range(3) for c in oracle.random_element(alg, ref).coords]
        want[s % 2].append([int(12 * v) for v in (al, be, *xyz)])
    draws = claims._bilinearity_draws(rng, algebras, samples)
    assert rng.getstate() == ref.getstate()
    assert [D.dtype for D in draws] == [np.int64, object]
    assert [D.tolist() for D in draws] == want
    assert all(type(v) is int for v in draws[1].flat)


@pytest.mark.parametrize("call", [0, 3, 6, 9])
def test_verify_paper_fails_bilinearity_on_one_wrong_product_entry(capsys, monkeypatch,
                                                                  call):
    # calls 0, 3, 6 and 9 are the products of (al x + be y) with z and of z
    # with (al x + be y), on the quaternions and then on ak(2)
    real, calls = Algebra.multiply_rows, []

    def tampered(self, X, Y):
        out = real(self, X, Y)
        if len(calls) == call:
            out[5, 1] += 1
        calls.append(self)
        return out

    monkeypatch.setattr(Algebra, "multiply_rows", tampered)
    code, out, _ = run(capsys, "verify-paper", "--only", "props.bilinearity",
                       "--format", "json")
    assert code == 1
    (row,) = json_lines(out)
    assert row["id"] == "props.bilinearity" and not row["passed"]
    assert "not linear" in row["detail"]


def test_implication_unit_flags_match_units_for(monkeypatch):
    # +-e1 are all the units of ak and +-i all those of tn_special_case(1, 1),
    # as units_for finds; so those partial verdicts are proofs
    partial = []

    def spy(A, kind, **kwargs):
        report = check_identity(A, kind, **kwargs)
        if report.kind in identities.PARTIAL_KINDS:
            partial.append((A, kwargs["units_complete"], report.method))
        return report

    check_identity = identities.check_identity
    monkeypatch.setattr(identities, "check_identity", spy)
    [result] = claims.run_claims(only="props.implications")
    assert result.passed and len(partial) == 30
    for A, complete, method in partial:
        assert cli.units_for(A, 25, 0, None)[1] is complete, A
        assert method == ("exhaustive-basis" if complete else "sampled(2)")
    assert sum(complete for _, complete, _ in partial) == 9


def test_verify_paper_unknown_group(capsys):
    code, _, err = run(capsys, "verify-paper", "--only", "bogus")
    assert code == 2


def test_eps_env_default(monkeypatch):
    from altkit import core

    monkeypatch.setenv("ALTKIT_EPS", "1e-3")
    assert core.default_eps() == 1e-3
    monkeypatch.delenv("ALTKIT_EPS")
    assert core.default_eps() == 1e-9


@pytest.mark.parametrize("value", ["nan", "inf", "-1e-9"])
def test_bad_eps_is_an_input_error_on_every_verb(tmp_path, capsys, value):
    # a NaN eps made every float comparison false: associativity "failed"
    # on the float complex numbers with a zero defect, as a proof
    path = tmp_path / "complex.json"
    path.write_text(json.dumps({"sc": [[[1.0, 0], [0, 1.0]], [[0, 1.0], [-1.0, 0]]],
                                "unit": [1.0, 0]}))
    source = ("--file", str(path))
    tn_path = tmp_path / "tn.json"
    tn_path.write_text(catalog.tn(a=2, b=1).dumps())
    for argv in (("check", *source, "--identity", "associative", "--format", "json"),
                 ("nucleus", *source), ("lieify", *source), ("units", *source),
                 ("units", "--algebra", "mplus"), ("units", "--file", str(tn_path)),
                 ("check", "--algebra", "quaternions", "--identity", "partial-left-alt"),
                 ("check", "--file", str(tn_path), "--identity", "partial-left-alt"),
                 ("decompose", "--algebra", "quaternions"),
                 ("classify", "--family", "tn", "--param", "a=-1", "--param", "g=1")):
        code, out, err = run(capsys, *argv, f"--eps={value}")
        assert code == 2 and out == "", argv
        assert "altkit: error: eps must be finite and nonnegative" in err
