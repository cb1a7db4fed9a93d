import json
import re
from types import SimpleNamespace

import pytest

from quivergrass import cli
from quivergrass.cli import main


@pytest.fixture()
def zigzag_file(tmp_path):
    path = tmp_path / "zigzag.quiver"
    path.write_text("vertices: 1 2 3\narrow: 1 -> 2\narrow: 3 -> 2\n")
    return str(path)


@pytest.fixture()
def arrow_file(tmp_path):
    path = tmp_path / "a2.quiver"
    path.write_text("vertices: 1 2\narrow: 1 -> 2\n")
    return str(path)


def run(capsys, *argv):
    rc = main(list(argv))
    assert rc == 0
    return capsys.readouterr().out


def test_catalog_verb(capsys, zigzag_file):
    out = run(capsys, "catalog", "--quiver", zigzag_file)
    data = json.loads(out)
    assert len(data["indecomposables"]) == 6
    assert len(data["hom_matrix"]) == 6


def test_poset_verb_json_and_dot(capsys, arrow_file):
    out = run(capsys, "poset", "--quiver", arrow_file,
              "--proj", "1,1", "--inj", "1,1")
    data = json.loads(out)
    assert data["nodes"]
    assert sorted(data) == ["dimension_vector", "hasse", "nodes"]
    dot = run(capsys, "poset", "--quiver", arrow_file,
              "--proj", "1,1", "--inj", "1,1", "--dot")
    assert dot.startswith("digraph")


def test_count_verb(capsys, zigzag_file):
    out = run(capsys, "count", "--quiver", zigzag_file,
              "--proj", "1,1,1", "--inj", "1,1,1", "--prime", "3")
    data = json.loads(out)
    assert int(data["count"]) > 0
    assert data["p"] == 3


def test_classify_verb(capsys, arrow_file):
    out = run(capsys, "classify", "--quiver", arrow_file,
              "--proj", "1,1", "--inj", "1,1")
    data = json.loads(out)
    assert data["consistent"] is True
    assert data["dim"] == 3  # expected dimension <dim P, dim I> = 3


def test_classify_max_prime(capsys, arrow_file):
    # the product is checked at p = 2 and 3; max_prime caps the decodes of
    # the per-summand polynomials, which for these thin summands (chi <= 1)
    # count at 2 and hold out 3 and 5
    out = run(capsys, "classify", "--quiver", arrow_file,
              "--proj", "1,1", "--inj", "1,1", "--max-prime", "5")
    assert json.loads(out)["primes"] == [2, 3]
    # the CountError exits with its message as one line
    with pytest.raises(SystemExit, match=r"p=5, above max_prime=3$"):
        main(["classify", "--quiver", arrow_file,
              "--proj", "1,1", "--inj", "1,1", "--max-prime", "3"])


@pytest.mark.parametrize("argv, message", [
    (["poset", "--max-nodes", "-1"], "isoclass budget -1 exceeded for d=(3, 3)"),
    (["count", "--prime", "4"], "modulus 4 is not prime"),
], ids=["poset", "count"])
def test_library_errors_exit_with_one_line(capsys, arrow_file, argv, message):
    verb, *rest = argv
    with pytest.raises(SystemExit) as exc:
        main([verb, "--quiver", arrow_file, "--proj", "1,1", "--inj", "1,1", *rest])
    assert exc.value.code == message
    assert exc.value.__suppress_context__  # no chained traceback
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("quiver_text, proj, message", [
    pytest.param("vertices 1 2 3\n", "1,1,1", "line 1: expected 'key: value'",
                 id="malformed"),
    pytest.param("vertices: 1 2 3\narrow: 1 -> 2\narrow: 2 -> 3\narrow: 1 -> 3\n",
                 "1,1,1", "underlying graph is not a tree (wrong edge count)",
                 id="not-a-tree"),
    pytest.param("vertices: 1 x\n", "1,1,1", "line 1: vertex name 'x' is not an integer",
                 id="vertex-not-an-integer"),
    pytest.param("vertices: 1 2 3\narrow: 1 -> 2 -> 3\n", "1,1,1",
                 "line 2: arrow needs 'a -> b'", id="arrow-chain"),
    pytest.param(None, "1,-1,1", "negative entry in dimension vector", id="negative"),
    pytest.param(None, "1,x,1", "multiplicities must be integers, got '1,x,1'",
                 id="not-an-integer"),
    pytest.param("", "1,1,1", "cannot read quiver file {path}: No such file or directory",
                 id="missing-file"),
])
def test_bad_input_exits_with_one_line(capsys, tmp_path, zigzag_file, quiver_text, proj,
                                       message):
    """A bad quiver file, a missing one or bad multiplicities end in one line."""
    path = zigzag_file
    if quiver_text is not None:
        path = str(tmp_path / "input.quiver")
        if quiver_text:
            with open(path, "w") as fh:
                fh.write(quiver_text)
    with pytest.raises(SystemExit) as exc:
        main(["poset", "--quiver", path, "--proj", proj, "--inj", "1,1,1"])
    assert exc.value.code == message.format(path=path)
    assert exc.value.__suppress_context__ or exc.value.__context__ is None
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("flag", [
    ["classify", "--primes", "2,3,5"],
    ["classify", "--jobs", "2"],
    ["catalog", "--max-prime", "5"],
    ["catalog", "--max-nodes", "50"],
    ["poset", "--max-prime", "5"],
    ["relations", "--max-prime", "5"],
    ["hilbert", "--max-prime", "5"],
    ["count", "--max-prime", "5"],
])
def test_removed_flags_rejected(arrow_file, flag):
    """A verb rejects every flag it does not read (``flag`` starts with the verb)."""
    verb, *rest = flag
    principal = [] if verb == "catalog" else ["--proj", "1,1", "--inj", "1,1"]
    with pytest.raises(SystemExit) as exc:
        main([verb, "--quiver", arrow_file, *principal, *rest])
    assert exc.value.code == 2


def test_classify_named_isoclass(capsys, arrow_file):
    out = run(capsys, "classify", "--quiver", arrow_file,
              "--proj", "1,1", "--inj", "1,1",
              "--isoclass", "2*U(1,1) + U(1,2) + 2*U(2,2)")
    data = json.loads(out)
    # M_a: k^3 -> k^3 of rank 1 and e = (1, 2): a line L off the kernel and
    # a plane through M_a(L), or L in the kernel and any plane; both 3-dim
    assert (data["dim"], data["top_components"]) == (3, 2)


@pytest.mark.parametrize("verb", ["relations", "hilbert", "count", "classify"])
def test_isoclass_of_another_dimension_vector_is_refused(zigzag_file, verb):
    # 2*U(1,3) + U(2,2) has dimension vector (2, 3, 2); d is (3, 4, 3)
    with pytest.raises(SystemExit) as exc:
        main([verb, "--quiver", zigzag_file, "--proj", "1,1,1", "--inj", "1,1,1",
              "--isoclass", "2*U(1,3) + U(2,2)"])
    message = str(exc.value.code)
    assert "\n" not in message
    assert "[2, 3, 2]" in message and "[3, 4, 3]" in message


def test_hilbert_refuses_a_negative_max_multidegree(capsys, arrow_file):
    with pytest.raises(SystemExit) as exc:
        main(["hilbert", "--quiver", arrow_file, "--proj", "1,1", "--inj", "1,1",
              "--max-multidegree", "-1"])
    assert exc.value.code == "--max-multidegree must be >= 0, got -1"
    assert capsys.readouterr().out == ""


def test_hilbert_checks_the_budget_before_listing_multidegrees(capsys, monkeypatch,
                                                               arrow_file):
    # candidate counts grow with every entry, so the corner (m, m) decides
    # the box; at m = 10^4 the box would hold 10^8 multidegrees
    def product(*args, **kwargs):
        raise AssertionError("the multidegree box was listed before the budget check")

    monkeypatch.setattr(cli, "itertools", SimpleNamespace(product=product))
    with pytest.raises(SystemExit) as exc:
        main(["hilbert", "--quiver", arrow_file, "--proj", "1,1", "--inj", "1,1",
              "--max-multidegree", "10000"])
    assert re.fullmatch(r"\d+ candidate monomials of multidegree \[10000, 10000\] "
                        r"exceed the budget 2000000", exc.value.code)
    assert capsys.readouterr().out == ""


def test_relations_verb(capsys, zigzag_file):
    out = run(capsys, "relations", "--quiver", zigzag_file,
              "--proj", "1,1,1", "--inj", "1,1,1")
    assert out.strip()
    m2 = run(capsys, "relations", "--quiver", zigzag_file,
             "--proj", "1,1,1", "--inj", "1,1,1", "--macaulay2")
    assert "ZZ/107" in m2


def test_hilbert_verb(capsys, arrow_file):
    out = run(capsys, "hilbert", "--quiver", arrow_file,
              "--proj", "1,1", "--inj", "1,1", "--max-multidegree", "1")
    table = json.loads(out)
    vals = {tuple(e["m"]): e["dim"] for e in table}
    assert vals[(0, 0)] == 1


def test_conjecture_verb(capsys, arrow_file):
    out = run(capsys, "conjecture", "--quiver", arrow_file,
              "--proj", "1,1", "--inj", "1,1", "B")
    data = json.loads(out)
    assert data["which"] == "B"
    assert data["holds"] is True


def test_report_verb(capsys, arrow_file):
    out = run(capsys, "report", "--quiver", arrow_file,
              "--proj", "1,1", "--inj", "1,1")
    data = json.loads(out)
    assert data["gamma2_sinks"]


def test_out_directory(tmp_path, capsys, arrow_file):
    outdir = tmp_path / "results"
    run(capsys, "catalog", "--quiver", arrow_file, "--out", str(outdir))
    assert (outdir / "catalog.json").exists()


def test_bad_multiplicities(arrow_file):
    with pytest.raises(SystemExit):
        main(["poset", "--quiver", arrow_file, "--proj", "1", "--inj", "1,1"])
