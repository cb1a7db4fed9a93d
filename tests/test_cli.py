import json

import pytest

from quivergrass.cli import main
from quivergrass.pointcount import CountError


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
    # chi = 6: 2 * 3 * 5 > 6 decodes, 7 and 11 are held out
    out = run(capsys, "classify", "--quiver", arrow_file,
              "--proj", "1,1", "--inj", "1,1", "--max-prime", "11")
    assert json.loads(out)["primes"] == [2, 3, 5, 7, 11]
    with pytest.raises(CountError, match=r"p=11, above max_prime=7"):
        main(["classify", "--quiver", arrow_file,
              "--proj", "1,1", "--inj", "1,1", "--max-prime", "7"])


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
              "--isoclass", "2*U(1,1) + U(1,2) + U(2,2)")
    data = json.loads(out)
    assert data["dim"] == 2  # P^1 x P^1 worth of choices at the two ends


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
