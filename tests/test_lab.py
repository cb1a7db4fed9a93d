import json
from pathlib import Path

import pytest

from quivergrass.catalog import Isoclass, get_catalog
from quivergrass import lab
from quivergrass.lab import (
    LabError,
    PrincipalConfig,
    check_conjecture,
    conjectured_m2,
    hom_criterion_set,
    report_dot,
    report_json,
    split_at_deficient,
)
from quivergrass.pointcount import Classification, CountingPolynomial
from quivergrass.quiver import Quiver, linear_quiver, zigzag_quiver
from quivergrass import reps
from quivergrass.poset import build_poset

REPO = Path(__file__).resolve().parent.parent


def test_config_derived_data(zigzag3_cfg):
    cfg = zigzag3_cfg
    assert cfg.e == (1, 3, 1)
    assert cfg.d == (3, 4, 3)
    assert cfg.expected_dim == 5
    assert cfg.deficient_vertices() == []


def test_config_degenerate_inj(p1xp1_cfg):
    cfg = p1xp1_cfg
    assert cfg.d == (2, 3, 2)
    assert cfg.expected_dim == 2
    # vertex 2 (internal index 1) has dim I = 0
    assert cfg.deficient_vertices() == [1]


def test_config_from_file(tmp_path):
    qfile = tmp_path / "quiver.txt"
    qfile.write_text("vertices: 1 2 3\narrow: 1 -> 2\narrow: 3 -> 2\n")
    cfile = tmp_path / "run.cfg"
    cfile.write_text(
        f"[quiver]\nfile = {qfile}\n"
        "[principal]\nproj = 1,1,1\ninj = 1,1,1\n"
        "[compute]\nmax_prime = 31\n"
    )
    cfg = PrincipalConfig.from_file(str(cfile))
    assert cfg.quiver == zigzag_quiver(3)
    assert cfg.max_prime == 31
    assert cfg.d == (3, 4, 3)


@pytest.mark.parametrize("line", ["jobs = 2", "max_primes = 31"])
def test_config_rejects_unknown_compute_key(tmp_path, line):
    cfile = tmp_path / "run.cfg"
    cfile.write_text(
        "[quiver]\ntext = vertices: 1 2; arrow: 1 -> 2\n"
        "[principal]\nproj = 1 1\ninj = 1 1\n"
        f"[compute]\n{line}\n"
    )
    with pytest.raises(LabError, match=repr(line.split()[0])):
        PrincipalConfig.from_file(str(cfile))


QUIVER_A2 = "[quiver]\ntext = vertices: 1 2; arrow: 1 -> 2\n"
PRINCIPAL_A2 = "[principal]\nproj = 1 1\ninj = 1 1\n"


@pytest.mark.parametrize("text", [
    QUIVER_A2 + PRINCIPAL_A2 + "[Compute]\nmax_prime = 7\n",  # sections are case sensitive
    QUIVER_A2 + PRINCIPAL_A2 + "[extra]\nx = 1\n",
    QUIVER_A2 + PRINCIPAL_A2 + "prj = 1 0\n",
    QUIVER_A2 + "files = q.txt\n" + PRINCIPAL_A2,
], ids=["Compute", "extra", "prj", "files"])
def test_config_rejects_unknown_section_or_key(tmp_path, text):
    cfile = tmp_path / "run.cfg"
    cfile.write_text(text)
    with pytest.raises(LabError, match="unknown"):
        PrincipalConfig.from_file(str(cfile))


def test_config_quiver_file_relative_to_config(tmp_path, monkeypatch):
    sub = tmp_path / "sub"
    sub.mkdir()
    (sub / "q.txt").write_text("vertices: 1 2\narrow: 1 -> 2\n")
    (sub / "run.cfg").write_text(
        "[quiver]\nfile = q.txt\n[principal]\nproj = 1 1\ninj = 1 1\n")
    monkeypatch.chdir(tmp_path)
    cfg = PrincipalConfig.from_file("sub/run.cfg")
    assert cfg.quiver == linear_quiver(2)


def test_repository_config_loads():
    cfg = PrincipalConfig.from_file(str(REPO / "configs" / "zigzag3.cfg"))
    assert cfg.quiver == zigzag_quiver(3) and cfg.max_nodes == 2000


def test_config_from_inline_text(tmp_path):
    cfile = tmp_path / "run.cfg"
    cfile.write_text(
        "[quiver]\ntext = vertices: 1 2; arrow: 1 -> 2\n"
        "[principal]\nproj = 1 1\ninj = 1 1\n"
    )
    cfg = PrincipalConfig.from_file(str(cfile))
    assert cfg.quiver == linear_quiver(2)


def test_split_at_deficient_trivial_when_none(zigzag3_cfg):
    # no deficient vertices: nothing is cut
    assert split_at_deficient(zigzag3_cfg) == \
        zigzag3_cfg.proj_iso + zigzag3_cfg.inj_iso


def test_split_at_deficient_p1xp1(p1xp1_cfg):
    # every interval through the middle vertex is cut into simples
    cat = p1xp1_cfg.catalog
    expect = Isoclass({cat.simple_label(0): 2, cat.simple_label(1): 3,
                       cat.simple_label(2): 2})
    assert split_at_deficient(p1xp1_cfg) == expect


def test_conjectured_m2_zigzag(zigzag3_cfg):
    cat = zigzag3_cfg.catalog
    got = conjectured_m2(zigzag3_cfg)
    expect = cat.parse_isoclass(
        "U(1,2) + U(2,3) + 2*U(1,1) + 2*U(2,2) + 2*U(3,3)")
    assert got == expect


def test_conjectured_m2_equioriented_is_p_s_i_mod_socle(eq_a3_cfg):
    # equioriented A3: the deepest representation is P + S + I/S
    cfg = eq_a3_cfg
    cat = cfg.catalog
    counts = dict(cfg.proj_iso.counts)
    for v in range(3):
        counts[cat.simple_label(v)] = counts.get(cat.simple_label(v), 0) + 1
    for v in range(3):
        inj = cat.realize(Isoclass({cat.injective_label(v): 1}))
        soc, incl = reps.socle(inj)
        quot, _ = reps.cokernel_rep(incl)
        if quot.total_dim:
            lab = next(iter(cat.decompose(quot).counts))
            counts[lab] = counts.get(lab, 0) + 1
    assert conjectured_m2(cfg) == Isoclass(counts)


def test_conjectured_m2_out_of_scope():
    d4 = Quiver([1, 2, 3, 4], [(1, 2), (3, 2), (4, 2)])
    assert conjectured_m2(PrincipalConfig(d4, (1, 1, 1, 1), (1, 1, 1, 1))) is None
    assert conjectured_m2(PrincipalConfig(zigzag_quiver(3), (1, 1, 1), (1, 0, 1))) is None


def test_conjectured_m2_matches_dimension(zigzag3_cfg):
    m2 = conjectured_m2(zigzag3_cfg)
    assert m2.dims(3) == zigzag3_cfg.d


def test_classify_all_zigzag(zigzag3_report):
    rep = zigzag3_report
    assert not rep.gaps
    assert len(rep.poset.nodes) == 26
    assert all(cls.consistent for cls in rep.classifications.values())
    dims = [cls.dimension for cls in rep.classifications.values()]
    assert min(dims) == 5
    assert set(rep.gamma1) <= set(rep.gamma2)


def test_gamma_loci_are_lower_ideals(zigzag3_report):
    poset = zigzag3_report.poset
    assert sorted(map(str, poset.lower_ideal(lambda x: x in set(zigzag3_report.gamma2)))) \
        == sorted(map(str, zigzag3_report.gamma2))


def test_upper_semicontinuity(zigzag3_report):
    rep = zigzag3_report
    for m in rep.poset.nodes:
        for n in rep.poset.nodes:
            if rep.poset.less_equal(m, n):
                assert rep.classifications[m].dimension <= \
                    rep.classifications[n].dimension


def test_hom_criterion_zigzag(zigzag3_cfg, zigzag3_report):
    crit = hom_criterion_set(zigzag3_cfg)
    assert crit.dual_agrees
    assert set(crit.members) == set(zigzag3_report.gamma2)
    assert crit.sinks == zigzag3_report.gamma2_sinks()


def test_conjecture_b_and_c_zigzag(zigzag3_cfg, zigzag3_report):
    b = check_conjecture(zigzag3_cfg, "B", report=zigzag3_report)
    assert b.holds is True
    c = check_conjecture(zigzag3_cfg, "C", report=zigzag3_report)
    assert c.holds is True
    d = check_conjecture(zigzag3_cfg, "D", report=zigzag3_report)
    assert d.holds is True


def test_conjecture_b_with_deficient_vertices(p1xp1_cfg, p1xp1_report):
    v = check_conjecture(p1xp1_cfg, "B", report=p1xp1_report)
    assert v.holds is True


def test_unknown_conjecture_rejected(zigzag3_cfg, zigzag3_report):
    with pytest.raises(LabError):
        check_conjecture(zigzag3_cfg, "F", report=zigzag3_report)


def test_report_json_shape(zigzag3_report):
    data = json.loads(report_json(zigzag3_report))
    assert data["d"] == [3, 4, 3]
    assert data["expected_dim"] == 5
    assert len(data["nodes"]) == 26
    assert data["gamma2_sinks"]
    assert data["gaps"] == []
    gamma1, gamma2 = set(data["gamma1"]), set(data["gamma2"])
    for node in data["nodes"]:
        assert node["gamma2"] == (node["isoclass"] in gamma2)
        assert node["irreducible_proxy"] == (node["isoclass"] in gamma1)


def test_report_dot_colors(zigzag3_report):
    dot = report_dot(zigzag3_report)
    assert dot.startswith("digraph")
    assert "palegreen" in dot and "lightblue" in dot


def test_conjecture_a_equioriented_drops(eq_a3_cfg):
    v = check_conjecture(eq_a3_cfg, "A")
    assert v.holds is None
    assert v.summary == "path relations strictly refine arrow relations on 20/35 nodes"
    assert len(v.details["drops"]) == 20


def test_one_poset_build_per_configuration(monkeypatch):
    cfg = PrincipalConfig(zigzag_quiver(3), (1, 1, 1), (1, 0, 1))
    builds = []

    def counting(*args, **kwargs):
        builds.append(args)
        return build_poset(*args, **kwargs)

    monkeypatch.setattr(lab, "build_poset", counting)
    report = lab.classify_all(cfg)
    for which in "ABCDE":
        report.verdicts[which] = check_conjecture(cfg, which, report=report)
    check_conjecture(cfg, "C")  # classifies again without a report
    hom_criterion_set(cfg)
    assert len(builds) == 1
    assert report.poset is cfg.poset


def test_conjecture_e_one_table_per_node(monkeypatch, zigzag3_cfg, zigzag3_report):
    calls = []
    real = lab._hilbert_dims

    def counting(cfg, iso, degrees, scope):
        calls.append(iso)
        return real(cfg, iso, degrees, scope)

    monkeypatch.setattr(lab, "_hilbert_dims", counting)
    v = check_conjecture(zigzag3_cfg, "E", report=zigzag3_report)
    assert len(calls) == len(zigzag3_report.poset.nodes) == 26
    assert len(set(calls)) == 26
    assert v.holds is True
    assert v.summary == ("lower bound violated on 0 nodes; table equality on "
                         "18 nodes vs |gamma2| = 18")


def test_empty_and_inconsistent_nodes_stay_out_of_the_loci(monkeypatch):
    cfg = PrincipalConfig(zigzag_quiver(3), (1, 1, 1), (1, 0, 1))
    [empty] = cfg.poset.maximal_elements()
    broken = next(x for x in cfg.poset.nodes if x not in (empty, cfg.generic()))
    real = lab.classify_node

    def patched(cfg, iso):
        if iso == empty:
            return Classification(-1, 0, CountingPolynomial(()), True, "dp", {2: 0})
        cls = real(cfg, iso)
        if iso == broken:
            cls.consistent, cls.reason = False, "decode failed: test"
        return cls

    monkeypatch.setattr(lab, "classify_node", patched)
    report = lab.classify_all(cfg)  # no LabError for dimension -1
    assert report.gaps == [f"{broken}: decode failed: test"]
    for iso in (empty, broken):
        assert iso in report.classifications
        assert iso not in report.gamma1 and iso not in report.gamma2
    record = next(n for n in json.loads(report_json(report))["nodes"]
                  if n["isoclass"] == str(empty))
    assert (record["dim"], record["top_components"], record["poly"]) == (-1, 0, [])
