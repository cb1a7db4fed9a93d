import json
from pathlib import Path

import pytest

from quivergrass.catalog import Isoclass, get_catalog
from quivergrass import groebner, lab, pluecker, pointcount
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
from quivergrass.pointcount import Classification, CountError, CountingPolynomial
from quivergrass.quiver import Quiver, QuiverError, linear_quiver, zigzag_quiver
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


def test_config_refuses_multiplicities_that_are_not_integers():
    # (1.9, 1) would otherwise run with P1 once
    q = linear_quiver(2)
    with pytest.raises(QuiverError, match=r"1\.9 at vertex 1 is not an integer"):
        PrincipalConfig(q, (1.9, 1), (1, 1))
    with pytest.raises(QuiverError, match=r"0\.5 at vertex 2"):
        PrincipalConfig(q, (1, 1), (1, 0.5))


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


@pytest.mark.parametrize("text, match", [
    # sections are case sensitive
    (QUIVER_A2 + PRINCIPAL_A2 + "[Compute]\nmax_prime = 7\n", r"unknown section \[Compute\]"),
    (QUIVER_A2 + PRINCIPAL_A2 + "[extra]\nx = 1\n", r"unknown section \[extra\]"),
    (QUIVER_A2 + PRINCIPAL_A2 + "prj = 1 0\n", r"unknown \[principal\] key 'prj'"),
    (QUIVER_A2 + "files = q.txt\n" + PRINCIPAL_A2, r"unknown \[quiver\] key 'files'"),
    (QUIVER_A2, r"No section: 'principal'"),
    (QUIVER_A2 + "[principal]\nproj = 1 1\n", r"No option 'inj' in section: 'principal'"),
    (QUIVER_A2 + "[principal]\nproj = 1 x\ninj = 1 1\n", r"proj = '1 x' .* not an integer"),
    (QUIVER_A2 + PRINCIPAL_A2 + "[compute]\nmax_nodes = lots\n",
     r"max_nodes = 'lots' .* not an integer"),
], ids=["Compute", "extra", "prj", "files", "no-principal", "no-inj", "proj-x", "lots"])
def test_config_rejects_unknown_section_or_key(tmp_path, text, match):
    cfile = tmp_path / "run.cfg"
    cfile.write_text(text)
    with pytest.raises(LabError, match=match) as err:
        PrincipalConfig.from_file(str(cfile))
    assert str(cfile) in str(err.value)


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


def test_conjectured_m2_equioriented_is_p_s_i_mod_socle(eq_a3_cfg, mod_socle):
    # equioriented A3: the deepest representation is P + S + I/S
    cfg = eq_a3_cfg
    cat = cfg.catalog
    counts = dict(cfg.proj_iso.counts)
    for v in range(3):
        counts[cat.simple_label(v)] = counts.get(cat.simple_label(v), 0) + 1
    for v in range(3):
        inj = cat.realize(Isoclass({cat.injective_label(v): 1}))
        quot = mod_socle(inj)
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


@pytest.mark.parametrize("name, holds, only_hom, only_gamma2", [
    ("d4_center", False, 0, 1),
    ("zigzag3", True, 0, 0),
    ("eq_a3", True, 0, 0),
    ("p1xp1", False, 0, 1),
    ("a4", False, 0, 20),
])
def test_conjecture_d_verdicts(name, holds, only_hom, only_gamma2, request):
    # the Hom-bound set misses gamma2 nodes on three fixtures, never adds
    # one, and its dual form always agrees
    cfg = request.getfixturevalue(f"{name}_cfg")
    d = check_conjecture(cfg, "D", report=request.getfixturevalue(f"{name}_report"))
    assert d.holds is holds
    assert (len(d.details["only_hom"]), len(d.details["only_gamma2"])) == (only_hom, only_gamma2)
    assert d.details["dual_agrees"] is True
    if name == "d4_center":
        assert d.details["only_gamma2"] == [
            "2*V(0,0,0,1) + 2*V(0,0,1,0) + 2*V(0,1,0,0) + V(0,1,0,1) + "
            "V(0,1,1,0) + 2*V(1,0,0,0) + V(1,1,0,0)"]


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


def record_ideals(monkeypatch) -> list:
    """The (isoclass, scope) of every ideal lab builds from now on."""
    calls = []
    real = lab.ideal

    def counting(m, e, *, scope):
        calls.append((m.isoclass, scope))
        return real(m, e, scope=scope)

    monkeypatch.setattr(lab, "ideal", counting)
    return calls


def test_conjecture_e_one_table_per_node(monkeypatch, zigzag3_cfg, zigzag3_report):
    calls = record_ideals(monkeypatch)
    report = lab.ExperimentReport(zigzag3_cfg, gamma2=zigzag3_report.gamma2)
    a = check_conjecture(zigzag3_cfg, "A", report=report)
    e = check_conjecture(zigzag3_cfg, "E", report=report)
    nodes = zigzag3_report.poset.nodes
    assert len(nodes) == 26
    # zigzag A3 has no path of length 2: each path table is read from the
    # node's arrow table, and no path ideal is built
    assert sorted(calls, key=str) == sorted([(iso, "arrows") for iso in nodes], key=str)
    assert a.summary == "path relations strictly refine arrow relations on 0/26 nodes"
    assert e.holds is True
    assert e.summary == ("lower bound violated on 0 nodes; table equality on "
                         "18 nodes vs |gamma2| = 18")


def test_path_ideals_only_where_a_long_path_acts(monkeypatch, a4_cfg):
    # 1 -> 2 <- 3 <- 4: 4 -> 3 -> 2 is the one path of length 2
    calls = record_ideals(monkeypatch)
    report = lab.ExperimentReport(a4_cfg)
    check_conjecture(a4_cfg, "A", report=report)
    nodes = a4_cfg.poset.nodes
    [path] = [path for path in a4_cfg.quiver.paths() if len(path) == 2]
    acting = [x for x in nodes if a4_cfg.catalog.realize(x).path_matrix(path).any()]
    assert (len(nodes), len(acting)) == (108, 64)
    assert sorted(calls, key=str) == sorted(
        [(x, "arrows") for x in nodes] + [(x, "paths") for x in acting], key=str)


@pytest.mark.parametrize("name", ["zigzag3_cfg", "p1xp1_cfg", "a4_cfg", "eq_a3_cfg",
                                  "d4_center_cfg"])
def test_hilbert_values_equal_tables_built_from_scratch(name, request):
    # every node and both scopes: memo hits, path tables read from arrow
    # tables and tables computed afresh all equal a Groebner basis and
    # hilbert_component per multidegree
    cfg = request.getfixturevalue(name)
    report = lab.ExperimentReport(cfg)
    for scope in ("arrows", "paths"):
        degrees = lab._box(cfg.quiver.n, scope)
        for iso in cfg.poset.nodes:
            ring, gens = pluecker.ideal(cfg.catalog.realize(iso), cfg.e, scope=scope)
            basis = groebner.groebner_basis(ring, gens, cfg.catalog_prime,
                                            max_degree=max(map(sum, degrees)))
            expected = [groebner.hilbert_component(ring, basis, m) for m in degrees]
            assert report.hilbert_values(iso, scope) == expected, (str(iso), scope)


def test_empty_and_inconsistent_nodes_stay_out_of_the_loci(monkeypatch):
    cfg = PrincipalConfig(zigzag_quiver(3), (1, 1, 1), (1, 0, 1))
    [empty] = cfg.poset.maximal_elements()
    broken = next(x for x in cfg.poset.nodes if x not in (empty, cfg.generic()))
    real = lab.classify_node

    def patched(cfg, isos):  # classify_all classifies a stack of nodes per call
        out = real(cfg, isos)
        for k, iso in enumerate(isos):
            if iso == empty:
                out[k] = Classification(-1, 0, CountingPolynomial(()), True, "dp", {2: 0})
            elif iso == broken:
                out[k].consistent, out[k].reason = False, "decode failed: test"
        return out

    monkeypatch.setattr(lab, "classify_node", patched)
    report = lab.classify_all(cfg)  # no LabError for dimension -1
    assert report.gaps == [f"{broken}: decode failed: test"]
    for iso in (empty, broken):
        assert iso in report.classifications
        assert iso not in report.gamma1 and iso not in report.gamma2
    record = next(n for n in json.loads(report_json(report))["nodes"]
                  if n["isoclass"] == str(empty))
    assert (record["dim"], record["top_components"], record["poly"]) == (-1, 0, [])


def test_budget_failures_become_gaps_outside_the_loci():
    # every eq-A3 node's DP check enumerates Gr(2, 4) at p = 3: 130 subspaces
    cfg = PrincipalConfig(linear_quiver(3, ">>"), (1, 1, 1), (1, 1, 1), enum_budget=100)
    calls = []
    report = lab.classify_all(cfg, progress=lambda *args: calls.append(args))
    assert report.gaps == [
        f"{iso}: enumeration budget exceeded: 130 subspaces of Gr(2,4) at p=3"
        for iso in cfg.poset.nodes
    ]
    # every gap is still reported, so the last call reaches k = n
    assert calls == [(k + 1, 35, iso, None) for k, iso in enumerate(cfg.poset.nodes)]
    for iso in cfg.poset.nodes:
        assert iso not in report.classifications
        assert iso not in report.gamma1 and iso not in report.gamma2


def _per_node_loop(cfg):
    """classify_all's classifications, gaps and progress calls, rebuilt from
    one ``classify_node`` call per node (no stacks)."""
    classifications, gaps, calls = {}, [], []
    n = len(cfg.poset.nodes)
    for k, iso in enumerate(cfg.poset.nodes, 1):
        try:
            cls = lab.classify_node(cfg, iso)
        except CountError as exc:
            cls = None
            gaps.append(f"{iso}: {exc}")
        else:
            if not cls.consistent:
                gaps.append(f"{iso}: {cls.reason}")
            classifications[iso] = cls
        calls.append((k, n, iso, cls))
    return classifications, gaps, calls


@pytest.mark.parametrize("name", ["zigzag3_cfg", "eq_a3_cfg", "p1xp1_cfg", "a4_cfg",
                                  "d4_center_cfg"])
@pytest.mark.parametrize("stack", [5, lab._STACK])
def test_stacked_classify_all_equals_a_per_node_loop(name, stack, request, monkeypatch):
    cfg = request.getfixturevalue(name)
    monkeypatch.setattr(lab, "_STACK", stack)  # 5: stacks end inside the poset
    calls = []
    report = lab.classify_all(cfg, progress=lambda *args: calls.append(args))
    assert (report.classifications, report.gaps, calls) == _per_node_loop(cfg)


@pytest.mark.parametrize("quiver, proj, inj, budgets", [
    (linear_quiver(3, ">>"), (1, 1, 1), (1, 1, 1), {"enum_budget": 100}),
    (linear_quiver(3, ">>"), (1, 1, 1), (1, 1, 1), {"max_prime": 3}),
    (Quiver([1, 2, 3, 4], [(1, 2), (3, 2), (4, 3)]), (1, 1, 1, 1), (1, 0, 1, 1),
     {"pair_budget": 10}),
], ids=["enum-budget", "max-prime", "pair-budget"])
def test_stacked_gaps_equal_a_per_node_loop(quiver, proj, inj, budgets, monkeypatch):
    # a budget error of a stacked count is the gap of every node in the stack;
    # a product error above max_prime stays the gap of its own node
    cfg = PrincipalConfig(quiver, proj, inj, **budgets)
    monkeypatch.setattr(lab, "_STACK", 5)
    calls = []
    report = lab.classify_all(cfg, progress=lambda *args: calls.append(args))
    assert report.gaps
    assert (report.classifications, report.gaps, calls) == _per_node_loop(cfg)


def test_a_product_error_stays_the_gap_of_its_own_node(a4_cfg, monkeypatch):
    # one node's product raises inside a stack; its neighbours are counted
    cfg = a4_cfg
    bad = cfg.poset.nodes[3]
    real = pointcount._product

    def product(m, e):
        if m.isoclass == bad:
            raise CountError("doctored product error")
        return real(m, e)

    monkeypatch.setattr(pointcount, "_product", product)
    monkeypatch.setattr(lab, "_STACK", 8)
    calls = []
    report = lab.classify_all(cfg, progress=lambda *args: calls.append(args))
    assert report.gaps == [f"{bad}: doctored product error"]
    assert (report.classifications, report.gaps, calls) == _per_node_loop(cfg)


def test_a_generic_polynomial_that_is_not_smooth_is_a_gap(monkeypatch):
    # (q - 2)(q - 3) q added to the generic node's product keeps its values
    # at both check primes but breaks the palindrome of degree expected_dim
    cfg = PrincipalConfig(zigzag_quiver(3), (1, 1, 1), (1, 1, 1))
    generic = cfg.generic()
    real = pointcount._product

    def product(m, e):
        coeffs, top = real(m, e)
        if m.isoclass == generic:
            coeffs = [c + t for c, t in zip(coeffs, [0, 6, -5, 1] + [0] * len(coeffs))]
        return coeffs, top

    monkeypatch.setattr(pointcount, "_product", product)
    report = lab.classify_all(cfg)
    assert cfg.expected_dim == 5
    assert report.gaps == [f"{generic}: smoothness mismatch: coefficients [1, 9, 1, 7, 3, 1] "
                           f"are not a palindrome of degree expected_dim = 5"]
    cls = report.classification(generic)
    assert not cls.consistent and cls.counts == {2: 159, 3: 712}
    assert generic not in report.gamma2 and generic not in report.gamma1
