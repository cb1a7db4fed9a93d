"""Shared fixtures: the expensive full-poset classifications are computed
once per session and reused by both the unit tests and the acceptance
suite."""

import numpy as np
import pytest

from quivergrass.lab import PrincipalConfig, classify_all
from quivergrass.quiver import Quiver, linear_quiver, zigzag_quiver
from quivergrass.reps import Representation


@pytest.fixture(scope="session")
def mod_socle():
    """M -> M / soc M, built from M's matrices: at each vertex the quotient
    by the common kernel of the out-maps, and for each arrow the map C with
    pr_t M_a = C pr_s, solved for because pr_s is surjective."""
    def build(m):
        f, q = m.field, m.quiver
        projs = []
        for i in range(q.n):
            out_maps = [m.maps[a] for a in q.arrows_out(i)] + [f.zeros(0, m.dims[i])]
            projs.append(f.quotient_projection(f.kernel_basis(np.concatenate(out_maps))))
        maps = [f.solve(projs[s].T, f.mul(projs[t], m.maps[a]).T).T
                for a, (s, t) in enumerate(q.arrows)]
        return Representation(q, f, [pr.shape[0] for pr in projs], maps)
    return build


@pytest.fixture(scope="session")
def zigzag3_cfg():
    # 1 -> 2 <- 3, full principal: d = (3, 4, 3), e = (1, 3, 1)
    return PrincipalConfig(zigzag_quiver(3), (1, 1, 1), (1, 1, 1))


@pytest.fixture(scope="session")
def zigzag3_report(zigzag3_cfg):
    return classify_all(zigzag3_cfg)


@pytest.fixture(scope="session")
def eq_a3_cfg():
    # 1 -> 2 -> 3, full principal: d = (4, 4, 4), e = (1, 2, 3)
    return PrincipalConfig(linear_quiver(3, ">>"), (1, 1, 1), (1, 1, 1))


@pytest.fixture(scope="session")
def eq_a3_report(eq_a3_cfg):
    return classify_all(eq_a3_cfg)


@pytest.fixture(scope="session")
def p1xp1_cfg():
    # 1 -> 2 <- 3 with I = I1 + I3: d = (2, 3, 2), e = (1, 3, 1)
    return PrincipalConfig(zigzag_quiver(3), (1, 1, 1), (1, 0, 1))


@pytest.fixture(scope="session")
def p1xp1_report(p1xp1_cfg):
    return classify_all(p1xp1_cfg)


@pytest.fixture(scope="session")
def a4_cfg():
    # 1 -> 2 <- 3 <- 4 with I = I1 + I3 + I4: d = (2, 4, 3, 3), e = (1, 4, 2, 1)
    q = Quiver([1, 2, 3, 4], [(1, 2), (3, 2), (4, 3)])
    return PrincipalConfig(q, (1, 1, 1, 1), (1, 0, 1, 1))


@pytest.fixture(scope="session")
def a4_report(a4_cfg):
    return classify_all(a4_cfg)


@pytest.fixture(scope="session")
def d4_center_cfg():
    # D4 with every outer vertex pointing into the center:
    # d = (3, 5, 3, 3), e = (1, 4, 1, 1)
    q = Quiver([1, 2, 3, 4], [(1, 2), (3, 2), (4, 2)])
    return PrincipalConfig(q, (1, 1, 1, 1), (1, 1, 1, 1))


@pytest.fixture(scope="session")
def d4_center_report(d4_center_cfg):
    return classify_all(d4_center_cfg)
