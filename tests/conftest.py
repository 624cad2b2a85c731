import numpy as np
import pytest

import cellhom as ch
from cellhom.solvers import Stencil
from cellhom.microstructures import (
    cubic_inclusion_cell,
    homogeneous_cell,
    laminate_cell,
    random_two_phase_cell,
)

#: probe loading shared by the cross-formulation tests
PROBE_A = np.array([0.3, -0.1, 0.2, 0.25, -0.15, 0.1])


@pytest.fixture(scope="session")
def cell_a():
    return homogeneous_cell()


@pytest.fixture(scope="session")
def cell_b():
    return laminate_cell()


@pytest.fixture(scope="session")
def cell_c():
    return cubic_inclusion_cell()


@pytest.fixture(scope="session")
def cell_d():
    return random_two_phase_cell()


@pytest.fixture(scope="session")
def homog_b(cell_b):
    return ch.homogenize(cell_b)


@pytest.fixture(scope="session")
def homog_c(cell_c):
    return ch.homogenize(cell_c)


@pytest.fixture(scope="session")
def homog_d(cell_d):
    return ch.homogenize(cell_d)


@pytest.fixture(scope="session")
def probe_solution_d(cell_d, homog_d):
    """Converged strain- and stress-driven pair on fixture (d)."""
    u, rep_u = ch.solve_strain_driven(cell_d, PROBE_A)
    s = homog_d.CH @ PROBE_A
    w, rep_w = ch.solve_stress_driven(cell_d, s)
    return {"A": PROBE_A, "S": s, "u": u, "w": w,
            "rep_u": rep_u, "rep_w": rep_w}


@pytest.fixture
def core_builds(monkeypatch):
    """Cells whose operator core is built while the test runs."""
    built = []
    init = Stencil.__init__

    def counting_init(self, cell):
        built.append(cell)
        init(self, cell)

    monkeypatch.setattr(Stencil, "__init__", counting_init)
    return built
