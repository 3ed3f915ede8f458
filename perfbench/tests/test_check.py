"""The output check can fail: one perturbed value must be caught.

Modelled on ``bandgauss verify --tol-scale 0``, which shows that the
verification table is able to report failures.
"""

import gzip

import pytest

from check import TAU_SD_ATOL, compare, reference_path


def reference(workload, name):
    with gzip.open(reference_path(workload, name), "rt", newline="") as f:
        return f.read()


def perturb(text, line, column, new):
    lines = text.split("\n")
    header = lines[0].split(",")
    cells = lines[line].split(",")
    cells[header.index(column)] = new(cells[header.index(column)])
    lines[line] = ",".join(cells)
    return "\n".join(lines)


def sudden_death_line(text):
    return next(i for i, line in enumerate(text.split("\n"))
                if line.startswith("sudden_death") and not line.endswith(",none"))


def test_reference_matches_itself():
    ref = reference("states", "evolve")
    assert compare(ref, ref, exact=True) == (True, "ok", 0.0)


@pytest.mark.parametrize("workload,name,column", [
    ("states", "evolve", "cm_13"),
    ("recipes", "fig1a", "kappa_full"),
    ("thermal", "coefficients", "gamma"),
])
def test_one_perturbed_value_fails(workload, name, column):
    ref = reference(workload, name)
    bad = perturb(ref, 100, column, lambda c: repr(float(c) * (1 + 1e-6)))
    ok, reason, dev = compare(bad, ref, exact=True)
    assert not ok
    assert "line 101" in reason and column in reason
    assert dev == pytest.approx(1e-6, rel=1e-3)


def test_text_cell_must_match_exactly():
    ref = reference("recipes", "fig2b")
    bad = perturb(ref, 1, "mode", lambda c: "secular")
    assert not compare(bad, ref, exact=True)[0]


def test_tau_sd_tolerance_is_twice_xtol():
    ref = reference("recipes", "fig2b")
    line = sudden_death_line(ref)
    near = perturb(ref, line, "tau_sd", lambda c: repr(float(c) + 0.5 * TAU_SD_ATOL))
    far = perturb(ref, line, "tau_sd", lambda c: repr(float(c) + 1.5 * TAU_SD_ATOL))
    assert compare(near, ref, exact=True)[0]
    assert not compare(far, ref, exact=True)[0]


def test_other_seeds_check_structure_and_finiteness():
    ref = reference("states", "sweep")
    moved = perturb(ref, 5, "kappa", lambda c: repr(float(c) * 1.1))
    assert compare(moved, ref, exact=False)[0]
    nan = perturb(ref, 5, "kappa", lambda c: "nan")
    assert not compare(nan, ref, exact=False)[0]
    short = "\n".join(ref.split("\n")[:-2]) + "\n"
    assert not compare(short, ref, exact=False)[0]
