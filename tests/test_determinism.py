"""Reruns are byte-deterministic: a drawn scenario, run twice in process and
once with ``--jobs 2``, gives identical CSV bytes on every data command.
Every scenario has two environments, so ``--jobs 2`` starts a process pool
wherever the machine has two processors. One small scenario per data
command also keeps the bytes pinned below."""

import hashlib
import tempfile
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings, strategies as st

from bandgauss.cli import main


def _csv(values) -> str:
    return ",".join(map(str, values))


@st.composite
def runs(draw):
    """The argument lists of one drawn scenario, one per data command."""
    method = draw(st.sampled_from(["closed", "quad"]))
    beta = draw(st.one_of(st.none(), st.floats(1.0, 10.0))) \
        if method == "quad" else None
    mode = draw(st.sampled_from(["secular", "full", "both"]))
    kappa = draw(st.sampled_from(["symmetric", "oracle", "paper"]))
    grid = ["--tau-max", str(draw(st.floats(1.0, 30.0))),
            "--tau-steps", str(draw(st.integers(2, 40)))]
    route = ["--method", method] + ([] if beta is None else ["--beta", str(beta)])
    params = ["--r", _csv(draw(st.lists(st.floats(0.0, 2.0), min_size=1,
                                        max_size=2))),
              "--delta", str(draw(st.floats(1e-4, 1e-2))),
              "--omega", _csv(draw(st.lists(st.floats(0.5, 3.0), min_size=2,
                                            max_size=2, unique=True)))]
    # the paper source is the secular closed form at low temperature
    curves = (["--kappa", "paper", "--mode", "secular"] if kappa == "paper"
              else [*route, "--kappa", kappa, "--mode", mode])
    panel = draw(st.sampled_from("abc"))
    # fig2 b and c only: panel a's r = 10 is beyond the oracle's eigensolver
    fig2_panel = "b" if kappa == "oracle" and panel == "a" else panel
    return {
        "coefficients": ["coefficients", *route, *params, *grid],
        "evolve": ["evolve", *route, "--mode", mode, *params, *grid],
        "sweep": ["sweep", *curves, *params, *grid],
        # the recipes run on every route and kappa source sweep runs on
        "fig1": ["fig1", "--panel", panel, *route, *grid],
        "fig2": ["fig2", "--panel", fig2_panel, *curves, *grid],
    }


# no shrinking: an example runs 15 commands, so shrinking a failure would
# take minutes, and the failing assertion names its argv
@settings(max_examples=3, deadline=None, derandomize=True,
          phases=(Phase.explicit, Phase.generate))
@given(runs())
def test_reruns_are_byte_identical(argvs):
    with tempfile.TemporaryDirectory() as tmp:
        for command, argv in argvs.items():
            outs = [Path(tmp, f"{command}-{i}.csv") for i in range(3)]
            for out, jobs in zip(outs, ("1", "1", "2")):
                assert main(argv + ["--jobs", jobs, "--out", str(out)]) == 0, \
                    argv
            first = outs[0].read_bytes()
            assert all(out.read_bytes() == first for out in outs[1:]), argv


# Several environments (unsorted, and the sweep's r repeated), several r
# values and both modes where the command has them, and each CSV's sha256.
PINNED = {
    "coefficients": (
        ["coefficients", "--method", "quad", "--beta", "2",
         "--delta", "1e-2,1e-1", "--omega", "3,1"],
        "7ed05815fe4e023e2c302f6032e91456240ccf83a06ac6cbdab9e2ba8ac2e18f"),
    "evolve": (
        ["evolve", "--mode", "both", "--r", "1,0.5", "--delta", "1e-2,1e-1",
         "--omega", "3,1"],
        "dca47b8ef23b2bcd184ea4ec6f90b563f358ac40906e3f5142670ced3cc5feaf"),
    "fig1": (
        ["fig1", "--panel", "c"],
        "5be8eda794291a653e5461c9083469df4f6176b75b3d79d93a0adfe77bcfcd86"),
    "fig2": (
        ["fig2", "--panel", "b", "--kappa", "oracle", "--mode", "full"],
        "0acdc7fa8f2224a2cc550810baf28eb2b1601d8e21bb03c9b60824b424c091fc"),
    "sweep": (
        ["sweep", "--kappa", "oracle", "--mode", "both", "--r", "1,0.5,1",
         "--delta", "1e-2,1e-1", "--omega", "3,1"],
        "1e505cfe09ed3ffb615e1b529390eca6bef09c493e70362f3a5a5e5cc1ae2281"),
}


@pytest.mark.parametrize("command", sorted(PINNED))
def test_pinned_bytes(tmp_path, command):
    argv, digest = PINNED[command]
    out = tmp_path / f"{command}.csv"
    assert main(argv + ["--tau-steps", "31", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
