"""`uqsub.errors.check_p` owns the rule that p lies in [0, 1]."""
from pathlib import Path

import numpy as np
import pytest

import uqsub
from uqsub.channel import KrausSet
from uqsub.closed_forms import dn_fidelity, f2inf, f21_exact, mp_upper
from uqsub.mcsim import HaarSampler, estimate_fidelity
from uqsub.objective import assemble, build_objective
from uqsub.oracle import build_omega

ENTRY_POINTS = {
    "dn_fidelity": dn_fidelity,
    "f21_exact": f21_exact,
    "mp_upper": lambda p: mp_upper(p, 2),
    "f2inf": f2inf,
    "assemble": lambda p: assemble(build_objective(2, 1), p),
    "build_omega": lambda p: build_omega(2, 1, p),
    "estimate_fidelity": lambda p: estimate_fidelity(
        KrausSet(operators=[np.zeros((2, 8))]), 2, 1, p, samples=10, sampler=HaarSampler(0)
    ),
}


@pytest.mark.parametrize("p", [-0.1, 1.5, float("nan"), float("inf")])
@pytest.mark.parametrize("name", list(ENTRY_POINTS))
def test_every_entry_point_states_the_p_rule_alike(name, p):
    with pytest.raises(ValueError) as raised:
        ENTRY_POINTS[name](p)
    assert str(raised.value) == f"p = {p} outside [0, 1]"


@pytest.mark.parametrize("p", [0.0, 1.0])
@pytest.mark.parametrize("name", list(ENTRY_POINTS))
def test_the_ends_of_the_interval_pass(name, p):
    ENTRY_POINTS[name](p)


def test_one_module_states_the_rule():
    src = Path(uqsub.__file__).parent
    stating = [path.name for path in src.glob("*.py") if "outside [0, 1]" in path.read_text()]
    assert stating == ["errors.py"]
