"""Turn a seed into a workload's CLI inputs: the twisting element c and the base vector v.

    PYTHONPATH=src python3 bench/derive.py <workload> <seed>

prints ``{"c": ..., "v": ...}``.  It runs as its own process, so that the
process launching the timed commands never imports the package.  The seed
picks c inside the workload's isotopy class and a nondegenerate v.  By the
K^x x GL2 symmetry, every seed gives the same amount of work and the same
closed-form counts.
"""

from __future__ import annotations

import json
import random
import sys

from twistfield.algebra3 import (
    TwistedFieldSpec,
    isotopy_class,
    to_structure_constants,
    valid_c_values,
)
from twistfield.engine.spaces import NONDEGENERATE, PairVector, classify
from twistfield.gf import FieldTower, format_elem, format_triple

from workloads import COMMUTATIVE, WORKLOADS, Inputs, Workload


def candidate_c(tower: FieldTower, algebra_class: str) -> list[int]:
    """The valid c of the class; for the commutative-isotopic class only the commutative tensor.

    ``census --scan-all`` checks the line closed form, which holds only for the
    commutative tensor (c = -1), not for its non-commutative isotopes.
    """
    out = []
    for c in valid_c_values(tower):
        spec = TwistedFieldSpec(tower, c)
        if isotopy_class(spec).value != algebra_class:
            continue
        if to_structure_constants(spec).is_commutative() == (algebra_class == COMMUTATIVE):
            out.append(c)
    return out


def derive_inputs(workload: Workload, seed: int) -> Inputs:
    """A c of the workload's class and a nondegenerate v, both chosen by ``seed``."""
    rng = random.Random(seed)
    q = workload.q
    tower = FieldTower.build(q)
    c = rng.choice(candidate_c(tower, workload.algebra_class))
    while True:
        x = tuple(rng.randrange(q) for _ in range(3))
        y = tuple(rng.randrange(q) for _ in range(3))
        if classify(tower.base, PairVector(x, y)) == NONDEGENERATE:
            break
    v = ",".join("[" + ",".join(format_elem(tower.base, a) for a in w) + "]" for w in (x, y))
    return Inputs(format_triple(tower, c), v)


if __name__ == "__main__":
    inputs = derive_inputs(WORKLOADS[sys.argv[1]], int(sys.argv[2]))
    print(json.dumps({"c": inputs.c, "v": inputs.v}))
