"""Workload definitions: which ops a workload runs for a given seed.

An op is one user-visible command.  ``analyze`` ops carry the text of a
spec file (committed under ``inputs/``) and the degree n; ``construct``
ops carry the parameters of ``quiveralg family``.

Seed 0 gives the fixed lists below.  Any other seed redraws the free
choices at the same sizes: the ``thm39_type2`` choice strings, and the
Dynkin orientation inside each Auslander input.  The orientation is
redrawn only within its mirror/opposite class (for example ``A4`` and
``A4-bbb``): over all 8 orientations of A4 the Auslander algebra's
``analyze`` time ranged from 5.6 s to 7.4 s and its 2-RF verdict flips,
which would put input-to-input spread into the seed-to-seed spread the
benchmark's bounds are checked against.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
INPUTS = os.path.join(HERE, "inputs")

GF = "GF(32003)"
Q = "Q"


@dataclass(frozen=True)
class Op:
    kind: str            # "analyze" or "construct"
    family: str          # quiveralg family name
    params: tuple        # family parameters as typed on the command line
    field: str           # GF or Q
    n: int = 0           # degree for analyze ops

    @property
    def input_name(self) -> str:
        """File stem of the spec (analyze) this op reads."""
        return "_".join((self.family,) + self.params).replace(",", ".") + \
            ("" if self.field == GF else ".Q")

    @property
    def key(self) -> str:
        """Identity of the op; names its reference output."""
        if self.kind == "analyze":
            return f"analyze.{self.input_name}.n{self.n}"
        return "construct." + "_".join((self.family,) + self.params)

    def spec_path(self) -> str:
        return os.path.join(INPUTS, self.input_name + ".spec")

    def auslander_rank(self) -> int | None:
        """s for an Auslander algebra of A_s, else None."""
        if self.family != "auslander":
            return None
        return int(self.params[0].split("-")[0][1:])


# Each free choice lists its seed-0 value first.
AUS_A2 = ("A2", "A2-b")
AUS_A3 = ("A3-nonlinear", "A3-bf")
AUS_A4 = ("A4", "A4-bbb")
AUS_A5 = ("A5", "A5-bbbb")
AUS_A6 = ("A6", "A6-bbbbb")


def thm39(v: int, first: str) -> tuple[str, ...]:
    """All choice strings for thm39_type2 on v row vertices, `first` first."""
    rest = [",".join(c) for c in
            itertools.product(("gamma", "delta"), repeat=v - 1)]
    rest.remove(first)
    return (first, *rest)


def corpus(pick):
    """The 11 algebras of scripts/corpus_report.py."""
    return [
        Op("analyze", "dynkin", ("A2",), GF, 1),
        Op("analyze", "linear_nakayama", ("3",), GF, 2),
        Op("analyze", "linear_nakayama", ("4",), GF, 2),
        Op("analyze", "thm39_type2", ("2", pick(thm39(2, "gamma"))), GF, 2),
        Op("analyze", "thm39_type2", ("2", pick(thm39(2, "delta"))), GF, 2),
        Op("analyze", "thm39_type2", ("3", pick(thm39(3, "gamma,gamma"))),
           GF, 2),
        Op("analyze", "thm39_type2", ("3", pick(thm39(3, "gamma,delta"))),
           GF, 2),
        Op("analyze", "canonical_2222", ("2",), GF, 2),
        Op("analyze", "canonical_2222", ("3",), GF, 2),
        Op("analyze", "auslander", (pick(AUS_A3),), GF, 2),
        Op("analyze", "auslander", (pick(AUS_A4),), GF, 2),
    ]


def scale(pick):
    return [
        Op("analyze", "auslander", (pick(AUS_A4),), GF, 2),
        Op("analyze", "linear_nakayama", ("9",), GF, 2),
        Op("analyze", "higher_auslander_chain", ("3", "3"), GF, 4),
    ]


def construct(pick):
    return [
        Op("construct", "auslander", (pick(AUS_A5),), GF),
        Op("construct", "auslander", (pick(AUS_A6),), GF),
        Op("construct", "higher_auslander_chain", ("4", "2"), GF),
    ]


def rational(pick):
    # Over Q the cost climbs steeply with dimension: dim 9 takes about
    # 2 s, while Aus(A3-nonlinear) (dim 15) takes 24 s and
    # thm39_type2 3 44 s, too long for a run that a comparison repeats
    # many times.
    return [
        Op("analyze", "linear_nakayama", ("4",), Q, 2),
        Op("analyze", "thm39_type2", ("2", pick(thm39(2, "gamma"))), Q, 2),
        Op("analyze", "auslander", (pick(AUS_A2),), Q, 2),
    ]


WORKLOADS = {"corpus": corpus, "scale": scale, "construct": construct,
             "rational": rational}


def ops_for(workload: str, seed: int) -> list[Op]:
    if seed == 0:
        return WORKLOADS[workload](lambda options: options[0])
    rng = random.Random(seed)
    return WORKLOADS[workload](rng.choice)


def all_ops() -> list[Op]:
    """Every op that any seed can draw, for generating inputs and
    references."""
    ops = {}
    for make in WORKLOADS.values():
        for i in range(4):   # no free choice has more than 4 options
            for op in make(lambda options: options[min(i, len(options) - 1)]):
                ops[op.key] = op
    return sorted(ops.values(), key=lambda o: o.key)
