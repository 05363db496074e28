"""The benchmark's workloads and the configs each repetition runs.

A config is the plain dict `costshare run` builds from its command line
(see ``costshare.cli``), minus the run knobs, which keep the CLI's defaults.
A repetition's artifacts are compared byte for byte with what
`costshare run` writes for the same config (see record_reference.py).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

# Euclidean instance seeds that have recorded reference digests.  A run's
# --seed picks the order in which its repetitions walk this panel; the panel
# is about as long as a run, so every run covers nearly all of it.
EUCLID_PANEL = tuple(range(8))


@dataclass(frozen=True)
class Workload:
    name: str
    gen: str        # the `costshare run --gen` generator
    size: dict      # generator size parameter: {"n": ...} or {"m": ...}
    mode: str       # "eqp" or "noneqp"
    seeded: bool    # True: instance seed drawn from EUCLID_PANEL
    why: str

    def configs(self, seed: int, count: int) -> list:
        """`count` configs for a run with this --seed; same seed, same list."""
        base = {"mode": self.mode, "gen": self.gen, **self.size}
        if not self.seeded:
            return [dict(base) for _ in range(count)]
        order = random.Random(seed).sample(EUCLID_PANEL, len(EUCLID_PANEL))
        return [{**base, "seed": order[i % len(order)], "profile": "churn"}
                for i in range(count)]

    def reference_key(self, cfg: dict) -> str:
        """Key of the config's entry in reference.json."""
        params = "-".join(f"{k}{cfg[k]}" for k in ("n", "m", "seed") if k in cfg)
        return f"{cfg['gen']}-{params}-{cfg['mode']}"

    def check(self, facts: dict) -> list:
        """Invariants of one repetition's outcome; returns what failed."""
        bad = []
        if not facts["verdict_ok"]:
            bad.append("final state is not an equilibrium")
        cost = Fraction(facts["final_cost"])
        if self.gen == "gm":
            m = self.size["m"]
            if cost != m * m * (m + 1):
                bad.append(f"final cost {cost} != m^2(m+1) = {m * m * (m + 1)}")
        elif self.gen == "steiner-gap":
            if cost != self.size["n"]:
                bad.append(f"final cost {cost} != n = {self.size['n']}")
            if facts["moves"] != 0:
                bad.append(f"{facts['moves']} moves, expected none")
        elif self.gen == "euclidean":
            if not facts["certified"]:
                bad.append("the log n accounting is not certified")
        return bad


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "euclid-churn", "euclidean", {"n": 120}, "eqp", True,
            "typical run: arrivals, departures and tree-follow moves; the "
            "only workload where move selection, tree-follow moves and tree "
            "rebuilds do much work"),
        Workload(
            "layered-oneshot", "gm", {"m": 4}, "noneqp", False,
            "pinned paths and no moves: every arrival runs a full exact "
            "search on a loaded state; the control for eqp-only changes"),
        Workload(
            "relay-chain", "steiner-gap", {"n": 50}, "eqp", False,
            "no moves; huge harmonic denominators make potential and exact "
            "relaxations dominate, and the Steiner sweep rebuilds a tree "
            "view per relay"),
    )
}
