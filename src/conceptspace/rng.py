"""Named random substreams derived from a single root seed.

Every source of randomness in the library (data generation, parameter init,
batch shuffling, categorical node sampling, regularizer draws, anchor picks,
and the init of the sequential regime's throwaway head) pulls from its own
named substream so each component can be reproduced independently of the
others.
"""

from __future__ import annotations

import numpy as np

# Fixed stream ids; never reorder, or old seeds stop reproducing.
_STREAMS = {
    "data": 0,
    "init": 1,
    "shuffle": 2,
    "gumbel": 3,
    "regdraw": 4,
    "anchors": 5,
    "misc": 6,
}


def substream(seed: int, name: str) -> np.random.Generator:
    """Return the deterministic generator for (root seed, stream name)."""
    if name not in _STREAMS:
        raise ValueError(f"unknown random substream {name!r}")
    return np.random.default_rng(np.random.SeedSequence((int(seed), _STREAMS[name])))
