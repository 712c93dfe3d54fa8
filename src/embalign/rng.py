"""Counter-based random streams, the one place the package draws from.

Every stream is a Philox generator (Salmon et al., "Random123", SC 2011)
keyed by (seed, purpose, index): the seed fills the first key word, the
purpose code the top 16 bits of the second and the index its low 48
bits. Distinct keys give independent streams, so each draw depends only
on its key, never on evaluation order or worker count. A stream is keyed
without drawing OS entropy: ``Philox`` takes its key words from a seed
sequence that returns them (``_key_type``), with its counter at 0.

Every purpose code is registered in ``Purpose``; ``unique`` rejects a
duplicate code at import time.
"""

from __future__ import annotations

import functools
import operator
from enum import IntEnum, unique

import numpy as np

_INDEX_BITS = 48


@unique
class Purpose(IntEnum):
    # synthetic worlds
    PLANTED = 0
    MEAN_A = 1
    NOISE_A = 2
    NOISE_X = 3
    MEAN_B = 4
    NOISE_B = 5
    ORACLE_ROTATION = 6
    # experiments
    SPLIT = 16
    PAIRS = 17
    SWEEP = 18
    ATTACK = 19


@functools.cache
def _key_type() -> type:
    """The seed sequence whose state, as ``Philox`` asks for it
    (``generate_state(2, np.uint64)``), is a stream's two uint64 key
    words. Made on first use, as importing ``numpy.random`` with this
    module would load it into every command, drawing or not."""
    from numpy.random.bit_generator import ISeedSequence

    class Key(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return Key


def check_seed(seed: int) -> int:
    """``seed`` as an int, by the one seed rule: TypeError for a value that
    is not an integer (a float would be truncated silently), ValueError
    for one outside [0, 2**64), the range of a stream's first key word."""
    seed = operator.index(seed)
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    return seed


def stream(seed: int, purpose: Purpose, index: int = 0) -> np.random.Generator:
    """The generator keyed by (seed, purpose, index).

    Raises what ``check_seed`` raises for the seed, TypeError for an
    index that is not an integer, and ValueError for an index outside
    [0, 2**48) or an unregistered purpose.
    """
    seed, index = check_seed(seed), operator.index(index)
    if not 0 <= index < 1 << _INDEX_BITS:
        raise ValueError(f"stream index must be in [0, 2**{_INDEX_BITS}), got {index}")
    key = np.array(
        [seed, (int(Purpose(purpose)) << _INDEX_BITS) | index], dtype=np.uint64
    )
    return np.random.Generator(np.random.Philox(_key_type()(key)))
