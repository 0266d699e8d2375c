"""Seeded random-number-generator plumbing.

Every stochastic component in the library (VBR sources, topology
generators, cluster-size draws in DSCT/NICE) accepts either a seed, an
existing :class:`numpy.random.Generator`, or ``None``.  :func:`ensure_rng`
normalises all three into a ``Generator`` so results are reproducible
when a seed is supplied and callers never have to care which form they
were handed.

:func:`spawn_rngs` derives independent child generators for parallel
sweeps (one child per sweep point) so that changing the number of sweep
points does not perturb the stream used by any individual point.
"""

from __future__ import annotations

from typing import Union

import numpy as np

#: The union of things we accept wherever randomness is needed.
RandomSource = Union[None, int, np.random.Generator, np.random.SeedSequence]


def ensure_rng(source: RandomSource = None) -> np.random.Generator:
    """Normalise ``source`` into a :class:`numpy.random.Generator`.

    ``None`` yields a fresh nondeterministic generator; an ``int`` or
    :class:`numpy.random.SeedSequence` seeds a new generator; an existing
    generator is returned unchanged.
    """
    if isinstance(source, np.random.Generator):
        return source
    if source is None:
        return np.random.default_rng()
    if isinstance(source, (int, np.integer)):
        return np.random.default_rng(int(source))
    if isinstance(source, np.random.SeedSequence):
        return np.random.default_rng(source)
    raise TypeError(
        "random source must be None, an int seed, a SeedSequence, or a "
        f"numpy Generator, got {type(source).__name__}"
    )


def spawn_rngs(source: RandomSource, count: int) -> list[np.random.Generator]:
    """Derive ``count`` statistically independent child generators.

    The children are stable functions of ``source`` and their index, so
    sweep point *i* sees the same stream regardless of how many other
    points run.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if isinstance(source, np.random.SeedSequence):
        seq = source
    elif isinstance(source, (int, np.integer)):
        seq = np.random.SeedSequence(int(source))
    elif source is None:
        seq = np.random.SeedSequence()
    elif isinstance(source, np.random.Generator):
        # Derive children deterministically from the generator's stream.
        seq = np.random.SeedSequence(source.integers(0, 2**63 - 1))
    else:
        raise TypeError(
            "random source must be None, an int seed, a SeedSequence, or a "
            f"numpy Generator, got {type(source).__name__}"
        )
    return [np.random.default_rng(child) for child in seq.spawn(count)]


def derive_seed(source: RandomSource, *tokens: object) -> int:
    """Derive a stable 63-bit seed from ``source`` and context tokens.

    Used to give independently seeded streams to named subsystems, e.g.
    ``derive_seed(seed, "dsct", group_index)``.
    """
    base = 0 if source is None else _source_entropy(source)
    h = 1469598103934665603  # FNV-1a offset basis
    # 64-bit FNV-1a over plain ints: masking is the uint64 wraparound.
    for token in (base, *tokens):
        for byte in repr(token).encode():
            h = ((h ^ byte) * 1099511628211) & 0xFFFFFFFFFFFFFFFF
    return h % (2**63 - 1)


def _source_entropy(source: RandomSource) -> int:
    if isinstance(source, (int, np.integer)):
        return int(source)
    if isinstance(source, np.random.SeedSequence):
        return int(np.asarray(source.entropy).flat[0])
    if isinstance(source, np.random.Generator):
        return int(source.integers(0, 2**63 - 1))
    raise TypeError(f"cannot derive entropy from {type(source).__name__}")
