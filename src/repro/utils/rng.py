"""Deterministic random-number-generator plumbing.

Fault-injection experiments are Monte-Carlo simulations; reproducibility
requires that every stochastic component draw from an explicitly seeded
:class:`numpy.random.Generator`.  This module centralizes the conventions:

* :func:`as_rng` normalizes ``None`` / ``int`` / ``Generator`` arguments.
* :func:`spawn_rng` derives an independent child stream from a parent, keyed
  by a string label, so that e.g. per-layer fault sampling is decorrelated
  but still reproducible.
* :class:`RngFactory` hands out named, independent streams from one seed.
* :func:`site_rng` builds a **counter-based** stream: a Philox generator
  that is a pure function of ``(seed, *labels)``.  Unlike a sequential
  stream, two call sites keyed by different labels can draw in any order —
  or on different processes — and always see the same values, which is what
  makes fault sampling partition-invariant (see
  :mod:`repro.faultsim.sampling`).
* :func:`site_key` is the key derivation behind :func:`site_rng`, memoized:
  hot callers re-key one long-lived Philox generator with it instead of
  building a fresh generator per stream.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

__all__ = ["as_rng", "spawn_rng", "site_key", "site_rng", "RngFactory"]

_MASK64 = (1 << 64) - 1

#: Domain-separation constant so site streams can never collide with other
#: SeedSequence users of the same integer seed.
_SITE_DOMAIN = 0x5749_4E4F_4641_554C  # "WINOFAUL"


def as_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``None`` yields a fresh OS-entropy generator, an ``int`` yields a seeded
    PCG64 generator, and an existing generator is returned unchanged.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


@functools.lru_cache(maxsize=4096)
def _label_to_int(label: str) -> int:
    """Hash ``label`` into a stable 64-bit integer.

    Memoized: the fault samplers re-key streams with the same small set
    of layer/site labels once per sample chunk per forward pass, which
    would otherwise repeat the SHA-256 on the hot injection path.
    """
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


@functools.lru_cache(maxsize=4096)
def site_key(seed: int, *labels: int | str) -> np.ndarray:
    """Philox key of the counter-based stream named ``(seed, *labels)``.

    Returns a read-only ``(2,)`` uint64 array: the key a
    ``Philox(seed=SeedSequence([domain, seed, *labels]))`` generator would
    draw, with string labels hashed stably (SHA-256) and integer labels
    used directly.  A Philox generator at counter 0 under this key is the
    stream :func:`site_rng` returns, so re-keying an existing generator
    through its ``state`` reproduces that stream draw for draw.

    Memoized (at most 4096 keys, least recently used evicted first): the
    fault samplers re-key a stream once per (seed, layer, site, chunk) per
    forward pass, and golden-run replay probes each chunk before drawing
    it, so the ``SeedSequence`` derivation would otherwise repeat on the
    hot injection path.
    """
    entropy = [_SITE_DOMAIN, int(seed) & _MASK64]
    for label in labels:
        if isinstance(label, str):
            entropy.append(_label_to_int(label))
        else:
            entropy.append(int(label) & _MASK64)
    key = np.random.SeedSequence(entropy).generate_state(2, np.uint64)
    key.flags.writeable = False
    return key


def site_rng(seed: int, *labels: int | str) -> np.random.Generator:
    """Counter-based keyed stream: a generator fully determined by its key.

    Returns a Philox-backed :class:`numpy.random.Generator` whose state is
    a pure function of ``(seed, labels)`` — no global state, no draw-order
    coupling between different keys.  String labels are hashed stably
    (SHA-256), integer labels are used directly, so
    ``site_rng(s, "layer3", "wg_mul", 7)`` names one independent stream per
    (seed, layer, category, chunk) tuple; the key is :func:`site_key`.

    This is the primitive behind the fault injectors' ``"counter"`` RNG
    scheme: because every draw is keyed by *what* is being sampled instead
    of *when*, splitting an evaluation batch across workers cannot shift
    any draw.  Only the stream is keyed: the generator's own
    ``bit_generator.seed_seq`` is not, so derive child streams with more
    labels rather than ``spawn``.
    """
    return np.random.Generator(np.random.Philox(key=site_key(seed, *labels)))


def spawn_rng(parent: np.random.Generator, label: str) -> np.random.Generator:
    """Derive an independent child generator from ``parent`` keyed by ``label``.

    The child is seeded from fresh draws of the parent combined with a hash
    of the label, so distinct labels produce decorrelated streams while the
    (parent seed, label) pair fully determines the child.
    """
    mix = int(parent.integers(0, 2**63 - 1))
    return np.random.default_rng((mix, _label_to_int(label)))


class RngFactory:
    """Produce named, independent random streams from a single root seed.

    Repeated requests for the same name return *new* generators seeded
    identically, so components may re-request their stream without sharing
    mutable state.

    Example
    -------
    >>> factory = RngFactory(1234)
    >>> a = factory.get("layer0")
    >>> b = factory.get("layer0")
    >>> float(a.random()) == float(b.random())
    True
    """

    def __init__(self, seed: int):
        if not isinstance(seed, (int, np.integer)):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        self._seed = int(seed)

    @property
    def seed(self) -> int:
        """The root seed this factory was constructed with."""
        return self._seed

    def get(self, name: str) -> np.random.Generator:
        """Return a generator deterministically keyed by ``(seed, name)``."""
        return np.random.default_rng((self._seed, _label_to_int(name)))

    def __repr__(self) -> str:
        return f"RngFactory(seed={self._seed})"
