"""Fault-model configuration.

The model realizes the paper's operation-level fault abstraction: a soft
error flips one bit of a register involved in one primitive operation
(multiply or add) of the convolution/GEMM datapath.

Semantics
---------
``PAPER`` (default) flips *operation result registers*, with register
widths taken from the fixed-point datapath the paper assumes:

* **Multiplication faults** flip one bit of the product-result register,
  which is ``2 * width`` bits wide (a W x W multiplier produces a 2W-bit
  product).  High product bits reach the magnitude of whole-layer
  accumulations, so multiplication faults are the dominant error class —
  the paper's central observation, and the property Winograd exploits by
  executing 2.25x fewer multiplications.
* **Addition faults** flip one bit of the sum register.  Sum registers are
  ``width + acc_guard`` bits at the native LSB, capped to the stage's
  actual dynamic range, so addition faults inject bounded low-order noise.

``RESULT_ALL`` is an ablation that gives multiplications the same
register width as additions (no wide product register); the benchmark
``benchmarks/bench_ablation_semantics.py`` quantifies how the paper's
conclusions depend on this modeling choice.

Bit-error-rate convention
-------------------------
``PER_BIT`` (default): the BER is the per-bit flip probability, so a
category with ``n`` ops of exposure ``w`` bits each sees
``lambda = ber * n * w`` expected faults.  ``PER_OP`` treats the BER as a
per-operation probability (``lambda = ber * n``).  The paper's phrasing
("probability of a bit flip in an operation") is compatible with either;
PER_BIT additionally explains why int16 models degrade earlier than int8
ones at the same BER (twice the exposed bits), which Fig. 2 reports.

RNG schemes
-----------
``RNG_STREAM`` (default, legacy): both injectors pull every draw from one
sequential PCG64 stream, so a result depends on the *order* in which
sites are visited — the scheme the frozen PR 2/3 parity references were
recorded under.  ``RNG_COUNTER``: every draw is a pure function of
``(campaign seed, layer, site, sample chunk)`` via keyed Philox streams
(:func:`repro.utils.rng.site_rng`); event counts and coordinates are
sampled per fixed-size chunk of ``chunk_samples`` evaluation samples, so
any partition of the sample set — slice sizes, batch sizes, worker
counts — reproduces bit-identical faults.  The two schemes realize the
same statistical fault model (identical per-category lambda), but their
Monte-Carlo draws differ, so a campaign's scheme is part of its identity
(checkpoint keys and result caches never mix schemes).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.errors import FaultModelError

__all__ = [
    "FaultSemantics",
    "BerConvention",
    "FaultModelConfig",
    "RNG_STREAM",
    "RNG_COUNTER",
]

#: Legacy sequential-stream sampling (order-dependent draws).
RNG_STREAM = "stream"
#: Counter-based, site-keyed sampling (partition-invariant draws).
RNG_COUNTER = "counter"


class FaultSemantics(Enum):
    """How a fault event perturbs an operation."""

    PAPER = "paper"
    RESULT_ALL = "result_all"


class BerConvention(Enum):
    """What probability the bit error rate denotes."""

    PER_BIT = "per_bit"
    PER_OP = "per_op"


@dataclass(frozen=True)
class FaultModelConfig:
    """Tunable parameters of the operation-level fault model.

    Attributes
    ----------
    semantics:
        Operand-amplified multiplies (``PAPER``) or pure result flips.
    convention:
        Per-bit or per-operation BER.
    max_events_per_category:
        Safety cap on sampled events per (layer, category, batch); BERs past
        the accuracy cliff can request millions of events whose effect
        saturates long before that.  Under the counter scheme the cap
        applies per (layer, site, chunk) — the unit a Poisson count is
        drawn for — which keeps capping itself partition-invariant.  When
        it binds, the injector's ``capped`` flag is set and nothing else
        happens: no campaign reads the flag or warns, and the cap does
        bias high-BER points (the two schemes cap at different
        granularity, so their curves can disagree there).  Making the
        cap's unit explicit and surfacing it is an open ROADMAP item
        under "Retire the stream RNG scheme".
    rng_scheme:
        ``RNG_STREAM`` (default) or ``RNG_COUNTER``; see the module docs.
        Only the counter scheme supports sample-level sharding
        (:func:`repro.faultsim.campaign.evaluate_sample_slice`).
    chunk_samples:
        Counter-scheme sampling granularity: Poisson event counts and
        fault coordinates are drawn per chunk of this many consecutive
        evaluation samples.  Part of a counter campaign's identity (a
        different chunking is a different Monte-Carlo draw); irrelevant
        under the stream scheme.
    """

    semantics: FaultSemantics = FaultSemantics.PAPER
    convention: BerConvention = BerConvention.PER_BIT
    max_events_per_category: int = 20_000
    #: When True, Winograd input-transform addition faults are propagated
    #: with full physical fidelity: the corrupted ``U`` element multiplies
    #: the transformed weights and fans out to every output channel of its
    #: tile.  The paper's model (and the default) treats every addition as a
    #: small perturbation of the additive chain it belongs to; the amplified
    #: variant is an ablation (``benchmarks/bench_ablation_semantics.py``)
    #: showing how strongly the Winograd advantage depends on this choice.
    amplify_input_transform_adds: bool = False
    rng_scheme: str = RNG_STREAM
    chunk_samples: int = 8

    def __post_init__(self) -> None:
        if self.max_events_per_category < 1:
            raise FaultModelError("max_events_per_category must be >= 1")
        if self.rng_scheme not in (RNG_STREAM, RNG_COUNTER):
            raise FaultModelError(
                f"rng_scheme must be '{RNG_STREAM}' or '{RNG_COUNTER}', "
                f"got {self.rng_scheme!r}"
            )
        if self.chunk_samples < 1:
            raise FaultModelError("chunk_samples must be >= 1")

    def rng_identity(self) -> dict:
        """RNG-scheme fields that belong in a campaign's content identity.

        Empty at the stream default — the scheme fields postdate the
        stream-era checkpoint keys and curve caches, so omitting them
        keeps every historical key valid; any other scheme contributes
        both the scheme and its chunking (a different chunking is a
        different Monte-Carlo draw).  The single source of truth for
        checkpoint hashing (:func:`repro.runtime.hashing.campaign_fingerprint`)
        and the figure curve cache.
        """
        if self.rng_scheme == RNG_STREAM:
            return {}
        return {"rng_scheme": self.rng_scheme, "chunk_samples": self.chunk_samples}

    def exposure_bits(self, is_mul: bool, data_width: int, acc_width: int) -> int:
        """Bits of state exposed per operation for lambda computation.

        A multiplier exposes its two operand latches (``2 * width`` bits);
        an adder exposes its sum register (``acc_width`` bits).  Under
        ``RESULT_ALL`` semantics multiplies expose a single result register
        of ``acc_width`` bits instead.
        """
        if self.convention is BerConvention.PER_OP:
            return 1
        if is_mul and self.semantics is FaultSemantics.PAPER:
            return 2 * data_width
        return acc_width
