"""Inference-pipeline configuration, including ablation switches."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cln.model import GCLNConfig


@dataclass
class InferenceConfig:
    """Knobs for the end-to-end pipeline.

    The four boolean switches correspond to the columns of the paper's
    Table 3 ablation; everything defaults to the full method.
    """

    # Ablation switches (Table 3).
    data_normalization: bool = True
    weight_regularization: bool = True
    term_dropout: bool = True
    fractional_sampling: bool = True

    # Retry schedule: dropout rates tried across attempts (the paper
    # adjusts the rate by 0.1 per failed attempt).
    dropout_schedule: tuple[float, ...] = (0.6, 0.7, 0.5, 0.75)
    # Random seeds paired with attempts (cycled).
    seeds: tuple[int, ...] = (1, 2, 3, 4)

    # Training budget per attempt.
    max_epochs: int = 2000
    # Fractional-sampling interval schedule (§5.4: 0.5, then 0.25, ...).
    fractional_intervals: tuple[float, ...] = (0.5, 0.25)

    # Batched retries: after the first attempt (which always runs alone,
    # preserving the fast path for problems solved immediately), up to
    # this many consecutive same-interval attempts train simultaneously
    # as stacked restarts in one taped graph (cln.train_gcln_restarts).
    # 1 disables grouping.
    attempt_batch_size: int = 2
    # Memoize checker verdicts across attempts: reachability per atom,
    # inductiveness per (atom, premise set) with monotone reuse.  The
    # candidate pool grows cumulatively across attempts, so without
    # this every retry re-checks every previously validated atom.
    checker_memoization: bool = True

    # Base G-CLN hyperparameters (copied per attempt with the dropout
    # rate and ablation switches applied).
    gcln: GCLNConfig = field(default_factory=GCLNConfig)

    # Term-filtering caps.
    growth_ratio_cap: float = 1e8

    def __post_init__(self) -> None:
        # An empty schedule would run zero attempts (or divide by zero
        # cycling seeds) instead of solving.
        for name in ("dropout_schedule", "seeds"):
            if not getattr(self, name):
                raise ValueError(f"{name} must not be empty")

    def gcln_for_attempt(self, dropout_rate: float) -> GCLNConfig:
        """GCLNConfig for one attempt, honoring ablation switches."""
        from dataclasses import replace

        rate = dropout_rate if self.term_dropout else 0.0
        return replace(
            self.gcln,
            dropout_rate=rate,
            weight_regularization=self.weight_regularization,
            max_epochs=self.max_epochs,
        )
