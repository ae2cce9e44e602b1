"""Sparse complex vectors over the edge-configuration basis.

A configuration assigns every edge a group element, stored as one packed
index per edge (mixed radix inside the index). A state is a pair of arrays:
an (N, n_edges) uint8 matrix of configurations and the N complex amplitudes,
kept deduplicated and sorted by the row bytes so that every reduction runs
in a canonical order.

No check builds a state: Ω, the states built on it and their linear
algebra are test oracles (tests/oracles.py). This module stays in the
package only because the benchmark's traced pass (perfbench/spans.py) wraps
``SparseState.from_terms`` and ``OpSum.apply`` by name.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PRUNE_TOL = 1e-12  # relative to the largest input term of from_terms


@dataclass(frozen=True)
class SparseState:
    """Immutable sparse vector; `configs` rows are unique and sorted."""

    configs: np.ndarray  # (N, n_edges) uint8
    amps: np.ndarray  # (N,) complex128
    n_edges: int
    radix: int  # group order; every entry lies in [0, radix)

    @staticmethod
    def zero(n_edges: int, radix: int) -> "SparseState":
        return SparseState(
            np.zeros((0, n_edges), dtype=np.uint8),
            np.zeros(0, dtype=np.complex128),
            n_edges,
            radix,
        )

    @staticmethod
    def from_terms(
        configs: np.ndarray, amps: np.ndarray, n_edges: int, radix: int, prune: float = PRUNE_TOL
    ) -> "SparseState":
        """Canonicalize arbitrary (possibly duplicated) terms. Sums below
        `prune` times the largest input term are dropped: exact and
        rounding-level cancellations vanish, while terms that nearly cancel
        to a small but real amplitude stay, however small the state's
        amplitudes are."""
        configs = np.ascontiguousarray(np.asarray(configs, dtype=np.uint8).reshape(-1, n_edges))
        amps = np.asarray(amps, dtype=np.complex128).ravel()
        if len(amps) == 0:
            return SparseState.zero(n_edges, radix)
        keys = configs.view(np.dtype((np.void, n_edges))).ravel()
        uniq, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        acc = np.zeros(len(uniq), dtype=np.complex128)
        np.add.at(acc, inverse, amps)
        keep = np.abs(acc) > prune * np.max(np.abs(amps))
        return SparseState(
            np.ascontiguousarray(configs[first][keep]), acc[keep], n_edges, radix
        )

    @property
    def n_terms(self) -> int:
        return len(self.amps)
