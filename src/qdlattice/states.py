"""Sparse complex vectors over the edge-configuration basis.

A configuration assigns every edge a group element, stored as one packed
index per edge (mixed radix inside the index). A state is a pair of arrays:
an (N, n_edges) uint8 matrix of configurations and the N complex amplitudes,
kept deduplicated and sorted by the row bytes so that every reduction runs
in a canonical order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

PRUNE_TOL = 1e-12
SPAN_TOL = 1e-9


def _row_keys(configs: np.ndarray) -> np.ndarray:
    buf = np.ascontiguousarray(configs.astype(np.uint8, copy=False))
    return buf.view(np.dtype((np.void, buf.shape[1]))).ravel()


@dataclass(frozen=True)
class SparseState:
    """Immutable sparse vector; `configs` rows are unique and sorted."""

    configs: np.ndarray  # (N, n_edges) uint8
    amps: np.ndarray  # (N,) complex128
    n_edges: int
    radix: int  # group order; every entry lies in [0, radix)

    def keys(self) -> np.ndarray:
        """Row byte-keys, cached (rows are unique and sorted already)."""
        cached = getattr(self, "_keys", None)
        if cached is None:
            cached = _row_keys(self.configs)
            object.__setattr__(self, "_keys", cached)
        return cached

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
        """Canonicalize arbitrary (possibly duplicated) terms."""
        configs = np.asarray(configs, dtype=np.uint8).reshape(-1, n_edges)
        amps = np.asarray(amps, dtype=np.complex128).ravel()
        if len(amps) == 0:
            return SparseState.zero(n_edges, radix)
        keys = _row_keys(configs)
        uniq, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        acc = np.zeros(len(uniq), dtype=np.complex128)
        np.add.at(acc, inverse, amps)
        keep = np.abs(acc) >= prune
        return SparseState(
            np.ascontiguousarray(configs[first][keep]), acc[keep], n_edges, radix
        )

    @staticmethod
    def basis(config: Sequence[int], radix: int) -> "SparseState":
        row = np.asarray(config, dtype=np.uint8).reshape(1, -1)
        return SparseState(row, np.ones(1, dtype=np.complex128), row.shape[1], radix)

    # -- linear structure ------------------------------------------------------

    @property
    def n_terms(self) -> int:
        return len(self.amps)

    def is_zero(self) -> bool:
        return self.n_terms == 0

    def scaled(self, c: complex) -> "SparseState":
        return SparseState(self.configs, self.amps * c, self.n_edges, self.radix)

    def add(self, other: "SparseState") -> "SparseState":
        self._check(other)
        return SparseState.from_terms(
            np.concatenate([self.configs, other.configs]),
            np.concatenate([self.amps, other.amps]),
            self.n_edges,
            self.radix,
        )

    def sub(self, other: "SparseState") -> "SparseState":
        return self.add(other.scaled(-1.0))

    def _check(self, other: "SparseState") -> None:
        if (self.n_edges, self.radix) != (other.n_edges, other.radix):
            raise ValueError("states live on different lattices or groups")

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amps) ** 2)))

    def normalized(self) -> "SparseState":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return self.scaled(1.0 / n)


def inner(psi: SparseState, phi: SparseState) -> complex:
    """<psi|phi>, conjugate-linear in the first argument."""
    psi._check(phi)
    if psi.is_zero() or phi.is_zero():
        return 0.0 + 0.0j
    _, i1, i2 = np.intersect1d(psi.keys(), phi.keys(), assume_unique=True, return_indices=True)
    if len(i1) == 0:
        return 0.0 + 0.0j
    return complex(np.sum(np.conj(psi.amps[i1]) * phi.amps[i2]))


def gram_matrix(vectors: Sequence[SparseState]) -> np.ndarray:
    """Hermitian Gram matrix over a shared support index (sparse product)."""
    import scipy.sparse as sp

    vecs = list(vectors)
    if not vecs:
        return np.zeros((0, 0), dtype=np.complex128)
    all_keys = np.unique(np.concatenate([v.keys() for v in vecs]))
    indptr = [0]
    indices = []
    data = []
    for v in vecs:
        cols = np.searchsorted(all_keys, v.keys())
        indices.append(cols)
        data.append(v.amps)
        indptr.append(indptr[-1] + len(cols))
    m = sp.csr_matrix(
        (np.concatenate(data), np.concatenate(indices), np.array(indptr)),
        shape=(len(vecs), len(all_keys)),
    )
    return np.asarray((m @ m.conj().T).todense())


def orthonormal_coeffs(
    vectors: Iterable[SparseState], tol: float = SPAN_TOL
) -> tuple[list[SparseState], np.ndarray]:
    """Modified Gram-Schmidt with coefficient tracking: an orthonormal basis
    b, dropping vectors whose residual norm is < tol, and the matrix R with
    vectors[i] = sum_k R[i, k] b[k] up to those dropped residuals."""
    basis: list[SparseState] = []
    cols: list[list[complex]] = []
    for v in vectors:
        w, col = v, [0j] * len(basis)
        # the second sweep keeps the basis orthonormal to working precision;
        # an exactly zero overlap (disjoint supports) leaves w unchanged
        for _ in range(2):
            for k, b in enumerate(basis):
                c = inner(b, w)
                if c:
                    col[k] += c
                    w = w.sub(b.scaled(c))
        nrm = w.norm()
        if nrm >= tol:
            basis.append(w.scaled(1.0 / nrm))
            col.append(nrm)
        cols.append(col)
    coeffs = np.zeros((len(cols), len(basis)), dtype=np.complex128)
    for i, col in enumerate(cols):
        coeffs[i, : len(col)] = col
    return basis, coeffs
