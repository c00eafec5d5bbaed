"""Positive enumeration and negative sampling."""

from __future__ import annotations

import numpy as np

from repro.counting.brute import MAX_BRUTE_VARS, iter_assignment_blocks
from repro.data.dataset import Dataset
from repro.sat.enumerate import enumerate_as_bits
from repro.spec.matrices import bits_to_matrices, property_mask
from repro.spec.properties import Property
from repro.spec.symmetry import SymmetryBreaking
from repro.spec.translate import translate


def enumerate_positive_bits(
    prop: Property,
    scope: int,
    symmetry: SymmetryBreaking | None = None,
    limit: int | None = None,
    method: str = "auto",
) -> np.ndarray:
    """All positive samples at the scope, as a (count, scope²) uint8 array.

    ``method`` selects the enumerator: ``"brute"`` sweeps the whole space
    with the vectorised evaluators (scopes with ≤ ``MAX_BRUTE_VARS`` bits),
    ``"sat"`` runs projected AllSAT on the compiled CNF, ``"auto"`` picks
    brute force whenever legal.  Both produce the identical set (tested);
    order is the numeric sweep order or solver order respectively — callers
    must not rely on it, mirroring the paper's remark that solution order is
    irrelevant because training rows are sampled randomly.
    """
    m = scope * scope
    if method == "auto":
        method = "brute" if m <= MAX_BRUTE_VARS else "sat"
    if method == "brute":
        if m > MAX_BRUTE_VARS:
            raise ValueError(f"scope {scope} too large for brute-force enumeration")
        mask_fn = property_mask(prop.oracle)
        chunks: list[np.ndarray] = []
        found = 0
        for block in iter_assignment_blocks(m):
            keep = mask_fn(bits_to_matrices(block, scope))
            if symmetry is not None:
                keep &= symmetry.mask(block, scope)
            if keep.any():
                rows = block[keep]
                if limit is not None and found + len(rows) > limit:
                    rows = rows[: limit - found]
                chunks.append(rows.astype(np.uint8))
                found += len(rows)
                if limit is not None and found >= limit:
                    break
        if not chunks:
            return np.zeros((0, m), dtype=np.uint8)
        return np.concatenate(chunks, axis=0)
    if method == "sat":
        problem = translate(prop, scope, symmetry=symmetry)
        rows = [
            bits
            for bits in enumerate_as_bits(
                problem.cnf, problem.primary_vars, limit=limit
            )
        ]
        if not rows:
            return np.zeros((0, m), dtype=np.uint8)
        return np.array(rows, dtype=np.uint8)
    raise ValueError(f"unknown enumeration method {method!r}")


def row_keys(rows: np.ndarray) -> np.ndarray:
    """The rows of a C-contiguous 2-D uint8 array as a 1-D array of opaque
    byte strings.

    ``np.unique`` on this view finds the same first occurrences as
    ``np.unique(rows, axis=0)`` — equal rows are equal items — but sorts
    fixed-width byte strings instead of comparing rows column by column,
    which is several times faster.
    """
    return rows.view(np.dtype((np.void, rows.shape[1]))).ravel()


def sample_negative_bits(
    prop: Property,
    scope: int,
    count: int,
    rng: np.random.Generator | int | None = 0,
    exclude: np.ndarray | None = None,
    max_batches: int = 10_000,
) -> np.ndarray:
    """Rejection-sample ``count`` distinct negative examples.

    Candidates are uniform random bit matrices; each is screened with the
    vectorised evaluator (the Alloy-Evaluator step — no solving).  Rows in
    ``exclude`` and duplicates are dropped so the dataset never contains a
    mislabelled or repeated sample.
    """
    rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
    m = scope * scope
    mask_fn = property_mask(prop.oracle)
    # Dedup state is kept bit-packed: np.unique over packed rows replaces
    # the per-row Python loop + tobytes() set, and seeding ``seen`` with the
    # packed ``exclude`` rows preserves the exclusion semantics.
    if exclude is not None:
        seen = np.packbits(
            np.asarray(exclude, dtype=np.uint8), axis=1
        )
    else:
        seen = np.zeros((0, (m + 7) // 8), dtype=np.uint8)
    collected: list[np.ndarray] = []
    remaining = count
    batch_size = max(256, 2 * count)
    for _ in range(max_batches):
        if remaining <= 0:
            break
        candidates = (rng.random((batch_size, m)) < 0.5).astype(np.uint8)
        negatives = candidates[~mask_fn(bits_to_matrices(candidates, scope))]
        if len(negatives) == 0:
            continue
        packed = np.packbits(negatives, axis=1)
        # First occurrence of each row across `seen ++ batch`, in one
        # vectorised pass; rows whose first occurrence lies in the batch
        # are new, and sorting their indices keeps first-seen order.
        _, first_index = np.unique(
            row_keys(np.concatenate([seen, packed], axis=0)), return_index=True
        )
        new_index = np.sort(first_index[first_index >= len(seen)] - len(seen))
        if len(new_index) > remaining:
            new_index = new_index[:remaining]
        if len(new_index) == 0:
            continue
        collected.append(negatives[new_index])
        seen = np.concatenate([seen, packed[new_index]], axis=0)
        remaining -= len(new_index)
    if remaining > 0:
        raise RuntimeError(
            f"could not sample {count} distinct negatives at scope {scope} "
            f"(the negative space may be too small)"
        )
    return np.concatenate(collected, axis=0)


def generate_dataset(
    prop: Property,
    scope: int,
    symmetry: SymmetryBreaking | None = None,
    negative_ratio: float = 1.0,
    max_positives: int | None = None,
    rng: np.random.Generator | int | None = 0,
    method: str = "auto",
) -> Dataset:
    """Build a labelled dataset for one property.

    ``negative_ratio`` is #negatives / #positives — 1.0 reproduces the
    paper's balanced sets; Table 9's class-ratio sweep varies it.
    ``max_positives`` caps the bounded-exhaustive set (stratified subsample)
    to keep the pure-Python pipeline fast at larger scopes.
    """
    if negative_ratio <= 0:
        raise ValueError("negative_ratio must be positive")
    rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
    positives = enumerate_positive_bits(prop, scope, symmetry=symmetry, method=method)
    if len(positives) == 0:
        raise RuntimeError(f"{prop.name} has no solutions at scope {scope}")
    if max_positives is not None and len(positives) > max_positives:
        chosen = rng.choice(len(positives), size=max_positives, replace=False)
        positives = positives[chosen]
    n_negative = max(1, round(negative_ratio * len(positives)))
    # At toy scopes the negative space itself can be tiny (e.g. only 3
    # non-transitive relations exist at scope 2); cap the request at the
    # exact number of negatives in existence.
    from repro.counting.oracles import closed_form_count

    available = (1 << (scope * scope)) - closed_form_count(prop.oracle, scope)
    if available <= 0:
        raise RuntimeError(f"{prop.name} has no negative examples at scope {scope}")
    n_negative = min(n_negative, available)
    negatives = sample_negative_bits(
        prop, scope, n_negative, rng=rng, exclude=None
    )
    X = np.concatenate([positives, negatives], axis=0)
    y = np.concatenate(
        [np.ones(len(positives), dtype=np.int64), np.zeros(len(negatives), dtype=np.int64)]
    )
    order = rng.permutation(len(X))
    return Dataset(
        X=X[order],
        y=y[order],
        scope=scope,
        property_name=prop.name,
        symmetry=symmetry.kind if symmetry is not None else None,
    )
