"""Approximate model counting (ApproxMC-style backend).

Implements the hashing-based (ε, δ) counting algorithm of
Chakraborty–Meel–Vardi as engineered in ApproxMC2/4 (the tool the paper
calls):

1. pick ``m`` random XOR constraints over the projection variables — each
   constraint includes every projection variable independently with
   probability ½ plus a random parity bit — partitioning the solution space
   into ~``2^m`` cells;
2. count the cell containing up to ``thresh`` solutions (projected AllSAT
   with a cutoff);
3. find the ``m`` at which the cell size falls below ``thresh`` (galloping
   search seeded by the previous round's ``m``);
4. report ``cell_size × 2^m``, taking the median over ``t`` rounds.

The (ε, δ) guarantee is inherited from the published analysis:
``thresh = 1 + 9.84·(1 + ε/(1+ε))·(1 + 1/ε)²`` and a number of rounds that
grows with ``log(1/δ)``.  XOR constraints are CNF-encoded with a chain of
biconditionally defined parity auxiliaries, preserving the unique-extension
invariant, and cells are enumerated projected on the primary variables so the
auxiliaries never influence counts.

Cell search (:class:`CellSearch`).  The cells one round probes are nested —
``cell(m) ⊆ cell(m−1)`` — so they are sized incrementally rather than each
on a fresh copy of the CNF:

* **One solver per round.**  Each round (and the initial ``thresh`` check,
  a round without hashes) builds one :class:`~repro.sat.solver.Solver` over
  the base CNF.  XOR ``i`` is encoded the first time a probe needs
  ``m ≥ i``: its parity chain is added unguarded (the chain auxiliaries are
  defined, not constrained) and only the final parity clause is guarded by
  an activation literal ``act_i``.  Cell ``m`` is solved under the
  assumptions ``act_1 … act_m``.  A solver per *count* would be the wrong
  granularity: retired XOR chains and blocking clauses would slow every
  later propagation.
* **A per-count pool of found models.**  Every projected model found in the
  count is kept as an int bitmask over the projection.  Sizing ``cell(m)``
  first counts the pool members whose parities match XORs ``1 … m``, then
  blocks exactly those members in the round's solver and enumerates only
  new models, stopping at ``thresh`` or UNSAT.

Sizes stay exact: the pool holds only models of the CNF, a member is
counted iff it lies in the cell, and a blocking clause removes only pool
members, so the solver enumerates precisely the cell's models outside the
pool.  Every probe therefore returns ``min(|cell(m)|, thresh)``, as a
fresh AllSAT enumeration would, and the RNG draws are unchanged, so the
estimates are identical to the non-incremental search.
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from time import monotonic

from repro.counting.api import Capabilities
from repro.counting.exact import CounterTimeout
from repro.logic.cnf import CNF
from repro.sat.solver import SatResult, Solver


@dataclass(frozen=True)
class XorConstraint:
    """A parity constraint ``xor(variables) = rhs``."""

    variables: tuple[int, ...]
    rhs: bool

    def holds(self, assignment: dict[int, bool]) -> bool:
        parity = False
        for v in self.variables:
            parity ^= assignment[v]
        return parity == self.rhs


def random_xor(projection: Sequence[int], rng: random.Random) -> XorConstraint:
    """Draw one hash constraint: each variable with probability ½, random rhs."""
    chosen = tuple(v for v in projection if rng.random() < 0.5)
    return XorConstraint(chosen, rng.random() < 0.5)


def _xor_chain(
    variables: Sequence[int], new_var: Callable[[], int]
) -> tuple[list[tuple[int, ...]], int]:
    """The parity chain of a non-empty XOR: (definition clauses, output var).

    ``c₁ = x₁``, ``cᵢ = cᵢ₋₁ ⊕ xᵢ``; each ⊕ definition is four clauses and
    every auxiliary is biconditional, so unique extension is preserved.
    """
    clauses: list[tuple[int, ...]] = []
    prev = variables[0]
    for v in variables[1:]:
        parity = new_var()
        # parity ↔ prev ⊕ v
        clauses += [
            (-parity, prev, v),
            (-parity, -prev, -v),
            (parity, prev, -v),
            (parity, -prev, v),
        ]
        prev = parity
    return clauses, prev


def encode_xor(cnf: CNF, constraint: XorConstraint) -> None:
    """Append the CNF encoding of ``constraint`` to ``cnf`` in place.

    Uses a linear chain (:func:`_xor_chain`), asserting the final chain
    variable equal to the parity bit.
    """
    if not constraint.variables:
        if constraint.rhs:
            # xor() = 0, so requiring rhs=1 is unsatisfiable.
            fresh = cnf.new_var()
            cnf.add_clause((fresh,))
            cnf.add_clause((-fresh,))
        return
    clauses, out = _xor_chain(constraint.variables, cnf.new_var)
    for clause in clauses:
        cnf.add_clause(clause)
    cnf.add_clause((out,) if constraint.rhs else (-out,))


class CellSearch:
    """Sizes the nested hash cells of one ApproxMC round on one solver.

    ``pool`` is the count's list of projected models found so far, as
    bitmasks over ``projection`` (bit ``i`` is ``projection[i]``); the search
    reads it and appends every new model it finds.  See the module
    docstring for why :meth:`size` is exact.
    """

    def __init__(
        self,
        cnf: CNF,
        projection: Sequence[int],
        xors: Sequence[XorConstraint],
        pool: list[int],
        threshold: int,
    ) -> None:
        self._projection = projection
        self._xors = xors
        self._pool = pool
        self._threshold = threshold
        bit = {v: 1 << i for i, v in enumerate(projection)}
        #: (variable mask, parity bit) per hash, over the pool's bitmasks.
        self._hashes = [(sum(bit[v] for v in x.variables), x.rhs) for x in xors]
        self._solver = Solver(cnf.num_vars)
        for clause in cnf.clauses:
            self._solver.add_clause(clause)
        self._top_var = self._solver.num_vars
        #: Activation literal per encoded XOR; None for an empty XOR with
        #: rhs=False, which every assignment satisfies.
        self._acts: list[int | None] = []
        #: :meth:`_depth` of each pool member, filled in lazily.
        self._depths: list[int] = []
        self._blocked: set[int] = set()

    def _new_var(self) -> int:
        self._top_var += 1
        return self._top_var

    def _encode_next_xor(self) -> None:
        constraint = self._xors[len(self._acts)]
        if not constraint.variables:
            act = None
            if constraint.rhs:
                # xor() = 0: the cell is empty whenever the hash is active.
                act = self._new_var()
                self._solver.add_clause((-act,))
            self._acts.append(act)
            return
        clauses, out = _xor_chain(constraint.variables, self._new_var)
        for clause in clauses:
            self._solver.add_clause(clause)
        act = self._new_var()
        self._solver.add_clause((-act, out) if constraint.rhs else (-act, -out))
        self._acts.append(act)

    def _depth(self, model: int) -> int:
        """How many leading hashes of this round ``model`` satisfies."""
        for i, (mask, rhs) in enumerate(self._hashes):
            if ((model & mask).bit_count() & 1) != rhs:
                return i
        return len(self._hashes)

    def _block(self, index: int) -> None:
        self._blocked.add(index)
        model = self._pool[index]
        self._solver.add_clause(
            [-v if model >> i & 1 else v for i, v in enumerate(self._projection)]
        )

    def size(self, m: int) -> int:
        """``min(|cell(m)|, threshold)`` for the cell carved by XORs ``1 … m``."""
        pool, depths, threshold = self._pool, self._depths, self._threshold
        depths.extend(self._depth(model) for model in pool[len(depths):])
        members = [index for index, depth in enumerate(depths) if depth >= m]
        if len(members) >= threshold:
            return threshold
        for index in members:
            if index not in self._blocked:
                self._block(index)
        while len(self._acts) < m:
            self._encode_next_xor()
        assumptions = [act for act in self._acts[:m] if act is not None]
        size = len(members)
        solver = self._solver
        while size < threshold and solver.solve(assumptions) is SatResult.SAT:
            model = solver.model_bits(self._projection)
            pool.append(model)
            depths.append(self._depth(model))
            # An empty projection has one projected model; blocking it adds
            # the empty clause and leaves the solver UNSAT, as it should.
            self._block(len(pool) - 1)
            size += 1
        return size


def compute_threshold(epsilon: float) -> int:
    """Cell-size pivot from the ApproxMC analysis."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    return int(1 + 9.84 * (1 + epsilon / (1 + epsilon)) * (1 + 1 / epsilon) ** 2)


def compute_rounds(delta: float) -> int:
    """Number of median rounds for confidence 1 − δ (odd, ≥ 1).

    Uses the standard Chernoff-style bound ``t = ⌈17·log₂(3/δ)⌉`` from the
    ApproxMC papers, capped for practicality on a pure-Python stack; callers
    wanting the full published guarantee can pass ``rounds`` explicitly.
    """
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    t = math.ceil(17 * math.log2(3 / delta))
    t = min(t, 21)
    return t if t % 2 == 1 else t + 1


class ApproxMCCounter:
    """(ε, δ) approximate projected model counter."""

    name = "approxmc"
    #: (ε, δ) estimates: not portable across backends, hence not persisted.
    exact = False
    capabilities = Capabilities(
        exact=False,
        counts_formulas=False,
        supports_projection=True,
        owns_component_cache=False,
    )

    def __init__(
        self,
        epsilon: float = 0.8,
        delta: float = 0.2,
        seed: int | None = 0,
        rounds: int | None = None,
        deadline: float | None = None,
    ) -> None:
        self.epsilon = epsilon
        self.delta = delta
        self.threshold = compute_threshold(epsilon)
        self.rounds = rounds if rounds is not None else compute_rounds(delta)
        self.deadline = deadline
        self._deadline_at: float | None = None
        self._rng = random.Random(seed)

    def _check_deadline(self) -> None:
        # Probed between cell enumerations (the unit of work here), so the
        # abort granularity is one bounded AllSAT call, not one round.
        if self._deadline_at is not None and monotonic() > self._deadline_at:
            raise CounterTimeout(f"exceeded {self.deadline}s wall-clock deadline")

    def count(self, cnf: CNF) -> int:
        """Approximate number of projected models."""
        self._deadline_at = (
            monotonic() + self.deadline if self.deadline is not None else None
        )
        projection = sorted(cnf.projected_vars())
        # Every projected model found during this count, shared by its rounds.
        pool: list[int] = []
        # Quick exit: fewer than `threshold` solutions are counted exactly.
        exact_small = CellSearch(cnf, projection, (), pool, self.threshold).size(0)
        if exact_small < self.threshold:
            return exact_small

        estimates: list[int] = []
        prev_m = 0
        for _ in range(self.rounds):
            estimate, prev_m = self._one_round(cnf, projection, pool, prev_m)
            if estimate is not None:
                estimates.append(estimate)
        if not estimates:
            raise RuntimeError("all ApproxMC rounds failed to converge")
        estimates.sort()
        return estimates[len(estimates) // 2]

    # -- internals -----------------------------------------------------------------

    def _one_round(
        self, cnf: CNF, projection: Sequence[int], pool: list[int], prev_m: int
    ) -> tuple[int | None, int]:
        """One ApproxMCCore invocation: returns (estimate or None, final m)."""
        max_m = len(projection)
        xors = [random_xor(projection, self._rng) for _ in range(max_m)]
        cells = CellSearch(cnf, projection, xors, pool, self.threshold)

        def small_enough(m: int) -> tuple[bool, int]:
            self._check_deadline()
            size = cells.size(m)
            return size < self.threshold, size

        # Galloping search for the frontier m*: cell(m*) < thresh ≤ cell(m*-1).
        m = min(max(prev_m, 1), max_m)
        ok, size = small_enough(m)
        if ok:
            # Walk down until the cell saturates again.  When the walk
            # reaches m = 1, ``size`` already holds cell(1) — either from
            # the initial probe (m started at 1) or from the last
            # successful ``small_enough(m - 1)`` — so no re-enumeration.
            while m > 1:
                ok_below, size_below = small_enough(m - 1)
                if ok_below:
                    m -= 1
                    size = size_below
                else:
                    break
            return size * (1 << m), m
        # Walk up until the cell becomes small.
        while m < max_m:
            m += 1
            ok, size = small_enough(m)
            if ok:
                return size * (1 << m), m
        return None, prev_m


def approx_count(
    cnf: CNF,
    epsilon: float = 0.8,
    delta: float = 0.2,
    seed: int | None = 0,
) -> int:
    """One-shot approximate projected model count."""
    return ApproxMCCounter(epsilon=epsilon, delta=delta, seed=seed).count(cnf)
