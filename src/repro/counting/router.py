"""The ``composite`` backend: route each problem to the counter that suits it.

MCML's workload mixes three problem shapes with three different best
backends: auxiliary-free region formulas (decision-tree regions, BNN
output boxes) compile to small d-DNNF circuits and count fastest on
``compiled``; hard aux-bearing conjunctions (property ∧ Tseitin-encoded
paths) need the component-caching DPLL search of ``exact``; and problems
past a size threshold are only tractable as (ε, δ) estimates on
``approxmc``.  Pre/post-counting systems for relational model discovery
make the same move — pick the counting strategy per query shape rather
than globally (Mar & Schulte, PAPERS.md).

:class:`CompositeCounter` is that dispatcher as a first-class registered
backend.  It declares ``Capabilities(routes=True)`` and exposes
``route(cnf) -> Route``, so the engine *asks* where a problem goes
instead of sniffing, and every decision is inspectable three ways:

* the :class:`Route` itself (rule name, target backend, capabilities);
* provenance on the result — ``CountResult.routed_to`` names the target,
  ``epsilon``/``delta`` ride along when the approx route fired;
* per-route counters on :class:`~repro.counting.api.EngineStats`
  (``route_exact`` / ``route_compiled`` / ``route_approx``).

The rules are ordered and declarative (:data:`ROUTING_RULES` renders as
the ``mcml --list-backends`` routing table):

1. ``oversized`` — more variables than ``oversize_vars`` → ``approxmc``.
   Refused outright when the caller demanded exactness
   (``precision="exact"``, or any per-path sub-problem): an estimate
   must never masquerade as an exact count, so the refusal is a
   ``ValueError`` at routing time, not a silent downgrade.
2. ``aux-free`` — no variables outside the projection → ``compiled``.
3. ``aux`` — everything else → ``exact``.

The router owns one instance of each target backend; the engine installs
its shared component cache through the :attr:`component_cache` property
(delegated to the ``exact`` sub-backend, the only route that uses one).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.counting.api import Capabilities
from repro.logic.cnf import CNF

__all__ = [
    "ROUTING_RULES",
    "CompositeCounter",
    "Route",
    "RoutingRule",
]


@dataclass(frozen=True)
class RoutingRule:
    """One declarative dispatch rule: predicate → target backend.

    ``name`` labels the rule in routing tables and provenance; ``target``
    is the registered backend name the rule dispatches to;
    ``stats_field`` the :class:`~repro.counting.api.EngineStats` counter
    the engine bumps when the rule fires; ``description`` the
    human-readable predicate for ``mcml --list-backends``.  ``matches``
    is the predicate itself — a pure function of the CNF, so a routing
    decision is reproducible from the problem alone.
    """

    name: str
    target: str
    stats_field: str
    description: str
    matches: Callable[[CNF, "CompositeCounter"], bool]


@dataclass(frozen=True)
class Route:
    """A routing decision: which rule fired and the counter it chose.

    ``capabilities`` are the *target* backend's — the engine builds
    result provenance (exactness, ε/δ) from these, not from the
    router's own declaration.
    """

    rule: RoutingRule
    counter: object
    capabilities: Capabilities


def _is_oversized(cnf: CNF, router: "CompositeCounter") -> bool:
    return cnf.num_vars > router.oversize_vars


def _is_aux_free(cnf: CNF, router: "CompositeCounter") -> bool:
    return not cnf.aux_vars()


def _always(cnf: CNF, router: "CompositeCounter") -> bool:
    return True


#: The ordered rule table (first match wins).  Module-level and frozen so
#: the CLI can render it without constructing a backend.
ROUTING_RULES: tuple[RoutingRule, ...] = (
    RoutingRule(
        name="oversized",
        target="approxmc",
        stats_field="route_approx",
        description="num_vars > oversize_vars (default 50000)",
        matches=_is_oversized,
    ),
    RoutingRule(
        name="aux-free",
        target="compiled",
        stats_field="route_compiled",
        description="no variables outside the projection",
        matches=_is_aux_free,
    ),
    RoutingRule(
        name="aux",
        target="exact",
        stats_field="route_exact",
        description="everything else (Tseitin auxiliaries present)",
        matches=_always,
    ),
)


class CompositeCounter:
    """Routing backend: dispatch each CNF to the best-suited counter.

    Declares ``exact=True`` — both exact routes are bit-exact and the
    engine may persist their counts — while the approx route's results
    are excluded from memo/store by the engine's routing lane (the same
    discipline inexact *fallback* results already follow), and carry
    explicit (ε, δ) provenance instead.

    ``oversize_vars`` is the tractability threshold of rule 1;
    ``epsilon``/``delta``/``seed`` parameterize the approxmc sub-backend
    (and surface on approx-routed results); ``max_nodes``/``deadline``
    are the engine's ``_limits`` surface, fanned out to every
    sub-backend so per-request budgets and deadlines bind whichever
    route fires.
    """

    name = "composite"
    exact = True
    capabilities = Capabilities(
        exact=True,
        counts_formulas=False,
        supports_projection=True,
        owns_component_cache=True,
        conditions_cubes=False,
        routes=True,
    )

    def __init__(
        self,
        oversize_vars: int = 50_000,
        epsilon: float = 0.8,
        delta: float = 0.2,
        seed: int = 0,
        max_nodes: int = 5_000_000,
        deadline: float | None = None,
    ) -> None:
        from repro.counting.approxmc import ApproxMCCounter
        from repro.counting.circuit import CompiledCounter
        from repro.counting.exact import ExactCounter

        self.oversize_vars = oversize_vars
        self.max_nodes = max_nodes
        self.deadline = deadline
        self._targets = {
            "exact": ExactCounter(max_nodes=max_nodes, deadline=deadline),
            "compiled": CompiledCounter(max_nodes=max_nodes, deadline=deadline),
            "approxmc": ApproxMCCounter(
                epsilon=epsilon, delta=delta, seed=seed, deadline=deadline
            ),
        }
        self.rules = ROUTING_RULES

    # -- the engine's shared-component-cache surface ---------------------------------
    # ``owns_component_cache=True`` promises a settable ``component_cache``;
    # only the DPLL route uses one, so the property delegates to it.

    @property
    def component_cache(self):
        return self._targets["exact"].component_cache

    @component_cache.setter
    def component_cache(self, cache) -> None:
        self._targets["exact"].component_cache = cache

    # -- limits fan-out ---------------------------------------------------------------
    # The engine's ``_limits`` contextmanager overrides ``max_nodes``/
    # ``deadline`` on the *routed target* directly (it receives the
    # target counter, not the router), so nothing to mirror here; these
    # setters keep direct attribute pokes on the router coherent too.

    def set_limits(
        self, *, max_nodes: int | None = None, deadline: float | None = None
    ) -> None:
        """Propagate limit overrides to every sub-backend."""
        if max_nodes is not None:
            self.max_nodes = max_nodes
            self._targets["exact"].max_nodes = max_nodes
            self._targets["compiled"].max_nodes = max_nodes
        self.deadline = deadline
        for counter in self._targets.values():
            counter.deadline = deadline

    # -- routing ----------------------------------------------------------------------

    def route(self, cnf: CNF, *, prefer_exact: bool = False) -> Route:
        """The first matching rule's route for ``cnf``.

        ``prefer_exact`` is the caller's exactness demand
        (``precision="exact"`` or a per-path sub-problem): the approx
        route is *refused* for such problems — ``ValueError`` at routing
        time — rather than silently downgraded, because summed or
        compared estimates compound their error invisibly.
        """
        for rule in self.rules:
            if not rule.matches(cnf, self):
                continue
            if prefer_exact and rule.target == "approxmc":
                raise ValueError(
                    f"precision='exact' refused on the approx route: problem "
                    f"has {cnf.num_vars} variables (> oversize_vars="
                    f"{self.oversize_vars}), only an (ε, δ) estimate is "
                    f"tractable — drop the exactness demand or raise "
                    f"oversize_vars"
                )
            counter = self._targets[rule.target]
            return Route(
                rule=rule,
                counter=counter,
                capabilities=counter.capabilities,
            )
        raise AssertionError("unreachable: the default rule always matches")

    def routing_table(self) -> list[dict[str, str]]:
        """The rule table as rows for CLI/doc rendering."""
        return [
            {
                "rule": rule.name,
                "predicate": rule.description,
                "target": rule.target,
            }
            for rule in self.rules
        ]

    # -- counting ---------------------------------------------------------------------

    def count(self, cnf: CNF) -> int:
        """Count by dispatching to the routed backend.

        Direct calls (no engine) get the same routing as engine batches;
        exactness provenance is only available through the engine's
        typed results, so exactness-sensitive callers should go through
        :meth:`CountingEngine.solve`.
        """
        return self.route(cnf).counter.count(cnf)

    def __repr__(self) -> str:
        return (
            f"CompositeCounter(oversize_vars={self.oversize_vars}, "
            f"targets={sorted(self._targets)})"
        )
