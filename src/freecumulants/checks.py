"""Executable identity checks with replayable, deterministic reports.

Every check returns a ``CheckReport``: identity name, pass/fail status,
the parameters it ran with (bounds, seeds, and every randomly drawn
value, so an independent implementation can re-evaluate the identical
instances), a case count, the wall time, and on failure a witness
pinpointing the first failing instance with both sides rendered.

A report that has been serialized to JSON can be replayed: feeding
``params`` and the witness ``instance`` back into the same check
function recomputes exactly that one case from the recorded values,
never from the seed.  All comparisons are exact; there are no
tolerances anywhere.
"""

from __future__ import annotations

import inspect
import itertools
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

from .engine import (
    Level,
    NestedPair,
    expectation,
    free_cumulant,
    nested_cumulant,
    nested_moment,
    nested_semicumulant,
    partial_cumulant,
    phi_partitioned,
)
from .errors import CapacityError
from .exact import Matrix, Poly, as_fraction
from .models import (
    ClassicalContext,
    ClassicalSpec,
    FactorizationModel,
    MatrixContext,
    MatrixModel,
    ScalarFreeContext,
    ScalarFreeSpec,
    TensorContext,
    TensorModel,
    WordContext,
    centered,
    draw_fraction,
    free_moment,
)
from .partitions import (
    LatticeKind,
    Partition,
    enumerate_partitions,
    interval_list,
    interweave,
    join,
    kreweras,
    moebius,
    parse_partition,
    quotient,
)

DEFAULT_SEED = 2024
DEFAULT_DIMENSION = 2
DEFAULT_MAX_ORDER = 8


@dataclass
class CheckReport:
    identity: str
    status: str
    params: dict
    cases: int
    witness: dict | None
    wall_time: float

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> dict:
        return {
            "identity": self.identity,
            "status": self.status,
            "params": self.params,
            "cases": self.cases,
            "witness": self.witness,
            "wall_time": self.wall_time,
        }


class _Suite:
    """Accumulates cases; freezes a witness at the first failure.

    ``wants`` gates each case so a replay evaluates only the recorded
    instance and a failed run skips everything after its witness.
    """

    def __init__(self, identity: str, params: dict, only_instance: dict | None = None):
        self.identity = identity
        self.params = params
        self.only = only_instance
        self.cases = 0
        self.witness: dict | None = None
        self._t0 = time.perf_counter()

    def wants(self, key: dict) -> bool:
        if self.witness is not None:
            return False
        return self.only is None or key == self.only

    def record(self, key: dict, lhs, rhs, render=str) -> None:
        self.cases += 1
        if lhs != rhs:
            self.witness = {"instance": key, "lhs": render(lhs), "rhs": render(rhs)}

    def report(self) -> CheckReport:
        status = "pass" if self.witness is None else "fail"
        if self.cases == 0:
            status = "fail"
            if self.only is not None:
                self.witness = {"instance": self.only, "error": "instance not found"}
            else:
                self.witness = {"error": "no cases: the bounds admit no instance"}
        return CheckReport(
            self.identity, status, self.params, self.cases, self.witness,
            time.perf_counter() - self._t0,
        )


def _given(value, default):
    return value if value is not None else default


ALL_CHECKS: dict = {}


def _check(identity: str, bounds, seeds: int | None = None):
    """Register the decorated body as the check ``identity``.

    ``bounds(**flags)`` returns the bounds of a fresh run; its parameters,
    with their defaults, are the flags the check reads, and any other flag
    but ``seed`` raises ``ValueError``.  A check that draws model data
    gives ``seeds``, how many consecutive seeds from the base seed it
    draws with (0: the base seed alone, recorded as ``seed``); it also
    reads ``max_order`` and ``spec_data``.  A check without ``seeds`` draws
    nothing and records no seed.  Neither ``max_order`` nor ``dimension``
    combines with ``spec_data``, because a spec carries its own.

    The registered function keeps the public keyword signature and runs
    ``body(suite, fresh, spec_data)``, where ``suite.params`` are the
    recorded params of a replay, or fresh ones when ``fresh``.
    """
    bound_flags = set(inspect.signature(bounds).parameters)
    reads = bound_flags | ({"max_order", "spec_data"} if seeds is not None else set())

    def register(body):
        def check(n=None, dimension=None, seed=None, max_order=None,
                  spec_data=None, params=None, only_instance=None) -> CheckReport:
            flags = {"n": n, "dimension": dimension, "max_order": max_order, "spec_data": spec_data}
            given = {k: v for k, v in flags.items() if v is not None}
            unread = [k for k in given if k not in reads]
            if unread:
                raise ValueError(f"does not read {', '.join(unread)} "
                                 f"(it reads {', '.join(sorted(reads | {'seed'}))})")
            if spec_data is not None:
                for flag in ("max_order", "dimension"):
                    if flag in given:
                        raise ValueError(f"{flag} does not combine with spec_data: "
                                         f"a spec carries its own {flag}")
            fresh = params is None
            if fresh:
                params = bounds(**{k: v for k, v in given.items() if k in bound_flags})
                if seeds is not None:
                    base = _given(seed, DEFAULT_SEED)
                    params["max_order"] = _given(max_order, DEFAULT_MAX_ORDER)
                    params.update({"seeds": [base + k for k in range(seeds)]} if seeds else {"seed": base})
            suite = _Suite(identity, params, only_instance)
            body(suite, fresh, spec_data)
            return suite.report()

        check.__name__, check.__qualname__, check.__doc__ = body.__name__, body.__qualname__, body.__doc__
        ALL_CHECKS[identity] = check
        return check

    return register


def _catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def _bell(n: int) -> int:
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def _matrix_to_data(m: Matrix) -> list[list[str]]:
    return [[str(a) for a in row] for row in m.entries]


def _matrix_from_data(rows: list[list[str]]) -> Matrix:
    return Matrix([[as_fraction(a) for a in row] for row in rows])


def _nc(n: int) -> tuple[Partition, ...]:
    return enumerate_partitions(n, LatticeKind.NONCROSSING)


def _below(part: Partition, kind: LatticeKind) -> tuple[Partition, ...]:
    return interval_list(Partition.discrete(part.n), part, kind)


# ---------------------------------------------------------------------------
# lattice-layer checks (no randomness)


@_check("lattice-counts", lambda n=8: {"nc_max": n, "full_max": min(n, 6)})
def check_lattice_counts(suite: _Suite, fresh: bool, spec_data: dict | None) -> None:
    """Enumeration sizes match the Catalan and Bell numbers."""
    params = suite.params
    for m in range(params["nc_max"] + 1):
        key = {"lattice": "nc", "n": m}
        if suite.wants(key):
            suite.record(key, len(_nc(m)), _catalan(m))
    for m in range(params["full_max"] + 1):
        key = {"lattice": "full", "n": m}
        if suite.wants(key):
            suite.record(key, len(enumerate_partitions(m, LatticeKind.FULL)), _bell(m))


@_check("moebius", lambda n=7: {"nc_value_max": n, "full_value_max": min(n, 6),
                                 "nc_convolution_n": 5, "full_convolution_n": 4})
def check_moebius(suite: _Suite, fresh: bool, spec_data: dict | None) -> None:
    """Top-interval Moebius values match their closed forms, and zeta * mu = delta."""
    params = suite.params
    for m in range(1, params["nc_value_max"] + 1):
        key = {"part": "closed-form", "lattice": "nc", "n": m}
        if suite.wants(key):
            got = moebius(Partition.discrete(m), Partition.full(m), LatticeKind.NONCROSSING)
            suite.record(key, got, (-1) ** (m - 1) * _catalan(m - 1))
    for m in range(1, params["full_value_max"] + 1):
        key = {"part": "closed-form", "lattice": "full", "n": m}
        if suite.wants(key):
            got = moebius(Partition.discrete(m), Partition.full(m), LatticeKind.FULL)
            suite.record(key, got, (-1) ** (m - 1) * math.factorial(m - 1))
    for lattice, kind, m in (
        ("nc", LatticeKind.NONCROSSING, params["nc_convolution_n"]),
        ("full", LatticeKind.FULL, params["full_convolution_n"]),
    ):
        everything = enumerate_partitions(m, kind)
        for sigma in everything:
            for pi in _below(sigma, kind):
                key = {"part": "convolution", "lattice": lattice, "pi": str(pi), "sigma": str(sigma)}
                if suite.wants(key):
                    total = sum(moebius(rho, sigma, kind) for rho in interval_list(pi, sigma, kind))
                    suite.record(key, total, 1 if pi == sigma else 0)


@_check("kreweras", lambda n=None: {"size_max": _given(n, 7), "reversal_max": _given(n, 6),
                                    "anti_max": _given(n, 6), "maximality_max": 4})
def check_kreweras(suite: _Suite, fresh: bool, spec_data: dict | None) -> None:
    """Complement size identity, order reversal, interval anti-isomorphism,
    and the defining maximality of the complement."""
    params = suite.params
    for m in range(1, params["size_max"] + 1):
        for pi in _nc(m):
            key = {"part": "size", "n": m, "pi": str(pi)}
            if suite.wants(key):
                suite.record(key, pi.size + kreweras(pi).size, m + 1)
    for m in range(params["reversal_max"] + 1):
        for sigma in _nc(m):
            for pi in _below(sigma, LatticeKind.NONCROSSING):
                key = {"part": "reversal", "n": m, "pi": str(pi), "sigma": str(sigma)}
                if suite.wants(key):
                    suite.record(key, kreweras(sigma).refines(kreweras(pi)), True)
    for m in range(params["anti_max"] + 1):
        top = Partition.full(m)
        for pi in _nc(m):
            key = {"part": "anti-isomorphism", "n": m, "pi": str(pi)}
            if suite.wants(key):
                image = {kreweras(sigma) for sigma in interval_list(pi, top, LatticeKind.NONCROSSING)}
                target = set(_below(kreweras(pi), LatticeKind.NONCROSSING))
                suite.record(key, sorted(map(str, image)), sorted(map(str, target)))
    for m in range(params["maximality_max"] + 1):
        for pi in _nc(m):
            for sigma in _nc(m):
                key = {"part": "maximality", "n": m, "pi": str(pi), "sigma": str(sigma)}
                if suite.wants(key):
                    suite.record(
                        key,
                        interweave(pi, sigma).is_noncrossing,
                        sigma.refines(kreweras(pi)),
                    )


# ---------------------------------------------------------------------------
# seeded models shared by several checks


def _models(params: dict, fresh: bool, spec_data: dict | None, model_class, random_model, draw):
    """(seed, model, recorded row) for each seed.

    A fresh run takes the spec, whose own ``max_order`` and ``dimension``
    replace the bounds', or builds ``random_model(seed)``; it draws the
    arguments as ``draw(model, rng)`` from a per-seed generator and records
    ``{"seed", "model", **draws}``.  Every model is then rebuilt from the
    record, so a replay uses the recorded values and never the seed.
    Arguments longer than the capacity fail before anything is drawn."""
    spec = model_class.from_data(spec_data) if fresh and spec_data is not None else None
    if spec is not None:
        params.update((k, v) for k, v in spec.to_data().items() if k in ("max_order", "dimension"))
    if params["n_max"] > params["max_order"]:
        raise CapacityError(f"n_max={params['n_max']} exceeds max_order={params['max_order']}")
    if fresh:
        rows = []
        for s in params["seeds"]:
            model = spec if spec is not None else random_model(s)
            rows.append({"seed": s, "model": model.to_data(), **draw(model, random.Random(f"{s}:args"))})
        params["models"] = rows
    return [(row["seed"], model_class.from_data(row["model"]), row) for row in params["models"]]


def _matrix_bundles(params: dict, fresh: bool, spec_data: dict | None):
    """Matrix models, each with one generator word of every length up to n_max."""
    return _models(
        params, fresh, spec_data, MatrixModel,
        lambda s: MatrixModel.random(params["generator_count"], params["dimension"],
                                     params["max_order"], s),
        lambda model, rng: {"args": {
            str(m): [rng.choice(model.generator_names) for _ in range(m)]
            for m in range(1, params["n_max"] + 1)
        }},
    )


def _word_args(model: MatrixModel, row: dict, m: int) -> list[Matrix]:
    return [model.generators[g] for g in row["args"][str(m)]]


@_check("moment-cumulant", lambda n=5, dimension=DEFAULT_DIMENSION:
        {"n_max": n, "dimension": dimension, "generator_count": 3}, seeds=5)
def check_moment_cumulant(suite: _Suite, fresh: bool, spec_data: dict | None) -> None:
    """Moment-cumulant inversion: phi_sigma equals the sum of partitioned
    cumulants below sigma, for every noncrossing sigma."""
    params = suite.params
    for s, model, row in _matrix_bundles(params, fresh, spec_data):
        ctx = MatrixContext(model)
        for m in range(1, params["n_max"] + 1):
            args = _word_args(model, row, m)
            table: dict[Partition, Matrix] = {}
            for sigma in _nc(m):
                key = {"seed": s, "n": m, "sigma": str(sigma)}
                if not suite.wants(key):
                    continue
                below = _below(sigma, LatticeKind.NONCROSSING)
                for pi in below:
                    if pi not in table:
                        table[pi] = free_cumulant(ctx, pi, args, Level.PSI)
                suite.record(key, phi_partitioned(ctx, sigma, args, Level.PSI),
                             ctx.sum(table[pi] for pi in below), render=ctx.describe)


@_check("total-cumulance", lambda n=4, dimension=DEFAULT_DIMENSION:
        {"n_max": n, "dimension": dimension, "generator_count": 3}, seeds=5)
def check_total_cumulance(suite: _Suite, fresh: bool, spec_data: dict | None) -> None:
    """The law of total cumulance on the noncrossing lattice, with its two
    supporting identities: the generalized moment-cumulant formula and the
    Moebius consistency of the nested functionals."""
    params = suite.params
    for s, model, row in _matrix_bundles(params, fresh, spec_data):
        ctx = MatrixContext(model)
        for m in range(1, params["n_max"] + 1):
            args = _word_args(model, row, m)
            top = Partition.full(m)
            key = {"part": "total-cumulance", "seed": s, "n": m}
            if suite.wants(key):
                total = ctx.sum(nested_cumulant(ctx, NestedPair(sigma, top), args)
                                for sigma in _nc(m))
                suite.record(key, free_cumulant(ctx, top, args, Level.PHI), total,
                             render=ctx.describe)
            for sigma in _nc(m):
                key = {"part": "generalized-mc", "seed": s, "n": m, "sigma": str(sigma)}
                if suite.wants(key):
                    total = ctx.sum(nested_semicumulant(ctx, NestedPair(pi, sigma), args)
                                    for pi in _below(sigma, LatticeKind.NONCROSSING))
                    suite.record(key, phi_partitioned(ctx, sigma, args, Level.PHI), total,
                                 render=ctx.describe)
                for pi in _below(sigma, LatticeKind.NONCROSSING):
                    key = {"part": "moebius-consistency", "seed": s, "n": m,
                           "pi": str(pi), "sigma": str(sigma)}
                    if suite.wants(key):
                        total = ctx.sum(nested_cumulant(ctx, NestedPair(pi, rho), args)
                                        for rho in interval_list(pi, sigma, LatticeKind.NONCROSSING))
                        suite.record(key, nested_semicumulant(ctx, NestedPair(pi, sigma), args),
                                     total, render=ctx.describe)


@_check("partial-cumulants", lambda n=5, dimension=DEFAULT_DIMENSION:
        {"n_max": n, "interval_base_max": 4, "dimension": dimension, "generator_count": 3}, seeds=1)
def check_partial_cumulants(suite: _Suite, fresh: bool, spec_data: dict | None) -> None:
    """Join formula for partial cumulants, their boundary collapses, and
    the interval-base reduction to a quotient cumulant of block products."""
    params = suite.params
    for s, model, row in _matrix_bundles(params, fresh, spec_data):
        ctx = MatrixContext(model)
        for m in range(1, params["n_max"] + 1):
            args = _word_args(model, row, m)
            everything = _nc(m)
            table = {}
            for sigma in everything:
                for rho in _below(sigma, LatticeKind.NONCROSSING):
                    key = {"part": "join-formula", "seed": s, "n": m,
                           "rho": str(rho), "sigma": str(sigma)}
                    if suite.wants(key):
                        joined = [tau for tau in everything
                                  if join(tau, rho, LatticeKind.NONCROSSING) == sigma]
                        for tau in joined:
                            if tau not in table:
                                table[tau] = free_cumulant(ctx, tau, args, Level.PSI)
                        suite.record(key, partial_cumulant(ctx, rho, sigma, args, Level.PSI),
                                     ctx.sum(table[tau] for tau in joined), render=ctx.describe)
                bottom_key = {"part": "base-collapse", "seed": s, "n": m, "sigma": str(sigma)}
                if suite.wants(bottom_key):
                    lhs = partial_cumulant(ctx, Partition.discrete(m), sigma, args, Level.PSI)
                    suite.record(bottom_key, lhs, free_cumulant(ctx, sigma, args, Level.PSI),
                                 render=ctx.describe)
                top_key = {"part": "top-collapse", "seed": s, "n": m, "sigma": str(sigma)}
                if suite.wants(top_key):
                    lhs = partial_cumulant(ctx, sigma, sigma, args, Level.PSI)
                    suite.record(top_key, lhs, phi_partitioned(ctx, sigma, args, Level.PSI),
                                 render=ctx.describe)
            if m <= params["interval_base_max"]:
                for sigma in everything:
                    for rho in _below(sigma, LatticeKind.NONCROSSING):
                        if not rho.is_interval:
                            continue
                        key = {"part": "interval-base", "seed": s, "n": m,
                               "rho": str(rho), "sigma": str(sigma)}
                        if suite.wants(key):
                            prods = [ctx.product(args[i - 1] for i in b) for b in rho.blocks]
                            rhs = free_cumulant(ctx, quotient(sigma, rho), prods, Level.PSI)
                            suite.record(key, partial_cumulant(ctx, rho, sigma, args, Level.PSI),
                                         rhs, render=ctx.describe)


@_check("nested-closed-forms", lambda dimension=DEFAULT_DIMENSION:
        {"n_max": 8, "dimension": dimension, "generator_count": 3}, seeds=1)
def check_nested_closed_forms(suite: _Suite, fresh: bool, spec_data: dict | None) -> None:
    """The worked eight-argument nesting displays and the three-argument
    correction-term closed form, evaluated literally against the engine."""
    for s, model, row in _matrix_bundles(suite.params, fresh, spec_data):
        ctx = MatrixContext(model)
        X = _word_args(model, row, 8)
        X1, X2, X3, X4, X5, X6, X7, X8 = X
        pi = parse_partition("{1,2,7,8}{3,4}{5,6}")
        sigma = parse_partition("{1,2,7,8}{3,4,5,6}")
        P, psi, phi, mul = ctx.product, ctx.psi, ctx.phi, ctx.mul

        def C(arglist, level):
            return free_cumulant(ctx, Partition.full(len(arglist)), arglist, level)

        key = {"display": "psi-partitioned", "seed": s}
        if suite.wants(key):
            rhs = psi(P([X1, X2, psi(P([X3, X4])), psi(P([X5, X6])), X7, X8]))
            suite.record(key, phi_partitioned(ctx, pi, X, Level.PSI), rhs, render=ctx.describe)
        key = {"display": "nested-moment", "seed": s}
        if suite.wants(key):
            inner = phi(P([psi(P([X3, X4])), psi(P([X5, X6]))]))
            rhs = phi(psi(P([X1, X2, inner, X7, X8])))
            suite.record(key, nested_moment(ctx, NestedPair(pi, sigma), X), rhs,
                         render=ctx.describe)
        key = {"display": "nested-semicumulant", "seed": s}
        if suite.wants(key):
            v = phi(P([C([X3, X4], Level.PSI), C([X5, X6], Level.PSI)]))
            rhs = phi(C([X1, X2, mul(v, X7), X8], Level.PSI))
            suite.record(key, nested_semicumulant(ctx, NestedPair(pi, sigma), X), rhs,
                         render=ctx.describe)
        key = {"display": "nested-cumulant", "seed": s}
        if suite.wants(key):
            v = free_cumulant(ctx, Partition.full(2),
                              [C([X3, X4], Level.PSI), C([X5, X6], Level.PSI)], Level.PHI)
            rhs = phi(C([X1, X2, mul(v, X7), X8], Level.PSI))
            suite.record(key, nested_cumulant(ctx, NestedPair(pi, sigma), X), rhs,
                         render=ctx.describe)
        key = {"display": "correction-term", "seed": s}
        if suite.wants(key):
            p3 = parse_partition("{1,3}{2}")
            b = ctx.sub(psi(X2), phi(X2))
            rhs = phi(C([X1, mul(b, X3)], Level.PSI))
            suite.record(key, nested_cumulant(ctx, NestedPair(p3, Partition.full(3)), [X1, X2, X3]),
                         rhs, render=ctx.describe)


# ---------------------------------------------------------------------------
# classical lattice


@_check("classical-total-cumulance", lambda n=4: {"n_max": n}, seeds=3)
def check_classical_total_cumulance(suite: _Suite, fresh: bool, spec_data: dict | None) -> None:
    """The classical law of total cumulance over all set partitions, the
    closed form for nested conditional cumulants, and the rearrangement of
    partial cumulants into quotient cumulants of block products."""
    params = suite.params
    n_max = params["n_max"]

    def draw(spec: ClassicalSpec, rng: random.Random) -> dict:
        # polynomials over a kept factor and a chain of integrated
        # variables, so conditional dependence is genuine
        ring = spec.ring
        polys = []
        for i in range(1, n_max + 1):
            a, b, c, d = (draw_fraction(rng) for _ in range(4))
            polys.append(ring.var("f") * a + ring.var(f"g{i-1}") * b + ring.var(f"g{i}") * c
                         + ring.var(f"g{i-1}") * ring.var(f"g{i}") * d)
        return {"keep": ["f"], "polys": [p.to_data() for p in polys]}

    def random_spec(s: int) -> ClassicalSpec:
        names = ["f"] + [f"g{i}" for i in range(n_max + 1)]
        return ClassicalSpec.random(names, params["max_order"], s)

    for s, spec, row in _models(params, fresh, spec_data, ClassicalSpec, random_spec, draw):
        ctx = ClassicalContext(spec, frozenset(row["keep"]))
        plain = ClassicalContext(spec)
        polys = [Poly.from_data(spec.ring, d) for d in row["polys"]]
        for m in range(1, params["n_max"] + 1):
            args = polys[:m]
            top = Partition.full(m)
            everything = enumerate_partitions(m, LatticeKind.FULL)
            key = {"part": "total-cumulance", "seed": s, "n": m}
            if suite.wants(key):
                lhs = free_cumulant(plain, top, args, Level.PHI)
                total = ctx.sum(nested_cumulant(ctx, NestedPair(pi, top), args) for pi in everything)
                suite.record(key, lhs, total)
            for sigma in everything:
                for pi in _below(sigma, LatticeKind.FULL):
                    key = {"part": "nested-closed-form", "seed": s, "n": m,
                           "pi": str(pi), "sigma": str(sigma)}
                    if suite.wants(key):
                        lhs = nested_cumulant(ctx, NestedPair(pi, sigma), args)
                        block_args = [
                            free_cumulant(ctx, Partition.full(len(b)),
                                          [args[i - 1] for i in b], Level.PSI)
                            for b in pi.blocks
                        ]
                        rhs = free_cumulant(ctx, quotient(sigma, pi), block_args, Level.PHI)
                        suite.record(key, lhs, rhs)
                    key = {"part": "rearrangement", "seed": s, "n": m,
                           "rho": str(pi), "sigma": str(sigma)}
                    if suite.wants(key):
                        lhs = partial_cumulant(plain, pi, sigma, args, Level.PHI)
                        prods = [plain.product(args[i - 1] for i in b) for b in pi.blocks]
                        rhs = free_cumulant(plain, quotient(sigma, pi), prods, Level.PHI)
                        suite.record(key, lhs, rhs)


# ---------------------------------------------------------------------------
# scalar free families


@_check("freeness", lambda n=4: {"mixed_max": n, "alternating_max": 6,
                                 "quadratic_max": 3, "quadratic_trials": 4}, seeds=0)
def check_freeness(suite: _Suite, fresh: bool, spec_data: dict | None) -> None:
    """Freeness certificates: cumulants mixing families vanish, and
    alternating products of centered elements have zero expectation."""
    params = suite.params
    if fresh:
        base = params["seed"]
        spec = (ScalarFreeSpec.from_data(spec_data) if spec_data is not None
                else ScalarFreeSpec.random({"a": ("a1", "a2"), "b": ("b1", "b2")},
                                           params["max_order"], base))
        params["model"] = spec.to_data()
        params["max_order"] = spec.max_order
        rng = random.Random(f"{base}:quadratic")
        fams = sorted(spec.families)
        quad = {}
        for L in range(2, params["quadratic_max"] + 1):
            rows = []
            for _ in range(params["quadratic_trials"]):
                start = rng.randrange(2)
                letters = []
                for k in range(L):
                    fam = fams[(start + k) % len(fams)]
                    gens = spec.families[fam]
                    letters.append([rng.choice(gens), rng.choice(gens)])
                rows.append(letters)
            quad[str(L)] = rows
        params["quadratic_words"] = quad
    spec = ScalarFreeSpec.from_data(params["model"])
    ctx = ScalarFreeContext(spec)
    fams = sorted(spec.families)
    gens = [g for f in fams for g in spec.families[f]]
    zero = ctx.scale(0, ctx.unit())
    for m in range(2, params["mixed_max"] + 1):
        for word in itertools.product(gens, repeat=m):
            if len({spec.family_of[g] for g in word}) < 2:
                continue
            key = {"part": "mixed-cumulant", "word": " ".join(word)}
            if suite.wants(key):
                got = free_cumulant(ctx, Partition.full(m), [ctx.gen(g) for g in word], Level.PHI)
                suite.record(key, got, zero, render=ctx.describe)
    for L in range(2, params["alternating_max"] + 1):
        for start in range(len(fams)):
            choices = [spec.families[fams[(start + k) % len(fams)]] for k in range(L)]
            for word in itertools.product(*choices):
                key = {"part": "alternating", "word": " ".join(word)}
                if suite.wants(key):
                    prod = ctx.product(centered(ctx, ctx.gen(g)) for g in word)
                    suite.record(key, ctx.phi_scalar(prod), Fraction(0))
    for L, rows in params["quadratic_words"].items():
        for t, letters in enumerate(rows):
            key = {"part": "alternating-quadratic", "length": int(L), "trial": t}
            if suite.wants(key):
                prod = ctx.unit()
                for g, h in letters:
                    prod = ctx.mul(prod, centered(ctx, ctx.mul(ctx.gen(g), ctx.gen(h))))
                suite.record(key, ctx.phi_scalar(prod), Fraction(0))


@_check("product-formula", lambda n=4: {"n_max": n}, seeds=0)
def check_product_formula(suite: _Suite, fresh: bool, spec_data: dict | None) -> None:
    """Cumulants of products of free variables expand over interweaved
    partitions pi joined with their Kreweras complements."""
    params = suite.params
    if fresh:
        base = params["seed"]
        spec = (ScalarFreeSpec.from_data(spec_data) if spec_data is not None
                else ScalarFreeSpec.random({"a": ("a1", "a2"), "b": ("b1", "b2")},
                                           params["max_order"], base))
        params["model"] = spec.to_data()
        params["max_order"] = spec.max_order
        # each argument is a product of two letters
        if 2 * params["n_max"] > params["max_order"]:
            raise CapacityError(f"2*n_max={2 * params['n_max']} exceeds max_order={params['max_order']}")
        rng = random.Random(f"{base}:words")
        fams = sorted(spec.families)
        params["words"] = {
            str(m): {
                "a": [rng.choice(spec.families[fams[0]]) for _ in range(m)],
                "b": [rng.choice(spec.families[fams[1]]) for _ in range(m)],
            }
            for m in range(1, params["n_max"] + 1)
        }
    spec = ScalarFreeSpec.from_data(params["model"])
    ctx = ScalarFreeContext(spec)
    for m in range(1, params["n_max"] + 1):
        words = params["words"][str(m)]
        aw, bw = words["a"], words["b"]
        key = {"n": m, "a": " ".join(aw), "b": " ".join(bw)}
        if not suite.wants(key):
            continue
        prods = [ctx.mul(ctx.gen(aw[i]), ctx.gen(bw[i])) for i in range(m)]
        lhs = free_cumulant(ctx, Partition.full(m), prods, Level.PHI)
        flat = []
        for i in range(m):
            flat += [ctx.gen(aw[i]), ctx.gen(bw[i])]
        total = ctx.sum(free_cumulant(ctx, interweave(pi, kreweras(pi)), flat, Level.PHI)
                        for pi in _nc(m))
        suite.record(key, lhs, total, render=ctx.describe)


# ---------------------------------------------------------------------------
# factorization model


@_check("freeness-characterization", lambda n=4, dimension=DEFAULT_DIMENSION:
        {"n_max": n, "dimension": dimension}, seeds=3)
def check_freeness_characterization(suite: _Suite, fresh: bool, spec_data: dict | None) -> None:
    """In the model whose conditional expectation is defined by the
    factorization rule: the rule round-trips through the engine,
    alternating centered words vanish, scalar-coefficient cumulants stay
    scalar and match the plain ones, and nested cumulants flatten onto the
    interweave of the inner partition with its Kreweras complement."""
    params = suite.params

    def draw(model: FactorizationModel, rng: random.Random) -> dict:
        gens = [g for f in sorted(model.scalars.families) for g in model.scalars.families[f]]
        d = model.d

        def matrix() -> list[list[str]]:
            return _matrix_to_data(Matrix([[draw_fraction(rng) for _ in range(d)] for _ in range(d)]))

        return {"draws": {
            str(m): {
                "gens": [rng.choice(gens) for _ in range(m)],
                "bs": [matrix() for _ in range(m)],
                "b0": matrix(),
                "cs": [str(draw_fraction(rng)) for _ in range(max(m - 1, 0))],
            }
            for m in range(1, params["n_max"] + 1)
        }}

    for s, model, recorded in _models(
        params, fresh, spec_data, FactorizationModel,
        lambda s: FactorizationModel.random(2, params["dimension"], params["max_order"], s), draw,
    ):
        ctx = WordContext(model)
        sc = model.scalars
        for m in range(1, params["n_max"] + 1):
            row = recorded["draws"][str(m)]
            gens = row["gens"]
            bs = [ctx.embed_b(_matrix_from_data(rows)) for rows in row["bs"]]
            b0 = ctx.embed_b(_matrix_from_data(row["b0"]))
            cs = [as_fraction(c) for c in row["cs"]]

            key = {"part": "factorization-rule", "seed": s, "n": m}
            if suite.wants(key):
                args = [ctx.mul(ctx.gen(gens[i]), bs[i]) if i < m - 1 else ctx.gen(gens[i])
                        for i in range(m)]
                got = free_cumulant(ctx, Partition.full(m), args, Level.PSI)
                scalar = sc.cumulant(tuple(gens))
                for b in bs[: m - 1]:
                    scalar *= ctx.phi_scalar(b)
                suite.record(key, got, ctx.scale(scalar, ctx.unit()), render=ctx.describe)

            key = {"part": "alternating-vanish", "seed": s, "n": m}
            if suite.wants(key):
                word = [b0]
                for i in range(m):
                    word.append(centered(ctx, ctx.gen(gens[i])))
                    word.append(centered(ctx, bs[i]) if i < m - 1 else bs[i])
                suite.record(key, ctx.phi_scalar(ctx.product(word)), Fraction(0))

            key = {"part": "scalar-coefficients", "seed": s, "n": m}
            if suite.wants(key):
                args = [ctx.scale(cs[i], ctx.gen(gens[i])) if i < m - 1 else ctx.gen(gens[i])
                        for i in range(m)]
                vpsi = free_cumulant(ctx, Partition.full(m), args, Level.PSI)
                vphi = free_cumulant(ctx, Partition.full(m), args, Level.PHI)
                suite.record(key, (ctx.in_c(vpsi), ctx.describe(vpsi)),
                             (True, ctx.describe(vphi)))

            flat = []
            args = []
            for i in range(m):
                args.append(ctx.mul(ctx.gen(gens[i]), bs[i]))
                flat += [ctx.gen(gens[i]), bs[i]]
            for pi in _nc(m):
                key = {"part": "interweave", "seed": s, "n": m, "pi": str(pi)}
                if suite.wants(key):
                    lhs = nested_cumulant(ctx, NestedPair(pi, Partition.full(m)), args)
                    tau = interweave(pi, kreweras(pi))
                    rhs = free_cumulant(ctx, tau, flat, Level.PHI)
                    suite.record(key, lhs, rhs, render=ctx.describe)


# ---------------------------------------------------------------------------
# tensor model


@_check("tensor-factorization", lambda n=4, dimension=3: {"n_max": n, "points": dimension}, seeds=0)
def check_tensor_factorization(suite: _Suite, fresh: bool, spec_data: dict | None) -> None:
    """Nested functionals of simple tensors split into a word-factor
    functional indexed by the inner partition and a point-factor
    functional indexed by the outer one; reference values come from
    direct partition sums, not the engine."""
    params = suite.params
    if fresh:
        base = params["seed"]
        model = (TensorModel.from_data(spec_data) if spec_data is not None
                 else TensorModel.random(params["points"], params["max_order"], base))
        params["model"] = model.to_data()
        params["max_order"], params["points"] = model.scalars.max_order, model.points
        # each argument carries up to two letters
        if 2 * params["n_max"] > params["max_order"]:
            raise CapacityError(f"2*n_max={2 * params['n_max']} exceeds max_order={params['max_order']}")
        rng = random.Random(f"{base}:args")
        gen = next(iter(model.scalars.family_of))
        params["args"] = {
            str(m): [
                {
                    "word": [gen] * rng.randint(1, 2),
                    "vec": [str(draw_fraction(rng)) for _ in range(model.points)],
                }
                for _ in range(m)
            ]
            for m in range(1, params["n_max"] + 1)
        }
    model = TensorModel.from_data(params["model"])
    ctx = TensorContext(model)
    sc = model.scalars
    for m in range(1, params["n_max"] + 1):
        rows = params["args"][str(m)]
        awords = [tuple(r["word"]) for r in rows]
        bvecs = [tuple(as_fraction(v) for v in r["vec"]) for r in rows]
        args = [ctx.simple(awords[i], bvecs[i]) for i in range(m)]

        def m_word(part: Partition) -> Fraction:
            out = Fraction(1)
            for blk in part.blocks:
                out *= free_moment(sc, tuple(x for i in blk for x in awords[i - 1]))
            return out

        def c_word(part: Partition) -> Fraction:
            return sum(
                Fraction(moebius(t, part, LatticeKind.NONCROSSING)) * m_word(t)
                for t in _below(part, LatticeKind.NONCROSSING)
            )

        def m_point(part: Partition) -> Fraction:
            out = Fraction(1)
            for blk in part.blocks:
                vec = (Fraction(1),) * model.points
                for i in blk:
                    vec = tuple(a * b for a, b in zip(vec, bvecs[i - 1]))
                out *= model.state(vec)
            return out

        def c_point(lo: Partition, hi: Partition) -> Fraction:
            return sum(
                Fraction(moebius(r, hi, LatticeKind.NONCROSSING)) * m_point(r)
                for r in interval_list(lo, hi, LatticeKind.NONCROSSING)
            )

        for sigma in _nc(m):
            for pi in _below(sigma, LatticeKind.NONCROSSING):
                pair = NestedPair(pi, sigma)
                key = {"part": "nested-moment", "n": m, "pi": str(pi), "sigma": str(sigma)}
                if suite.wants(key):
                    suite.record(key, ctx.phi_scalar(nested_moment(ctx, pair, args)),
                                 m_word(pi) * m_point(sigma))
                key = {"part": "nested-semicumulant", "n": m, "pi": str(pi), "sigma": str(sigma)}
                if suite.wants(key):
                    suite.record(key, ctx.phi_scalar(nested_semicumulant(ctx, pair, args)),
                                 c_word(pi) * m_point(sigma))
                key = {"part": "nested-cumulant", "n": m, "pi": str(pi), "sigma": str(sigma)}
                if suite.wants(key):
                    suite.record(key, ctx.phi_scalar(nested_cumulant(ctx, pair, args)),
                                 c_word(pi) * c_point(pi, sigma))


def run_check(identity: str, **kwargs) -> CheckReport:
    if identity not in ALL_CHECKS:
        raise KeyError(f"unknown check {identity!r}; choose from {sorted(ALL_CHECKS)}")
    return ALL_CHECKS[identity](**kwargs)


def replay_report(report: dict) -> CheckReport:
    """Re-evaluate the failing instance recorded in a serialized report
    (or the full suite when the report carries no witness), using the
    drawn values stored in its params and never the seed."""
    identity = report["identity"]
    witness = report.get("witness")
    only = witness.get("instance") if witness else None
    return run_check(identity, params=report["params"], only_instance=only)
