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

import functools
import inspect
import itertools
import json
import math
import random
import time
from dataclasses import asdict, dataclass
from fractions import Fraction

from .engine import (
    Level,
    NestedPair,
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
    DEFAULT_MAX_ORDER,
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
    _field,
    centered,
    draw_fraction,
    draw_text,
    free_moment,
)
from .partitions import (
    MAX_ENUM_N,
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

# the named bounds of the capacity rows; a row naming a cost bound gives its times on 2 cores
CAPACITY = {"MAX_ENUM_N": MAX_ENUM_N, "MAX_CLASSICAL_N": 6, "MAX_MATRIX_SPAN": 6**6,
            "MAX_NESTED_DIMENSION": 7, "MAX_WORD_SPAN": 3**3 * 5**6, "MAX_WORD_COST": 4**7,
            "MAX_MIXED_WORDS": 4**7, "MAX_JOIN_PAIRS": 132**2, "MAX_TOTAL_N": 6}


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
        return asdict(self)


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


def _capacity(model: dict) -> dict:
    """The max_order, dimension (a tensor model's points) and count of free generators of
    model data, as from_data reads them."""
    return {"max_order": _field(model, "max_order", int, DEFAULT_MAX_ORDER),
            "dimension": _field(model, "dimension", int, len(_field(model, "weights", list, []))),
            "generators": sum(len(_field(row, "generators", list, [_field(row, "name", str)]))
                              for row in _field(model, "families", list, []))}


def _gate(limits, params: dict) -> None:
    """Raise CapacityError at the first row whose quantity exceeds its bound,
    under params and under the capacity of each model params records."""
    models = [params["model"]] if "model" in params else [row["model"] for row in params.get("models", ())]
    for scope in [{**params, **CAPACITY}, *({**params, **_capacity(m), **CAPACITY} for m in models)]:
        for quantity, bound, *value in limits:
            v = value[0](scope) if value else scope[quantity]
            if v > scope[bound]:
                raise CapacityError(f"{quantity}={v} exceeds {bound}={scope[bound]}")


def _largest(*sizes: str):
    """The row bounding the largest of the lattice ``sizes`` by MAX_ENUM_N."""
    return f"max({', '.join(sizes)})", "MAX_ENUM_N", lambda p: max(p[k] for k in sizes)


# the matrix model's cost grows like d^(n+2) in its dimension d and word length n: at
# (n, d) = (4, 6), the largest MAX_MATRIX_SPAN admits, moment-cumulant takes 1.3-1.9 s,
# total-cumulance 1.3-1.5 s and partial-cumulants 0.3-0.4 s; (5, 5) 2.5-2.9 s.  n is
# bounded first, so the power stays small; an n below 0 (a replay's, without cases) counts as 0
_MATRIX_LIMITS = [("n_max", "max_order"), ("n_max", "MAX_ENUM_N"),
                  ("dimension^(n_max+2)", "MAX_MATRIX_SPAN", lambda p: p["dimension"] ** (max(p["n_max"], 0) + 2))]


ALL_CHECKS: dict = {}


def _check(identity: str, bounds, seeds: int | None = None, model=None, limits=()):
    """Register the decorated body as the check ``identity``.

    ``bounds(**flags)`` returns the bounds of a fresh run; its parameters,
    with their defaults, are the flags the check reads; other flags but
    ``seed`` and a negative ``n`` raise ``ValueError``.  A check that draws
    data of a ``model`` class gives ``seeds``, how many consecutive seeds
    from the base seed it draws with (0: the base seed alone, recorded as
    ``seed``), and reads ``max_order`` and ``spec_data``, whose spec, parsed
    here, gives ``bounds`` its own ``max_order`` and ``dimension`` (neither
    flag combines with it).  ``limits`` are rows (quantity, bound, value):
    the value, a function of params (with a spec's ``_capacity`` under them)
    or else ``params[quantity]``, must not exceed the bound, a params key or
    a ``CAPACITY`` name.  Every run, fresh, from a spec or replayed, meets
    them before anything is drawn; the registered function, with the public
    keyword signature, then runs ``body(suite, params, fresh, spec)``;
    ``params`` are a replay's unless ``fresh``.
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
            if n is not None and n < 0:
                raise ValueError(f"--n must be nonnegative, got {n}")
            if spec_data is not None:
                for flag in ("max_order", "dimension"):
                    if flag in given:
                        raise ValueError(f"{flag} does not combine with spec_data: "
                                         f"a spec carries its own {flag}")
            fresh, spec, capacity = params is None, None, {}
            if fresh:
                if seeds is not None:
                    given.setdefault("max_order", DEFAULT_MAX_ORDER)
                    if spec_data is not None:
                        spec = model.from_data(spec_data)
                        capacity = _capacity(spec.to_data())
                        given.update(capacity)
                params = bounds(**{k: v for k, v in given.items() if k in bound_flags})
                if seeds is not None:
                    base = _given(seed, DEFAULT_SEED)
                    params["max_order"] = given["max_order"]
                    params.update({"seeds": [base + k for k in range(seeds)]} if seeds else {"seed": base})
            _gate(limits, {**capacity, **params})
            suite = _Suite(identity, params, only_instance)
            body(suite, params, fresh, spec)
            return suite.report()

        check.__name__, check.__qualname__, check.__doc__ = body.__name__, body.__qualname__, body.__doc__
        check.limits = limits
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


def _nc(n: int) -> tuple[Partition, ...]:
    return enumerate_partitions(n, LatticeKind.NONCROSSING)


def _below(part: Partition, kind: LatticeKind) -> tuple[Partition, ...]:
    return interval_list(Partition.discrete(part.n), part, kind)


def _model(params: dict, fresh: bool, spec, model_class, random_data):
    """The model of ``params["model"]``, built once, from its record: a fresh
    run records the given spec, or ``random_data(params["seed"])``."""
    if fresh:
        params["model"] = random_data(params["seed"]) if spec is None else spec.to_data()
    return spec if fresh and spec is not None else model_class.from_data(params["model"])


def _free_spec(params: dict, fresh: bool, spec: ScalarFreeSpec | None) -> ScalarFreeSpec:
    """The run's scalar free spec, which must hold the two free families a
    check compares; a fresh run records the given spec, or a drawn one."""
    spec = _model(params, fresh, spec, ScalarFreeSpec, lambda s: ScalarFreeSpec.random_data(
        {"a": ("a1", "a2"), "b": ("b1", "b2")}, params["max_order"], s))
    if len(spec.families) < 2:
        raise ValueError(f"the check needs at least two free families, the model has {len(spec.families)}")
    return spec


# ---------------------------------------------------------------------------
# lattice-layer checks (no randomness)


@_check("lattice-counts", lambda n=8: {"nc_max": n, "full_max": min(n, 6)},
        limits=[_largest("nc_max", "full_max")])
def check_lattice_counts(suite: _Suite, params: dict, fresh: bool, spec) -> None:
    """Enumeration sizes match the Catalan and Bell numbers."""
    for m in range(params["nc_max"] + 1):
        key = {"lattice": "nc", "n": m}
        if suite.wants(key):
            suite.record(key, len(_nc(m)), _catalan(m))
    for m in range(params["full_max"] + 1):
        key = {"lattice": "full", "n": m}
        if suite.wants(key):
            suite.record(key, len(enumerate_partitions(m, LatticeKind.FULL)), _bell(m))


@_check("moebius", lambda n=7: {"nc_value_max": n, "full_value_max": min(n, 6),
                                 "nc_convolution_n": 5, "full_convolution_n": 4},
        limits=[_largest("nc_value_max", "full_value_max", "nc_convolution_n", "full_convolution_n")])
def check_moebius(suite: _Suite, params: dict, fresh: bool, spec) -> None:
    """Top-interval Moebius values match their closed forms, and zeta * mu = delta."""
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
                                    "anti_max": _given(n, 6), "maximality_max": 4},
        limits=[_largest("size_max", "reversal_max", "anti_max", "maximality_max")])
def check_kreweras(suite: _Suite, params: dict, fresh: bool, spec) -> None:
    """Complement size identity, order reversal, interval anti-isomorphism,
    and the defining maximality of the complement."""
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


def _models(params: dict, fresh: bool, spec, model_class, random_data, draw):
    """(seed, model, recorded row) for each seed, each model built once, from
    its record (``_model``).  A fresh run records ``{"seed", "model",
    **draws}``, the arguments drawn as ``draw(model, rng)`` from a per-seed
    generator, so a replay uses the recorded values and never the seed."""
    if fresh:
        params["models"] = [{"seed": s} for s in params["seeds"]]
    out = []
    for row in params["models"]:
        model = _model(row, fresh, spec, model_class, random_data)
        if fresh:
            row.update(draw(model, random.Random(f"{row['seed']}:args")))
        out.append((row["seed"], model, row))
    return out


def _matrix_bundles(params: dict, fresh: bool, spec: MatrixModel | None):
    """(seed, context, {m: arguments}) for each matrix model, the arguments
    one generator word of every length m up to n_max."""
    return [
        (s, MatrixContext(model), {int(m): [model.generators[g] for g in word]
                                   for m, word in row["args"].items()})
        for s, model, row in _models(
            params, fresh, spec, MatrixModel,
            lambda s: MatrixModel.random_data(params["generator_count"], params["dimension"],
                                              params["max_order"], s),
            lambda model, rng: {"args": {
                str(m): [rng.choice(model.generator_names) for _ in range(m)]
                for m in range(1, params["n_max"] + 1)
            }},
        )
    ]


@_check("moment-cumulant", lambda n=5, dimension=DEFAULT_DIMENSION:
        {"n_max": n, "dimension": dimension, "generator_count": 3},
        seeds=5, model=MatrixModel, limits=_MATRIX_LIMITS)
def check_moment_cumulant(suite: _Suite, params: dict, fresh: bool, spec) -> None:
    """Moment-cumulant inversion: phi_sigma equals the sum of partitioned
    cumulants below sigma, for every noncrossing sigma."""
    for s, ctx, words in _matrix_bundles(params, fresh, spec):
        for m in range(1, params["n_max"] + 1):
            args = words[m]
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


# MAX_TOTAL_N: its cases grow about 5-fold with n whatever d: n = 6 takes 0.74-0.77 s at d = 1 (32 MB
# peak RSS), 0.85-0.92 s at d = 2 (34 MB) and 1.30-1.32 s at d = 3 (48 MB), not n = 7, 6.4-6.6 s at
# d = 1 (81 MB) and 6.9-7.0 s at d = 2 (89 MB); three in-process runs each
@_check("total-cumulance", lambda n=4, dimension=DEFAULT_DIMENSION:
        {"n_max": n, "dimension": dimension, "generator_count": 3},
        seeds=5, model=MatrixModel, limits=[*_MATRIX_LIMITS, ("n_max", "MAX_TOTAL_N")])
def check_total_cumulance(suite: _Suite, params: dict, fresh: bool, spec) -> None:
    """The law of total cumulance on the noncrossing lattice, with its two
    supporting identities: the generalized moment-cumulant formula and the
    Moebius consistency of the nested functionals."""
    for s, ctx, words in _matrix_bundles(params, fresh, spec):
        for m in range(1, params["n_max"] + 1):
            args = words[m]
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


# MAX_JOIN_PAIRS: the join formula walks Catalan(n)^2 pairs (tau, rho), whatever d: (6, 2) takes
# 0.18-0.21 s and (6, 3) 0.25-0.28 s, not (7, 2), 1.6-1.8 s, (7, 3), 2.0-2.3 s, or (8, 1), 19 s
@_check("partial-cumulants", lambda n=5, dimension=DEFAULT_DIMENSION:
        {"n_max": n, "interval_base_max": 4, "dimension": dimension, "generator_count": 3},
        seeds=1, model=MatrixModel, limits=[*_MATRIX_LIMITS, (
            "catalan(n_max)^2", "MAX_JOIN_PAIRS", lambda p: _catalan(max(p["n_max"], 0)) ** 2)])
def check_partial_cumulants(suite: _Suite, params: dict, fresh: bool, spec) -> None:
    """Join formula for partial cumulants, their boundary collapses, and
    the interval-base reduction to a quotient cumulant of block products."""
    for s, ctx, words in _matrix_bundles(params, fresh, spec):
        for m in range(1, params["n_max"] + 1):
            args = words[m]
            everything = _nc(m)
            table, groups = {}, {}
            for sigma in everything:
                for rho in _below(sigma, LatticeKind.NONCROSSING):
                    key = {"part": "join-formula", "seed": s, "n": m,
                           "rho": str(rho), "sigma": str(sigma)}
                    if suite.wants(key):
                        if rho not in groups:  # every tau, grouped by tau v rho, once per rho
                            groups[rho] = by_join = {}
                            for tau in everything:
                                by_join.setdefault(join(tau, rho, LatticeKind.NONCROSSING), []).append(tau)
                        joined = groups[rho].get(sigma, ())
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


# MAX_NESTED_DIMENSION: d = 7 takes 1.7-1.8 s at 84 MB and d = 8 4.9 s at 186 MB
@_check("nested-closed-forms", lambda dimension=DEFAULT_DIMENSION:
        {"n_max": 8, "dimension": dimension, "generator_count": 3},
        seeds=1, model=MatrixModel, limits=[("n_max", "max_order"), ("dimension", "MAX_NESTED_DIMENSION")])
def check_nested_closed_forms(suite: _Suite, params: dict, fresh: bool, spec) -> None:
    """The worked eight-argument nesting displays and the three-argument
    correction-term closed form, evaluated literally against the engine."""
    for s, ctx, words in _matrix_bundles(params, fresh, spec):
        X = words[8]
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


# MAX_CLASSICAL_N: 3.1-4.1 s and 24.5 MB peak RSS at n = 6, 41 s and 46 MB at n = 7
@_check("classical-total-cumulance", lambda n=4: {"n_max": n}, seeds=3, model=ClassicalSpec,
        limits=[("n_max", "max_order"), ("n_max", "MAX_CLASSICAL_N")])
def check_classical_total_cumulance(suite: _Suite, params: dict, fresh: bool, spec) -> None:
    """The classical law of total cumulance over all set partitions, the
    closed form for nested conditional cumulants, and the rearrangement of
    partial cumulants into quotient cumulants of block products."""
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

    def random_data(s: int) -> dict:
        names = ["f"] + [f"g{i}" for i in range(n_max + 1)]
        return ClassicalSpec.random_data(names, params["max_order"], s)

    for s, spec, row in _models(params, fresh, spec, ClassicalSpec, random_data, draw):
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


# alternating words follow the model's capacity.  The mixed words grow like generators^n, four
# generators when drawn: MAX_MIXED_WORDS admits n = 7, 2.5-3.8 s at 45 MB, not n = 8, 17 s at 131 MB
@_check("freeness", lambda n=4, max_order=DEFAULT_MAX_ORDER:
        {"mixed_max": n, "alternating_max": min(6, max_order),
         "quadratic_max": min(3, max_order // 2), "quadratic_trials": 4},
        seeds=0, model=ScalarFreeSpec,
        limits=[("max(mixed_max, alternating_max, 2*quadratic_max)", "max_order",
                 lambda p: max(p["mixed_max"], p["alternating_max"], 2 * p["quadratic_max"])),
                ("generators^mixed_max", "MAX_MIXED_WORDS", lambda p: p.get("generators", 4) ** p["mixed_max"])])
def check_freeness(suite: _Suite, params: dict, fresh: bool, spec) -> None:
    """Freeness certificates: cumulants mixing families vanish, and
    alternating products of centered elements have zero expectation."""
    spec = _free_spec(params, fresh, spec)
    fams = sorted(spec.families)
    if fresh:
        rng = random.Random(f"{params['seed']}:quadratic")
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
    ctx = ScalarFreeContext(spec)
    gens = [g for f in fams for g in spec.families[f]]
    elements = {g: ctx.gen(g) for g in gens}  # one element per generator: table keys then match by identity
    centered_gens = {g: centered(ctx, x) for g, x in elements.items()}
    zero = ctx.scale(0, ctx.unit())
    for m in range(2, params["mixed_max"] + 1):
        for word in itertools.product(gens, repeat=m):
            if len({spec.family_of[g] for g in word}) < 2:
                continue
            key = {"part": "mixed-cumulant", "word": " ".join(word)}
            if suite.wants(key):
                got = free_cumulant(ctx, Partition.full(m), [elements[g] for g in word], Level.PHI)
                suite.record(key, got, zero, render=ctx.describe)
    for L in range(2, params["alternating_max"] + 1):
        for start in range(len(fams)):
            choices = [spec.families[fams[(start + k) % len(fams)]] for k in range(L)]
            for word in itertools.product(*choices):
                key = {"part": "alternating", "word": " ".join(word)}
                if suite.wants(key):
                    suite.record(key, ctx.phi_scalar_product(centered_gens[g] for g in word), Fraction(0))
    for L, rows in params["quadratic_words"].items():
        for t, letters in enumerate(rows):
            key = {"part": "alternating-quadratic", "length": int(L), "trial": t}
            if suite.wants(key):
                word = [centered(ctx, ctx.mul(ctx.gen(g), ctx.gen(h))) for g, h in letters]
                suite.record(key, ctx.phi_scalar_product(word), Fraction(0))


# each argument is a product of two letters
@_check("product-formula", lambda n=4: {"n_max": n}, seeds=0, model=ScalarFreeSpec,
        limits=[("2*n_max", "max_order", lambda p: 2 * p["n_max"])])
def check_product_formula(suite: _Suite, params: dict, fresh: bool, spec) -> None:
    """Cumulants of products of free variables expand over interweaved
    partitions pi joined with their Kreweras complements."""
    spec = _free_spec(params, fresh, spec)
    if fresh:
        rng = random.Random(f"{params['seed']}:words")
        fams = sorted(spec.families)
        params["words"] = {
            str(m): {
                "a": [rng.choice(spec.families[fams[0]]) for _ in range(m)],
                "b": [rng.choice(spec.families[fams[1]]) for _ in range(m)],
            }
            for m in range(1, params["n_max"] + 1)
        }
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


# the word model takes psi over simple tensors, so its cost grows about like d^3 5^n: MAX_WORD_SPAN
# admits (n, d) = (6, 3), 3.7 s, (5, 5), 2.8 s, (4, 8), 2.4 s, and (3, 15), 3.8 s, not (6, 4), 8.3 s,
# (5, 6), 4.4 s, (4, 11), 7.9 s, or (3, 16), 4.6 s.  At d = 1 its interweave cases grow about
# 5-fold with n: MAX_WORD_COST admits (7, 1), 1.3 s at 28 MB, not (8, 1), 7.1-7.2 s at 61 MB (three
# in-process runs each)
@_check("freeness-characterization", lambda n=4, dimension=DEFAULT_DIMENSION:
        {"n_max": n, "dimension": dimension}, seeds=3, model=FactorizationModel,
        limits=[("n_max", "max_order"), ("n_max", "MAX_ENUM_N"),
                ("dimension^3*5^n_max", "MAX_WORD_SPAN", lambda p: p["dimension"] ** 3 * 5 ** max(p["n_max"], 0)),
                ("4^n_max", "MAX_WORD_COST", lambda p: 4 ** p["n_max"])])
def check_freeness_characterization(suite: _Suite, params: dict, fresh: bool, spec) -> None:
    """In the model whose conditional expectation is defined by the
    factorization rule: the rule round-trips through the engine,
    alternating centered words vanish, scalar-coefficient cumulants stay
    scalar and match the plain ones, and nested cumulants flatten onto the
    interweave of the inner partition with its Kreweras complement."""

    def draw(model: FactorizationModel, rng: random.Random) -> dict:
        gens = [g for f in sorted(model.scalars.families) for g in model.scalars.families[f]]
        d = model.d

        def matrix() -> list[list[str]]:
            return [[draw_text(rng) for _ in range(d)] for _ in range(d)]

        return {"draws": {
            str(m): {
                "gens": [rng.choice(gens) for _ in range(m)],
                "bs": [matrix() for _ in range(m)],
                "b0": matrix(),
                "cs": [draw_text(rng) for _ in range(max(m - 1, 0))],
            }
            for m in range(1, params["n_max"] + 1)
        }}

    for s, model, recorded in _models(
        params, fresh, spec, FactorizationModel,
        lambda s: FactorizationModel.random_data(2, params["dimension"], params["max_order"], s), draw,
    ):
        ctx = WordContext(model)
        sc = model.scalars
        for m in range(1, params["n_max"] + 1):
            row = recorded["draws"][str(m)]
            gens = row["gens"]
            bs = [ctx.embed_b(Matrix(rows)) for rows in row["bs"]]
            b0 = ctx.embed_b(Matrix(row["b0"]))
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
                suite.record(key, ctx.phi_scalar_product(word), Fraction(0))

            key = {"part": "scalar-coefficients", "seed": s, "n": m}
            if suite.wants(key):
                args = [ctx.scale(cs[i], ctx.gen(gens[i])) if i < m - 1 else ctx.gen(gens[i])
                        for i in range(m)]
                vpsi = free_cumulant(ctx, Partition.full(m), args, Level.PSI)
                vphi = free_cumulant(ctx, Partition.full(m), args, Level.PHI)
                suite.record(key, (vpsi == ctx.phi(vpsi), ctx.describe(vpsi)),
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


# an argument carries one or two letters
@_check("tensor-factorization", lambda n=4, dimension=3: {"n_max": n, "points": dimension},
        seeds=0, model=TensorModel, limits=[("2*n_max", "max_order", lambda p: 2 * p["n_max"])])
def check_tensor_factorization(suite: _Suite, params: dict, fresh: bool, spec) -> None:
    """Nested functionals of simple tensors split into a word-factor
    functional indexed by the inner partition and a point-factor
    functional indexed by the outer one; reference values come from
    direct partition sums, not the engine."""
    model = _model(params, fresh, spec, TensorModel,
                   lambda s: TensorModel.random_data(params["points"], params["max_order"], s))
    if fresh:
        rng = random.Random(f"{params['seed']}:args")
        gen = next(iter(model.scalars.family_of))
        params["args"] = {
            str(m): [
                {
                    "word": [gen] * rng.randint(1, 2),
                    "vec": [draw_text(rng) for _ in range(model.points)],
                }
                for _ in range(m)
            ]
            for m in range(1, params["n_max"] + 1)
        }
    ctx = TensorContext(model)
    sc = model.scalars
    for m in range(1, params["n_max"] + 1):
        rows = params["args"][str(m)]
        awords = [tuple(r["word"]) for r in rows]
        bvecs = [tuple(as_fraction(v) for v in r["vec"]) for r in rows]
        args = [ctx.simple(awords[i], bvecs[i]) for i in range(m)]

        # the reference values of each partition, taken once per n
        @functools.cache
        def m_word(part: Partition) -> Fraction:
            out = Fraction(1)
            for blk in part.blocks:
                out *= free_moment(sc, tuple(x for i in blk for x in awords[i - 1]))
            return out

        @functools.cache
        def c_word(part: Partition) -> Fraction:
            return sum(
                Fraction(moebius(t, part, LatticeKind.NONCROSSING)) * m_word(t)
                for t in _below(part, LatticeKind.NONCROSSING)
            )

        @functools.cache
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


def json_object(value, what: str) -> dict:
    """``value``, which must be a JSON object; ``what`` names it in the error."""
    if not isinstance(value, dict):
        raise TypeError(f"{what} must be a JSON object, got {json.dumps(value)[:40]}")
    return value


def replay_report(report: dict) -> CheckReport:
    """Re-evaluate the failing instance recorded in a serialized report
    (or the full suite when the report carries no witness), using the
    drawn values stored in its params and never the seed."""
    json_object(report, "a report")
    params = json_object(report["params"], "params")
    witness = report.get("witness")
    only = json_object(witness, "a witness").get("instance") if witness is not None else None
    return run_check(report["identity"], params=params, only_instance=only)
