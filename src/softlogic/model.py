"""Core hinge-loss MRF representation.

A model couples a variable table (free and observed unit-interval
variables) with weighted hinge potentials ``(max{l(y, x), 0})^p`` and hard
linear constraints. Potentials are grouped into templates; every potential
carries the weight of its template.
"""

from __future__ import annotations

import copy
import enum
import functools
import itertools
import json
import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

FORMAT_NAME = "softlogic-ground-model"
FORMAT_VERSION = 1


class ModelError(ValueError):
    """Raised for structurally invalid models or assignments."""


@dataclass(frozen=True, order=True)
class GroundAtom:
    """Identity label of one variable: a predicate applied to constants."""

    predicate: str
    args: tuple[str, ...] = ()

    def __str__(self) -> str:
        if not self.args:
            return self.predicate
        return "%s(%s)" % (self.predicate, ", ".join('"%s"' % a for a in self.args))


class VariableTable:
    """Dense index space over ground atoms.

    Every atom gets one integer index; observed atoms carry a fixed value in
    [0, 1], the rest are free. Free-variable assignments are arrays aligned
    with ``free_indices`` (ascending index order).
    """

    def __init__(self, labels, observed=None):
        self.labels: tuple[GroundAtom, ...] = tuple(labels)
        observed = dict(observed or {})
        for idx, value in observed.items():
            if not 0 <= idx < len(self.labels):
                raise ModelError("observed index %d out of range" % idx)
            if not 0.0 <= value <= 1.0:
                raise ModelError(
                    "observed value %r for %s outside [0, 1]" % (value, self.labels[idx])
                )
        self.observed: dict[int, float] = {i: float(v) for i, v in sorted(observed.items())}
        self.free_indices: tuple[int, ...] = tuple(
            i for i in range(len(self.labels)) if i not in self.observed
        )
        self._free_position = {idx: pos for pos, idx in enumerate(self.free_indices)}

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def n_free(self) -> int:
        return len(self.free_indices)

    def is_observed(self, index: int) -> bool:
        return index in self.observed

    def free_position(self, index: int) -> int:
        return self._free_position[index]

    def free_assignment(self, y) -> np.ndarray:
        """``y`` as a float array, checked to hold one value per free variable."""
        y = np.asarray(y, dtype=float)
        if y.shape != (self.n_free,):
            raise ModelError(
                "assignment has shape %s, expected (%d,)" % (y.shape, self.n_free)
            )
        return y

    def full_values(self, y: np.ndarray) -> np.ndarray:
        """Expand a free assignment into a value per table index."""
        y = self.free_assignment(y)
        values = np.empty(self.size, dtype=float)
        values[list(self.free_indices)] = y
        for idx, v in self.observed.items():
            values[idx] = v
        return values


class LinearFunction:
    """Sparse affine function ``offset + sum_i coeff_i * value_i``.

    Terms are stored sorted by variable index; duplicate indices are merged
    and zero coefficients dropped.
    """

    __slots__ = ("terms", "offset")

    def __init__(self, terms=(), offset: float = 0.0):
        merged: dict[int, float] = {}
        for idx, coeff in terms:
            merged[idx] = merged.get(idx, 0.0) + float(coeff)
        self.terms: tuple[tuple[int, float], ...] = tuple(
            (idx, c) for idx, c in sorted(merged.items()) if c != 0.0
        )
        self.offset = float(offset)

    def value(self, values) -> float:
        return self.offset + sum(c * values[i] for i, c in self.terms)

    def fold_observed(self, table: VariableTable) -> "LinearFunction":
        """Substitute fixed values for observed variables into the offset."""
        offset = self.offset
        kept = []
        for idx, coeff in self.terms:
            if table.is_observed(idx):
                offset += coeff * table.observed[idx]
            else:
                kept.append((idx, coeff))
        return LinearFunction(kept, offset)

    def negated(self) -> "LinearFunction":
        return LinearFunction([(i, -c) for i, c in self.terms], -self.offset)

    def __eq__(self, other):
        return (
            isinstance(other, LinearFunction)
            and self.terms == other.terms
            and self.offset == other.offset
        )

    def __hash__(self):
        return hash((self.terms, self.offset))

    def __repr__(self):
        parts = ["%+g*y[%d]" % (c, i) for i, c in self.terms]
        parts.append("%+g" % self.offset)
        return "LinearFunction(%s)" % " ".join(parts)


@dataclass(frozen=True)
class HingePotential:
    """One weighted loss term ``(max{l(y, x), 0})^p`` with p in {1, 2}.

    The weight itself lives on the template; ``origin`` records the source
    rule and substitution for diagnostics.
    """

    linfun: LinearFunction
    exponent: int = 1
    template_id: int = 0
    origin: str = ""

    def __post_init__(self):
        if self.exponent not in (1, 2):
            raise ModelError("hinge exponent must be 1 or 2, got %r" % (self.exponent,))


class Relation(enum.Enum):
    EQ = "eq"
    LEQ = "leq"


@dataclass(frozen=True)
class LinearConstraint:
    """Hard constraint ``l(y, x) = 0`` (EQ) or ``l(y, x) <= 0`` (LEQ)."""

    linfun: LinearFunction
    relation: Relation = Relation.LEQ


@dataclass(frozen=True)
class TemplateInfo:
    """Registry entry for one source rule: its text and grounding count."""

    source: str
    groundings: int = 0


def _index_array(values, message: str) -> np.ndarray:
    try:
        array = np.array(values, dtype=np.intp)
    except OverflowError:
        raise ModelError("%s (index too large)" % message) from None
    if not np.array_equal(array, values):
        raise ModelError("%s (index not an integer)" % message)
    return array


class FoldedRows:
    """Linear functions over the free assignment, observations folded in.

    Row ``r`` is ``offsets[r] + coeffs[s] @ y[positions[s]]`` with
    ``s = slice(indptr[r], indptr[r + 1])`` (CSR form); ``positions`` index
    the free assignment and ``arity`` counts each row's terms. Rows left
    with no free term are constants and still count. ``norm2[r]`` is the
    squared norm of row ``r``'s coefficients.
    """

    def __init__(self, positions, coeffs, arity, offsets):
        self.size = offsets.size
        self.positions = positions
        self.coeffs = coeffs
        self.arity = arity
        self.offsets = offsets
        self.indptr = np.concatenate(([0], np.cumsum(arity)))
        self.term_row = np.repeat(np.arange(self.size), arity)
        self.norm2 = np.bincount(self.term_row, coeffs * coeffs, minlength=self.size)

    @staticmethod
    def _fold(functions, table: VariableTable, kind: str):
        """``(positions, coeffs, arity, offsets)`` of linear functions.

        Free terms keep their order, and observed terms are added into the
        offset in term order, exactly as ``LinearFunction.fold_observed``
        does.
        """
        size = len(functions)
        lengths = np.fromiter((len(lf.terms) for lf in functions), np.intp, size)
        terms = list(itertools.chain.from_iterable(lf.terms for lf in functions))
        indices = _index_array([i for i, _ in terms], "%s references unknown variable" % kind)
        coeffs = np.array([c for _, c in terms], dtype=float)
        offsets = np.fromiter((lf.offset for lf in functions), float, size)
        term_row = np.repeat(np.arange(size), lengths)
        unknown = (indices < 0) | (indices >= table.size)
        if unknown.any():
            t = unknown.argmax()
            raise ModelError(
                "%s %d references unknown variable %d" % (kind, term_row[t], indices[t])
            )

        free_position = np.full(table.size, -1, dtype=np.intp)
        free_position[list(table.free_indices)] = np.arange(table.n_free)
        observed_value = np.zeros(table.size)
        observed_value[list(table.observed)] = list(table.observed.values())
        positions = free_position[indices]
        observed = positions < 0
        rank = np.arange(indices.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        for k in np.unique(rank[observed]):
            # A row has one term of each rank, so this adds each row's
            # observed terms one at a time, in order.
            at = observed & (rank == k)
            offsets[term_row[at]] += coeffs[at] * observed_value[indices[at]]
        arity = np.bincount(term_row[~observed], minlength=size)
        return positions[~observed], coeffs[~observed], arity, offsets

    def linear_functions(self, table: VariableTable):
        """Each row as a `LinearFunction` over table indices."""
        indices = np.asarray(table.free_indices, dtype=np.intp)[self.positions].tolist()
        coeffs = self.coeffs.tolist()
        bounds = self.indptr.tolist()
        return [
            LinearFunction(zip(indices[a:b], coeffs[a:b]), offset)
            for a, b, offset in zip(bounds, bounds[1:], self.offsets.tolist())
        ]

    def values(self, y) -> np.ndarray:
        """Every row's value at the free assignment ``y``."""
        terms = self.coeffs * y[self.positions]
        return self.offsets + np.bincount(self.term_row, terms, minlength=self.size)

    def row(self, r):
        """``(positions, coeffs, offset)`` of row ``r``."""
        s = slice(self.indptr[r], self.indptr[r + 1])
        return self.positions[s], self.coeffs[s], self.offsets[r]

    def padded(self, rows, arity: int):
        """Positions and coeffs of ``rows``, all of one arity, as 2-D arrays."""
        at = self.indptr[rows][:, None] + np.arange(arity)
        return self.positions[at], self.coeffs[at]


class PotentialRows(FoldedRows):
    """Folded hinge potentials with their exponents and template ids."""

    def __init__(self, positions, coeffs, arity, offsets, exponent, template_id):
        super().__init__(positions, coeffs, arity, offsets)
        self.exponent = exponent
        self.template_id = template_id

    @classmethod
    def fold(cls, potentials, table) -> "PotentialRows":
        exponent = np.fromiter((p.exponent for p in potentials), np.intp, len(potentials))
        template_id = _index_array(
            [p.template_id for p in potentials], "potential references unknown template"
        )
        folded = cls._fold([p.linfun for p in potentials], table, "potential")
        return cls(*folded, exponent, template_id)

    def objects(self, table, origins):
        """Each row as a `HingePotential`, with ``origins[r]`` as its origin."""
        rows = zip(self.linear_functions(table), self.exponent.tolist(), self.template_id.tolist())
        return [
            HingePotential(lf, exponent, tid, origins[r])
            for r, (lf, exponent, tid) in enumerate(rows)
        ]

    def hinges(self, values, rows=slice(None)) -> np.ndarray:
        """``(max{v, 0})^p`` of row values; ``rows`` picks the exponents (last axis)."""
        h = np.maximum(values, 0.0)
        return np.where(self.exponent[rows] == 2, h * h, h)


class ConstraintRows(FoldedRows):
    """Folded hard constraints with their relations."""

    def __init__(self, positions, coeffs, arity, offsets, is_eq):
        super().__init__(positions, coeffs, arity, offsets)
        self.is_eq = is_eq

    @classmethod
    def fold(cls, constraints, table) -> "ConstraintRows":
        is_eq = np.fromiter(
            (c.relation is Relation.EQ for c in constraints), bool, len(constraints)
        )
        return cls(*cls._fold([c.linfun for c in constraints], table, "constraint"), is_eq)

    def objects(self, table):
        """Each row as a `LinearConstraint`."""
        return [
            LinearConstraint(lf, Relation.EQ if eq else Relation.LEQ)
            for lf, eq in zip(self.linear_functions(table), self.is_eq.tolist())
        ]

    def violations(self, values) -> np.ndarray:
        return np.where(self.is_eq, np.abs(values), np.maximum(values, 0.0))


class _Built(Sequence):
    """A sequence of known length whose items are built on first access."""

    def __init__(self, size: int, build):
        self._size = size
        self._build = build
        self._items = None

    def __len__(self):
        return self._size

    def _built(self):
        if self._items is None:
            self._items = tuple(self._build())
        return self._items

    def __getitem__(self, k):
        return self._built()[k]

    def __iter__(self):
        return iter(self._built())


def _checked_weights(weights, n_templates: int) -> np.ndarray:
    weights = np.asarray(weights, dtype=float).copy()
    weights.flags.writeable = False
    if weights.shape != (n_templates,):
        raise ModelError(
            "weight vector length %d != template count %d" % (weights.size, n_templates)
        )
    if not np.all(np.isfinite(weights)):
        raise ModelError("template weights must be finite")
    if np.any(weights < 0):
        raise ModelError("template weights must be nonnegative")
    return weights


class HlMrf:
    """A ground hinge-loss MRF.

    Immutable after construction; shares structure freely across threads.
    The density itself is never normalized here -- only the energy is
    exposed, which is all MAP inference and the implemented learners need.
    Everything that evaluates the model reads ``potential_rows`` and
    ``constraint_rows``, and ``with_weights`` copies share them. A model
    built from objects folds their observations into those rows once; a
    model built ``from_rows`` builds its ``potentials`` and ``constraints``
    objects only when they are first read.
    """

    def __init__(self, table, potentials=(), constraints=(), templates=(), weights=None):
        self.table: VariableTable = table
        self.potentials: Sequence[HingePotential] = tuple(potentials)
        self.constraints: Sequence[LinearConstraint] = tuple(constraints)
        self.templates: tuple[TemplateInfo, ...] = tuple(templates)
        if weights is None:
            weights = np.zeros(len(self.templates))
        self.weights = _checked_weights(weights, len(self.templates))
        self.constraint_rows = ConstraintRows.fold(self.constraints, table)
        self.potential_rows = PotentialRows.fold(self.potentials, table)
        self._validate(p.origin for p in self.potentials if not p.linfun.terms)

    @classmethod
    def from_rows(cls, table, potential_rows, constraint_rows, templates, weights, origins):
        """A model over rows that reference free variables only.

        ``origins[r]`` is the origin string of potential row ``r``; it is
        read only for the objects and for warnings.
        """
        model = cls.__new__(cls)
        model.table = table
        model.templates = tuple(templates)
        model.weights = _checked_weights(weights, len(model.templates))
        model.constraint_rows = constraint_rows
        model.potential_rows = potential_rows
        model.potentials = _Built(
            potential_rows.size, functools.partial(potential_rows.objects, table, origins)
        )
        model.constraints = _Built(
            constraint_rows.size, functools.partial(constraint_rows.objects, table)
        )
        model._validate(origins[r] for r in np.flatnonzero(potential_rows.arity == 0))
        return model

    def _validate(self, degenerate_origins):
        template_id = self.potential_rows.template_id
        unknown = (template_id < 0) | (template_id >= len(self.templates))
        if unknown.any():
            raise ModelError(
                "potential references unknown template %d" % template_id[unknown.argmax()]
            )
        for origin in degenerate_origins:
            # Degenerate groundings are kept (they contribute 0) so that
            # modeling bugs stay visible.
            warnings.warn(
                "potential with constant linear function (%s)" % (origin or "unknown"),
                stacklevel=3,
            )
        counts = np.bincount(template_id, minlength=len(self.templates))
        for tid, info in enumerate(self.templates):
            if info.groundings != counts[tid]:
                raise ModelError(
                    "template %d records %d groundings but has %d potentials"
                    % (tid, info.groundings, counts[tid])
                )

    @property
    def n_free(self) -> int:
        return self.table.n_free

    def with_weights(self, weights) -> "HlMrf":
        """Copy of this model with a new template weight vector.

        The copy shares the structure and its folded rows; only the weights
        are checked.
        """
        model = copy.copy(self)
        model.weights = _checked_weights(weights, len(self.templates))
        return model

    def _hinges(self, y) -> np.ndarray:
        rows = self.potential_rows
        return rows.hinges(rows.values(self.table.free_assignment(y)))

    def energy(self, y) -> float:
        """Total weighted hinge loss ``sum_j w_j (max{l_j, 0})^p_j``."""
        return float(self.weights[self.potential_rows.template_id] @ self._hinges(y))

    def template_features(self, y) -> np.ndarray:
        """Per-template sums of unweighted potential values."""
        return np.bincount(
            self.potential_rows.template_id, self._hinges(y), minlength=len(self.templates)
        )

    def check_feasible(self, y, tol: float = 1e-9):
        """Return (feasible, violated) for the hard constraints at ``y``."""
        if tol < 0:
            raise ModelError("tolerance must be nonnegative")
        rows = self.constraint_rows
        gaps = rows.violations(rows.values(self.table.free_assignment(y)))
        violated = [self.constraints[k] for k in np.flatnonzero(gaps > tol)]
        return (not violated, violated)

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        def linfun_dict(lf):
            return {"terms": [[i, c] for i, c in lf.terms], "offset": lf.offset}

        return {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "variables": [
                {
                    "predicate": atom.predicate,
                    "args": list(atom.args),
                    "observed": self.table.observed.get(i),
                }
                for i, atom in enumerate(self.table.labels)
            ],
            "templates": [
                {"source": t.source, "groundings": t.groundings, "weight": float(w)}
                for t, w in zip(self.templates, self.weights)
            ],
            "potentials": [
                {
                    "linfun": linfun_dict(p.linfun),
                    "exponent": p.exponent,
                    "template": p.template_id,
                    "origin": p.origin,
                }
                for p in self.potentials
            ],
            "constraints": [
                {"linfun": linfun_dict(c.linfun), "relation": c.relation.value}
                for c in self.constraints
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "HlMrf":
        if data.get("format") != FORMAT_NAME:
            raise ModelError("not a %s document" % FORMAT_NAME)
        if data.get("version") != FORMAT_VERSION:
            raise ModelError("unsupported model format version %r" % data.get("version"))

        for kind in ("potential", "constraint"):
            _index_array(
                [i for row in data[kind + "s"] for i, _ in row["linfun"]["terms"]],
                "%s references unknown variable" % kind,
            )

        def linfun(d):
            return LinearFunction([(int(i), float(c)) for i, c in d["terms"]], d["offset"])

        labels = [GroundAtom(v["predicate"], tuple(v["args"])) for v in data["variables"]]
        observed = {
            i: v["observed"] for i, v in enumerate(data["variables"]) if v["observed"] is not None
        }
        table = VariableTable(labels, observed)
        templates = [TemplateInfo(t["source"], t["groundings"]) for t in data["templates"]]
        weights = [t["weight"] for t in data["templates"]]
        potentials = [
            HingePotential(linfun(p["linfun"]), p["exponent"], p["template"], p.get("origin", ""))
            for p in data["potentials"]
        ]
        constraints = [
            LinearConstraint(linfun(c["linfun"]), Relation(c["relation"]))
            for c in data["constraints"]
        ]
        return cls(table, potentials, constraints, templates, weights)

    def to_json(self, **kwargs) -> str:
        kwargs.setdefault("sort_keys", True)
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_json(cls, text: str) -> "HlMrf":
        return cls.from_dict(json.loads(text))
