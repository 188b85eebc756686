"""Core hinge-loss MRF representation.

A model couples a variable table (free and observed unit-interval
variables) with weighted hinge potentials ``(max{l(y, x), 0})^p`` and hard
linear constraints. Potentials are grouped into templates; every potential
carries the weight of its template.
"""

from __future__ import annotations

import copy
import enum
import itertools
import json
import warnings
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
    the free assignment. Free terms keep their order, and observed terms are
    added into the offset in term order, exactly as
    ``LinearFunction.fold_observed`` does. Rows left with no free term are
    constants and still count.
    """

    def __init__(self, functions, table: VariableTable, kind: str):
        self.size = len(functions)
        lengths = np.fromiter((len(lf.terms) for lf in functions), np.intp, self.size)
        terms = list(itertools.chain.from_iterable(lf.terms for lf in functions))
        indices = _index_array([i for i, _ in terms], "%s references unknown variable" % kind)
        coeffs = np.array([c for _, c in terms], dtype=float)
        offsets = np.fromiter((lf.offset for lf in functions), float, self.size)
        term_row = np.repeat(np.arange(self.size), lengths)
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

        self.term_row = term_row[~observed]
        self.positions = positions[~observed]
        self.coeffs = coeffs[~observed]
        self.offsets = offsets
        self.arity = np.bincount(self.term_row, minlength=self.size)
        self.indptr = np.concatenate(([0], np.cumsum(self.arity)))

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

    def __init__(self, potentials, table):
        super().__init__([p.linfun for p in potentials], table, "potential")
        self.exponent = np.fromiter((p.exponent for p in potentials), np.intp, self.size)
        self.template_id = _index_array(
            [p.template_id for p in potentials], "potential references unknown template"
        )

    def hinges(self, values, rows=slice(None)) -> np.ndarray:
        """``(max{v, 0})^p`` of row values; ``rows`` picks the exponents (last axis)."""
        h = np.maximum(values, 0.0)
        return np.where(self.exponent[rows] == 2, h * h, h)


class ConstraintRows(FoldedRows):
    """Folded hard constraints with their relations."""

    def __init__(self, constraints, table):
        super().__init__([c.linfun for c in constraints], table, "constraint")
        self.is_eq = np.fromiter((c.relation is Relation.EQ for c in constraints), bool, self.size)

    def violations(self, values) -> np.ndarray:
        return np.where(self.is_eq, np.abs(values), np.maximum(values, 0.0))


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
    Construction folds the observations once into ``potential_rows`` and
    ``constraint_rows``; everything that evaluates the model reads those,
    and ``with_weights`` copies share them.
    """

    def __init__(self, table, potentials=(), constraints=(), templates=(), weights=None):
        self.table: VariableTable = table
        self.potentials: tuple[HingePotential, ...] = tuple(potentials)
        self.constraints: tuple[LinearConstraint, ...] = tuple(constraints)
        self.templates: tuple[TemplateInfo, ...] = tuple(templates)
        if weights is None:
            weights = np.zeros(len(self.templates))
        self.weights = _checked_weights(weights, len(self.templates))
        self.constraint_rows = ConstraintRows(self.constraints, table)
        self.potential_rows = PotentialRows(self.potentials, table)
        self._validate()

    def _validate(self):
        template_id = self.potential_rows.template_id
        unknown = (template_id < 0) | (template_id >= len(self.templates))
        if unknown.any():
            raise ModelError(
                "potential references unknown template %d" % template_id[unknown.argmax()]
            )
        for pot in self.potentials:
            if not pot.linfun.terms:
                # Degenerate groundings are kept (they contribute 0) so that
                # modeling bugs stay visible.
                warnings.warn(
                    "potential with constant linear function (%s)" % (pot.origin or "unknown"),
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
