"""Text-based data ingestion: universe, predicates, observations.

The input has three kinds of statements, in any order as long as names are
declared before use:

    Person = {"Alexis", "Bob"}            // constants, grouped into types
    Advises(Professor, Student)           // open predicate
    Department(Person, Subject) (closed)  // closed predicate
    Advises("Alexis", "Don") = 1          // observation

Unlisted atoms of closed predicates are observed at 0; unlisted atoms of
open predicates stay unobserved. Constants may belong to several types.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ..lang.ast import LangError
from ..lang.lexer import tokenize
from ..model import GroundAtom


class DataError(LangError):
    pass


@dataclass(frozen=True)
class PredicateDef:
    name: str
    arg_types: tuple[str, ...]
    closed: bool = False

    @property
    def arity(self) -> int:
        return len(self.arg_types)


class Coding:
    """A data set's constants as integer codes and its observations as arrays.

    A constant's code is its rank in the sorted union of all types'
    constants, so code order is string order. ``types`` maps each type to
    its constants' codes, ascending. ``observed`` maps each predicate with
    observations to an argument-code matrix, rows in lexicographic order,
    and the matching value vector.
    """

    def __init__(self, data: "DataSet"):
        self.constants: list[str] = sorted(set().union(*data.universe.values()))
        self.code: dict[str, int] = {c: k for k, c in enumerate(self.constants)}
        code = self.code
        self.types = {
            name: np.array([code[c] for c in data.constants_of(name)], dtype=np.intp)
            for name in data.universe
        }
        grouped: dict[str, tuple[list, list]] = {}
        for atom, value in data.observations.items():
            args, values = grouped.setdefault(atom.predicate, ([], []))
            args.append([code[a] for a in atom.args])
            values.append(value)
        self.observed: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for name, (args, values) in grouped.items():
            codes = np.array(args, dtype=np.intp).reshape(len(args), len(args[0]))
            order = np.lexsort(codes.T[::-1])
            self.observed[name] = (codes[order], np.array(values)[order])

    def type_codes(self, name: str) -> np.ndarray:
        if name not in self.types:
            raise DataError("unknown type %s" % name)
        return self.types[name]


class DataSet:
    """Typed universe, predicate declarations, and the observation map.

    Types are defined through `define_type` and observations added through
    `add_observation`, which keep the lookup structures beside them: a
    member set and a sorted tuple per type, and the integer `coding` that
    grounding reads, rebuilt on first use after a change.
    """

    def __init__(self, universe=None, predicates=(), observations=None, functionals=None):
        self.universe: dict[str, tuple[str, ...]] = {}
        self._members: dict[str, frozenset[str]] = {}
        self._sorted: dict[str, tuple[str, ...]] = {}
        for type_name, constants in (universe or {}).items():
            self.define_type(type_name, constants)
        self.predicates: dict[str, PredicateDef] = {p.name: p for p in predicates}
        self.observations: dict[GroundAtom, float] = {}
        self._coding: Coding | None = None
        # Functionally defined predicates: name -> fn(*constants) -> [0, 1].
        # They behave as closed predicates whose values are computed on use.
        self.functionals: dict[str, callable] = dict(functionals or {})
        for atom, value in (observations or {}).items():
            self.add_observation(atom, value)

    def define_type(self, name: str, constants):
        """Declare a type with its constants, in the order given."""
        constants = tuple(constants)
        if name in self.universe:
            raise DataError("type %s defined twice" % name)
        members = frozenset(constants)
        if len(members) != len(constants):
            raise DataError("type %s lists a constant twice" % name)
        self.universe[name] = constants
        self._members[name] = members
        self._sorted[name] = tuple(sorted(constants))
        self._coding = None

    def has_constant(self, type_name: str, constant: str) -> bool:
        """Whether a constant is declared with a type (False for unknown types)."""
        members = self._members.get(type_name)
        return members is not None and constant in members

    def add_observation(self, atom: GroundAtom, value: float):
        pred = self.predicates.get(atom.predicate)
        if pred is None:
            raise DataError("observation for undeclared predicate %s" % atom.predicate)
        if len(atom.args) != pred.arity:
            raise DataError("%s takes %d arguments" % (pred.name, pred.arity))
        for arg, type_name in zip(atom.args, pred.arg_types):
            if not self.has_constant(type_name, arg):
                raise DataError(
                    'constant "%s" is not declared with type %s' % (arg, type_name)
                )
        if not 0.0 <= value <= 1.0:
            raise DataError("observed value %r for %s outside [0, 1]" % (value, atom))
        self.observations[atom] = float(value)
        self._coding = None

    def coding(self) -> Coding:
        """The integer coding of the constants and observations, built on first use."""
        if self._coding is None:
            self._coding = Coding(self)
        return self._coding

    def register_functional(self, name: str, arg_types, fn):
        self.predicates[name] = PredicateDef(name, tuple(arg_types), closed=True)
        self.functionals[name] = fn

    def constants_of(self, type_name: str) -> tuple[str, ...]:
        """Constants of a type in lexicographic (grounding) order."""
        if type_name not in self._sorted:
            raise DataError("unknown type %s" % type_name)
        return self._sorted[type_name]

    def atoms_of(self, predicate: str):
        """All well-typed ground atoms of one predicate, in grounding order."""
        pred = self.predicates[predicate]
        domains = [self.constants_of(t) for t in pred.arg_types]
        for combo in itertools.product(*domains):
            yield GroundAtom(predicate, combo)

    def base(self):
        """The full base: every atom of every declared predicate."""
        for name in sorted(self.predicates):
            if name in self.functionals:
                continue
            yield from self.atoms_of(name)

    def base_size(self) -> int:
        total = 0
        for name, pred in self.predicates.items():
            if name in self.functionals:
                continue
            count = 1
            for t in pred.arg_types:
                count *= len(self.universe.get(t, ()))
            total += count
        return total

    def observed_value(self, atom: GroundAtom):
        """Observation for an atom: a value in [0, 1] or None if unobserved."""
        pred = self.predicates.get(atom.predicate)
        if pred is None:
            raise DataError("unknown predicate %s" % atom.predicate)
        if atom.predicate in self.functionals:
            value = float(self.functionals[atom.predicate](*atom.args))
            if not 0.0 <= value <= 1.0:
                raise DataError("functional predicate %s returned %r" % (atom.predicate, value))
            return value
        if atom in self.observations:
            return self.observations[atom]
        return 0.0 if pred.closed else None


def load_data(text: str) -> DataSet:
    """Parse the text format described in the module docstring."""
    tokens = tokenize(text)
    data = DataSet()
    pos = 0

    def peek(ahead=0):
        return tokens[min(pos + ahead, len(tokens) - 1)]

    def fail(message, tok=None):
        tok = tok or peek()
        raise DataError(message, tok.line, tok.column)

    def expect(kind, what):
        nonlocal pos
        tok = peek()
        if tok.kind != kind:
            fail("expected %s, found %r" % (what, tok.text or "end of input"))
        pos += 1
        return tok

    while peek().kind != "EOF":
        name_tok = expect("IDENT", "a type or predicate name")
        name = name_tok.value
        tok = peek()
        if tok.kind == "EQ":
            pos += 1
            expect("LBRACE", "'{'")
            constants = []
            if peek().kind != "RBRACE":
                constants.append(expect("STRING", "a quoted constant").value)
                while peek().kind == "COMMA":
                    pos += 1
                    constants.append(expect("STRING", "a quoted constant").value)
            expect("RBRACE", "'}'")
            try:
                data.define_type(name, constants)
            except DataError as exc:
                fail(str(exc), name_tok)
            continue
        if tok.kind != "LPAREN":
            fail("expected '=' or '(' after %s" % name)
        pos += 1
        first = peek()
        if first.kind == "IDENT":  # predicate declaration
            arg_types = [expect("IDENT", "a type name").value]
            while peek().kind == "COMMA":
                pos += 1
                arg_types.append(expect("IDENT", "a type name").value)
            expect("RPAREN", "')'")
            closed = False
            if (
                peek().kind == "LPAREN"
                and peek(1).kind == "IDENT"
                and peek(1).value == "closed"
                and peek(2).kind == "RPAREN"
            ):
                pos += 3
                closed = True
            if name in data.predicates:
                fail("predicate %s declared twice" % name, name_tok)
            for t in arg_types:
                if t not in data.universe:
                    fail("predicate %s uses undefined type %s" % (name, t), name_tok)
            data.predicates[name] = PredicateDef(name, tuple(arg_types), closed)
            continue
        if first.kind == "STRING":  # observation
            args = [expect("STRING", "a quoted constant").value]
            while peek().kind == "COMMA":
                pos += 1
                args.append(expect("STRING", "a quoted constant").value)
            expect("RPAREN", "')'")
            expect("EQ", "'='")
            value_tok = expect("NUMBER", "a value in [0, 1]")
            try:
                data.add_observation(GroundAtom(name, tuple(args)), value_tok.value)
            except DataError as exc:
                fail(str(exc), name_tok)
            continue
        fail("expected type names or quoted constants after '('")
    return data
