"""Fuzzing of the readers of user files.

`tokenize`, `parse_program` and `load_data` read user files, so whatever
text they get they either succeed or raise a `LangError` carrying an
integer line and column. Inputs are arbitrary text and valid rule or data
text with a few characters inserted, deleted or replaced. On the same
inputs `load_data` reads what the token-walk reader in `helpers` reads and
fails where it fails. Data texts whose observations are all plain are read
in one bulk pass, without the statement walk, to the same result; so are
the plain observations before the first other text. A data set read in
bulk holds what one filled by `DataSet.add_observation` over the same
statements holds, down to its coding and variable table.

`HlMrf.from_json` reads model files: whatever JSON document it gets, it
either succeeds or raises a `ModelError`. Inputs are a valid document with
a few values replaced by arbitrary JSON values or deleted.
"""

import copy
import json
import re
import unittest.mock
import warnings

import pytest

from hypothesis import example, given, settings, strategies as st

from softlogic.ground import DataError, DataSet, load_data
from softlogic.ground.data import statements
from softlogic.lang import LangError, parse_program, tokenize
from softlogic.model import GroundAtom, HlMrf, ModelError

from helpers import reference_load_data

VALID_PROGRAM = """// opinion priors
0.5 : Opinion(U) -> Liberal(U) ^2
0.5 : !Opinion(U) -> Conservative(U)
/* propagation */ 0.9 : Liberal(A) & Edge1(A, B) & (A != B) -> Liberal(B)
Liberal(U) + Conservative(U) = 1 .
10 : Extroverted(X) <= 1 / |Y| Extroverted(+Y) ^2
{Y : Friends(X, Y) || Friends(Y, X)}
Matched(+X, +Y) = @Min[|X|, |Y|] .
1.5e-1 : Same(A, "a\\"b") << Link(A, B) && ~Link(B, A)
"""

VALID_DATA = """User = {"u1", "u2", 'u3'}
Opinion(User) (closed)
Edge1(User, User) (closed)
Liberal(User)
Opinion("u1") = 0.25
Opinion("u2") = 1e-1 // trailing comment
Edge1("u1", "u2") = 1
/* block
   comment */ Liberal("u3") = 0.5
"""

# Single quotes, escapes, comment marks inside constants, and a comment
# between every two tokens.
COMMENTED_DATA = """/*0*/User/*1*/=/*2*/{/*3*/'u\\'1'/*4*/,//5
"u\\"2"/*6*/,/*7*/"a\\
b"/**/,'c//d',"e/*f*/"/*8*/}//9
Opinion/**/(/**/User/**/)/**/(/**/closed/**/)//10
Edge1(User,/* , */User)Opinion/**/(/**/'u\\'1'/**/)/**/=/**/0.5//11
Edge1("e/*f*/", 'c//d')/* "x" */=1e-1/* a "quoted" // comment */Opinion("a\\
b") = 1
"""

# Characters the lexer treats specially, plus non-ASCII letters and digits
# (including digits that are not decimal, such as superscripts).
_SPECIAL = list(" \t\r\n\"'\\/*()[]{},:.+-=@&|!~^<>2e") + ["é", "²", "½", "٣"]


@st.composite
def mutated(draw, base):
    text = list(base)
    for _ in range(draw(st.integers(1, 4))):
        position = draw(st.integers(0, len(text)))
        action = draw(st.sampled_from(("insert", "delete", "replace")))
        char = draw(st.sampled_from(_SPECIAL) | st.characters())
        if action == "insert":
            text.insert(position, char)
        elif text:
            position = min(position, len(text) - 1)
            if action == "delete":
                del text[position]
            else:
                text[position] = char
    return "".join(text)


def _only_located_lang_errors(read, text):
    try:
        read(text)
    except LangError as exc:
        assert isinstance(exc.line, int) and isinstance(exc.column, int), (exc, text)


def _texts(base):
    return st.text(max_size=80) | st.sampled_from(_SPECIAL).map(lambda c: c * 3) | mutated(base)


@settings(max_examples=400, deadline=None)
@given(text=_texts(VALID_PROGRAM) | _texts(VALID_DATA))
@example("²")
@example("1.²")
@example('"unterminated\\')
@example("/* open")
def test_tokenize(text):
    _only_located_lang_errors(tokenize, text)


@settings(max_examples=400, deadline=None)
@given(text=_texts(VALID_PROGRAM))
@example("(" * 5000 + "A")
def test_parse_program(text):
    _only_located_lang_errors(parse_program, text)


@settings(max_examples=400, deadline=None)
@given(text=_texts(VALID_DATA))
@example('T = {"a"}\nP(T)\nP("a") = 1e999')
def test_load_data(text):
    _only_located_lang_errors(load_data, text)


def _outcome(read, text):
    try:
        return read(text)
    except LangError as exc:
        return exc


# Syntax errors the statement scanner reports as a malformed statement.
_RENAMED = re.compile(r"\d+:\d+: expected (?!a type or predicate name).*, found ")


@settings(max_examples=400, deadline=None)
@given(text=_texts(VALID_DATA) | _texts(COMMENTED_DATA))
@example('T = {"a" //"b"}\n')  # a line comment runs to its line's end
@example('T = {"a"}\n/* c */ ) /* d */\nP(T)\n')  # a block comment to its first "*/"
@example('T = {"a\\\nb"}\nP(T)\nP("zz") = 1')  # an escaped newline is no line break
@example('T = {"a"}\nP(Missing)\n"open')  # a lexing error anywhere comes first
@example('½ = {"a"}')  # a name starts with a letter
# One fault inside a trailing run of observations, which the bulk reader
# must leave to the statement walk to locate (or to read, if it is valid).
@example('T = {"a"}\nP(T)\nP("a") = 1\nP("b") = 0\n')  # an unknown constant
@example('T = {"a"}\nP(T)\nP("a") = 1\nQ("a") = 0\n')  # an undeclared predicate
@example('T = {"a"}\nP(T)\nP("a") = 1\nP("a", "a") = 0\n')  # a wrong arity
@example('T = {"a"}\nP(T, T)\nP("a", "a") = 1\n  P("a") = 0\n')  # too few arguments
@example('T = {"a"}\nP(T)\nP("a") = 1\nP("a") = 2\n')  # a value above 1
@example('T = {"a"}\nP(T)\nP("a") = 1\nP("a") = 1e999\n')  # an infinite value
@example('T = {"a"}\nP(T)\nP("a") = 1\nQ(T)\nQ("a") = 0.5\n')  # a declaration
@example('T = {"a"}\nP(T)\nP("a") = 1\nP("a") = 0 // c\n')  # a line comment
@example('T = {"a"}\nP(T)\nP("a") = 1\nP(\'a\') = 0\n')  # a single-quoted constant
@example('T = {"a"}\nP(T)\nP("a") = 1\nP("\\a") = 0\n')  # an escaped constant
@example('T = {"a"}\nP(T)\nP("a") = 1\f\nP("a") = 0\n')  # a form feed
@example('T = {"a"}\nP(T)\nP("b") = 1\nP("a") = 0 // c\n')  # a fault before a comment
@example('T = {"a"}\nP(T)\nP("a") = 1 // c\nP("b") = 0\n')  # a fault after a comment
def test_load_data_matches_token_walk(text):
    new, ref = _outcome(load_data, text), _outcome(reference_load_data, text)
    if isinstance(ref, DataSet):
        assert isinstance(new, DataSet), new
        assert new.universe == ref.universe
        assert new.predicates == ref.predicates
        assert new.observations == ref.observations
    elif isinstance(ref, DataError) and _RENAMED.match(str(ref)):
        assert isinstance(new, DataError) and isinstance(new.line, int), (new, ref)
        assert isinstance(new.column, int)
    else:
        assert (type(new), str(new)) == (type(ref), str(ref))


# Plain data: double-quoted constants without escapes (commas, blanks and
# comment marks inside them included), blanks between tokens, no comments.
_BLANKS = st.text(" \t\r\n", max_size=3)
_VALUES = st.sampled_from(["0", "1", "0.5", "0.25", "1e-3", "1E0", "5e-1", "0.125E+0", "00.75"])


@st.composite
def plain_data(draw):
    """A data text whose observations are all plain, some of them repeated."""
    pool = draw(st.lists(st.text("ab ,/*'é", min_size=1, max_size=4), min_size=1, max_size=5,
                         unique=True))
    types = [
        draw(st.lists(st.sampled_from(pool), min_size=1, unique=True))
        for _ in range(draw(st.integers(1, 3)))
    ]
    lines = ["T%d = {%s}" % (t, ", ".join('"%s"' % c for c in cs)) for t, cs in enumerate(types)]
    arities = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    signatures = [[draw(st.integers(0, len(types) - 1)) for _ in range(k)] for k in arities]
    for p, signature in enumerate(signatures):
        lines.append("P%d(%s)" % (p, ", ".join("T%d" % t for t in signature)))
    text = "\n".join(lines) + draw(_BLANKS) + "\n"
    atoms = []
    for _ in range(draw(st.integers(1, 12))):
        if atoms and draw(st.booleans()):
            p, args = draw(st.sampled_from(atoms))  # a repeated atom
        else:
            p = draw(st.integers(0, len(signatures) - 1))
            args = [draw(st.sampled_from(types[t])) for t in signatures[p]]
        atoms.append((p, args))
        b = [draw(_BLANKS) for _ in range(7)]
        constants = (b[5] + "," + b[6]).join('"%s"' % a for a in args)
        text += "P%d%s(%s%s%s)%s=%s%s" % (p, b[0], b[1], constants, b[2], b[3], b[4], draw(_VALUES))
        text += draw(st.sampled_from(["\n", " ", ""]))
    return text


@settings(max_examples=300, deadline=None)
@given(text=plain_data())
@example('T = {"a"}\nP(T)\nP("a") = 1\nP("a") = 0.5\nP("a")=1E0')
def test_plain_observations_read_in_bulk(text):
    def walk(*args):
        raise AssertionError("an observation was read one statement at a time")

    with unittest.mock.patch.object(DataSet, "_observe", walk):
        new = load_data(text)
    ref = reference_load_data(text)
    assert new.universe == ref.universe
    assert new.predicates == ref.predicates
    assert list(new.observations.items()) == list(ref.observations.items())
    assert len(new.observations) == len(ref.observations)


@settings(max_examples=200, deadline=None)
@given(text=plain_data(), tail=st.sampled_from(["comment", "quoted"]))
@example('T = {"a"}\nP(T)\nP("a") = 1\nP("a") = 0.5\n', "comment")
@example('T = {"a", "b"}\nP(T)\nP("a") = 1\nP("b") = 0.5\n', "quoted")
def test_plain_prefix_read_in_bulk(text, tail):
    # Only the statements from the first non-plain one on are read one at
    # a time: none after a trailing comment; the single-quoted observation
    # and the plain one after it otherwise.
    if tail == "comment":
        text += "\n// end\n"
        walked = 0
    else:
        atom = next(iter(reference_load_data(text).observations))
        quoted = ", ".join("'%s'" % a.replace("'", "\\'") for a in atom.args)
        plain = ", ".join('"%s"' % a for a in atom.args)
        text += "\n%s(%s) = 0.25\n%s(%s) = 1\n" % (atom.predicate, quoted, atom.predicate, plain)
        walked = 2
    calls = []
    observe = DataSet._observe

    def counted(self, *args):
        calls.append(args)
        return observe(self, *args)

    with unittest.mock.patch.object(DataSet, "_observe", counted):
        new = load_data(text)
    ref = reference_load_data(text)
    assert len(calls) == walked
    assert new.universe == ref.universe
    assert new.predicates == ref.predicates
    assert list(new.observations.items()) == list(ref.observations.items())


def test_valid_texts_read():
    assert len(parse_program(VALID_PROGRAM).rules) == 7
    assert len(load_data(VALID_DATA).observations) == 4
    assert len(load_data(COMMENTED_DATA).observations) == 3


@pytest.mark.parametrize("text", [
    'T = {"", "a"}\nP(T, T)\nP("a") = 1\n',  # too few arguments
    'T = {"", "a"}\nP(T, T)\nP("a", "a") = 1\nP("a") = 0\n',
    'T = {"", "a"}\nP(T)\nP("a") = 1\nP("a", "a") = 0\n',  # too many
    'T = {"", "a"}\nP(T, T)\nP("a", "") = 1\nP("", "a") = 0.5\n',  # "" given, not plain
])
def test_a_declared_empty_constant_fills_no_missing_argument(text):
    new, ref = _outcome(load_data, text), _outcome(reference_load_data, text)
    if isinstance(ref, DataSet):
        assert list(new.observations.items()) == list(ref.observations.items())
    else:
        assert (type(new), str(new)) == (type(ref), str(ref))


@st.composite
def mixed_data(draw):
    """A data text with constants in several types, open and closed
    predicates, observed open atoms and repeated observations, and maybe a
    statement the bulk reader leaves to the walk (a comment or a
    single-quoted constant) midway, with a type and a predicate declared
    after it and observed."""
    types = [
        draw(st.lists(st.sampled_from("abcd"), min_size=1, max_size=4, unique=True))
        for _ in range(draw(st.integers(1, 3)))
    ]
    signatures = [
        [draw(st.integers(0, len(types) - 1)) for _ in range(draw(st.integers(1, 3)))]
        for _ in range(draw(st.integers(1, 3)))
    ]
    lines = ["T%d = {%s}" % (t, ", ".join('"%s"' % c for c in cs)) for t, cs in enumerate(types)]
    lines += ["P%d(%s)%s" % (p, ", ".join("T%d" % t for t in signature),
                             draw(st.sampled_from(["", " (closed)"])))
              for p, signature in enumerate(signatures)]

    def observation(quote="\""):
        p = draw(st.integers(0, len(signatures) - 1))
        args = ", ".join(quote + draw(st.sampled_from(types[t])) + quote for t in signatures[p])
        return "P%d(%s) = %s" % (p, args, draw(st.sampled_from(["0", "1", "0.5", "0.25"])))

    lines += [observation() for _ in range(draw(st.integers(1, 10)))]
    late = draw(st.sampled_from([None, "comment", "quoted"]))
    if late is not None:
        lines.append("// midway" if late == "comment" else observation("'"))
        lines += ['L = {"e", "a"}', "Q(L, T0)", 'Q("e", "%s") = 0.75' % types[0][0]]
        lines += [observation() for _ in range(draw(st.integers(0, 4)))]
    return "\n".join(lines) + "\n"


def _added_one_at_a_time(text):
    """A data set filled by `DataSet.add_observation` over the statements of
    ``text``, and the same observations in plain dicts, one per predicate in
    the order first observed: each atom where it was first observed, with
    the value it was last observed at."""
    data, observed = DataSet(), {}
    for kind, name, items, value, _ in statements(text):
        if kind == "type":
            data.define_type(name, items)
        elif kind == "predicate":
            data.declare_predicate(name, items, value)
        else:
            atom = GroundAtom(name, items)
            data.add_observation(atom, value)
            observed.setdefault(name, {})[atom] = value
            assert data.observed_value(atom) == value  # a lookup between additions
    return data, {atom: v for atoms in observed.values() for atom, v in atoms.items()}


@settings(max_examples=300, deadline=None)
@given(text=mixed_data())
@example('T0 = {"a", "b"}\nP0(T0)\nP0("b") = 1\nP0("a") = 0.5\nP0("b") = 0\n')
def test_bulk_read_matches_observations_added_one_at_a_time(text):
    new, (ref, observed) = load_data(text), _added_one_at_a_time(text)
    assert list(new.observations.items()) == list(ref.observations.items()) == list(observed.items())
    assert len(new.observations) == len(ref.observations) == len(observed)
    for atom in ref.base():
        closed = ref.predicates[atom.predicate].closed
        assert new.observed_value(atom) == ref.observed_value(atom) == observed.get(
            atom, 0.0 if closed else None
        )
    coding, expected = new.coding(), ref.coding()
    assert list(coding.observed) == list(expected.observed)
    for name, (codes, values) in expected.observed.items():
        assert coding.observed[name][0].dtype == codes.dtype
        assert coding.observed[name][0].tolist() == codes.tolist()
        assert coding.observed[name][1].tolist() == values.tolist()
    table = coding.table
    assert table.labels == expected.table.labels == tuple(
        atom for atom in ref.base() if not ref.predicates[atom.predicate].closed
    )
    assert table.observed == expected.table.observed == {
        k: ref.observations[atom] for k, atom in enumerate(table.labels)
        if atom in ref.observations
    }
    assert table.position.tolist() == expected.table.position.tolist()
    assert table.free_indices == tuple(k for k in range(table.size) if k not in table.observed)


VALID_MODEL = {
    "format": "softlogic-ground-model",
    "version": 1,
    "variables": [
        {"predicate": "Liberal", "args": ["u1"], "observed": None},
        {"predicate": "Liberal", "args": ["u2"], "observed": 0.25},
        {"predicate": "Conservative", "args": ["u1"], "observed": None},
    ],
    "templates": [
        {"source": "0.5 : Opinion(U) -> Liberal(U)", "groundings": 2, "weight": 0.5},
        {"source": "Liberal(U) + Conservative(U) = 1 .", "groundings": 0, "weight": 0.0},
    ],
    "potentials": [
        {"linfun": {"terms": [[0, -1.0], [1, 0.5]], "offset": 0.75}, "exponent": 1,
         "template": 0, "origin": "rule 0 {U=u1}"},
        {"linfun": {"terms": [[2, 1.0], [2, -0.5], [0, 1.0]], "offset": -1.0}, "exponent": 2,
         "template": 0},
    ],
    "constraints": [
        {"linfun": {"terms": [[0, 1.0], [2, 1.0]], "offset": -1.0}, "relation": "eq"},
        {"linfun": {"terms": [[1, 1.0], [0, 1.0]], "offset": -1.0}, "relation": "leq"},
    ],
}

_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=6)
    | st.sampled_from([0, 1, 2, -1, 0.5, 10**400, "eq", "leq", "1"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def _paths(node, path=()):
    """Every place in a JSON document, the document itself first."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _paths(child, path + (key,))


@st.composite
def mutated_documents(draw):
    doc = copy.deepcopy(VALID_MODEL)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = draw(_json_values)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            parent[path[-1]] = draw(_json_values)
        else:
            del parent[path[-1]]
    return doc


def test_valid_model_reads():
    mrf = HlMrf.from_json(json.dumps(VALID_MODEL))
    assert (mrf.n_free, mrf.potential_rows.size, mrf.constraint_rows.size) == (2, 2, 2)


@settings(max_examples=600, deadline=None)
@given(doc=mutated_documents())
def test_model_from_json(doc):
    text = json.dumps(doc)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            HlMrf.from_json(text)
        except ModelError:
            pass
