"""Fuzzing of the readers of user files.

`tokenize`, `parse_program` and `load_data` read user files, so whatever
text they get they either succeed or raise a `LangError` carrying an
integer line and column. Inputs are arbitrary text and valid rule or data
text with a few characters inserted, deleted or replaced. On the same
inputs `load_data` reads what the token-walk reader in `helpers` reads and
fails where it fails.

`HlMrf.from_json` reads model files: whatever JSON document it gets, it
either succeeds or raises a `ModelError`. Inputs are a valid document with
a few values replaced by arbitrary JSON values or deleted.
"""

import copy
import json
import re
import warnings

from hypothesis import example, given, settings, strategies as st

from softlogic.ground import DataError, DataSet, load_data
from softlogic.lang import LangError, parse_program, tokenize
from softlogic.model import HlMrf, ModelError

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


def test_valid_texts_read():
    assert len(parse_program(VALID_PROGRAM).rules) == 7
    assert len(load_data(VALID_DATA).observations) == 4
    assert len(load_data(COMMENTED_DATA).observations) == 3


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
