"""The five records behave as immutable value objects: construction by
position and keyword, defaults, equality, hashing, immutability, repr, and
round trips through pickle and deepcopy."""

import copy
import pickle

import pytest

from comptri import ArithmeticFunction, FormCheck, LowerTriangularMatrix, Restriction as R, WordModel
from comptri.verify import Sweep

# one row per record: positional call, the same record by keyword (with its
# defaults spelled out or normalised), a record that differs in one field,
# and the expected repr of the first
RECORDS = {
    "LowerTriangularMatrix": (
        lambda: LowerTriangularMatrix(((1,), (2, 3))),
        lambda: LowerTriangularMatrix(rows=[[1], [2, 3]]),
        lambda: LowerTriangularMatrix(((1,), (2, 4))),
        "LowerTriangularMatrix(rows=((1,), (2, 3)))",
    ),
    "ArithmeticFunction": (
        lambda: ArithmeticFunction((1, 2)),
        lambda: ArithmeticFunction(values=[1, 2], label=""),
        lambda: ArithmeticFunction((1, 2), label="x"),
        "ArithmeticFunction(values=(1, 2), label='')",
    ),
    "WordModel": (
        lambda: WordModel(3, 2),
        lambda: WordModel(alphabet=3, length=2, restriction=R.NONE, marked_letter=None, marked_count=None),
        lambda: WordModel(3, 2, R.NONE, 1),
        "WordModel(alphabet=3, length=2, restriction=<Restriction.NONE: 'none'>, "
        "marked_letter=None, marked_count=None)",
    ),
    "FormCheck": (
        lambda: FormCheck(1, 2, 1, 5, 5),
        lambda: FormCheck(m=1, n=2, k=1, engine=5, formula=5),
        lambda: FormCheck(1, 2, 1, 5, 6),
        "FormCheck(m=1, n=2, k=1, engine=5, formula=5)",
    ),
    "Sweep": (
        lambda: Sweep("bell_identity", 6, (), 0.5),
        lambda: Sweep(name="bell_identity", checks=6, failures=(), elapsed_s=0.5),
        lambda: Sweep("bell_identity", 6, ("fails",), 0.5),
        "Sweep(name='bell_identity', checks=6, failures=(), elapsed_s=0.5)",
    ),
}
ROWS = pytest.mark.parametrize(("make", "by_keyword", "other", "text"), RECORDS.values(), ids=RECORDS)


@ROWS
def test_equality_and_hash(make, by_keyword, other, text):
    record = make()
    assert record == make() == by_keyword()
    assert hash(record) == hash(make()) == hash(by_keyword())
    assert record != other() and not record == other()


@ROWS
def test_repr(make, by_keyword, other, text):
    assert repr(make()) == repr(by_keyword()) == text


@ROWS
def test_fields_are_read_only(make, by_keyword, other, text):
    record = make()
    field = text[text.index("(") + 1 : text.index("=")]
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, field) == before and record == make()


@ROWS
@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trip(make, by_keyword, other, text, protocol):
    record = make()
    back = pickle.loads(pickle.dumps(record, protocol))
    assert type(back) is type(record) and back == record and repr(back) == text


@ROWS
def test_deepcopy_round_trip(make, by_keyword, other, text):
    record = make()
    back = copy.deepcopy(record)
    assert type(back) is type(record) and back == record and repr(back) == text


def test_defaults_and_normalisation():
    assert ArithmeticFunction([1, 2]).label == ""
    assert ArithmeticFunction([1, 2]).values == (1, 2)
    assert LowerTriangularMatrix([[1], [2, 3]]).rows == ((1,), (2, 3))
    model = WordModel(3, 2)
    assert (model.restriction, model.marked_letter, model.marked_count) == (R.NONE, None, None)
    assert ArithmeticFunction((1, 2)) != ArithmeticFunction((1, 2), label="x")
    assert FormCheck(1, 2, 1, 5, 5).ok and not FormCheck(1, 2, 1, 5, 6).ok
    match FormCheck(1, 2, 1, 5, 6):
        case FormCheck(m, n, k, engine, formula):
            assert (m, n, k, engine, formula) == (1, 2, 1, 5, 6)
    # a record equals only records of its own class, never a tuple of its fields
    assert FormCheck(1, 2, 1, 5, 5) != (1, 2, 1, 5, 5)
    assert Sweep("bell_identity", 6, (), 0.5) != ("bell_identity", 6, (), 0.5)
