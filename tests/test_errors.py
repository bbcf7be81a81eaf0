"""Every error of the package survives a pickle round trip, as an error
raised in a sweep worker must."""

import inspect
import pickle

import pytest

from signedconn import errors

ERRORS = [
    cls
    for _, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, Exception) and cls.__module__ == errors.__name__
]


def _example(cls):
    if cls is errors.GraphSyntaxError:
        return cls(3, "expected '<u> <v> <+|->'")
    return cls("vertex 9 out of range")


@pytest.mark.parametrize("cls", ERRORS, ids=lambda cls: cls.__name__)
def test_pickle_round_trip(cls):
    exc = _example(cls)
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
    assert back.args == exc.args
    assert vars(back) == vars(exc)


def test_syntax_error_keeps_its_line():
    back = pickle.loads(pickle.dumps(errors.GraphSyntaxError(7, "bad vertex")))
    assert back.line == 7
    assert str(back) == "line 7: bad vertex"
