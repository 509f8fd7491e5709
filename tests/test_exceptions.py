import inspect
import pickle

import pytest

from mnlqg import exceptions

# Constructor arguments of the classes whose __init__ builds the message
# from fields; every other class takes the message itself.
FIELD_ARGS = {
    exceptions.NotMsStable: (1.5,),
    exceptions.SingularBlock: ("G_uu", 3.2e17),
    exceptions.DualityViolation: (1.25, 1.5),
    exceptions.InitialPolicyNotStabilizing: (1.07, "noise-free design failed"),
    exceptions.IterateNotStabilizing: (4, 1.02),
    exceptions.MaxIterationsExceeded: ("value_iteration", 100, 3e-9),
    exceptions.Diverged: ("value_iteration", 57),
    exceptions.UnstableRollout: (125,),
}

CLASSES = [
    cls
    for _, cls in inspect.getmembers(exceptions, inspect.isclass)
    if issubclass(cls, BaseException) and cls.__module__ == exceptions.__name__
]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_pickle_round_trip_keeps_message_and_attributes(cls):
    exc = cls(*FIELD_ARGS.get(cls, ("something failed",)))
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(exc, protocol))
        assert type(copy) is cls
        assert str(copy) == str(exc)
        assert copy.args == exc.args
        assert vars(copy) == vars(exc)
