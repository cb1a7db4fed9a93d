import quivergrass


def test_every_public_name_resolves_once():
    # a name left in __all__ after its definition is deleted fails here
    names = quivergrass.__all__
    assert len(names) == len(set(names))
    namespace = {}
    exec("from quivergrass import *", namespace)
    for name in names:
        assert namespace[name] is getattr(quivergrass, name)
