import ehwf
from ehwf import baselines, bench, mac, model, single_user, verify

SUBMODULES = (model, single_user, mac, baselines, verify, bench)


def test_package_exports_exactly_the_submodules_exports():
    union = set()
    for module in SUBMODULES:
        assert len(set(module.__all__)) == len(module.__all__), module.__name__
        for name in module.__all__:
            assert hasattr(module, name), (module.__name__, name)
        union |= set(module.__all__)
    assert len(set(ehwf.__all__)) == len(ehwf.__all__)
    assert set(ehwf.__all__) == union
    for name in ehwf.__all__:
        owner = next(m for m in SUBMODULES if name in m.__all__)
        assert getattr(ehwf, name) is getattr(owner, name), name
