import fedbilevel


def test_public_names_resolve_once():
    names = fedbilevel.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(fedbilevel, n)] == []
