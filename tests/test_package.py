import twrnoma


def test_all_exports_resolve():
    for name in twrnoma.__all__:
        getattr(twrnoma, name)
