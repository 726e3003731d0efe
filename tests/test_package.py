import teride


def test_every_exported_name_resolves():
    missing = [name for name in teride.__all__ if not hasattr(teride, name)]
    assert missing == []
    assert len(set(teride.__all__)) == len(teride.__all__)
