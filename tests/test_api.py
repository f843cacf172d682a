import qpcut as qc


def test_every_exported_name_resolves():
    missing = [name for name in qc.__all__ if not hasattr(qc, name)]
    assert missing == []
    assert len(set(qc.__all__)) == len(qc.__all__)
