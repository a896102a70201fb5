import hublab


class TestPublicApi:
    def test_every_export_resolves(self):
        missing = [name for name in hublab.__all__ if not hasattr(hublab, name)]
        assert missing == []

    def test_exports_are_unique(self):
        assert len(hublab.__all__) == len(set(hublab.__all__))
