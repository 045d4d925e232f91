import pytest

from magspec import disk


@pytest.fixture
def kummer_calls(monkeypatch):
    """Counts of the kummer_m and kummer_m_dz calls made through magspec.disk."""
    counts = {"kummer_m": 0, "kummer_m_dz": 0}
    for name in counts:
        original = getattr(disk, name)

        def counted(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(disk, name, counted)
    return counts
