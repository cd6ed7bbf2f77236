import pytest


@pytest.fixture
def keccak_perms(monkeypatch):
    """Counts Keccak-f permutations; read ``keccak_perms[0]``."""
    from rollsim import hashing

    count = [0]
    real = hashing._keccak_f

    def counted(state):
        count[0] += 1
        return real(state)

    monkeypatch.setattr(hashing, "_keccak_f", counted)
    return count
