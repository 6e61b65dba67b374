from __future__ import annotations

import pytest

from support import make_rng

from mlabe.abe import setup
from mlabe.policy import AttributeSet, TIMESTAMP_ATTRIBUTE


@pytest.fixture(scope="session")
def master_pair():
    return setup(256, make_rng("session-master"))


@pytest.fixture()
def rng():
    return make_rng("per-test")


def issue(pair, names, t_sk: int = 1_000, numeric: dict | None = None,
          seed: str = "key-seed"):
    """Issue a user key carrying the given attributes plus a timestamp."""
    from mlabe.abe import keygen

    merged = dict(numeric or {})
    merged.setdefault(TIMESTAMP_ATTRIBUTE, t_sk)
    return keygen(pair.msk, AttributeSet(names, merged), make_rng(seed)(32))
