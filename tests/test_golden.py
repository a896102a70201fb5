"""Golden outputs of ``train`` and of the default config digests.

The recorded values in ``golden_train.json`` pin what training produces
for four small configurations: the trained embeddings, every loss-curve
value and the after-training hubness report. They are compared at
``rtol=1e-9``, which tolerates BLAS rounding but catches any change to
the arithmetic of a training step. A refactor of the trainer or of the
config plumbing must leave this file passing unchanged.

Regenerate the recording (only when a change of behaviour is intended)
with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from hublab import TrainConfig, synth_generate, train
from hublab.config import config_digest, resolve_config, train_config_from
from hublab.trainer import CURVE_COLUMNS

GOLDEN = Path(__file__).with_name("golden_train.json")
RTOL = 1e-9

# 24 pairs in batches of 8 for 3 epochs: 9 steps, 72 rows pushed per
# modality into a 32-row bank, so the bank fills and evicts
BASE = dict(batch_size=8, k_neighbors=3, bank_capacity=32, epochs=3,
            epsilon_sinkhorn=0.1, sinkhorn_max_iter=5000, learning_rate=1e-2,
            k=5, seed=0)
CASES = {
    "table-full": {},
    "bank-pool": {"neighbor_pool": "bank"},
    "projection-bank-pool": {"model": "linear-projection",
                             "neighbor_pool": "bank"},
    "paper-grad": {"grad_mode": "paper"},
}

DEFAULT_DIGESTS = {
    "train": "8dee22a69af6",
    "analyze": "db1e7eefe031",
    "retrieve": "9401d5880e02",
    "simulate": "591d51d07399",
    "probe": "e94e10e25d4d",
}


def _data():
    return synth_generate(24, 6, 0.25, 0.5, 0.6, 7)


def _record(case: str) -> dict:
    result = train(TrainConfig(**BASE, **CASES[case]), _data())
    return {
        "queries": result.queries.data.tolist(),
        "galleries": result.galleries.data.tolist(),
        "curve": {c: [row[c] for row in result.loss_curve] for c in CURVE_COLUMNS},
        "report_after": result.report_after,
    }


def _numbers(value) -> list:
    """Every number of a nested dict/list, in a fixed order."""
    if isinstance(value, dict):
        return [x for key in sorted(value) for x in _numbers(value[key])]
    if isinstance(value, (list, tuple)):
        return [x for item in value for x in _numbers(item)]
    return [float(value)]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", sorted(CASES))
def test_train_matches_recording(golden, case):
    expected = golden[case]
    got = _record(case)
    for key in ("queries", "galleries"):
        np.testing.assert_allclose(np.array(got[key]), np.array(expected[key]),
                                   rtol=RTOL, atol=0, err_msg=key)
    assert sorted(got["curve"]) == sorted(expected["curve"])
    for column, values in expected["curve"].items():
        np.testing.assert_allclose(got["curve"][column], values,
                                   rtol=RTOL, atol=0, err_msg=column)
    assert sorted(got["report_after"]) == sorted(expected["report_after"])
    np.testing.assert_allclose(_numbers(got["report_after"]),
                               _numbers(expected["report_after"]),
                               rtol=RTOL, atol=0)


@pytest.mark.parametrize("command", sorted(DEFAULT_DIGESTS))
def test_default_config_digest(command):
    assert config_digest(command, resolve_config({}, {})) == DEFAULT_DIGESTS[command]


def test_default_train_config_round_trip():
    assert train_config_from(resolve_config({}, {})) == TrainConfig()


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({case: _record(case) for case in sorted(CASES)},
                                 sort_keys=True, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
