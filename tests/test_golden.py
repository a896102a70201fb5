"""Golden outputs of ``train`` and of the default config digests.

The recorded values in ``golden_train.json`` pin what training produces
for four small configurations: the trained embeddings, every loss-curve
value and the after-training hubness report. They are compared at
``rtol=1e-9``, which tolerates BLAS rounding but catches any change to
the arithmetic of a training step. A refactor of the trainer or of the
config plumbing must leave this file passing unchanged.

Regenerate the recording (only when a change of behaviour is intended)
with ``PYTHONPATH=src python tests/test_golden.py``, in a commit of its
own. Before it writes, it prints each case and recorded value with its
largest absolute and relative change against the file it replaces; that
report goes into CHANGES.md.

``SIMULATE_DIGESTS`` pins the bytes that ``simulate --seed 1`` writes for
the benchmark's three inputs. Nothing regenerates them: a change to those
bytes changes what every benchmark workload runs on.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from hublab import TrainConfig, synth_generate, train
from hublab.cli import main
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

# the benchmark's simulate configs by n_pairs, each with the sha256 of the
# galleries.emb and queries.emb that simulate --seed 1 writes
SIMULATE_DIGESTS = {
    128: ({"dim": 64, "noise": 0.5},
          "0fd41210efe0b36a5bc7d47b53bac8e9f2cd16c1648770bcecbd9f3fe8a7341b",
          "f804dfd0529ab3e306e8ef511c7d747ce74f39a2edd3d8e56d0d9fec8b63f66d"),
    512: ({"dim": 64, "noise": 0.5},
          "7a1d131e5746f20ebf917ec6aa4e68b0ad9be0b9d4b91a45a42a3eecaf29e32f",
          "1f2954c2504b8d2c6167907b527abc13e8369088d286dc53567b9ef7b2dde031"),
    3000: ({},
           "ba2b5ef6a09b6fd393cb2738e58313d6bac2002be1f51e89b0a62a1cc33da3ce",
           "6e29ce041c27264098f9deaa0d71d14017cee8f74bbf92bd935d33e596cc4753"),
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


@pytest.mark.parametrize("n_pairs", sorted(SIMULATE_DIGESTS))
def test_simulate_bytes(n_pairs, tmp_path, capsys):
    extra, galleries, queries = SIMULATE_DIGESTS[n_pairs]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_pairs": n_pairs, **extra}))
    assert main(["simulate", "--config", str(cfg), "--seed", "1",
                 "--out", str(tmp_path / "out")]) == 0
    run = Path(capsys.readouterr().out.strip())
    for name, digest in (("galleries.emb", galleries), ("queries.emb", queries)):
        assert hashlib.sha256((run / name).read_bytes()).hexdigest() == digest, name


def _leaves(record: dict) -> dict:
    """Every recorded value of one case by name, ``curve.total`` for a key
    of a nested dict, as a flat list of numbers."""
    leaves = {}
    for key, value in record.items():
        parts = value.items() if isinstance(value, dict) else [(None, value)]
        for sub, item in parts:
            leaves[key if sub is None else f"{key}.{sub}"] = _numbers(item)
    return leaves


def _report(old: dict, new: dict) -> None:
    """Print each case and recorded value with its largest absolute and
    relative change from ``old`` to ``new``."""
    for case in sorted(new):
        before = _leaves(old.get(case, {}))
        for name, values in sorted(_leaves(new[case]).items()):
            if len(before.get(name, [])) != len(values):
                print(f"{case} {name}: {len(before.get(name, []))} -> {len(values)} values")
                continue
            was, now = np.array(before[name]), np.array(values)
            change = np.abs(now - was)
            with np.errstate(divide="ignore", invalid="ignore"):
                rel = np.where(change == 0, 0.0, change / np.abs(was))
            print(f"{case} {name}: abs {change.max():.2g} rel {rel.max():.2g}")


if __name__ == "__main__":
    recording = {case: _record(case) for case in sorted(CASES)}
    _report(json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}, recording)
    GOLDEN.write_text(json.dumps(recording, sort_keys=True, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
