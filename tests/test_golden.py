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

``ARTIFACT_DIGESTS`` pins the sha256 of every file that ``analyze``,
``retrieve``, ``probe`` and ``train`` write on those inputs. The commands
run in a subprocess at one BLAS thread, because ``train``'s
``loss_curve.csv`` differs in its last bits between one and two threads;
so that file is pinned too. ``python tests/test_golden.py`` prints every
pinned file that moved, and the dict to paste in its place, before it
regenerates the recording; a change that moves artifact bytes on purpose
updates ``ARTIFACT_DIGESTS`` in a commit of its own.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hublab
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


# the benchmark's two train configs, by workload name
TRAIN_CONFIGS = {
    "train-sinkhorn": {"learning_rate": 0.02, "epochs": 2, "seed": 0,
                       "epsilon_sinkhorn": 0.03},
    "train-bankpool": {"learning_rate": 0.01, "epochs": 3, "seed": 0,
                       "use_opt": False, "neighbor_pool": "bank",
                       "bank_capacity": 1024},
}


def _inputs(n_pairs: int) -> list:
    return ["--queries", f"in{n_pairs}/queries.emb",
            "--galleries", f"in{n_pairs}/galleries.emb"]


# each pinned case's command, run in order in one working directory that
# holds the simulate outputs as in<n_pairs>/ and each case's artifacts in a
# directory named after it; every path is relative, so the configuration
# stamped into each JSON file does not depend on where the test runs
PINNED = {
    "analyze": ["analyze", *_inputs(3000), "--k", "15"],
    "retrieve-simi": ["retrieve", *_inputs(3000), "--mode", "simi"],
    "retrieve-simi-cent": ["retrieve", *_inputs(3000), "--mode", "simi-cent"],
    "retrieve-simi-cent-bank": ["retrieve", *_inputs(3000), "--mode", "simi-cent",
                                "--bank", "in512/galleries.emb"],
    "probe": ["probe", "--texts", "in512/queries.emb"],
    "retrieve-simi-labels": ["retrieve", *_inputs(512), "--mode", "simi",
                             "--labels", "probe/labels.json"],
    "retrieve-simi-cent-labels": ["retrieve", *_inputs(512), "--mode", "simi-cent",
                                  "--labels", "probe/labels.json"],
    "train-sinkhorn": ["train", *_inputs(128), "--config", "train-sinkhorn.json"],
    "train-bankpool": ["train", *_inputs(512), "--config", "train-bankpool.json"],
}

ARTIFACT_DIGESTS = {
    "analyze": {
        "histogram.csv": "513f3ea59e95331f45c2d662cf84f2480e5d1c62e37a325af7a6bb35cc78d95e",
        "report.json": "4202e51ef51770ddc16e0b5ca9b2f625d7064b556481ca256407d0d72ee196c0"
    },
    "retrieve-simi": {
        "ranked.csv": "491f2911cfd3ee0757731dde489fb7fedd9ce2de9dff0ea9506893cc97b2e795",
        "retrieval.json": "fca86fec79f3ae413bee92424dc5650ae86cbd2a47abf2d9e7de3ab2557533cd"
    },
    "retrieve-simi-cent": {
        "ranked.csv": "8a79dfb675457af1219213ded5457c1e8e8080288e732d0c09f5b64917dbb5e6",
        "retrieval.json": "ce7355ddded28544378852c9744e1dda7ff9f1682a94ceae0f32de9ca88c6664"
    },
    "retrieve-simi-cent-bank": {
        "ranked.csv": "df48246e92d175f43e5090e49945d0d68525e8dfeac6305cb79a620e7cfb4dac",
        "retrieval.json": "2f9784971d1dea299c04a80c40e58e43d238ffcbe30998468111c4158da214b4"
    },
    "probe": {
        "labels.json": "0a303ae01f66f15d41743bf2ce3424e86e7b4499519d244bc81c5792a2aa0b58"
    },
    "retrieve-simi-labels": {
        "ranked.csv": "4fa97f1eab3939d4b27119a1f82fa2f70dca5640ae45f1fe27e4ca502d4ac047",
        "retrieval.json": "e2e8094c2a7aee12fb2a4d095cb284429c46c8010c5bb91554fbf00ad4e62bb9"
    },
    "retrieve-simi-cent-labels": {
        "ranked.csv": "e30c9583930e7762e75ae7874c46e8c521df81fe96d234042701a951643dd6a5",
        "retrieval.json": "3a0afd9071f1ea5a1fe6d41297f9af583e93ada2ab3094b789aa15220e07d703"
    },
    "train-sinkhorn": {
        "loss_curve.csv": "2277491829c6cc6004020008a680c9c87e78ce4c756a1b7e4d6d5f0156e17c5d",
        "report_after.json": "ed2e78ce8dad9f60df351aa1c2ddc173d2e4d853db628955abbafe274d3c7fa1",
        "report_before.json": "99accd569281bb9f4fe3324572f2f022acb2c8e5064557adffcf237e6c5487fa",
        "resolved_config.json": "ee6beb79957a21affa0ca2b241195197c1ccf268b3ede6ec2501ed86a53b7aa1",
        "trained_galleries.emb": "8bccc755c8321fb098f487610c6e8087189798894c8646270b2cfb160d1ceb82",
        "trained_galleries.meta.json": "f28be07a7f805baddebc38c1a87160a6d96ebfbb6371ccaf762d935b97feec3c",
        "trained_queries.emb": "26bcc8b41c6623168830d8646dedbd04c2d5e91c0a705963bea7d6b7ed6b775d",
        "trained_queries.meta.json": "81100195a4e7791b7ac4dd0087722b2fc8ab3953f75b82ab6cdee2388086f8f0"
    },
    "train-bankpool": {
        "loss_curve.csv": "3055d8a8b901832f1c3942c5d6c470db4a4f93a860637939148406cf55ba2e07",
        "report_after.json": "574d7a6880c51c5586c7683d1e75ed793f909dcd0ab1c8b8aad36b28ac240286",
        "report_before.json": "21b2b38c76f6c83e9a5675586c5a7c47ccda8bed652853f8b531cea8a7dc6ae8",
        "resolved_config.json": "cf6ac09e4fda0d389e76ba170afeaac8d2e6e7f496eb642bf747c641381f70b3",
        "trained_galleries.emb": "984b3b8bec28481d4dd2140c4586f4957fd12ba66451be33a695a2679b6b7c63",
        "trained_galleries.meta.json": "6e6db209f3e09ba8161448af461130e11480c500bcfb6a42a6c228a45687d43d",
        "trained_queries.emb": "9fdd54432e31817e7decc99e8972a3973baa7553976e60d5020eff658a6aa377",
        "trained_queries.meta.json": "4c31c780c221547d9266ec8346f4a820c2a9cc2fd2cbb11d0e1ecac3c7dbcbac"
    }
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


def _cli(argv: list) -> Path:
    """Run one command; return the artifact directory it printed."""
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        assert main(argv) == 0, argv
    return Path(printed.getvalue().strip())


def _run_pinned() -> dict:
    """Run every PINNED case in the working directory; return the sha256 of
    each file written, ``{case: {file name: digest}}``."""
    for n_pairs, (extra, _, _) in SIMULATE_DIGESTS.items():
        Path("simulate.json").write_text(json.dumps({"n_pairs": n_pairs, **extra}))
        _cli(["simulate", "--config", "simulate.json", "--seed", "1",
              "--out", "."]).rename(f"in{n_pairs}")
    for name, config in TRAIN_CONFIGS.items():
        Path(f"{name}.json").write_text(json.dumps(config))
    digests = {}
    for case, argv in PINNED.items():
        run = _cli(argv + ["--out", "."]).rename(case)
        digests[case] = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                         for path in sorted(run.iterdir())}
    return digests


def _pinned_digests(work: Path) -> dict:
    """``_run_pinned`` in a subprocess at one BLAS thread, in ``work``."""
    src = str(Path(hublab.__file__).parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, __file__, "--pinned"], cwd=work, env=env,
                          capture_output=True, text=True, timeout=600, check=True)
    return json.loads(done.stdout)


@pytest.fixture(scope="module")
def pinned_digests(tmp_path_factory):
    return _pinned_digests(tmp_path_factory.mktemp("pinned"))


@pytest.mark.parametrize("case", PINNED)
def test_artifact_bytes(pinned_digests, case):
    assert pinned_digests[case] == ARTIFACT_DIGESTS[case]


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


def _report_artifacts(digests: dict) -> None:
    """Print each pinned file whose digest moved, then, if any did, the
    ARTIFACT_DIGESTS to paste in place of the recorded one."""
    moved = [f"{case}/{name}" for case, files in digests.items()
             for name, digest in files.items()
             if ARTIFACT_DIGESTS.get(case, {}).get(name) != digest]
    moved += [f"{case}/{name} (no longer written)"
              for case, files in ARTIFACT_DIGESTS.items() for name in files
              if name not in digests.get(case, {})]
    for name in moved:
        print(f"moved: {name}")
    if moved:
        print("ARTIFACT_DIGESTS = " + json.dumps(digests, indent=4))
    else:
        print(f"all {sum(map(len, digests.values()))} pinned artifacts unchanged")


if __name__ == "__main__" and sys.argv[1:] == ["--pinned"]:
    print(json.dumps(_run_pinned()))
elif __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        _report_artifacts(_pinned_digests(Path(work)))
    recording = {case: _record(case) for case in sorted(CASES)}
    _report(json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}, recording)
    GOLDEN.write_text(json.dumps(recording, sort_keys=True, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
