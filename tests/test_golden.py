"""Golden digests: the run artifacts of a fixed set of configs, byte for byte.

Each config's ``metrics.csv``, ``fusion_trace.jsonl`` and
``activations.jsonl`` must hash to the sha256 recorded here.  The configs
are the five presets with mixed precision on and off, ``smoke`` over
loopback TCP, and the three benchmark workloads at seed 1 (read from
``bench/run.py``).  A refactor that claims identical behaviour must leave
every digest alone; a change that means to move the numbers records the
new digests and says why.  The float32 results depend on numpy's kernels,
so the test runs only under the numpy version the digests were taken
with.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from gradsync.experiment import ExperimentConfig, PRESETS, preset_config, run_experiment

BENCH = Path(__file__).resolve().parent.parent / "bench"
NUMPY = "2.4.6"
FILES = ("metrics.csv", "fusion_trace.jsonl", "activations.jsonl")

# config name: sha256 of each of FILES, in order
GOLDEN = {
    "smoke-mixed": (
        "bd1cbaab5fd7b0677eed30dfc146bc6e1caebb33c72f1b35538c84ada33c77c4",
        "a805875e192d0e2a7e474ddea8c39b5db216b1166b6af4ec1847a69298f57e3f",
        "d711f82b06a970ecfb006159e7e910af85c86e645c352b24929a40fa71b48324"),
    "smoke-fp32": (
        "7c3d58c2c1a7c30b9aa0d727ca60355d59e5e0909ca9185689fb10b6e103738a",
        "a805875e192d0e2a7e474ddea8c39b5db216b1166b6af4ec1847a69298f57e3f",
        "6c5502432bfdafcf1595e22f84a9b46224d9c7c7b598aa337f70f5a885d209df"),
    "lars-ablation-mixed": (
        "f1f94f3d190f561301ce9120ddc807d44198a4adb56d8837b8e9abcdcc3daeee",
        "02c0e42dd9e17bf15e36ad02640d0d1f93bdefaff13355f49320c7b6de9473a8",
        "a5de0a29649b2dffa9bf1b3599ce9368013833da0f5731373c660f1e3c5be20a"),
    "lars-ablation-fp32": (
        "14e97223a3ec98942dcc184dcdfd8a078c49c6c01714cc1faadaa118f011c137",
        "02c0e42dd9e17bf15e36ad02640d0d1f93bdefaff13355f49320c7b6de9473a8",
        "c5142fa48478072ba21e7bc39b7f1e9ff3bc6401b14b2247a70c9420f2971a7e"),
    "decay-ablation-mixed": (
        "3ddd59b7864c23984dc0c86ccdc0bdc173e6ee94db6eb9dd4245cd768fb73093",
        "14cc6c47fe4f937513caac84481598a1502e56859a81f256be5b83c7152c58f9",
        "9e85a337845c3f1c5728f545ae605dbf8361fc9dae867237076d5de59063353a"),
    "decay-ablation-fp32": (
        "6bb6a264202443fb6a080f3823b77600c7718bb81812b980be9be918b70e4fa3",
        "14cc6c47fe4f937513caac84481598a1502e56859a81f256be5b83c7152c58f9",
        "ce9d54da49b5eddb19c09eccb0f7256d0c307fd026d1dbc062f6727e70f67306"),
    "mixed-vs-fp32-mixed": (
        "a8246e0687c46436259a95826de0f7bbb862da8ed1eed9486a9001e714165ca8",
        "43120b0dd08564659e682b103816a5be57c1a4f8505da9c1ec16baf4e86dc394",
        "a07564ddc12b769f264daaa0d22d0756c85a62d77d10ecbeeca337ce4f52e124"),
    "mixed-vs-fp32-fp32": (
        "57158a26bb84744498492ea962409c0d3f5bb22d3e9e4883446c17bcb5b7b807",
        "43120b0dd08564659e682b103816a5be57c1a4f8505da9c1ec16baf4e86dc394",
        "b1e5fa4ed0fdd1a14e70cc0888823e08a9f39bbca1508706fb48e73e3a01a2e0"),
    "large-batch-mixed": (
        "42f79a6239192e6f7545da86a84380e33618468432a1368187dcc63544e57aed",
        "9e184977f978406fcb9bd74792e858c3926fbef96c703818d247cb25bcb5ac16",
        "d979b6f07d2a6d3ec228410aec9ecc1e36a9e465e7aa386422e71029830e4206"),
    "large-batch-fp32": (
        "99441b164024884b3b6091b309d12d9e872273e113f9f861e460911c3e62a41a",
        "9e184977f978406fcb9bd74792e858c3926fbef96c703818d247cb25bcb5ac16",
        "f35e5d7a09e11ac6f22d002dbba4435b4057f524dfb148d41268baef6006f266"),
    "smoke-tcp": (
        "bd1cbaab5fd7b0677eed30dfc146bc6e1caebb33c72f1b35538c84ada33c77c4",
        "a805875e192d0e2a7e474ddea8c39b5db216b1166b6af4ec1847a69298f57e3f",
        "d711f82b06a970ecfb006159e7e910af85c86e645c352b24929a40fa71b48324"),
    "train-mixed": (
        "d2ddb3e54b691394f7e8ca20252b3a73f196daa205f417ad9a03a83338d970e3",
        "064f1a9673dcc34c7a5be3a41ea0256d40beb0683ea21be1911d5669b6f7a98e",
        "acac6d30cd89692de560911597b884a0845d019000cdc81887b5749457d498d3"),
    "train-fp32-fused": (
        "ba8ba4bdc1b948b3eb032f441c045bbacbf8cab3cab01eec54f50888c98b31be",
        "e91cb57b9e59cb06485a00e52718ac58189aac0edc34772b74693d6a88cb7722",
        "e64ee0d3c4597af4ecd0c11010ac1ad19ab613ce24adc107682a359dc8c8a9b4"),
    "train-tcp": (
        "e550d0992c18cbb33c295c8e79392dda41847f9118377621dd08a546a9f446d4",
        "6f5fb205704ab51d4966f2da066aa578dea5fbf4e74a8c45cca9ac9225ca5ad4",
        "b6bd6c4b412365af6769d0278fad3819fa67f9fe224065c097a648bedd258db7"),
}


@pytest.mark.skipif(np.__version__ != NUMPY,
                    reason=f"digests were taken under numpy {NUMPY}, "
                           f"this is numpy {np.__version__}")
def test_artifacts_match_the_golden_digests(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    # importing run pins these BLAS variables; monkeypatch restores them
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    from run import WORKLOADS

    configs = {f"{name}-{'mixed' if mixed else 'fp32'}":
               preset_config(name, [f"mixed={mixed}"])
               for name in PRESETS for mixed in (True, False)}
    configs["smoke-tcp"] = preset_config("smoke", ["transport=tcp"])
    for name, workload in WORKLOADS.items():
        configs[name] = ExperimentConfig(seed=1, **workload["config"])
    assert sorted(configs) == sorted(GOLDEN)

    changed = []
    for name, cfg in configs.items():
        run_dir = Path(run_experiment(cfg, out_root=tmp_path / name)["run_dir"])
        got = tuple(hashlib.sha256((run_dir / f).read_bytes()).hexdigest()
                    for f in FILES)
        changed += [(name, f) for f, a, b in zip(FILES, got, GOLDEN[name]) if a != b]
    assert not changed, changed
