"""Command-line behavior: exit codes, JSON output, artifact layout."""

import json
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from gradsync import tcp
from gradsync.cli import main


def run_cli(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_run_smoke_preset(tmp_path, capsys):
    rc, out, _ = run_cli(capsys, ["run", "--preset", "smoke",
                                  "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads(out)
    assert report["steps_run"] == 8
    run_dir = Path(report["run_dir"])
    for name in ("metrics.csv", "report.json", "config.json",
                 "fusion_trace.jsonl", "activations.jsonl"):
        assert (run_dir / name).exists(), name


def test_run_with_config_file_and_overrides(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({
        "workers": 2, "samples": 32, "batch_size": 8, "steps": 3,
        "hidden": [8], "features": 6, "classes": 2,
    }))
    rc, out, _ = run_cli(capsys, ["run", "--config", str(cfg_file),
                                  "--set", "steps=4",
                                  "--out", str(tmp_path / "runs")])
    assert rc == 0
    report = json.loads(out)
    assert report["config"]["steps"] == 4
    assert report["config"]["workers"] == 2


def test_run_collects_all_config_problems(tmp_path, capsys):
    rc, _, err = run_cli(capsys, [
        "run", "--set", "workers=0", "--set", "nonsense=1",
        "--set", "momentum=5", "--out", str(tmp_path)])
    assert rc == 2
    assert "workers" in err and "nonsense" in err and "momentum" in err


def test_unknown_preset_exits_2(tmp_path, capsys):
    rc, _, err = run_cli(capsys, ["run", "--preset", "warp-speed",
                                  "--out", str(tmp_path)])
    assert rc == 2
    assert "warp-speed" in err


def test_env_seed_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GRADSYNC_SEED", "7")
    rc, out, _ = run_cli(capsys, ["run", "--preset", "smoke",
                                  "--out", str(tmp_path)])
    assert rc == 0
    assert json.loads(out)["config"]["seed"] == 7

    rc, out, _ = run_cli(capsys, ["run", "--preset", "smoke", "--seed", "9",
                                  "--out", str(tmp_path)])
    assert rc == 0
    assert json.loads(out)["config"]["seed"] == 9


def test_bad_env_seed_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GRADSYNC_SEED", "lots")
    rc, _, err = run_cli(capsys, ["run", "--preset", "smoke",
                                  "--out", str(tmp_path)])
    assert rc == 2
    assert "GRADSYNC_SEED" in err


def test_stepcount_preset_table(capsys):
    rc, out, _ = run_cli(capsys, ["run", "--preset", "stepcount-vs-paper"])
    assert rc == 0
    table = json.loads(out)["table"]
    flagship = [r for r in table if r["workers"] == 1024][0]
    assert flagship["ring_steps"] == 2046
    assert flagship["hierarchical_steps"] == 186
    assert flagship["group_size"] == 16


def test_compare_same_seed_runs(tmp_path, capsys):
    argv = ["run", "--preset", "smoke", "--out", str(tmp_path)]
    rc, out1, _ = run_cli(capsys, argv)
    assert rc == 0
    time.sleep(1.1)  # distinct run directory stamps
    rc, out2, _ = run_cli(capsys, argv)
    assert rc == 0
    dir1 = json.loads(out1)["run_dir"]
    dir2 = json.loads(out2)["run_dir"]

    rc, out, _ = run_cli(capsys, ["compare", dir1, dir2])
    assert rc == 0
    result = json.loads(out)
    assert result["identical_metrics"] is True
    assert result["config_diffs"] == {}
    assert result["max_step_loss_delta"] == 0.0


def test_compare_flags_corrupted_metrics(tmp_path, capsys):
    rc, out, _ = run_cli(capsys, ["run", "--preset", "smoke",
                                  "--out", str(tmp_path)])
    dir1 = Path(json.loads(out)["run_dir"])
    dir2 = tmp_path / "copy"
    dir2.mkdir()
    for name in ("metrics.csv", "report.json"):
        (dir2 / name).write_bytes((dir1 / name).read_bytes())
    rows = (dir2 / "metrics.csv").read_text().splitlines()
    rows[1] = rows[1].replace(rows[1].split(",")[1], "9.99")
    (dir2 / "metrics.csv").write_text("\n".join(rows) + "\n")

    rc, out, _ = run_cli(capsys, ["compare", str(dir1), str(dir2)])
    assert rc == 4
    assert json.loads(out)["identical_metrics"] is False


def test_sweep_finds_regime_change(capsys):
    rc, out, _ = run_cli(capsys, [
        "sweep", "--workers", "64", "--group-size", "8",
        "--alpha", "1e-3", "--bandwidth", "1e9",
        "--min-bytes", "4", "--max-bytes", "40000000", "--points", "12"])
    assert rc == 0
    doc = json.loads(out)
    rows = doc["rows"]
    assert rows[0]["faster"] == "hierarchical"
    assert rows[-1]["faster"] == "ring"
    assert doc["crossover_bytes"] is not None
    assert doc["suggested_hybrid_eta"] == doc["crossover_bytes"]
    crossing = [r for r in rows if r["bytes"] == doc["crossover_bytes"]][0]
    assert crossing["faster"] == "ring"


def test_halfprec_inspect_hex(capsys):
    rc, out, _ = run_cli(capsys, ["halfprec", "inspect", "0x3C00"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["value"] == 1.0
    assert doc["category"] == "normal"
    assert doc["exponent_field"] == 15


def test_halfprec_inspect_decimal(capsys):
    rc, out, _ = run_cli(capsys, ["halfprec", "inspect", "65504"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["bits"] == "0x7BFF"
    assert doc["roundtrip_exact"] is True

    rc, out, _ = run_cli(capsys, ["halfprec", "inspect", "65520"])
    doc = json.loads(out)
    assert doc["category"] == "inf"
    assert doc["roundtrip_exact"] is False


def test_halfprec_inspect_past_float32_range(capsys):
    # 1e300 overflows the float32 step to infinity; that must warn nothing
    rc, out, err = run_cli(capsys, ["halfprec", "inspect", "1e300"])
    assert rc == 0 and not err
    doc = json.loads(out)
    assert doc["bits"] == "0x7C00"
    assert doc["category"] == "inf"


def test_halfprec_inspect_overflow_is_not_exact(capsys):
    # the binary16 value is compared with the input, not its float32 cast
    rc, out, _ = run_cli(capsys, ["halfprec", "inspect", "1e300"])
    assert rc == 0
    assert json.loads(out)["roundtrip_exact"] is False


def test_halfprec_inspect_negative_exponent_decimal(capsys):
    rc, out, _ = run_cli(capsys, ["halfprec", "inspect", "-1e300"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["bits"] == "0xFC00" and doc["roundtrip_exact"] is False
    with pytest.raises(SystemExit) as exc_info:
        main(["halfprec", "inspect", "-h"])
    assert exc_info.value.code == 0
    assert "usage" in capsys.readouterr().out


def test_halfprec_inspect_garbage(capsys):
    rc, _, err = run_cli(capsys, ["halfprec", "inspect", "not-a-number"])
    assert rc == 2
    assert err


def _wait_for_listener(port, tries=100):
    for _ in range(tries):
        try:
            probe = socket.create_connection((tcp.HOST, port), timeout=1)
            probe.close()
            return
        except OSError:
            time.sleep(0.03)
    raise AssertionError("coordinator never started listening")


def test_coord_and_worker_processes(capsys):
    probe = socket.socket()
    probe.bind((tcp.HOST, 0))
    port = probe.getsockname()[1]
    probe.close()

    rc_box = {}

    def host():
        rc_box["rc"] = main(["coord", "--port", str(port), "--workers", "2",
                             "--elems", "64", "--seed", "5"])

    t = threading.Thread(target=host)
    t.start()
    _wait_for_listener(port)
    workers = [
        subprocess.Popen([sys.executable, "-m", "gradsync.cli", "worker",
                          "--port", str(port), "--rank", str(r)])
        for r in range(2)
    ]
    t.join(timeout=60)
    assert not t.is_alive(), "coordinator hung"
    for proc in workers:
        assert proc.wait(timeout=30) == 0
    assert rc_box["rc"] == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert doc["matches_in_memory"] is True
    assert doc["total_steps"] == 2
