"""End-to-end runs of the command-line entry point, in process."""
import json
import shutil

import numpy as np
import pytest

from dcsam.cli import RunManifest, main, write_manifest
from dcsam.episodes import gen_episode, load_episode, save_episode
from dcsam.errors import IoError
from dcsam.oracles import SUITES, SuiteResult

TRAIN_CFG = """\
seed = 11
lr = 0.01
steps = 3
batch = 2
canvas = 8
embed_dim = 6
n_queries = 4
mid_channels = 3
high_channels = 3
eval_episodes_per_class = 5
"""


def write_cfg(tmp_path, text=TRAIN_CFG):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One tiny training run shared by the eval and tube tests."""
    out = tmp_path_factory.mktemp("trained")
    cfg = out / "run.cfg"
    cfg.write_text(TRAIN_CFG)
    code = main(["train", "--config", str(cfg), "--fold", "0", "--out", str(out)])
    assert code == 0
    return out


def test_gen_writes_bundles_and_manifest(tmp_path):
    out = tmp_path / "data"
    code = main(["gen", "--out", str(out), "--classes", "3", "--seeds", "2",
                 "--size", "8", "8"])
    assert code == 0
    for cls in range(3):
        for k in range(2):
            bundle = out / f"cls{cls:02d}_seed{k:04d}"
            assert bundle.is_dir()
            ep = load_episode(bundle)
            assert ep.class_id == cls and ep.seed == k
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "gen"
    assert len(manifest["outputs"]) == 6
    assert manifest["version"].startswith("dcsam-")


def test_gen_rejects_bad_counts(tmp_path):
    assert main(["gen", "--out", str(tmp_path), "--classes", "0"]) == 1
    assert main(["gen", "--out", str(tmp_path), "--classes", "99"]) == 1
    assert main(["gen", "--out", str(tmp_path), "--seeds", "0"]) == 1


def test_bad_usage_exits_one():
    assert main(["train"]) == 1  # missing required flags
    assert main(["no-such-command"]) == 1


def test_train_outputs(trained):
    ckpt = trained / "checkpoint"
    assert (ckpt / "optimizer.txt").read_text().strip() == "step = 3"
    lines = (trained / "losses.csv").read_text().splitlines()
    assert lines[0] == "step,loss"
    assert len(lines) == 4
    for i, line in enumerate(lines[1:]):
        step, loss = line.split(",")
        assert int(step) == i
        assert float(loss) > 0.0
    manifest = json.loads((trained / "manifest.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["seed"] == 11
    assert manifest["config"]["steps"] == 3


def test_train_reruns_bitwise_identical(tmp_path):
    cfg = write_cfg(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["train", "--config", cfg, "--fold", "0", "--out", str(out_a)]) == 0
    assert main(["train", "--config", cfg, "--fold", "0", "--out", str(out_b)]) == 0
    files_a = sorted(p.name for p in (out_a / "checkpoint").iterdir())
    files_b = sorted(p.name for p in (out_b / "checkpoint").iterdir())
    assert files_a == files_b
    for name in files_a:
        bytes_a = (out_a / "checkpoint" / name).read_bytes()
        bytes_b = (out_b / "checkpoint" / name).read_bytes()
        assert bytes_a == bytes_b, name
    assert (out_a / "losses.csv").read_bytes() == (out_b / "losses.csv").read_bytes()


def test_train_ablation_flag(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "ablated"
    code = main(["train", "--config", cfg, "--fold", "0", "--out", str(out),
                 "--ablate", "no-cyc"])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["use_cyc_bias"] is False
    assert main(["train", "--config", cfg, "--fold", "0", "--out", str(out),
                 "--ablate", "no-such"]) == 1


def test_train_missing_config_is_io_error(tmp_path):
    assert main(["train", "--config", str(tmp_path / "absent.cfg"),
                 "--fold", "0", "--out", str(tmp_path / "o")]) == 3


def test_train_undecodable_config_exits_three_naming_the_file(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"seed = 1\n\xff\n")
    capsys.readouterr()
    assert main(["train", "--config", str(path), "--fold", "0",
                 "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(path) in err[0]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_divergence_exits_two(tmp_path):
    cfg = write_cfg(tmp_path, TRAIN_CFG.replace("lr = 0.01", "lr = 1e80"))
    assert main(["train", "--config", cfg, "--fold", "0",
                 "--out", str(tmp_path / "o")]) == 2


def test_optimizer_overflow_exits_two_naming_the_parameter(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TRAIN_CFG.replace("lr = 0.01", "lr = 1e300\nweight_decay = 1e10"))
    capsys.readouterr()
    assert main(["train", "--config", cfg, "--fold", "0", "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "parameter 'fusion_w'" in err[0] and "step 0" in err[0]


def test_eval_writes_report(trained, tmp_path):
    report = tmp_path / "report.csv"
    code = main(["eval", "--ckpt", str(trained / "checkpoint"), "--fold", "0",
                 "--out", str(report)])
    assert code == 0
    rows = [l for l in report.read_text().splitlines() if not l.startswith("#")]
    assert rows[0] == "fold,class_id,iou"
    assert len(rows) == 5  # header plus the four held-out classes
    sidecar = json.loads(report.with_suffix(".json").read_text())
    assert 0.0 <= sidecar["miou"] <= 1.0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert str(report) in manifest["outputs"]


def test_eval_missing_checkpoint_exits_three(tmp_path):
    assert main(["eval", "--ckpt", str(tmp_path / "nowhere"), "--fold", "0",
                 "--out", str(tmp_path / "r.csv")]) == 3


def test_malformed_optimizer_file_exits_three(trained, tmp_path, capsys):
    ckpt = tmp_path / "ckpt"
    shutil.copytree(trained / "checkpoint", ckpt)
    bundle = tmp_path / "ep"
    save_episode(bundle, gen_episode(0, 5, (8, 8)))
    for argv in (["eval", "--ckpt", str(ckpt), "--fold", "0", "--out", str(tmp_path / "r.csv")],
                 ["tube", "--ckpt", str(ckpt), "--episode", str(bundle), "--frames", "2",
                  "--out", str(tmp_path / "t")]):
        (ckpt / "optimizer.txt").write_text("step = 3\n")
        assert main(argv) == 0
        for text in ("step\n", "step = abc\n", "steps = 9\n", "step = 3\nstep = 3\n"):
            (ckpt / "optimizer.txt").write_text(text)
            capsys.readouterr()
            assert main(argv) == 3, text
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error: ") and "optimizer.txt" in err[0]


def test_malformed_checkpoint_config_exits_three_naming_the_file(trained, tmp_path, capsys):
    ckpt = tmp_path / "ckpt"
    shutil.copytree(trained / "checkpoint", ckpt)
    path = ckpt / "config.txt"
    path.write_text(path.read_text() + "bogus line\n")
    capsys.readouterr()
    assert main(["eval", "--ckpt", str(ckpt), "--fold", "0",
                 "--out", str(tmp_path / "r.csv")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(path) in err[0]


def test_malformed_episode_meta_exits_three(trained, tmp_path, capsys):
    bundle = tmp_path / "ep"
    save_episode(bundle, gen_episode(0, 5, (8, 8)))
    argv = ["tube", "--ckpt", str(trained / "checkpoint"), "--episode", str(bundle),
            "--frames", "2", "--out", str(tmp_path / "t")]
    for text in ("class_id = 0\nseed = 5\nseed = 6\n", "class_id = 0\nseed = 5\nsteps = 9\n"):
        (bundle / "meta.txt").write_text(text)
        capsys.readouterr()
        assert main(argv) == 3, text
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "meta.txt" in err[0]


def test_tube_outputs(trained, tmp_path):
    bundle = tmp_path / "ep"
    save_episode(bundle, gen_episode(0, 5, (8, 8)))
    out = tmp_path / "tube"
    code = main(["tube", "--ckpt", str(trained / "checkpoint"),
                 "--episode", str(bundle), "--frames", "3", "--out", str(out)])
    assert code == 0
    assert (out / "predicted" / "meta.txt").exists()
    lines = (out / "frames.csv").read_text().splitlines()
    assert lines[0] == "frame,j,f"
    assert len([l for l in lines if not l.startswith("#")]) == 4
    assert lines[-1].startswith("# summary j=")
    # the summary is the mean of the frame rows, from the same scoring pass
    js = [float(l.split(",")[1]) for l in lines[1:-1]]
    fs = [float(l.split(",")[2]) for l in lines[1:-1]]
    assert lines[-1].startswith(f"# summary j={float(np.mean(js))!r} f={float(np.mean(fs))!r} ")


def test_tube_rejects_zero_frames(trained, tmp_path):
    assert main(["tube", "--ckpt", str(trained / "checkpoint"),
                 "--episode", str(tmp_path), "--frames", "0",
                 "--out", str(tmp_path / "o")]) == 1


def test_oracle_suite_runs(capsys):
    assert main(["oracle", "--suite", "cyc", "--trials", "20"]) == 0
    assert capsys.readouterr().out.startswith("cyc: 20/20")
    assert main(["oracle", "--suite", "softmax", "--trials", "10"]) == 0
    assert main(["oracle", "--trials", "0", "--suite", "cyc"]) == 1


def test_oracle_batch_suite_runs(capsys):
    assert main(["oracle", "--suite", "batch", "--trials", "3", "--seed", "4"]) == 0
    assert capsys.readouterr().out.startswith("batch: 3/3 trials ok (ok)")


def test_oracle_failure_exits_two(monkeypatch, capsys):
    def broken(trials=5, seed=0):
        return SuiteResult("cyc", trials, failures=trials,
                           detail=("trial 0: mismatch",))

    monkeypatch.setitem(SUITES, "cyc", broken)
    assert main(["oracle", "--suite", "cyc"]) == 2
    assert "FAILED" in capsys.readouterr().out


def test_manifest_requires_existing_outputs(tmp_path):
    manifest = RunManifest(command="gen", argv=(), seed=0, version="dcsam-test",
                           started="t0", finished="t1", config=None,
                           outputs=(str(tmp_path / "missing"),))
    with pytest.raises(IoError):
        write_manifest(tmp_path / "manifest.json", manifest)
