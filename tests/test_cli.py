"""Command-line interface: exit codes, outputs, round trips, determinism."""

import os
import subprocess
import sys

import numpy as np
import pytest

from localattn import cli
from localattn.cli import build_parser, run
from localattn.data import DATA_CONFIG_KEYS, DatasetSource
from localattn.model import MODEL_CONFIG_KEYS, ModelSpec, read_config
from localattn.train import TRAIN_CONFIG_KEYS, TrainConfig

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = sorted(os.listdir(os.path.join(ROOT, "configs")))

TINY_MODEL = ["--block-counts", "1", "--groups", "attention",
              "--stem", "attention_stem", "--width-multiplier", "0.125",
              "--k", "3", "--heads", "2", "--encoding-mode", "relative",
              "--num-classes", "2", "--resolution", "32"]
TINY_DATA = ["--data-kind", "synthetic", "--data-task", "separable",
             "--data-size", "60"]
TINY_TRAIN = ["--epochs", "2", "--batch-size", "32", "--peak-lr", "0.05",
              "--augment", "false"]


def _cli(args, capsys):
    code = run(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _strip_timing(text: str) -> list[str]:
    return [line for line in text.splitlines() if not line.startswith("# time")]


class TestExitCodes:
    def test_missing_subcommand_is_a_usage_error(self):
        with pytest.raises(SystemExit) as err:
            run([])
        assert err.value.code == 2

    def test_unparseable_flag_is_a_usage_error(self):
        with pytest.raises(SystemExit) as err:
            run(["count", "--depth", "fifty"])
        assert err.value.code == 2

    # warnings are errors here, so a numpy warning before the error line
    # fails the case
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", [
        ["count", "--depth", "44"],
        ["count", "--heads", "0"],
        ["count", "--groups", "attention,attention,attention,attention", "--k", "4"],
        ["count", "--stem-mixtures", "0"],
        ["count", "--stem-d-emb", "0"],
        ["train", "--batch-size", "0"] + TINY_MODEL + TINY_DATA,
        ["train", "--data-limit", "-5"] + TINY_MODEL + TINY_DATA,
        ["train", "--data-size", "0"] + TINY_MODEL + TINY_DATA[:-2],
        ["parity", "--mode", "bogus"],
        ["parity", "--heads", "0"],
    ], ids=["depth-44", "heads-0", "even-k", "stem-mixtures-0", "stem-d-emb-0",
            "batch-size-0", "data-limit-negative", "data-size-0", "parity-mode", "parity-heads-0"])
    def test_invalid_configuration_fails_cleanly(self, argv, capsys):
        code, _, err = _cli(argv, capsys)
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1, err

    def test_unknown_config_key_is_named(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("depth = 26\nfrobnicate = 1\n")
        code, _, err = _cli(["count", "--config", str(cfg)], capsys)
        assert code == 1
        assert "unknown configuration keys: frobnicate" in err

    def test_missing_checkpoint_fails_cleanly(self, capsys):
        code, _, err = _cli(["eval", "--checkpoint", "/nonexistent.ckpt"]
                            + TINY_MODEL + TINY_DATA, capsys)
        assert code == 1
        assert err.startswith("error:")

    def test_out_of_memory_fails_cleanly(self, monkeypatch, capsys):
        def count(args):
            raise MemoryError("Unable to allocate 64.0 GiB for an array")
        monkeypatch.setitem(cli._COMMANDS, "count", count)
        code, _, err = _cli(["count"], capsys)
        assert code == 1
        assert err.startswith("error: out of memory: Unable to allocate 64.0 GiB")
        assert err.count("\n") == 1

    def test_single_precision_gradcheck_refused(self, capsys):
        code, _, err = _cli(["gradcheck", "--precision", "f32"], capsys)
        assert code == 1
        assert "f64" in err


class TestReportCommands:
    def test_count_reproduces_canonical_totals(self, capsys):
        code, out, _ = _cli(["count", "--depth", "50"], capsys)
        assert code == 0
        assert "resolved configuration:" in out
        assert "params (M): 25.5" in out
        assert "flops (G): 8.2" in out

    def test_count_reads_a_config_file(self, capsys):
        code, out, _ = _cli(
            ["count", "--config",
             os.path.join(ROOT, "configs", "resnet50_attention.cfg")], capsys)
        assert code == 0
        assert "params (M): 18.0" in out
        assert "flops (G): 7.1" in out

    def test_count_flags_override_config_values(self, capsys):
        config = os.path.join(ROOT, "configs", "resnet26_conv.cfg")
        _, base, _ = _cli(["count", "--config", config], capsys)
        code, out, _ = _cli(["count", "--config", config, "--depth", "38"], capsys)
        assert code == 0
        assert "flops (G): 6.48" in out
        assert "flops (G): 4.72" in base

    def test_count_writes_the_report_file(self, tmp_path, capsys):
        target = tmp_path / "report.txt"
        code, out, _ = _cli(["count", "--depth", "26", "--out", str(target)], capsys)
        assert code == 0
        assert target.read_text().strip() == out.strip()

    def test_parity_names_the_matching_extent(self, capsys):
        code, out, _ = _cli(["parity"], capsys)
        assert code == 0
        assert "nearest-cost attention extent: k=" in out
        ratio = float(out.split("ratio at k=19:")[1].split()[0])
        assert 0.7 <= ratio <= 1.3

    def test_verify_reports_all_suites(self, capsys):
        code, out, _ = _cli(["verify"], capsys)
        assert code == 0
        for name in ("[oracle]", "[invariant]", "[gradcheck]"):
            assert name in out
        assert "verify: all suites pass" in out
        assert "# time verify" in out

    def test_gradcheck_passes_at_default_tolerance(self, capsys):
        code, out, _ = _cli(["gradcheck"], capsys)
        assert code == 0
        assert "[gradcheck] pass" in out

    def test_gradcheck_fails_at_an_impossible_tolerance(self, capsys):
        code, out, _ = _cli(["gradcheck", "--tolerance", "1e-300"], capsys)
        assert code == 1
        assert "FAIL" in out


class TestTrainEval:
    def test_round_trip_reproduces_the_reported_accuracy(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        code, out, _ = _cli(["train", "--seed", "1", "--out", str(out_dir)]
                            + TINY_MODEL + TINY_DATA + TINY_TRAIN, capsys)
        assert code == 0
        assert "resolved configuration:" in out
        assert (out_dir / "metrics.csv").exists()
        assert (out_dir / "checkpoint_final.ckpt").exists()
        assert (out_dir / "checkpoint_ema.ckpt").exists()
        rows = [l for l in out.splitlines() if l and l[0].isdigit()]
        trained_acc = rows[-1].split(",")[-1]

        code, out, _ = _cli(["eval", "--seed", "1",
                             "--checkpoint", str(out_dir / "checkpoint_final.ckpt")]
                            + TINY_MODEL + TINY_DATA, capsys)
        assert code == 0
        eval_acc = out.split("val_acc")[1].split()[0]
        assert float(eval_acc) == pytest.approx(float(trained_acc), abs=1e-9)

    def test_progress_lines_cover_every_epoch(self, capsys):
        code, out, _ = _cli(["train", "--seed", "0"]
                            + TINY_MODEL + TINY_DATA + TINY_TRAIN, capsys)
        assert code == 0
        progress = [l for l in out.splitlines() if l.startswith("epoch ")]
        assert len(progress) == 2
        assert progress[0].startswith("epoch 1/2 ")
        assert "val_acc" in progress[0]
        # one timing line per epoch: wall time, images/s and peak RSS so far
        timing = [l.split() for l in out.splitlines() if l.startswith("# time epoch ")]
        assert [fields[3] for fields in timing] == ["1", "2"]
        for fields in timing:
            assert fields[4].endswith("s") and float(fields[4][:-1]) > 0
            assert fields[6] == "images/s" and float(fields[5]) > 0
            assert fields[7] == "peak_rss_mb" and float(fields[8]) > 0
        assert float(timing[1][8]) >= float(timing[0][8])

    def test_seed_flag_changes_the_run(self, capsys):
        _, a, _ = _cli(["train", "--seed", "0"]
                       + TINY_MODEL + TINY_DATA + TINY_TRAIN, capsys)
        _, b, _ = _cli(["train", "--seed", "7"]
                       + TINY_MODEL + TINY_DATA + TINY_TRAIN, capsys)
        a_rows = [l for l in a.splitlines() if l and l[0].isdigit()]
        b_rows = [l for l in b.splitlines() if l and l[0].isdigit()]
        assert a_rows != b_rows


class TestSubprocessEntry:
    def _invoke(self, args):
        # The child must import this checkout's package whether or not it is
        # installed, and whatever (possibly relative) PYTHONPATH the caller has.
        src = os.path.join(ROOT, "src")
        inherited = os.environ.get("PYTHONPATH")
        env = dict(os.environ,
                   PYTHONPATH=src + (os.pathsep + inherited if inherited else ""))
        return subprocess.run([sys.executable, "-m", "localattn.cli"] + args,
                              capture_output=True, text=True, cwd=ROOT, env=env)

    def test_module_entry_reports_usage(self):
        proc = self._invoke([])
        assert proc.returncode == 2
        assert "usage" in proc.stderr.lower()

    def test_repeated_training_invocations_match_exactly(self):
        args = (["train", "--seed", "5"] + TINY_MODEL + TINY_DATA + TINY_TRAIN)
        first = self._invoke(args)
        second = self._invoke(args)
        assert first.returncode == second.returncode == 0
        assert _strip_timing(first.stdout) == _strip_timing(second.stdout)
        assert any(line.startswith("# time train") for line in first.stdout.splitlines())


def _stub_training(monkeypatch) -> dict:
    """Replace the training loop by a stub that records the records it is
    given and fails with "error: stub"."""
    seen = {}

    def stub(spec, source, config, **kwargs):
        seen.update(spec=spec, source=source, config=config)
        raise RuntimeError("stub")

    monkeypatch.setattr(cli, "train_loop", stub)
    return seen


def _train_echo(args, monkeypatch, capsys):
    """The resolved-configuration echo of `train args`, and the records it
    would train with."""
    seen = _stub_training(monkeypatch)
    code, out, err = _cli(["train"] + args, capsys)
    assert (code, err) == (1, "error: stub\n")
    lines = out.splitlines()
    assert lines[0] == "resolved configuration:"
    return [line.strip() for line in lines[1:]], seen


def _golden_echoes() -> dict[str, list[str]]:
    sections: dict[str, list[str]] = {}
    with open(os.path.join(ROOT, "tests", "golden", "resolved_configs.txt")) as fh:
        for line in fh.read().splitlines():
            if line.startswith("["):
                current = sections.setdefault(line.strip("[]"), [])
            elif line and not line.startswith("#"):
                current.append(line)
    return sections


COMMON_OPTIONS = [("--config", "config"), ("--seed", "seed"),
                  ("--precision", "precision"), ("--out", "out")]
MODEL_OPTIONS = [
    ("--depth", "depth"), ("--block-counts", "block_counts"),
    ("--width-multiplier", "width_multiplier"), ("--groups", "groups"),
    ("--stem", "stem"), ("--k", "k"), ("--heads", "heads"),
    ("--encoding-mode", "encoding_mode"), ("--num-classes", "num_classes"),
    ("--resolution", "input_resolution"), ("--small-input", "small_input"),
    ("--stem-mixtures", "stem_mixtures"), ("--stem-d-emb", "stem_d_emb"),
    ("--bn-decay", "bn_decay")]
TRAIN_OPTIONS = [
    ("--epochs", "epochs"), ("--batch-size", "batch_size"), ("--peak-lr", "peak_lr"),
    ("--momentum", "momentum"), ("--warmup-epochs", "warmup_epochs"),
    ("--ema-decay", "ema_decay"), ("--label-smoothing", "label_smoothing"),
    ("--augment", "augment")]
DATA_OPTIONS = [
    ("--data-kind", "data_kind"), ("--data-path", "data_path"),
    ("--data-task", "data_task"), ("--data-size", "data_size"),
    ("--data-seed", "data_seed"), ("--data-limit", "data_limit"),
    ("--data-val-fraction", "data_val_fraction")]


class TestConfigSchema:
    @pytest.mark.parametrize("command, expected", [
        ("count", COMMON_OPTIONS + MODEL_OPTIONS),
        ("train", COMMON_OPTIONS + MODEL_OPTIONS + TRAIN_OPTIONS + DATA_OPTIONS),
        ("eval", COMMON_OPTIONS + [("--checkpoint", "checkpoint")]
         + MODEL_OPTIONS + DATA_OPTIONS),
    ])
    def test_option_strings_and_dests_are_stable(self, command, expected):
        (sub,) = [a for a in build_parser()._actions if a.dest == "command"]
        options = [(a.option_strings, a.dest) for a in sub.choices[command]._actions
                   if a.dest != "help"]
        assert options == [([flag], dest) for flag, dest in expected]

    @pytest.mark.parametrize("config", CONFIGS)
    def test_resolved_echo_of_shipped_config_is_stable(self, config, monkeypatch, capsys):
        echo, _ = _train_echo(["--config", os.path.join(ROOT, "configs", config)],
                              monkeypatch, capsys)
        assert echo == _golden_echoes()[config]

    @pytest.mark.parametrize("config", CONFIGS)
    def test_shipped_config_has_no_unknown_key(self, config):
        keys = set(read_config(os.path.join(ROOT, "configs", config)))
        assert keys <= MODEL_CONFIG_KEYS | TRAIN_CONFIG_KEYS | DATA_CONFIG_KEYS

    @pytest.mark.parametrize("config", CONFIGS)
    def test_records_of_shipped_config_round_trip(self, config):
        mapping = read_config(os.path.join(ROOT, "configs", config))
        for record in (ModelSpec, TrainConfig, DatasetSource):
            value = record.from_mapping(mapping)
            assert record.from_mapping(value.to_mapping()) == value

    @pytest.mark.parametrize("value", [
        ModelSpec(block_counts=(2, 1), groups=("conv", "attention"), small_input=True,
                  width_multiplier=0.3, bn_decay=0.95),
        TrainConfig(epochs=3, peak_lr=0.1 + 0.2, augment=False, seed=11),
        DatasetSource(kind="cifar10_binary", path="/data/cifar", limit=40,
                      val_fraction=1 / 3),
    ], ids=lambda value: type(value).__name__)
    def test_non_default_record_round_trips(self, value):
        assert type(value).from_mapping(value.to_mapping()) == value

    @pytest.mark.parametrize("file_seed, flags, expected", [
        ("seed = 3\n", ["--seed", "7"], 7),
        ("seed = 3\n", [], 3),
        ("", [], 0),
        ("", ["--seed", "5"], 5),
    ])
    def test_explicit_seed_flag_beats_the_config_file(self, tmp_path, monkeypatch, capsys,
                                                      file_seed, flags, expected):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("block_counts = 1\ngroups = conv\n" + file_seed)
        echo, seen = _train_echo(["--config", str(cfg)] + flags, monkeypatch, capsys)
        assert f"seed = {expected}" in echo
        assert seen["config"].seed == expected

    @pytest.mark.parametrize("line, message", [
        ("augment = flase", "augment: expected true or false, got 'flase'"),
        ("small_input = ture", "small_input: expected true or false, got 'ture'"),
        ("epochs = ten", "epochs: expected int, got 'ten'"),
        ("peak_lr = fast", "peak_lr: expected float, got 'fast'"),
        ("block_counts = 1,x", "block_counts: expected int list, got '1,x'"),
        ("data_size = 1.5", "data_size: expected int, got '1.5'"),
        ("depth =", "depth: expected int, got ''"),
        ("stem =", "stem: expected str, got ''"),
        ("groups = conv,,conv", "groups: expected str list, got 'conv,,conv'"),
        ("augment =", "augment: expected true or false, got ''"),
    ])
    def test_malformed_config_value_names_the_key(self, tmp_path, monkeypatch, capsys,
                                                  line, message):
        _stub_training(monkeypatch)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        code, _, err = _cli(["train", "--config", str(cfg)], capsys)
        assert code == 1
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("spelling, expected", [
        ("true", True), ("TRUE", True), ("1", True), ("Yes", True),
        ("false", False), ("False", False), ("0", False), ("NO", False),
    ])
    def test_bool_spellings(self, spelling, expected):
        assert TrainConfig.from_mapping({"augment": spelling}).augment is expected
        assert ModelSpec.from_mapping({"small_input": spelling}).small_input is expected

    def test_empty_value_unsets_an_optional_field(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("block_counts = 1\ngroups = conv\ndata_limit =\ndata_path =\n")
        _, seen = _train_echo(["--config", str(cfg)], monkeypatch, capsys)
        assert (seen["source"].limit, seen["source"].path) == (None, None)
        echo, seen = _train_echo(["--config", str(cfg), "--block-counts", "", "--depth", "26",
                                  "--groups", "conv,conv,conv,conv"], monkeypatch, capsys)
        assert seen["spec"].block_counts == (1, 2, 4, 1)
        assert "block_counts = 1,2,4,1" in echo

    @pytest.mark.parametrize("flag, value, type_name", [
        ("--block-counts", "1,x", "int list"),
        ("--augment", "maybe", "bool"),
        ("--small-input", "", "bool"),
        ("--width-multiplier", "wide", "float"),
        ("--data-size", "many", "int"),
        ("--stem", "", "str"),
    ])
    def test_malformed_flag_value_is_a_usage_error(self, monkeypatch, capsys,
                                                   flag, value, type_name):
        _stub_training(monkeypatch)
        with pytest.raises(SystemExit) as err:
            run(["train", flag, value])
        assert err.value.code == 2
        assert f"argument {flag}: invalid {type_name} value: {value!r}" in capsys.readouterr().err
