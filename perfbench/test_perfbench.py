"""Self-tests of the benchmark: clean workloads pass, planted wrong outputs fail.

Run with ``python -m pytest -q perfbench``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import mft  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from worker import run_cycles  # noqa: E402

TINY = {
    "exact-recovery": lambda: workloads.ExactRecovery(3, views=(2, 3)),
    "float-recovery": lambda: workloads.FloatRecovery(3),
    "verify-corpus": lambda: workloads.VerifyCorpus(3),
}


def one_cycle(workload, tmp_path):
    workload.setup(str(tmp_path))
    records, cycles = run_cycles(workload, seconds=0)
    assert len(cycles) == 1
    return [r for r in records if r[3] is not None], records


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_has_no_failures(name, tmp_path):
    failures, records = one_cycle(TINY[name](), tmp_path)
    assert records and not failures


def _one_entry_changed(estimate_tensor):
    def planted(signature, matches, **kw):
        est, rank = estimate_tensor(signature, matches, **kw)
        flat = est.flat()
        flat[-1] = flat[-1] + flat[0]
        return mft.FocalTensor.from_flat(est.dim, est.signature, flat), rank

    return planted


@pytest.mark.parametrize("name", ["exact-recovery", "float-recovery"])
def test_recovered_vector_with_one_changed_entry_fails(name, tmp_path, monkeypatch):
    monkeypatch.setattr(mft, "estimate_tensor", _one_entry_changed(mft.estimate_tensor))
    failures, _ = one_cycle(TINY[name](), tmp_path)
    assert failures and all("alignment error" in f[3] for f in failures)


def test_perturbed_tensor_labelled_true_fails(tmp_path):
    workload = TINY["verify-corpus"]()
    workload.setup(str(tmp_path))
    swapped = [sc._replace(trifocal=sc.wrong, wrong=sc.trifocal,
                           trifocal_file=sc.wrong_file, wrong_file=sc.trifocal_file)
               for sc in workload.scenes]
    workload.setup = lambda workdir: None
    workload.scenes = swapped
    failures, _ = one_cycle(workload, tmp_path)
    # the first check fails and ends the cycle
    assert [f[1] for f in failures] == ["check"]


def test_wrong_multifocal_fails(tmp_path, monkeypatch):
    def planted(inv, frames):
        t = multifocal(inv, frames)
        return t.scale(2) if inv.arity() == 4 else t

    multifocal = mft.multifocal
    monkeypatch.setattr(mft, "multifocal", planted)
    failures, _ = one_cycle(TINY["verify-corpus"](), tmp_path)
    assert [f[1] for f in failures] == ["tensor"]


def test_out_of_scope_float_draw_is_replaced_and_listed():
    key = "float-recovery/106/57/3"
    with pytest.raises(mft.AmbiguousSolutionError):
        workloads.round_trip(3, workloads.random.Random(key), workloads.HAAR)
    workload = workloads.FloatRecovery(106)
    gen = workload.cycle(57)
    op = gen.send(next(gen).run())
    assert op.kind == "estimate3" and op.check(op.run()) is None
    assert workload.excluded == [key]
    # beyond max_excluded the draw is kept and the timed run fails on it
    capped = workloads.FloatRecovery(106)
    capped.max_excluded = 0
    gen = capped.cycle(57)
    op = gen.send(next(gen).run())
    with pytest.raises(mft.AmbiguousSolutionError):
        op.run()


def test_reference_multifocal_matches_closed_forms():
    rng = workloads.random.Random(5)
    a, b = (mft.random_motion(mode=workloads.CAYLEY, rng=rng) for _ in range(2))
    frames = mft.apply_section([mft.embed(a), mft.embed(b)], mft.Section.TRIFOCAL_INVERSE)
    ref = workloads.reference_multifocal(mft.invariant_trifocal(), frames)
    assert ref == mft.trifocal_euclidean(a, b).flat()


def _run(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.strip().splitlines()


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_untraced_run_prints_every_end_to_end_metric():
    code, lines = _run(["--workload", "float-recovery", "--seed", "2", "--seconds", "0.3",
                        "--trace", "0"])
    assert code == 0
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 5
    expected = {m["name"]: m["unit"] for m in _benchmark_json()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_rebinds_imported_names_and_prints_every_layer_metric():
    code, lines = _run(["--workload", "verify-corpus", "--seed", "2", "--seconds", "0.2",
                        "--trace", "1"])
    assert code == 0
    result = json.loads(lines[-1])
    expected = {m["name"]: m["unit"] for m in _benchmark_json()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    report = json.loads(lines[0])["report"]
    layers = report["layers"]
    assert layers["cli.main.calls"] == 3
    # spans reach the names that cli and invariants imported for themselves
    with open(os.path.join(ROOT, report["spans_file"])) as fh:
        spans = [line.rstrip("\n").split("\t") for line in fh]
    names = {span[0]: span[3] for span in spans}
    edges = {(names.get(span[1]), span[3]) for span in spans}
    assert ("cli.cmd_check", "constraints.check_all") in edges
    assert ("invariants.transform", "exterior.minor") in edges
    assert ("coaction.psi", "exterior.minor") in edges
    for name in run.LAYERS:
        assert layers[f"{name}.self_ms"] <= layers[f"{name}.ms"] + 1e-9


def test_fails_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    code, lines = _run(["--workload", "verify-corpus", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], cwd=str(tmp_path))
    assert code != 0 and lines == []
