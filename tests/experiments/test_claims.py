"""The claims ledger against the committed full-scale tables: every
verdict is the one its row expects, and reading the tables simulates
nothing."""

import json
import pathlib
import shutil

import pytest

from repro import experiments
from repro.core import executor
from repro.core import run as core_run
from repro.experiments import EXPERIMENTS
from repro.experiments.claims import CLAIMS, evaluate

RESULTS = pathlib.Path(__file__).resolve().parents[2] / "results"


def _refuse(*args, **kwargs):
    raise AssertionError("the claims ledger must not simulate")


def _evaluate_without_simulating(results_dir):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(executor, "run_points", _refuse)
        mp.setattr(experiments, "run_points", _refuse)
        mp.setattr(core_run, "run_simulation", _refuse)
        return {v.claim.id: v for v in evaluate(results_dir)}


@pytest.fixture(scope="module")
def verdicts():
    return _evaluate_without_simulating(RESULTS)


@pytest.mark.parametrize("claim_id", [claim.id for claim in CLAIMS])
def test_verdict_is_expected(verdicts, claim_id):
    v = verdicts[claim_id]
    assert v.ok, (
        f"{claim_id}: holds={v.holds} but the ledger expects {v.claim.expected} "
        f"(measured {v.measured!r}; {v.claim.statement})"
    )


def test_claim_ids_are_unique():
    ids = [claim.id for claim in CLAIMS]
    assert len(ids) == len(set(ids))


def test_every_read_is_a_committed_experiment():
    for claim in CLAIMS:
        assert claim.reads, claim.id
        for experiment_id in claim.reads:
            assert experiment_id in EXPERIMENTS, claim.id
            assert (RESULTS / f"{experiment_id}.json").is_file(), claim.id


def test_doctored_value_flips_exactly_its_row(tmp_path, verdicts):
    for path in RESULTS.glob("*.json"):
        shutil.copy(path, tmp_path)
    figure03 = json.loads((tmp_path / "figure03.json").read_text())
    figure03["radix"]["4"] = figure03["lu"]["4"] / 2
    (tmp_path / "figure03.json").write_text(json.dumps(figure03))

    doctored = _evaluate_without_simulating(tmp_path)
    flipped = [cid for cid, v in doctored.items() if v.holds != verdicts[cid].holds]
    assert flipped == ["fig03-radix-over-lu"]
