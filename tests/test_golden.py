"""Golden outputs of the trial kernel, pinned in golden_kernel.json.

The fixture holds estimator reports (4 models x 3 decoders on the
criterion-11 codebook) and single-trial outcomes of run_trial and
adversarial_attack_trial on that codebook, a repetition codebook (inner
below 64, repeated molecules) and a wide index codebook (sparse scores).
A kernel change that is meant to keep every output must pass it unchanged.
Regenerate it only for a change that is meant to alter outputs:

    PYTHONPATH=src python tests/test_golden.py
"""

import dataclasses
import json
import pathlib

from dnastore import codebook
from dnastore.channel import (
    DECODER_RULES,
    DecoderConfig,
    SequencingErrorModel,
    adversarial_attack_trial,
    estimate_error_probability,
    run_trial,
)
from dnastore.params import ScalingParams

FIXTURE = pathlib.Path(__file__).with_name("golden_kernel.json")

MODELS = (
    SequencingErrorModel.none(),
    SequencingErrorModel.erasure(0.5),
    SequencingErrorModel.random(0.5),
    SequencingErrorModel.adversarial(0.3, (0, 1)),
)


def codebooks():
    narrow = ScalingParams(M=16, inner_size=64, N=32, J=64)
    wide = ScalingParams(M=8, inner_size=1024, N=16, J=64)
    return {
        "criterion11": codebook.greedy_index_codebook(narrow, 12, 64, 20, 100_000),
        "repetition": codebook.repetition_codebook(
            ScalingParams(M=16, inner_size=60, N=24, J=8), 0.6, 8, seed=3
        ),
        "wide": codebook.greedy_index_codebook(wide, 3, 64, 1, 10_000),
    }


def outcome(out) -> dict:
    return dataclasses.asdict(out)


def golden() -> dict:
    cbs = codebooks()
    cb = cbs["criterion11"]
    reports = {
        f"{model.kind}/{rule}": estimate_error_probability(
            cb, model, DecoderConfig(rule), 3_000, 11
        ).comparable_dict()
        for model in MODELS
        for rule in DECODER_RULES
    }
    seeds = {"criterion11": (0, 1), "repetition": (2,), "wide": (3,)}
    trials = [
        outcome(run_trial(cbs[name], seed % len(cbs[name]), model,
                          DecoderConfig(rule, epsilon=0.13), seed))
        for name, picks in seeds.items()
        for model in MODELS
        for rule in DECODER_RULES
        for seed in picks
    ]
    attacks = [
        outcome(adversarial_attack_trial(cb, (0, 1), p, seed=seed, dec=DecoderConfig(rule)))
        for p in (0.3, 0.6)
        for rule in DECODER_RULES
        for seed in (5, 6)
    ]
    # JSON round trip: tuples become lists, floats keep their exact repr
    return json.loads(json.dumps({"reports": reports, "trials": trials, "attacks": attacks}))


def test_kernel_outputs_match_the_golden_fixture():
    expect = json.loads(FIXTURE.read_text())
    got = golden()
    assert got["reports"] == expect["reports"]
    for key in ("trials", "attacks"):
        assert len(got[key]) == len(expect[key])
        for i, (a, b) in enumerate(zip(got[key], expect[key])):
            assert a == b, (key, i)


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(golden(), indent=1, sort_keys=True) + "\n")
