"""Every answer of the benchmark's query sets, pinned.

For each workload of ``bench/workloads.py`` and seeds 1–3, the queries of
``make_specs(workload, seed)`` run in order, as one benchmark pass runs
them, and the sha256 over the ``repr`` of each answer (or of the exception
a query raised) is compared with a pinned digest.  The answers' ``repr``
is independent of the hash seed, so the digests are too.  A change that
moves one closure word, verdict, witness or grammar byte fails here; a
deliberate change of output updates the table."""

import hashlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import workloads  # noqa: E402

ANSWER_DIGESTS = {
    "closure": "5dcf1dcf50c5972c99ed4992d548382e77897d33c284763768504cd398d4c565",
    "member": "ada19edf2df51be57029c075a2ccf1d50f4e059013e01eb27ff9aeba1189e138",
    "decide": "f2cce954469fab68e4f15077aae02fc4d78af7b9e45f1302eac3aa90440b2166",
    "synthesize": "5e6534b4d9d9aca1ee93b7efbfddfed36fd2c5b496630b7e3950a06f87dd7207",
}


@pytest.mark.parametrize("workload", sorted(ANSWER_DIGESTS))
def test_answer_digest(workload):
    digest = hashlib.sha256()
    for seed in (1, 2, 3):
        queries = workloads.prepare(workloads.make_specs(workload, seed))
        answers: list = [None] * len(queries)
        for q in queries:
            try:
                answers[q.qid] = q.call(answers)
            except Exception as exc:  # a failed query's answer is its error
                answers[q.qid] = exc
            digest.update(repr(answers[q.qid]).encode())
    assert digest.hexdigest() == ANSWER_DIGESTS[workload]
