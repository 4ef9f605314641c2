"""Pin of the analyzer's answers over the default campaign corpus.

One digest over every report field a consumer reads — verdicts, deciding
tier, model and unsat core — so a change to the solver or the pipeline
that alters any answer for any subject of the corpus fails here.
"""

import hashlib

from repro.analysis.safety import SafetyAnalyzer
from repro.campaigns import ScenarioGenerator, materialize

#: Pinned at d7b8a44.
CORPUS_DIGEST = (
    "5673b4f960d39942cbaf66f6aba21096f9c7f653ac857c7a985ed6c372b32eb4")


def test_corpus_reports_are_pinned():
    digest = hashlib.sha256()
    subjects = 0
    for spec in ScenarioGenerator(7).generate(300):
        subject = materialize(spec).analysis_subject
        if subject is None:
            continue
        subjects += 1
        report = SafetyAnalyzer().analyze(subject)
        digest.update(repr((
            report.algebra_name, report.safe, report.monotonic,
            report.method, report.tier,
            sorted((str(sig), value) for sig, value in report.model.items()),
            [str(source) for source in report.core],
        )).encode())
    assert subjects == 270  # all but the iBGP family, analysed post-run
    assert digest.hexdigest() == CORPUS_DIGEST
