"""Study reports against pinned digests.

data/pinned_reports.json holds the sha256 of every file under reports/ for
two `corn experiment` studies of the acceptance LTCF facility: K 1, 3 and 5
calibrated to R0 2.86, and the same study at K 5 with distance and load
caps. Both calibrate rho, solve, rewire, simulate and write cost reports, so
a change anywhere in the pipeline that moves a number, its order or its
formatting shows up here. Rewrite the file only for a change that is meant
to move them:

    PYTHONPATH=src python -m tests.test_pinned_reports
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from corn.cli import EXIT_OK, main

from .test_pinned_rewiring import FACILITIES

PINNED = Path(__file__).parent / "data" / "pinned_reports.json"
COMMON = ("--target-r0", "2.86", "--hcp-scope", "ns_only", "--replicates", "4", "--seed", "0")
STUDIES = {
    "ltcf": ("--k", "1,3,5") + COMMON,
    "ltcf_capped": ("--k", "5", "--d-star-m", "15", "--y-star-h", "0.17") + COMMON,
}


def _digests(study: str, work: Path) -> dict[str, str]:
    """{path under reports/: sha256} of one run of the study in work."""
    facility = work / "facility.json"
    FACILITIES["ltcf"].to_json(facility)
    out = work / study
    assert main(["experiment", "--facility", str(facility), *STUDIES[study],
                 "--out", str(out)]) == EXIT_OK
    reports = out / "reports"
    return {p.relative_to(reports).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(reports.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def recorded():
    return json.loads(PINNED.read_text())


@pytest.mark.parametrize("study", sorted(STUDIES))
def test_reports_match_recording(recorded, study, tmp_path):
    assert _digests(study, tmp_path) == recorded[study]


def test_recording_covers_every_study(recorded):
    assert sorted(recorded) == sorted(STUDIES)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        digests = {study: _digests(study, Path(work)) for study in sorted(STUDIES)}
    PINNED.parent.mkdir(exist_ok=True)
    PINNED.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
