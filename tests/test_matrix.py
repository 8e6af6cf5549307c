import json
from pathlib import Path

import pytest

import protolab.matrix as matrix
from protolab.bspl.enactment import RECEPTION
from protolab.filters import CfpBackend
from protolab.matrix import (
    CRITERIA,
    LANGUAGES,
    PRICING_ENACTMENTS,
    _fifo_feasible,
    _sync_feasible,
    fixture_text,
    matches_golden,
    matrix_verdicts,
    render_matrix,
    run_matrix,
)


# `json.dumps(run_matrix(), indent=2, sort_keys=True)` plus a newline, so that
# evidence text cannot drift while the verdicts hold
REPORT = Path(__file__).parent / "data" / "matrix_report.json"


@pytest.fixture(scope="module")
def report():
    return run_matrix()


def test_matrix_covers_all_cells(report):
    verdicts = matrix_verdicts(report)
    assert set(verdicts) == set(LANGUAGES)
    for language in LANGUAGES:
        assert set(verdicts[language]) == set(CRITERIA)


def test_matrix_matches_golden(report):
    ok, mismatches = matches_golden(report)
    assert ok, mismatches


def test_bspl_column_all_yes(report):
    verdicts = matrix_verdicts(report)
    assert all(v == "Yes" for v in verdicts["BSPL"].values())


def test_hapn_asynchrony_no(report):
    assert matrix_verdicts(report)["HAPN"]["Asynchrony"] == "No"


def test_every_cell_has_evidence(report):
    for cell in report["cells"]:
        assert cell["evidence"], cell


def test_mapping_documented(report):
    assert set(report["mapping"]) == set(CRITERIA)


def test_render_shows_grid(report):
    text = render_matrix(report)
    for language in LANGUAGES:
        assert language in text
    for criterion in CRITERIA:
        assert criterion in text


def test_enactment_feasibility_encodings():
    assert _fifo_feasible(PRICING_ENACTMENTS["serial"])
    assert _fifo_feasible(PRICING_ENACTMENTS["replies-reversed"])
    assert _fifo_feasible(PRICING_ENACTMENTS["concurrent"])
    assert not _fifo_feasible(PRICING_ENACTMENTS["out-of-order"])
    assert _sync_feasible(PRICING_ENACTMENTS["serial"])
    assert _sync_feasible(PRICING_ENACTMENTS["replies-reversed"])
    assert not _sync_feasible(PRICING_ENACTMENTS["concurrent"])
    assert not _sync_feasible(PRICING_ENACTMENTS["out-of-order"])


def test_report_deterministic():
    assert run_matrix() == run_matrix()


def test_report_bytes_pinned(report):
    assert json.dumps(report, indent=2, sort_keys=True) + "\n" == REPORT.read_text()


def test_each_fixture_read_once_per_process(monkeypatch):
    reads = []

    def counting(name):
        reads.append(name)
        return fixture_text(name)

    monkeypatch.setattr(matrix, "fixture_text", counting)
    matrix._load.cache_clear()
    matrix._pricing_fsms.cache_clear()
    run_matrix()
    assert len(reads) == len(set(reads)) == 18
    reads.clear()
    run_matrix()
    assert reads == []


def test_replay_counts_a_deviating_reception_against_acceptance():
    # a filter never refuses a reception; it flags one its machine does not expect
    offer = matrix._pricing_msgs(matrix._load("pricing.bspl"))["O1"]
    buyer = CfpBackend(matrix._pricing_fsms("TraceC")["Buyer"])
    states, refused = matrix._replay([(RECEPTION, offer)], {"Buyer": buyer})
    assert refused == [] and not matrix._accepted(states["Buyer"])
