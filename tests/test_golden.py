"""Golden corpora: rebuilt from the current code and compared byte for byte.

After an intended behaviour change, rewrite the corpora with
``python tests/golden/regen.py`` and explain each hunk.
"""

from golden import regen


def test_extraction_corpus_is_unchanged():
    assert regen.build() == regen.CORPUS.read_text("utf-8"), (
        "extraction changed; run `python tests/golden/regen.py` to see the diff"
    )


def test_pipeline_corpus_is_unchanged():
    assert regen.build_pipeline() == regen.PIPELINE.read_text("utf-8"), (
        "pipeline output changed; run `python tests/golden/regen.py` to see the diff"
    )


def test_report_corpus_is_unchanged():
    assert regen.build_reports() == regen.REPORTS.read_text("utf-8"), (
        "final output or report text changed; run `python tests/golden/regen.py` to see the diff"
    )


def test_cli_corpus_is_unchanged():
    assert regen.build_cli() == regen.CLI.read_text("utf-8"), (
        "CLI output changed; run `python tests/golden/regen.py` to see the diff"
    )
