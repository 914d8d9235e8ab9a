"""Every argv of the golden CLI corpus prints what it printed when the corpus was written."""

import json
import shlex

import golden_cli


def test_golden_corpus_lists_every_argv():
    corpus = json.loads(golden_cli.CORPUS.read_text())
    assert list(corpus) == [shlex.join(argv) for argv in golden_cli.argvs()]


def test_golden_corpus_digests_match():
    corpus = json.loads(golden_cli.CORPUS.read_text())
    differing = [line for line, want in corpus.items() if golden_cli.digest(shlex.split(line)) != want]
    assert not differing, (
        f"{len(differing)} of {len(corpus)} argvs print other than the corpus, "
        f"first: comptri {differing[0]}"
    )
