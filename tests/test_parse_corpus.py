"""The parser against its golden record, tests/data/parse_corpus.json
(written by tests/data/make_parse_corpus.py from the previous parser):
for every text the same printed tree, slot count and jets, or the same
ParseError message and position.  Printing round-trips: the tape parsed
from the printed tree has the recorded slot count, and its jets equal,
bit for bit, those of the tape parsed from the text everywhere; the
recorded jet digests are compared where numpy runs the kernels they
were taken with."""

import json
import os
import sys

import numpy as np
import pytest

from liftlab.expr import ParseError, Tape, parse

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "data"))

import make_parse_corpus as corpus  # noqa: E402

with open(corpus.PATH, encoding="utf-8") as fh:
    RECORD = json.load(fh)
ENTRIES = RECORD["entries"]
SAME_KERNELS = RECORD["recorded_with"] == corpus.environment()


def test_the_corpus_covers_every_kind_of_text():
    assert len(ENTRIES) >= 500
    texts = {e["text"] for e in ENTRIES}
    assert {"10^400*x1", "exp(1000)", "x1*0", "- -x1", "2^-1"} <= texts
    assert set(corpus.TRANSCENDENTAL) <= texts
    errors = [e for e in ENTRIES if "error" in e]
    assert 200 <= len(errors) <= len(ENTRIES) - 200


@pytest.mark.parametrize("entry", ENTRIES, ids=range(len(ENTRIES)))
def test_the_parser_reproduces_the_record(entry):
    text, n = entry["text"], entry["n"]
    if "error" in entry:
        with pytest.raises(ParseError) as err:
            parse(text, n)
        assert [str(err.value), err.value.position] == entry["error"]
        return
    e = parse(text, n)
    assert str(e) == entry["tree"]
    # the tape of the printed tree and the tape parsed straight from the text
    tapes = (Tape([(str(e), n)]), Tape([(text, n)]))
    for tape in tapes:
        assert len(tape) == entry["slots"]
    with np.errstate(all="ignore"):
        jets = [tape.jets(corpus.points(n), 2) for tape in tapes]
    for a, b in zip(*jets):
        assert a.tobytes() == b.tobytes()
    if SAME_KERNELS:
        assert corpus.jets_digest(tapes[1], n) == entry["jets"]
