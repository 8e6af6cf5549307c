"""Derandomized fuzzing of the five input grammars through `protolab check`.

Inputs are fixtures and generated sources, edited token by token, and
token soups over each grammar's vocabulary.  Whatever the input, `check`
exits 0 or 1, or exits 2 with one stderr line that starts `parse error:`
or `error:`; no exception escapes `cli.main`.
"""

import contextlib
import io
import random
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from generators import random_cfp, random_cupid, random_hapn, random_protocol, random_scribble
from protolab.bspl.core import print_bspl
from protolab.cfp.ast import print_cfp
from protolab.cfp.scribble_parser import print_scribble
from protolab.cli import main
from protolab.commitments import print_cupid
from protolab.hapn import print_hapn

FIXTURES = Path(__file__).resolve().parents[1] / "src" / "protolab" / "fixtures"
PRINTERS = {
    ".bspl": lambda rng: print_bspl(random_protocol(rng)),
    ".trace": lambda rng: print_cfp(random_cfp(rng)),
    ".scr": lambda rng: print_scribble(random_scribble(rng)),
    ".hapn": lambda rng: print_hapn(random_hapn(rng)),
    ".cupid": lambda rng: print_cupid(random_cupid(rng)),
}
# Words and marks beyond those of the seeds, some of them out of place in
# every grammar.
EXTRA = (
    "protocol roles parameters in out key global role choice at or do from to rec eps machine var state initial "
    "final trans on when bound unbound and true bind unbind arg commitment create detach discharge "
    '-> /\\ \\/ | ; , : = * ( ) [ ] { } . + - @ $ % ? ! 0 7 "s" " // é ٣ \r'
).split(" ")
_WORD = re.compile(r'//[^\n]*|"[^"\n]*"|[A-Za-z_][\w+\-]*|\d+|->|/\\|\\/|\S')


def seeds(suffix: str) -> list[str]:
    texts = [path.read_text() for path in sorted(FIXTURES.glob(f"*{suffix}"))]
    return texts + [PRINTERS[suffix](random.Random(i)) for i in range(4)]


SEEDS = {suffix: seeds(suffix) for suffix in PRINTERS}


@st.composite
def sources(draw, suffix: str) -> str:
    words = _WORD.findall(draw(st.sampled_from(SEEDS[suffix])))
    vocabulary = sorted(set(words)) + EXTRA
    if draw(st.booleans()):
        # a few token edits to a well-formed source
        for _ in range(draw(st.integers(1, 4))):
            at = draw(st.integers(0, len(words)))
            edit = draw(st.sampled_from(("delete", "insert", "replace", "cut")))
            if edit == "cut":
                words = words[:at]
            elif edit == "insert":
                words.insert(at, draw(st.sampled_from(vocabulary)))
            elif at < len(words):
                if edit == "delete":
                    del words[at]
                else:
                    words[at] = draw(st.sampled_from(vocabulary))
    else:
        words = draw(st.lists(st.sampled_from(vocabulary), max_size=40))
    return draw(st.sampled_from((" ", "\n"))).join(words)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("suffix", sorted(PRINTERS))
def test_check_answers_or_names_the_error(workdir, suffix):
    path = workdir / f"input{suffix}"

    @settings(max_examples=120, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(sources(suffix))
    def check(text):
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["check", str(path)])
        if code == 2:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith(("parse error:", "error:")), err.getvalue()
        else:
            assert code in (0, 1) and err.getvalue() == ""

    check()
