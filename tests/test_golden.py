"""Golden digests: traces and cost reports over the corpus stay byte-identical.

Each run is hashed over its text trace, its JSON report and its CSV report.
A change that alters metering on purpose regenerates the digests with

    PYTHONPATH=src python tests/test_golden.py --write

and says so in CHANGES.md.
"""

import hashlib
import io
import json
import sys
from pathlib import Path

from conftest import load_corpus

from esmtangle.cli import encode_size, input_codec
from esmtangle.cost import emit_report
from esmtangle.engine import MODE_INLINE, MODE_UNIT, run

GOLDEN = Path(__file__).parent / "data" / "golden.json"

# (program, sizes); None means the program takes no inputs.  Sizes are
# numeral values for numeral programs and string lengths for str_reverse.
SWEEPS = [
    ("toggle", [None]),
    ("merge_demo", [None]),
    ("bin_succ", [4, 8, 16, 32]),
    ("bin_add", [4, 8, 16, 32]),
    ("bin_mul", [4, 8]),
    ("str_reverse", [1, 2, 3, 4]),
]


def digests() -> dict[str, str]:
    out = {}
    for name, sizes in SWEEPS:
        program = load_corpus(name)
        codec = input_codec(program.vocab)
        for size in sizes:
            inputs = [] if size is None else [
                encode_size(program.vocab, codec, size) for _ in program.inputs
            ]
            for engine in ("critical", "reference"):
                for mode in (MODE_INLINE, MODE_UNIT):
                    trace = io.StringIO()
                    r = run(program, inputs, engine=engine, oracle_mode=mode, trace=trace)
                    h = hashlib.sha256(trace.getvalue().encode())
                    h.update(emit_report(r.cost))
                    h.update(emit_report(r.cost, format="csv"))
                    out[f"{name}[{size}] {engine} {mode}"] = h.hexdigest()
    return out


def test_golden_digests():
    expected = json.loads(GOLDEN.read_text())
    got = digests()
    assert sorted(got) == sorted(expected)
    changed = [key for key in expected if got[key] != expected[key]]
    assert not changed, f"trace or report bytes changed for {changed}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    GOLDEN.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
