"""The package's records: immutable, equal and hashed by their fields,
picklable (`verify all` sends `Check` and `SuiteResult` across a fork), and
checked when built. None of them needs `dataclasses`."""

import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

from ellipta import elliptic as el
from ellipta import gammakit as gk
from ellipta import grammarcalc as gc
from ellipta import suites
from ellipta import treeoracle as to
from ellipta.exactpoly import AlphabetMismatchError, ExactPolyError, MultiPoly

SRC = Path(__file__).resolve().parent.parent / "src"


def _closure_item():
    gammas, weights = suites.random_closure_instance(random.Random(0), 3)
    return el.bi_gamma_closure(gammas, weights, 3)[-1]


_report = gk.analyze((1, 3, 1))

# name -> (a record built by the code that builds it, its fields in order)
RECORDS = {
    "FormalSeries": (el.elliptic_series(2).sn, ("order", "coeffs")),
    "GammaVector": (_report.gamma, ("center", "gammas")),
    "SymDecomp": (_report.decomposition, ("a", "b", "n")),
    "AnalysisReport": (_report, (
        "center", "symmetric", "unimodal", "alternatingly_increasing",
        "gamma_positive", "bi_gamma_positive", "gamma", "decomposition",
        "gamma_a", "gamma_b",
    )),
    "Grammar": (gc.G1, ("variables", "rules")),
    "EllipticSeries": (el.elliptic_series(2), ("order", "scale", "sn", "cn", "dn")),
    "SeriesIdentityReport": (
        el.series_identity_checks(2), ("order", "pythagorean", "modulus", "dn_reversal")
    ),
    "EvenDecomposition": (
        el.j_even_decomposition(1), ("m", "gamma_a", "gamma_b", "decomposition")
    ),
    "ClosureItem": (_closure_item(), (
        "index", "poly", "decomposition", "gamma_a", "gamma_b", "degenerate",
        "alternatingly_increasing",
    )),
    "Check": (suites.Check("row 4", False, "off by one"), ("label", "ok", "detail")),
    "SuiteResult": (
        suites.SuiteResult("thm1", "n <= 4", (suites.Check("row 4", True),)),
        ("name", "scope", "checks"),
    ),
    "OrbitCheck": (to.phi_orbit_check((0, 0), {1}), (
        "ok", "start", "image", "flipped_odd", "even_pairs", "before", "after",
        "matching_preserved",
    )),
}

# name -> (positional arguments, error type, message) its constructor rejects
BAD = {
    "FormalSeries": [
        ((-1, ()), ExactPolyError, "order must be nonnegative"),
        ((2, ((1,),)), ExactPolyError, "expected 3 coefficients, got 1"),
    ],
    "GammaVector": [
        ((-2, ()), ValueError, "center -2 out of range"),
        ((3, (1,)), ValueError, "center 3 needs 2 entries, got 1"),
        ((-1, (0,)), ValueError, "center -1 needs 0 entries, got 1"),
    ],
    "Grammar": [
        ((("a", "b"), (MultiPoly.const(("a", "b"), 1),)), ValueError,
         "need exactly one rule per letter"),
        ((("a",), (MultiPoly.const(("b",), 1),)), AlphabetMismatchError,
         r"rule alphabet \('b',\) differs from \('a',\)"),
    ],
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_is_an_immutable_picklable_value(name):
    record, fields = RECORDS[name]
    cls = type(record)
    assert cls.__name__ == name
    values = [getattr(record, f) for f in fields]

    copy = cls(*values)
    assert copy is not record
    assert copy == record and not copy != record
    assert hash(copy) == hash(record)
    assert cls(**dict(zip(fields, values))) == record
    assert repr(record).startswith(f"{name}({fields[0]}={values[0]!r}")

    for field in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert [getattr(record, f) for f in fields] == values

    back = pickle.loads(pickle.dumps(record))
    assert type(back) is cls and back == record

    with pytest.raises(TypeError):
        cls()
    for args, error, message in BAD.get(name, ()):
        with pytest.raises(error, match=f"^{message}$"):
            cls(*args)
        if hasattr(cls, "_replace"):
            with pytest.raises(error, match=f"^{message}$"):
                record._replace(**dict(zip(fields, args)))


def test_a_cli_run_imports_neither_dataclasses_nor_inspect():
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "from ellipta import cli\n"
        "code = cli.main(['compute', 'j', '--n', '3'])\n"
        "print(code, sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-B", "-c", code],
        capture_output=True, text=True, check=True,
    )
    assert done.stdout.splitlines()[-1] == "0 []"
