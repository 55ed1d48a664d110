"""Byte-identity contract: sha256 digests of CLI and API outputs.

The digests were recorded before the kernel and driver routines were
consolidated; a refactor that changes any certificate, report, table, Jordan
basis or placement diagram by a single byte fails here.  To see what a case
prints, call its builder, e.g. ``_cli("verify", "all", ...)``.
"""

import hashlib
import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

from quiverz.abdiagrams import enumerate_b_parts, max_diagram, random_diagram
from quiverz.cli import main
from quiverz.exactmat import FieldSpec, canonical_nilpotent, inverse, jordan_basis, mul
from quiverz.verify import pair_type_table, stability_report

from oracles import partitions_up_to_weight, random_invertible


def _cli(*argv) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["--json", *argv])
    return f"{code}\n{buf.getvalue()}"


def _pair_table() -> str:
    table = pair_type_table(2, 1, p=2)
    return json.dumps(sorted((list(k), sorted(map(list, v))) for k, v in table.items()))


def _stability(dims_list: tuple, p: int, budget: int) -> str:
    return json.dumps(stability_report(dims_list=dims_list, p=p, budget=budget).to_json_dict())


def _jordan_bases() -> str:
    """g for seeded conjugates of canonical nilpotents over F_2, F_3 and
    F_32003, including n = 0 and the zero matrix."""
    rng = random.Random(2024)
    out = []
    for p in (2, 3, 32003):
        field = FieldSpec(p)
        for eta in partitions_up_to_weight(7):
            N = canonical_nilpotent(eta, field)
            h = random_invertible(eta.weight, field, rng)
            out.append(list(jordan_basis(mul(mul(h, N), inverse(h))).entries))
    return json.dumps(out)


def _placements() -> str:
    rng = random.Random(6)
    out = []
    for eta in partitions_up_to_weight(6):
        for a in range(5):
            wit = enumerate_b_parts(eta, a, witnesses=True)
            out.append(
                [
                    max_diagram(eta, a).to_strings(),
                    random_diagram(eta, a, rng).to_strings(),
                    [[b.to_list(), d.to_strings()] for b, d in wit.items()],
                ]
            )
    return json.dumps(out)


CASES = {
    "verify-all": (
        lambda: _cli("verify", "all", "--seed", "7", "--max-last", "4", "--trials", "1"),
        "1f51dc7426a453830df31d261a1d0ecd7daa16631bb8e03d2f4782232dce913c",
    ),
    "verdict-1,4,5": (
        lambda: _cli("dimvec", "verdict", "1,4,5"),
        "89632bb43ed55ac0d29e511b4e5086c3f12dc0a8429e3314d7d4ab7f1fe02e2d",
    ),
    # Over F_2 the most g are redrawn, so a change in the draws shows most
    # there; recorded before theta-image sampled flag points.
    "theta-image-p2": (
        lambda: _cli("verify", "theta-image", "--max-last", "6", "--p", "2", "--seed", "3"),
        "fcd96da347d1aef9b95d5026ec207e9138d4152c81fbca6501351bb6a04fce26",
    ),
    # Over F_3 the stable samples mix entries 1 and 2, so most of them are
    # typed by elimination; recorded before theta-image typed every
    # interface of a sample off its theta alone.
    "theta-image-p3": (
        lambda: _cli("verify", "theta-image", "--max-last", "6", "--p", "3", "--seed", "3"),
        "743b33925bfe21a31fde66573023bbbbea74bb135d9351ac2350963989d9949e",
    ),
    # t up to 8 over F_2, where many stable samples are not generic and the
    # sweep types them at every interface; recorded before those types were
    # read off the ranks of the endomorphism's leading blocks.
    "theta-image-p2-max8": (
        lambda: _cli("verify", "theta-image", "--max-last", "8", "--p", "2", "--seed", "5"),
        "b707c939630980f5f832a339818645ac7feb6c4422d5b9dc572f63ca55174634",
    ),
    # Over F_3 the (1,2,3) check stands for 3^16 tuples, so every weight and
    # count of the stability enumeration shows; recorded before it solved
    # its last relation by lookup.
    "stability-p3": (
        lambda: _cli("verify", "stability", "--p", "3", "--budget", "100000000"),
        "3dd9fe70199627e71bbc2aa5dc799864d10dfffeae744418d179de4cbf4811b6",
    ),
    # Shapes the CLI cannot reach: t = 2 up to rank 3 and t = 4 over F_2,
    # and a last map of rank up to 3 over F_3; recorded before the
    # enumeration solved its last relation in closed form.
    "stability-api-p2": (
        lambda: _stability(((3, 4), (1, 1, 2, 4), (2, 3)), 2, 10**8),
        "bfe5d3c0287e464aa9076a58a41ea401b9d7571b6539c60c41bfb0e945628d45",
    ),
    "stability-api-p3": (
        lambda: _stability(((2, 3), (1, 2, 4)), 3, 10**10),
        "b5091a2a8fd368886f23e97d9669d10cc1b2cfa589b1b628eb952747e692b365",
    ),
    "verdict-1,4,5-p2": (
        lambda: _cli("dimvec", "verdict", "1,4,5", "--p", "2"),
        "0fe6ac518401ebc259b087e6b347e0396046e302f92eb923249da7a43e10fec8",
    ),
    "verdict-4,11,16": (
        lambda: _cli("dimvec", "verdict", "4,11,16"),
        "f540a05e2c658973e8d21b1023e568f7dbaab15813a30e3f832e7439c0c81a37",
    ),
    "verdict-12,27,40": (
        lambda: _cli("dimvec", "verdict", "12,27,40"),
        "237f27649105cbb04fb027fb551ac5f8ae3c655a2e278de67477b946c123a0af",
    ),
    "verdict-4,7,13,16": (
        lambda: _cli("dimvec", "verdict", "4,7,13,16"),
        "17037b664fea10f1e097267aae38fa98d9abce90960946532e011fdc86df2278",
    ),
    # t = 5 and t = 6, where the stable witness's type takes the most
    # backward composites; recorded before that type was read off their
    # ranks instead of theta's powers.
    "verdict-8,16,25,33,40": (
        lambda: _cli("dimvec", "verdict", "8,16,25,33,40"),
        "4a85a6201b06020eb67cd5b95b328be5fc2675919531010c77b48c16556cd40a",
    ),
    "verdict-2,5,8,12,13,16": (
        lambda: _cli("dimvec", "verdict", "2,5,8,12,13,16"),
        "a953ab16a49196b4c2581229bb693b8707a448c12da51e9330e69d28e8adbe6c",
    ),
    # The ab-step pair tables of (3,1) over F_2 and (2,2) over F_3 reach
    # rank 2 and 3, where B's blocks interleave in the witness order;
    # recorded before the pair loop typed B's blocks apart.
    "ab-step-3,1,2": (
        lambda: _cli("verify", "ab-step", "--n", "3", "--a", "1", "--p", "2", "--budget", "16777216"),
        "b201cacbed8e0267fae05e05ad03eaa24c1a904913f2c87b2df49a7de55a3afe",
    ),
    "ab-step-2,2,3": (
        lambda: _cli("verify", "ab-step", "--n", "2", "--a", "2", "--p", "3", "--budget", "43046721"),
        "44ec54067916806c57740abbca84efeb77a834c132deac01fe5b62c046c046db",
    ),
    # (3,2) over F_2 and (3,1) over F_3 reach rank 3, where every class of
    # the corner block shows; recorded before the pair loop took one class
    # per corner block.
    "ab-step-3,2,2": (
        lambda: _cli("verify", "ab-step", "--n", "3", "--a", "2", "--p", "2", "--budget", "1073741824"),
        "b4e576a4e85a4d9b8d85ee3af93fc6ae0823cf3bb01d4b822a3f0ca49b92a730",
    ),
    "ab-step-3,1,3": (
        lambda: _cli("verify", "ab-step", "--n", "3", "--a", "1", "--p", "3", "--budget", "282429536481"),
        "a94187ef5d3cde5283897fcc1a58dc45b163009f0a487762cfde95aef6f6d03d",
    ),
    "pair-table-2,1,2": (
        _pair_table,
        "c3dd5fd0a88080bb03cae76ee35c7968860ceede05a3687ebc9546e2ba5be240",
    ),
    "jordan-basis": (
        _jordan_bases,
        "c17bd1e4397b6b1adbe2d87dcb86ea8e29937f77adc1f9db340f6a417ba7730d",
    ),
    "placements": (
        _placements,
        "6fbcd8d9b00dac211e0370a96724640850ea4d15e9bc689d8c08382b15ff4157",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_digest(name):
    build, digest = CASES[name]
    assert hashlib.sha256(build().encode()).hexdigest() == digest


def test_output_digests_under_optimisation():
    """python -O strips assert statements, so every case is built again in
    one python -O process and must give the same digest."""
    script = (
        "import hashlib, sys\n"
        "import test_golden\n"
        "if not sys.flags.optimize:\n"
        "    raise SystemExit('not optimised')\n"
        "for name, (build, digest) in sorted(test_golden.CASES.items()):\n"
        "    if hashlib.sha256(build().encode()).hexdigest() != digest:\n"
        "        print(name)\n"
    )
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(here, os.pardir, "src")
    path = os.pathsep.join(filter(None, [src, here, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == ""
