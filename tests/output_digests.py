"""SHA-256 digests of the library's catalogued outputs, one `sha256  label` line each.

A change that must leave every output byte-identical is checked by running
this script on the source tree before and after it, then comparing:

    python tests/output_digests.py --src OLD_CHECKOUT/src > before.txt
    python tests/output_digests.py > after.txt
    diff before.txt after.txt

The outputs, in this order:
  * `report --surface L --jobs 1` stdout for each of the 19 catalogued surfaces;
  * `report --surface 5/4 --m 25 --jobs 1` stdout, a report whose selection (to index 45) reaches past m;
  * `table3 --surface all` stdout;
  * `subspace --surface L` stdout, JSON and text, for each of the 12 published selections;
  * `subspace --surface 3/2 --indices 1,2,3` stdout (JSON), a given index list;
  * `full_report(p, m).to_dict()` as sorted-key JSON at the large-m sizes:
    3/2 and 7/6 at m = 1013 and 2113, 4/3 at m = 1089 and 2025.

`--only S` keeps the outputs whose label contains S (repeatable); the others
are not computed.  pytest does not collect this file: its name does not
start with test_.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

LARGE_M = {"3/2": (1013, 2113), "7/6": (1013, 2113), "4/3": (1089, 2025)}


def _stdout(main, argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        main(argv)
    return out.getvalue()


def _report_json(full_report, p, m: int) -> str:
    return json.dumps(full_report(p, m).to_dict(), sort_keys=True)


def outputs(lib):
    """(label, thunk) per catalogued output; the thunk returns the output's text."""
    main, bounds, surface = lib.cli.main, lib.bounds, lib.surface
    for ell, n, _ in surface.CATALOG:
        argv = ["report", "--surface", f"{ell}/{n}", "--jobs", "1"]
        yield f"report {ell}/{n}", lambda argv=argv: _stdout(main, argv)
    argv = ["report", "--surface", "5/4", "--m", "25", "--jobs", "1"]
    yield "report 5/4@25", lambda argv=argv: _stdout(main, argv)
    yield "table3 all", lambda: _stdout(main, ["table3", "--surface", "all"])
    for label in bounds.SUBSPACE_SETS:
        for fmt in ("json", "text"):
            argv = ["subspace", "--surface", label, "--format", fmt]
            yield f"subspace {label} {fmt}", lambda argv=argv: _stdout(main, argv)
    argv = ["subspace", "--surface", "3/2", "--indices", "1,2,3"]
    yield "subspace 3/2 1,2,3 json", lambda argv=argv: _stdout(main, argv)
    for label, sizes in LARGE_M.items():
        p = surface.catalog_surface(*map(int, label.split("/")))
        for m in sizes:
            yield f"full_report {label}@{m}", lambda p=p, m=m: _report_json(bounds.full_report, p, m)


def digest_lines(lib, only: list[str] | None = None) -> list[str]:
    return [
        f"{hashlib.sha256(thunk().encode()).hexdigest()}  {label}"
        for label, thunk in outputs(lib)
        if not only or any(s in label for s in only)
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                        help="source tree holding the wente_index package (default: this checkout's src)")
    parser.add_argument("--only", action="append", help="keep outputs whose label contains this string")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    from wente_index import bounds, cli, surface

    lib = argparse.Namespace(bounds=bounds, cli=cli, surface=surface)
    for line in digest_lines(lib, args.only):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
