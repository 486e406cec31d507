"""The program under test as the benchmark sees it: quadfree imported
from the checkout's ``src/``, and one callable per pool instance.

An op returns ``("cut", coef, rhs)``, ``("exit", code, stdout)`` or
``("raise", exception)``; nothing is checked inside the timed call.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import sys
from pathlib import Path

LAYERS = ("spectral", "corefns", "freesets", "cuts", "oracle", "lp", "cli")


class ProgramMissing(RuntimeError):
    """The checkout holds no importable quadfree source."""


def import_program(root: Path, fresh: bool = False) -> dict:
    """Import every layer module from ``root/src``; with ``fresh``, drop
    any earlier import first so the import cost is paid again."""
    src = (root / "src").resolve()
    if not (src / "quadfree" / "__init__.py").is_file():
        raise ProgramMissing(f"no quadfree package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    if fresh:
        for name in [n for n in sys.modules if n == "quadfree" or n.startswith("quadfree.")]:
            del sys.modules[name]
    mods = {name: importlib.import_module(f"quadfree.{name}") for name in LAYERS}
    origin = Path(mods["cli"].__file__).resolve()
    if src not in origin.parents:
        raise ProgramMissing(f"quadfree was imported from {origin}, not from {src}")
    return mods


def documented(cli):
    """Exception types and exit codes the CLI documents (its exit table)."""
    table = tuple(getattr(cli, "_EXIT_CODES", ()))
    return tuple(t for t, _ in table), {code for _, code in table}


def _separate(cuts, qc, cone):
    try:
        cert = cuts.separate(qc, cone)
    except Exception as exc:  # scored as an outcome, never re-raised
        return ("raise", exc)
    return ("cut", cert.coef, cert.rhs)


def _cli(cli, argv):
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except Exception as exc:  # scored as an outcome, never re-raised
        return ("raise", exc)
    return ("exit", code, out.getvalue())


def make_ops(workload: str, pool, mods: dict, files: Path) -> list:
    """One zero-argument callable per instance, in pool order.

    CLI workloads read their instance from a JSON file written under
    ``files``; the module attributes are looked up on every call so that
    tracing wrappers installed later are seen.
    """
    if workload.startswith("sep"):
        spectral, cuts = mods["spectral"], mods["cuts"]
        ops = []
        for inst in pool:
            qc = spectral.QuadraticConstraint(Q=inst.Q, b=inst.b, c=inst.c, point=inst.point)
            cone = cuts.SimplicialCone(apex=inst.point, R=inst.rays)
            ops.append(lambda qc=qc, cone=cone: _separate(cuts, qc, cone))
        return ops
    files.mkdir(parents=True, exist_ok=True)
    ops = []
    for inst in pool:
        path = files / (inst.key.replace("/", "_") + ".json")
        path.write_text(json.dumps(inst.as_cli_fields()), encoding="utf-8")
        argv = [workload, str(path)]
        ops.append(lambda argv=argv: _cli(mods["cli"], argv))
    return ops
