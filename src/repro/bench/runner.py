"""Shared plumbing for every ``repro bench`` suite.

One place owns what every suite needs: the common CLI flags
(``--quick``, ``--repeats``, ``--json``/``--out``, ``--store``),
best-of-N timing, and the merge-into-``BENCH_throughput.json``
semantics (uniform schema header, section keys, owned-key replacement
so a re-run never leaves stale sub-sections behind).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import time
from typing import Any, Callable, Dict, Optional, Tuple

from ..store import ResultStore, resolve_result_store

__all__ = [
    "THROUGHPUT_SCHEMA",
    "BenchRunner",
    "add_common_arguments",
]

#: Schema header of the merged BENCH_throughput.json artifact.
THROUGHPUT_SCHEMA = "repro.bench_throughput/v1"

#: Top-level keys the ``throughput`` suite owns inside the merged
#: report.  They are replaced wholesale on each run -- ``parallel`` in
#: particular must vanish when the sweep is skipped, not linger from a
#: previous run.
_THROUGHPUT_KEYS = (
    "circuit", "backends", "speedup_vs_scalar", "skipped", "parallel",
)


def add_common_arguments(
    parser: argparse.ArgumentParser, default_out: str, store: bool = False
) -> None:
    """The flags every suite shares (``--store`` only where it applies)."""
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smoke-test lane: small circuits, one repeat",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=None,
        help="best-of-N timing repeats (default: suite-specific, or 1 "
        "with --quick; an explicit value always wins)",
    )
    parser.add_argument(
        "--json",
        "--out",
        dest="out",
        default=default_out,
        help=f"output artifact path (default: {default_out})",
    )
    if store:
        parser.add_argument(
            "--store",
            nargs="?",
            const=True,
            default=None,
            metavar="DIR",
            help="content-addressed result store: flag alone for the "
            "default directory, or a path; cached grid points are "
            "served without replaying (default: $REPRO_RESULT_STORE)",
        )


class BenchRunner:
    """Execution context shared by all bench suites.

    Resolves the common flags once, times callables best-of-N, and
    writes/merges the JSON artifacts so every suite reports through the
    same path.
    """

    def __init__(
        self,
        out: str,
        quick: bool = False,
        repeats: Optional[int] = None,
        store: Any = None,
    ) -> None:
        self.out = pathlib.Path(out)
        self.quick = quick
        self._repeats = repeats
        self.store: Optional[ResultStore] = resolve_result_store(store)

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "BenchRunner":
        return cls(
            out=args.out,
            quick=args.quick,
            repeats=getattr(args, "repeats", None),
            store=getattr(args, "store", None),
        )

    def repeats(self, full_default: int) -> int:
        """Explicit ``--repeats`` wins; otherwise 1 under ``--quick``."""
        if self._repeats is not None:
            return self._repeats
        return 1 if self.quick else full_default

    def best_of(
        self, fn: Callable[[], Any], repeats: Optional[int] = None
    ) -> Tuple[float, Any]:
        """(best wall seconds, last value) over N runs of ``fn``."""
        count = repeats if repeats is not None else self.repeats(1)
        best = None
        value = None
        for _ in range(max(1, count)):
            start = time.perf_counter()
            value = fn()
            elapsed = time.perf_counter() - start
            if best is None or elapsed < best:
                best = elapsed
        return best, value

    # -- artifact I/O ----------------------------------------------------

    def _load_report(self) -> Dict[str, Any]:
        if self.out.exists():
            return json.loads(self.out.read_text())
        return {"schema": THROUGHPUT_SCHEMA}

    def merge_section(
        self, section: Dict[str, Any], key: Optional[str] = None
    ) -> pathlib.Path:
        """Merge one suite's output into the shared throughput report.

        ``key=None`` is the throughput suite itself: its owned top-level
        keys are replaced (other suites' sections survive).  Named keys
        (``sim``/``protocol``/``service``) replace that sub-section.
        """
        data = self._load_report()
        data.setdefault("schema", THROUGHPUT_SCHEMA)
        if key is None:
            for owned in _THROUGHPUT_KEYS:
                data.pop(owned, None)
            data.update(section)
        else:
            data[key] = section
        return self.write_artifact(data)

    def write_artifact(self, report: Dict[str, Any]) -> pathlib.Path:
        """Standalone artifact write (scenarios, or the merged report)."""
        self.out.write_text(json.dumps(report, indent=2) + "\n")
        return self.out
