"""Shared helpers for the benchmark harness.

Every ``bench_figureN.py`` regenerates one paper artifact: it runs the
corresponding experiment once under pytest-benchmark (wall time is the
benchmark), prints the same rows/series the paper's figure reports
(visible with ``pytest benchmarks/ --benchmark-only -s``), and asserts
the paper's qualitative shape.
"""

from repro.core.histogram import Histogram

__all__ = ["print_panel", "print_series"]


def pytest_configure(config):
    """Autosave pytest-benchmark results for every benchmark run, so
    ``pytest-benchmark compare`` has a local history to diff against
    (the repository's performance benchmark is ``benchmarks/pipeline/``,
    compared in A/B sets with its ``spread.py`` and ``compare.py``)."""
    if hasattr(config.option, "benchmark_autosave"):
        config.option.benchmark_autosave = True


def print_panel(title: str, hist: Histogram) -> None:
    """Print one figure panel as label/count rows (the paper's bars)."""
    print(f"\n--- {title} ---")
    for label, count in hist.nonzero_items():
        print(f"  {label:>10}  {count}")


def print_series(title: str, rows) -> None:
    """Print a (label, value) series."""
    print(f"\n--- {title} ---")
    for label, value in rows:
        print(f"  {label:<44} {value}")
