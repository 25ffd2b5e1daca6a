"""The source-tree fingerprint (:mod:`repro.perf.fingerprint`).

It keys every stored result: the sweep's store, ``repro serve``, the
lease queue and crash bundles.  It lives here, not under ``repro.harness``,
because ``perfbench/run.py`` imports ``repro.perf.fingerprint`` to
record the tree it measured.  Performance is measured by ``perfbench/``
at the repository root; see ``docs/performance.md``.
"""
