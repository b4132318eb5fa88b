"""bmf-analyzer: the repo's one static determinism/concurrency analysis.

Every rule runs over one stdlib-only structural frontend
(``source_model.py``) and shares one suppression syntax,
``// bmf-analyzer: allow(<rule>) -- <reason>``:

  * ``unordered-order-taint`` (``rules_taint.py``) — dataflow from
    hash-order sources (unordered_{map,set} iteration, pointer-comparison
    sorts, std::hash) to committed-state sinks, through locals and one
    level of helper calls.
  * ``lock-order`` (``rules_locks.py``) — the global bmf::Mutex acquisition
    graph must stay acyclic and every edge must be declared in
    lock_order_manifest.json.
  * ``relaxed-audit`` / ``publication-order`` (``rules_atomics.py``) —
    every memory_order_relaxed access carries an adjacent
    ``// relaxed-ok: <reason>`` marker; release stores to ``latest_`` /
    ``published_epoch_`` keep the publication-order pairing.
  * ``single-writer-ledger`` (``rules_ledger.py``) — CommStats/RebuildStats
    counters are written only on coordinator paths, never inside
    parallel_for_threads lambdas.
  * ``unordered-iteration``, ``bare-thread``, ``raw-randomness``,
    ``raw-openmp``, ``ungated-fanout``, ``stale-suppression``
    (``rules_source.py``) — per-line determinism invariants and
    suppression hygiene.

Entry point: ``python3 tools/analyzer/bmf_analyzer.py [paths...]``.
When the libclang Python bindings are importable, range-fors over
unordered containers are additionally confirmed against the AST
(``--use-libclang auto|no|require``).
"""
