"""Command-line interface (``repro-numa``).

Subcommands mirror the tools the paper uses plus its own contribution:

* ``hardware`` — ``numactl --hardware``-style report + the link table;
* ``stream`` — STREAM runs (single pair or the full matrix);
* ``fio`` — run a single job or an ini job file;
* ``iomodel`` — Algorithm 1 (the paper's numademo extension);
* ``predict`` — Eq. 1 mixture prediction;
* ``advise`` — class-aware placement advice;
* ``experiment`` — regenerate any paper table/figure by id.
"""
