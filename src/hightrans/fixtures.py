"""Empty: the test-bed embeddings that no problem file defines live in the
test suite's ``tests/oracles.py``.

``bench/tracer.py`` lists this module in ``MODULES`` and imports it, so it
stays, with no code, until the benchmark drops that entry (ROADMAP item 8).
"""
