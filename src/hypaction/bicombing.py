"""A stub: the bicombing is ``cayley.q_path`` and ``cayley.q_point``. The
benchmark under perfbench/ traces this module and reads ``ChainEngine.q._paths``
on every engine, so both go with the benchmark change of ROADMAP item 1."""


class Bicombing:
    """An always-empty path cache; no library code reads it."""

    def __init__(self):
        self._paths: dict = {}
