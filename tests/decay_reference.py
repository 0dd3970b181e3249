"""The decay samples of ``rho_fitter`` made the slow way: a helper module
shared by the test files (not collected as tests).

Each triple (b, a, a') is evaluated where it lies: (a|a')_b through
``gromov_product``, and f(b, a) and f(b, a') through ``f_chain``, which
validates both words and translates f(e, b^-1 a) to b. A triple that the
ball cannot support is skipped.
"""

import hypaction as H
from hypaction.analysis import decay_triples
from hypaction.errors import ExactnessError, OutOfWindowError


def translated_sample(engine, b, a, a2):
    """((a|a')_b, f(b, a), f(b, a')), or None where the ball cannot support it."""
    try:
        return (float(H.gromov_product(engine.spec, b, a, a2)), engine.f_chain(b, a),
                engine.f_chain(b, a2))
    except (ExactnessError, OutOfWindowError):
        return None


def translated_triples(engine, ball, sample_count, seed):
    """The samples of every supported triple, in the order they were drawn."""
    samples = (translated_sample(engine, *t) for t in decay_triples(ball, sample_count, seed))
    return [s for s in samples if s is not None]
