"""The benchmark's two seeded workloads.

A workload builds its inputs from the seed in ``setup`` and then runs a
fixed batch of public calls per round. Every round repeats the same batch
with fresh engines (so fresh chain and path caches), which makes each
round's counters a pure function of the seed. Output checks are written
from closed forms and independent arithmetic, not from the library.

The library is imported inside ``setup`` so that import time is part of
the measured set-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from fractions import Fraction

# free:2 as the library labels it: a, A, b, B with A = a^-1 and B = b^-1
_F2_LETTERS = "aAbB"
_F2_INVERSE = {"a": "A", "A": "a", "b": "B", "B": "b"}


class Failed:
    """Marks a call that raised; the item it belongs to counts as failed."""

    def __init__(self, exc: BaseException):
        self.exc = exc

    def __repr__(self):
        return f"{type(self.exc).__name__}: {self.exc}"


class Checked:
    """Outcome of checking one round's outputs."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.counts: dict[str, int | str] = {}

    def item(self, weight: int, problems: list[str]) -> None:
        self.attempted += weight
        if problems:
            self.failed += weight
            self.messages.extend(problems)


def engine_counts(engines) -> dict[str, int]:
    """Cache and path-cache sizes of the engines a round created."""
    return {
        "flowers.cache_hits": sum(e.cache.hits for e in engines),
        "flowers.cache_misses": sum(e.cache.misses for e in engines),
        "flowers.cache_entries": sum(len(e.cache.memo) for e in engines),
        "bicombing.path_cache_entries": sum(len(e.q._paths) for e in engines),
    }


def _random_reduced(rng: random.Random, length: int) -> str:
    out: list[str] = []
    for _ in range(length):
        banned = _F2_INVERSE[out[-1]] if out else None
        out.append(rng.choice([x for x in _F2_LETTERS if x != banned]))
    return "".join(out)


# ------------------------------------------------------------------- tree-report


class TreeReport:
    """The whole ``report`` command on free:2 with p = auto, run in-process
    through the CLI entry point, over a power range plus seeded reduced
    words. It fits and selects p once per row, fills the chain cache through
    h_chain and f_chain, and computes the exact tree norm. An item is one
    CSV row.
    """

    name = "tree-report"
    item_fn = "cli._cocycle_payload"
    # a command takes seconds; it is timed in pieces of milliseconds, cut
    # where the decay samples are drawn, where the envelope at each grid
    # exponent is fitted, where p has been selected, and where a row's norm
    # and properness count return
    split_after = ("analysis.rho_fitter", "analysis.fit_envelope", "analysis.select_p",
                   "cocycle.Cocycle.norm", "cocycle.Cocycle.properness_count")
    # four rows per command: a command is the unit that is repeated, so it
    # is kept short enough to run many times within one timed worker
    POWERS = 2  # a^1, a^2
    WORD_LENGTHS = (6, 8)  # one seeded reduced word of each length
    HEADER = ("g_word,d_g_e,p,lower,tail_bound,properness_count,"
              "bound_20delta_ok,bound_100delta_ok")

    @staticmethod
    def closed_form_lower(k: int) -> int:
        """||pi(g) eta - eta||_p^p on free:2 with delta = 1 for d(g, e) = k."""
        return 2 * ((k + 1) + (2 * k + 4) * (3 ** 9 - 1) // 2)

    def setup(self, seed: int):
        import hypaction.cli as cli

        rng = random.Random(f"{self.name}:{seed}")
        lengths = list(self.WORD_LENGTHS)
        rng.shuffle(lengths)
        words = [_random_reduced(rng, n) for n in lengths]
        argv = ["report", "--group", "free:2", "--p", "auto", "--samples", "200",
                "--powers", f"a:1:{self.POWERS}", "--g-words", ",".join(words)]
        expected = [("a" * k, k) for k in range(1, self.POWERS + 1)]
        expected += [(w, len(w)) for w in words]
        return {"cli": cli, "argv": argv, "expected": expected, "first_csv": None}

    def round(self, st, call):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = call(st["cli"].main, st["argv"])
        return [(code, buf.getvalue())]

    def check(self, st, outputs, engines) -> Checked:
        out = Checked()
        expected = st["expected"]
        rows = len(expected)
        ((code, text),) = outputs
        if isinstance(code, Failed) or code != 0:
            out.item(rows, [f"report exited with {code!r}"])
            return out
        if st["first_csv"] is None:
            st["first_csv"] = text
        lines = text.splitlines()
        if text != st["first_csv"]:
            out.item(rows, ["CSV differs from the first run of the same seed"])
        elif not lines or lines[0] != self.HEADER or len(lines) != rows + 1:
            out.item(rows, [f"unexpected CSV shape: {lines[:1]} with {len(lines)} lines"])
        else:
            for line, (word, k) in zip(lines[1:], expected):
                g, d, _p, lower, tail, _count, ok20, ok100 = line.split(",")
                problems = []
                if g != word or int(d) != k:
                    problems.append(f"row {line!r}: expected g={word}, d={k}")
                elif float(lower) != self.closed_form_lower(k) or float(tail) != 0.0:
                    problems.append(f"row {line!r}: closed form gives {self.closed_form_lower(k)}")
                if ok20 != "True" or ok100 != "True":
                    problems.append(f"row {line!r}: a bound flag is false")
                out.item(1, problems)
        out.counts = {"cli.csv_sha256": hashlib.sha256(text.encode()).hexdigest(),
                      **engine_counts(engines)}
        return out

    def run_checks(self, st, totals) -> list[str]:
        return []


# ------------------------------------------------------------------ bigon-line2


_LINE2_STEPS = (1, -1, 2, -2)


def line2_ball_json(radius: int) -> dict:
    """The integers with generators {+-1, +-2} as a Cayley-ball file."""
    gens = [{"label": "p", "inverse": 1}, {"label": "P", "inverse": 0},
            {"label": "q", "inverse": 3}, {"label": "Q", "inverse": 2}]
    verts = range(-2 * radius, 2 * radius + 1)
    edges = [[str(n), gi, str(n + s)] for n in verts for gi, s in enumerate(_LINE2_STEPS)
             if -2 * radius <= n + s <= 2 * radius]
    return {"generators": gens, "basepoint": "0", "radius": radius,
            "vertices": [str(n) for n in verts], "edges": edges}


def _line2_dist(m: int, n: int) -> int:
    return (abs(m - n) + 1) // 2


def _line2_greedy_point(start: int, target: int, t: int) -> int:
    """Vertex at distance t from start on the greedy geodesic to target:
    each step takes the first of +1, -1, +2, -2 that gets closer."""
    cur = start
    for _ in range(t):
        d = _line2_dist(cur, target)
        cur += next(s for s in _LINE2_STEPS if _line2_dist(cur + s, target) == d - 1)
    return cur


class BigonLine2:
    """Z with generators {+-1, +-2} as an explicit ball of radius 120: the one
    family whose geodesic bigons make flowers spread mass. Each item runs a
    cached f_chain on a pair from B(e, R/3), verify_identity over the
    radius-30 window (grouped residuals plus literal audits) and a windowed
    cocycle norm with a decay fit made once in setup. Explicit-ball edge
    walks, the greedy bicombing with its path cache and Fraction averaging
    do the work; the unique-geodesic prefix shortcut is bypassed. An item is
    one such triple.

    The integers have few symmetries, so the cost of the identity and norm
    calls depends on the values of g and k and, through the chain cache, on
    their order. They therefore follow a fixed schedule, and they run on an
    engine of their own: sharing one with the seeded f_chain calls made
    their cache misses range from 9,000 to 16,000 per round over eight seeds,
    so different seeds would have measured different work. The seed draws
    the f_chain pairs, the audit samples and the decay fit.
    """

    name = "bigon-line2"
    item_fn = "flowers.ChainEngine.f_chain"
    # the set-up's decay fit takes a second or more; it is timed in pieces
    # cut where the envelope at each grid exponent is fitted
    split_after = ("analysis.rho_fitter", "analysis.fit_envelope", "analysis.select_p")
    R = 120
    WINDOW_RADIUS = 30
    FIT_RADIUS = 8
    FIT_SAMPLES = 400
    ITEMS = 48
    # g and k come from B(e, 12) so that the literal audits of the identity
    # stay inside the explicit ball
    GK_RADIUS = 12
    AUDIT_FRACTION = 0.02
    TEN_DELTA = 10

    def setup(self, seed: int):
        import hypaction as H

        rng = random.Random(f"{self.name}:{seed}")
        spec = H.ball_from_json(line2_ball_json(self.R), delta=1)
        word_of = {sum(_LINE2_STEPS[x] for x in w): w for w in H.build_ball(spec, self.R).words}
        window = H.build_ball(spec, self.WINDOW_RADIUS)
        window.parent_letters  # built lazily on first use; part of the window
        fit_ball = H.build_ball(spec, self.FIT_RADIUS)
        upsilon = H.estimate_upsilon(fit_ball)
        rho_of_p, fits = H.rho_fitter(H.ChainEngine(spec), fit_ball, self.FIT_SAMPLES,
                                      rng.randrange(1 << 30))
        sel = H.select_p(upsilon, rho_of_p)

        span = 2 * (self.R // 3)  # B(e, R/3) is the integers in [-80, 80]
        gk = 2 * self.GK_RADIUS
        items = []
        for i in range(self.ITEMS):
            while True:
                nb, na = rng.randint(-span, span), rng.randint(-span, span)
                # f(b, a) needs d(e, b) + d(b, a) + delta inside the ball
                if _line2_dist(0, nb) + _line2_dist(nb, na) + 1 <= self.R:
                    break
            # |g| runs over 1..gk, first with g > 0, then with g < 0
            ng = (1 if i // gk % 2 == 0 else -1) * (1 + i % gk)
            nk = (-1) ** i * ((7 * i) % (gk + 1))
            items.append((nb, na, ng, nk, rng.randrange(1 << 30)))
        return {"H": H, "spec": spec, "word_of": word_of, "window": window,
                "fit": fits[sel.p], "p": sel.p, "upsilon": upsilon, "items": items}

    def round(self, st, call):
        H = st["H"]
        engine = H.ChainEngine(st["spec"])
        coc = H.Cocycle(H.ChainEngine(st["spec"]), st["p"])
        w = st["word_of"]
        window, fit, ups = st["window"], st["fit"], st["upsilon"]
        outputs = []
        for nb, na, ng, nk, s in st["items"]:
            g = w[ng]
            f = call(engine.f_chain, w[nb], w[na])
            rep = call(coc.verify_identity, g, w[nk], window,
                       audit_fraction=self.AUDIT_FRACTION, seed=s)
            res = call(coc.norm, g, mode="window", window_ball=window, fit=fit, upsilon=ups)
            outputs.append((f, rep, res))
        return outputs

    def _check_f(self, chain, nb: int, na: int) -> list[str]:
        if isinstance(chain, Failed):
            return [f"f_chain raised {chain!r}"]
        pts = {sum(_LINE2_STEPS[x] for x in w): c for w, c in chain.items()}
        if any(not isinstance(c, Fraction) or c <= 0 for c in pts.values()) or sum(pts.values()) != 1:
            return [f"f({nb}, {na}) is not a convex combination: {pts}"]
        ten = self.TEN_DELTA
        if _line2_dist(nb, na) <= ten:
            return [] if pts == {na: 1} else [f"f({nb}, {na}) should be the point mass at {na}"]
        center = _line2_greedy_point(nb, na, ten)
        if any(_line2_dist(nb, x) != ten or _line2_dist(center, x) > 1 for x in pts):
            return [f"f({nb}, {na}) = {pts} leaves S(b, 10) and B({center}, 1)"]
        return []

    def check(self, st, outputs, engines) -> Checked:
        out = Checked()
        window_size = 4 * self.WINDOW_RADIUS + 1
        vertices = audits = spread = 0
        for (f, rep, res), (nb, na, *_rest) in zip(outputs, st["items"]):
            problems = self._check_f(f, nb, na)
            if not problems:
                spread += len(f) >= 2
            if isinstance(rep, Failed):
                problems.append(f"verify_identity raised {rep!r}")
            else:
                if not rep.residual_zero or rep.vertices != window_size:
                    problems.append(f"identity residual {rep.witnesses[:1]} over {rep.vertices}")
                vertices += rep.vertices
                audits += rep.audited
            if isinstance(res, Failed):
                problems.append(f"windowed norm raised {res!r}")
            elif not (res.lower > 0 and res.tail_bound > 0 and not res.exact
                      and res.window_size == window_size):
                problems.append(f"windowed norm: lower {res.lower}, tail {res.tail_bound}, "
                                f"exact {res.exact}, window {res.window_size}")
            out.item(1, problems)
        out.counts = {"cocycle.identity_vertices": vertices, "cocycle.audits": audits,
                      "flowers.spread_f_chains": spread, **engine_counts(engines)}
        return out

    def run_checks(self, st, totals) -> list[str]:
        problems = [] if totals.get("cocycle.audits", 0) > 0 else ["no literal audits ran"]
        H = st["H"]
        f40 = H.ChainEngine(st["spec"]).f_chain((), st["word_of"][40])
        got = {sum(_LINE2_STEPS[x] for x in w): c for w, c in f40.items()}
        if got != {19: Fraction(1, 2), 20: Fraction(1, 2)}:
            problems.append(f"f(e, 40) = {got}, expected 1/2 on each of 19 and 20")
        return problems


WORKLOADS = {w.name: w for w in (TreeReport(), BigonLine2())}
