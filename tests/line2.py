"""The integers with generators {+-1, +-2} as a Cayley-ball file.

A helper module shared by the test files (not collected as tests): this
Cayley graph has non-unique geodesics, so its flowers spread mass.
"""

STEPS = [1, -1, 2, -2]


def line2_ball_json(radius):
    gens = [
        {"label": "p", "inverse": 1},
        {"label": "P", "inverse": 0},
        {"label": "q", "inverse": 3},
        {"label": "Q", "inverse": 2},
    ]
    verts = list(range(-2 * radius, 2 * radius + 1))
    edges = []
    for n in verts:
        for gi, s in enumerate(STEPS):
            if -2 * radius <= n + s <= 2 * radius:
                edges.append([str(n), gi, str(n + s)])
    return {
        "generators": gens,
        "basepoint": "0",
        "radius": radius,
        "vertices": [str(n) for n in verts],
        "edges": edges,
    }


def endpoint(w):
    return sum(STEPS[x] for x in w)
