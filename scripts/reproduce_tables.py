#!/usr/bin/env python3
"""Print the classical coefficient tables this package reproduces: J_1..J_8
by every route, the cycle-peak polynomials P_1..P_6, the reduced
polynomials t_1..t_7, and the two-part certificate of J_8."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ellipta import elliptic as el
from ellipta.exactpoly import uni_to_text


def main():
    print("J_n by route")
    seqs = {route: el.j_sequence(8, route) for route in el.J_ROUTES}
    for n in range(1, 9):
        values = {uni_to_text(js[n]) for js in seqs.values()}
        assert len(values) == 1, f"route disagreement at J_{n}"
        print(f"  J_{n} = {values.pop()}")

    tri = el.s_triangle_recurrence(7)
    print("P_n over permutations (p: odd peaks, q: even peaks)")
    for n in range(1, 7):
        print(f"  P_{n} = {el.p_poly(n, tri).to_text()}")

    print("t_n (gamma triangle with powers of 4 removed)")
    t_seq = el.t_polys_recurrence(7)
    for n in range(1, 8):
        print(f"  t_{n} = {t_seq[n].to_text()}")

    d = el.j_even_decomposition(3)
    print("two-part certificate of J_8")
    print(f"  a = {uni_to_text(d.decomposition.a)}  gammas {d.gamma_a.gammas}")
    print(f"  b = {uni_to_text(d.decomposition.b)}  gammas {d.gamma_b.gammas}")


if __name__ == "__main__":
    main()
