//! Property tests for the polyhedral substrate: Fourier–Motzkin soundness,
//! projection correctness, counting/specialization agreement, and rational
//! arithmetic laws.

use polylib::{AffineExpr, Bound, Polyhedron, Rat};
use proptest::prelude::*;

/// The bounding algorithm `bounds_of` replaced, kept here as the oracle for
/// the differential properties below: a separate emptiness pass, then one
/// projection per direction, with Fourier–Motzkin steps that dedup through
/// a `HashSet` of cloned rows.
mod reference {
    use polylib::rat::gcd;
    use polylib::{AffineExpr, Bound, Constraint, Polyhedron, Rat};
    use std::collections::HashSet;

    fn normalize(c: &mut Constraint) {
        let g = c.coeffs.iter().fold(gcd(0, c.c), |g, &a| gcd(g, a));
        if g > 1 {
            c.coeffs.iter_mut().for_each(|a| *a /= g);
            c.c /= g;
        }
    }

    fn is_trivial(c: &Constraint) -> bool {
        c.coeffs.iter().all(|&a| a == 0) && if c.eq { c.c == 0 } else { c.c >= 0 }
    }

    fn is_contradiction(c: &Constraint) -> bool {
        c.coeffs.iter().all(|&a| a == 0) && if c.eq { c.c != 0 } else { c.c < 0 }
    }

    pub fn inequalities(cons: &[Constraint]) -> Vec<Constraint> {
        let mut out = Vec::new();
        for c in cons {
            out.push(Constraint {
                eq: false,
                ..c.clone()
            });
            if c.eq {
                out.push(Constraint {
                    coeffs: c.coeffs.iter().map(|a| -a).collect(),
                    c: -c.c,
                    eq: false,
                });
            }
        }
        out
    }

    pub fn fm_eliminate(cons: &[Constraint], var: usize) -> Vec<Constraint> {
        let zero = cons.iter().filter(|c| c.coeffs[var] == 0);
        let pos: Vec<&Constraint> = cons.iter().filter(|c| c.coeffs[var] > 0).collect();
        let neg: Vec<&Constraint> = cons.iter().filter(|c| c.coeffs[var] < 0).collect();
        let mut seen: HashSet<(Vec<i128>, i128)> = HashSet::new();
        let mut out = Vec::new();
        for c in zero {
            if !is_trivial(c) && seen.insert((c.coeffs.clone(), c.c)) {
                out.push(c.clone());
            }
        }
        for p in &pos {
            let alpha = p.coeffs[var];
            for n in &neg {
                let beta = -n.coeffs[var];
                let mut comb = Constraint {
                    coeffs: p
                        .coeffs
                        .iter()
                        .zip(&n.coeffs)
                        .map(|(a, b)| beta * a + alpha * b)
                        .collect(),
                    c: beta * p.c + alpha * n.c,
                    eq: false,
                };
                normalize(&mut comb);
                if !is_trivial(&comb) && seen.insert((comb.coeffs.clone(), comb.c)) {
                    out.push(comb);
                }
            }
        }
        out
    }

    pub fn is_empty(p: &Polyhedron) -> bool {
        let mut cons = inequalities(&p.cons);
        for v in 0..p.dim() {
            if cons.iter().any(is_contradiction) {
                return true;
            }
            cons = fm_eliminate(&cons, v);
        }
        cons.iter().any(is_contradiction)
    }

    /// `is_empty()`, then project onto `t = expr` and read one direction.
    pub fn extremum(p: &Polyhedron, expr: &AffineExpr, minimum: bool) -> Bound {
        if is_empty(p) {
            return Bound::Empty;
        }
        let mut cons: Vec<Constraint> = inequalities(&p.cons)
            .into_iter()
            .map(|mut c| {
                c.coeffs.push(0);
                c
            })
            .collect();
        let mut te: Vec<i128> = expr.coeffs.iter().map(|&a| -(a as i128)).collect();
        te.push(1);
        cons.push(Constraint {
            coeffs: te.clone(),
            c: -(expr.c as i128),
            eq: false,
        });
        cons.push(Constraint {
            coeffs: te.iter().map(|a| -a).collect(),
            c: expr.c as i128,
            eq: false,
        });
        for v in 0..p.dim() {
            cons = fm_eliminate(&cons, v);
        }
        let t = p.dim();
        let mut best: Option<Rat> = None;
        for c in &cons {
            let a = c.coeffs[t];
            let b = if minimum && a > 0 {
                Rat::new(-c.c, a)
            } else if !minimum && a < 0 {
                Rat::new(c.c, -a)
            } else {
                continue;
            };
            best = Some(match best {
                Some(x) if minimum => x.max(b),
                Some(x) => x.min(b),
                None => b,
            });
        }
        best.map_or(Bound::Unbounded, Bound::Finite)
    }
}

/// Random polyhedra in 1–3 variables mixing inequalities and equalities
/// (one row in four), with no bounding box: many are unbounded, many empty.
/// Each comes with a random affine form over the same variables.
fn mixed_polys() -> impl Strategy<Value = Vec<(Polyhedron, AffineExpr)>> {
    let row = ((-3i64..=3, -3i64..=3, -3i64..=3), -8i64..=8, 0u8..4);
    let case = (
        1usize..4,
        proptest::collection::vec(row, 0..7),
        (-3i64..=3, -3i64..=3, -3i64..=3, -5i64..=5),
    );
    proptest::collection::vec(case, 1..16).prop_map(|cases| {
        cases
            .into_iter()
            .map(|(dim, rows, (a, b, c, k))| {
                let mut p = Polyhedron::universe(dim);
                for ((x, y, z), c, kind) in rows {
                    let e = AffineExpr::new([x, y, z][..dim].to_vec(), c);
                    if kind == 0 {
                        p.add_eq(&e);
                    } else {
                        p.add_ge(&e);
                    }
                }
                (p, AffineExpr::new([a, b, c][..dim].to_vec(), k))
            })
            .collect()
    })
}

/// A random small polyhedron in 2 variables built from bound constraints
/// plus one random half-space, guaranteed non-degenerate coefficients.
fn small_poly() -> impl Strategy<Value = Polyhedron> {
    (
        -4i64..4,
        1i64..6,
        -4i64..4,
        1i64..6,
        -2i64..=2,
        -2i64..=2,
        -8i64..=8,
    )
        .prop_map(|(l0, e0, l1, e1, a, b, c)| {
            let mut p = Polyhedron::universe(2);
            p.add_var_bounds(
                0,
                &AffineExpr::constant(2, l0),
                &AffineExpr::constant(2, l0 + e0),
            );
            p.add_var_bounds(
                1,
                &AffineExpr::constant(2, l1),
                &AffineExpr::constant(2, l1 + e1),
            );
            p.add_ge(&AffineExpr::new(vec![a, b], c));
            p
        })
}

proptest! {
    /// Emptiness is consistent with exhaustive membership over the box.
    #[test]
    fn emptiness_agrees_with_enumeration(p in small_poly()) {
        let mut any = false;
        for x in -12..12 {
            for y in -12..12 {
                if p.contains(&[x, y]) {
                    any = true;
                }
            }
        }
        if any {
            prop_assert!(!p.is_empty(), "found integer points but is_empty()");
        }
        // (rational-nonempty with no integer points is allowed: is_empty is
        // a rational relaxation)
    }

    /// count_points equals brute-force enumeration.
    #[test]
    fn counting_agrees_with_enumeration(p in small_poly()) {
        let mut n = 0u64;
        for x in -12..12 {
            for y in -12..12 {
                if p.contains(&[x, y]) {
                    n += 1;
                }
            }
        }
        if let Some(c) = p.count_points(100_000) {
            prop_assert_eq!(c, n);
        }
    }

    /// Extrema bound every contained point's value of a random affine form.
    #[test]
    fn extrema_sound(p in small_poly(), a in -3i64..=3, b in -3i64..=3, c in -5i64..=5) {
        let f = AffineExpr::new(vec![a, b], c);
        let min = p.min_of(&f);
        let max = p.max_of(&f);
        for x in -12..12 {
            for y in -12..12 {
                if p.contains(&[x, y]) {
                    let v = Rat::int(f.eval(&[x, y]) as i128);
                    match min {
                        Bound::Finite(m) => prop_assert!(m <= v, "min {m} > value {v}"),
                        Bound::Empty => prop_assert!(false, "point in 'empty' polyhedron"),
                        Bound::Unbounded => {}
                    }
                    match max {
                        Bound::Finite(m) => prop_assert!(m >= v),
                        Bound::Empty => prop_assert!(false),
                        Bound::Unbounded => {}
                    }
                }
            }
        }
    }

    /// Projection (eliminate) is an over-approximation of the shadow: any
    /// contained point stays contained after eliminating a variable.
    #[test]
    fn elimination_preserves_membership(p in small_poly()) {
        let q = p.eliminate(1);
        for x in -12..12 {
            for y in -12..12 {
                if p.contains(&[x, y]) {
                    prop_assert!(q.contains(&[x, y]), "projection lost ({x},{y})");
                    // and the projected var is now free
                    prop_assert!(q.contains(&[x, 999]));
                }
            }
        }
    }

    /// `bounds_of` reads min, max and emptiness off one projection; it must
    /// agree exactly with the separate emptiness pass plus one projection
    /// per direction, and so must the `min_of`/`max_of` wrappers and
    /// `is_empty`.
    #[test]
    fn bounds_of_matches_reference(cases in mixed_polys()) {
        for (p, f) in &cases {
            let min = reference::extremum(p, f, true);
            let max = reference::extremum(p, f, false);
            prop_assert_eq!(p.bounds_of(f), (min, max), "{}", p);
            prop_assert_eq!(p.min_of(f), min);
            prop_assert_eq!(p.max_of(f), max);
            prop_assert_eq!(p.is_empty(), reference::is_empty(p));
        }
    }

    /// Each `eliminate()` step returns the reference's rows in the
    /// reference's order, through a full chain of projections.
    #[test]
    fn eliminate_matches_reference(cases in mixed_polys()) {
        for (p, _) in &cases {
            let mut q = p.clone();
            let mut rows = reference::inequalities(&p.cons);
            for v in 0..p.dim() {
                q = q.eliminate(v);
                rows = reference::fm_eliminate(&rows, v);
                prop_assert_eq!(&q.cons, &rows, "{} after eliminating x{}", p, v);
            }
        }
    }

    /// Specialization commutes with membership.
    #[test]
    fn specialize_matches_membership(p in small_poly(), v in -10i64..10) {
        let s = p.specialize(0, v);
        for y in -12..12 {
            prop_assert_eq!(p.contains(&[v, y]), s.contains(&[v, y]));
            // the specialized polyhedron ignores coordinate 0
            prop_assert_eq!(s.contains(&[v, y]), s.contains(&[12345, y]));
        }
    }

    /// Rational arithmetic: field laws on random small fractions.
    #[test]
    fn rat_field_laws(
        an in -20i128..20, ad in 1i128..10,
        bn in -20i128..20, bd in 1i128..10,
        cn in -20i128..20, cd in 1i128..10,
    ) {
        let a = Rat::new(an, ad);
        let b = Rat::new(bn, bd);
        let c = Rat::new(cn, cd);
        prop_assert_eq!(a + b, b + a);
        prop_assert_eq!((a + b) + c, a + (b + c));
        prop_assert_eq!(a * (b + c), a * b + a * c);
        prop_assert_eq!(a - a, Rat::ZERO);
        if b != Rat::ZERO {
            prop_assert_eq!((a / b) * b, a);
        }
        // floor/ceil sandwich
        prop_assert!(Rat::int(a.floor()) <= a);
        prop_assert!(Rat::int(a.ceil()) >= a);
    }

    /// Affine fit round-trip through the solver used by folding.
    #[test]
    fn fit_affine_roundtrip(
        a in -5i64..=5, b in -5i64..=5, c in -50i64..=50,
        pts in proptest::collection::vec((-10i64..10, -10i64..10), 3..20),
    ) {
        let samples: Vec<(Vec<i64>, i64)> = pts
            .iter()
            .map(|&(x, y)| (vec![x, y], a * x + b * y + c))
            .collect();
        let (coeffs, cc) = polylib::linsolve::fit_affine(&samples)
            .expect("affine data always fits");
        for (p, v) in &samples {
            let mut acc = cc;
            for (i, &x) in p.iter().enumerate() {
                acc = acc + coeffs[i] * Rat::int(x as i128);
            }
            prop_assert_eq!(acc, Rat::int(*v as i128));
        }
    }
}
