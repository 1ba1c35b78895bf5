//! Factorization of core counts into `Part` attributes.
//!
//! A `Part` must satisfy `h*w*b*k == nc` (the core-group size) with each
//! factor bounded by the corresponding layer dimension. Both the stripe
//! heuristic (initial schemes) and SA operators OP1/OP4 (random `Part`
//! transitions) enumerate this set.

use gemini_model::FmapShape;
use rand::Rng;

use crate::encoding::Part;

/// All divisors of `n`, ascending.
pub fn divisors(n: u32) -> Vec<u32> {
    let mut small = Vec::new();
    let mut large = Vec::new();
    let mut d = 1;
    while d * d <= n {
        if n % d == 0 {
            small.push(d);
            if d != n / d {
                large.push(n / d);
            }
        }
        d += 1;
    }
    large.reverse();
    small.extend(large);
    small
}

/// Every `Part` with `count() == nc` that fits the layer's output shape
/// and batch unit. Empty when `nc` cannot be factorized within bounds.
pub fn factorizations(nc: u32, shape: FmapShape, batch_unit: u32) -> Vec<Part> {
    let mut out = Vec::new();
    find_factorization(nc, shape, batch_unit, |p| {
        out.push(p);
        false
    });
    out
}

/// Visits the parts [`factorizations`] lists, in its order, until `stop`
/// returns `true`; returns whether it did.
fn find_factorization(
    nc: u32,
    shape: FmapShape,
    batch_unit: u32,
    mut stop: impl FnMut(Part) -> bool,
) -> bool {
    if nc == 0 {
        return false;
    }
    for &h in &divisors(nc) {
        if h > shape.h {
            continue;
        }
        let rem_h = nc / h;
        for &w in &divisors(rem_h) {
            if w > shape.w {
                continue;
            }
            let rem_w = rem_h / w;
            for &b in &divisors(rem_w) {
                if b > batch_unit {
                    continue;
                }
                let k = rem_w / b;
                if k <= shape.c && stop(Part { h, w, b, k }) {
                    return true;
                }
            }
        }
    }
    false
}

/// The stripe-heuristic `Part` for `nc` cores: maximize the H split,
/// then W, then K, then B — the "consecutive and rectangle-shaped"
/// fmap-stripe strategy of Tangram-style mappers.
pub fn stripe_part(nc: u32, shape: FmapShape, batch_unit: u32) -> Option<Part> {
    factorizations(nc, shape, batch_unit)
        .into_iter()
        .max_by_key(|p| (p.h, p.w, p.k, p.b))
}

/// A uniformly random valid `Part` for `nc` cores, excluding `not`
/// when more than one candidate exists (so SA transitions actually
/// change state).
pub fn random_part<R: Rng + ?Sized>(
    nc: u32,
    shape: FmapShape,
    batch_unit: u32,
    not: Option<Part>,
    rng: &mut R,
) -> Option<Part> {
    let mut all = factorizations(nc, shape, batch_unit);
    if let Some(cur) = not {
        if all.len() > 1 {
            all.retain(|p| *p != cur);
        }
    }
    if all.is_empty() {
        None
    } else {
        Some(all[rng.gen_range(0..all.len())])
    }
}

/// The stripe-heuristic `Part` under a buffer-capacity constraint:
/// prefer the H/W stripes of [`stripe_part`], but when the layer's full
/// weight slice would not fit in half a core's GLB, require enough
/// K-splits to make it fit (falling back to the maximum K-split when
/// nothing fits) — real stripe mappers size partitions to their buffers.
pub fn stripe_part_capacity(
    nc: u32,
    shape: FmapShape,
    batch_unit: u32,
    weight_bytes: u64,
    glb_bytes: u64,
) -> Option<Part> {
    let all = factorizations(nc, shape, batch_unit);
    if all.is_empty() {
        return None;
    }
    let fits = |p: &Part| weight_bytes / p.k as u64 <= glb_bytes / 2;
    let feasible: Vec<Part> = all.iter().copied().filter(fits).collect();
    if feasible.is_empty() {
        all.into_iter().max_by_key(|p| (p.k, p.h, p.w, p.b))
    } else {
        feasible.into_iter().max_by_key(|p| (p.h, p.w, p.k, p.b))
    }
}

/// The largest `m <= nc` that admits a valid `Part`; used by the stripe
/// heuristic when a layer's proportional core share cannot be
/// factorized within its dimensions.
pub fn largest_factorable(nc: u32, shape: FmapShape, batch_unit: u32) -> u32 {
    (1..=nc)
        .rev()
        .find(|&m| find_factorization(m, shape, batch_unit, |_| true))
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn divisors_basic() {
        assert_eq!(divisors(1), vec![1]);
        assert_eq!(divisors(12), vec![1, 2, 3, 4, 6, 12]);
        assert_eq!(divisors(36), vec![1, 2, 3, 4, 6, 9, 12, 18, 36]);
        assert_eq!(divisors(7), vec![1, 7]);
    }

    #[test]
    fn factorizations_complete_and_valid() {
        let shape = FmapShape::new(8, 8, 64);
        for p in factorizations(12, shape, 4) {
            assert_eq!(p.count(), 12);
            assert!(p.fits(shape, 4));
        }
        // 12 = h*w*b*k, h,w <= 8, b <= 4, k <= 64:
        // enumerate by hand a few expected members.
        let all = factorizations(12, shape, 4);
        assert!(all.contains(&Part {
            h: 2,
            w: 2,
            b: 3,
            k: 1
        }));
        assert!(all.contains(&Part {
            h: 1,
            w: 1,
            b: 1,
            k: 12
        }));
        assert!(all.contains(&Part {
            h: 4,
            w: 3,
            b: 1,
            k: 1
        }));
    }

    #[test]
    fn narrow_dims_filter() {
        // A 1x1 spatial layer (FC-like) with 4 channels, batch 1: only
        // K splits are possible.
        let shape = FmapShape::new(1, 1, 4);
        let all = factorizations(4, shape, 1);
        assert_eq!(
            all,
            vec![Part {
                h: 1,
                w: 1,
                b: 1,
                k: 4
            }]
        );
        assert!(factorizations(8, shape, 1).is_empty(), "8 > c=4 cannot fit");
    }

    #[test]
    fn stripe_prefers_h() {
        let shape = FmapShape::new(56, 56, 64);
        let p = stripe_part(6, shape, 4).unwrap();
        assert_eq!(
            p,
            Part {
                h: 6,
                w: 1,
                b: 1,
                k: 1
            }
        );
        // When H is too small, spill into W.
        let small = FmapShape::new(2, 56, 64);
        let p = stripe_part(6, small, 4).unwrap();
        assert_eq!(
            p,
            Part {
                h: 2,
                w: 3,
                b: 1,
                k: 1
            }
        );
    }

    #[test]
    fn random_part_excludes_current() {
        let shape = FmapShape::new(8, 8, 64);
        let mut rng = rand::rngs::mock::StepRng::new(0, 1);
        let cur = Part {
            h: 4,
            w: 1,
            b: 1,
            k: 1,
        };
        for _ in 0..20 {
            let p = random_part(4, shape, 1, Some(cur), &mut rng).unwrap();
            assert_ne!(p, cur);
            assert_eq!(p.count(), 4);
        }
    }

    #[test]
    fn random_part_single_candidate_returns_it() {
        let shape = FmapShape::new(1, 1, 4);
        let mut rng = rand::rngs::mock::StepRng::new(7, 13);
        let only = Part {
            h: 1,
            w: 1,
            b: 1,
            k: 4,
        };
        assert_eq!(random_part(4, shape, 1, Some(only), &mut rng), Some(only));
    }

    #[test]
    fn largest_factorable_falls_back() {
        // 1x1x4 layer: 7 cores cannot be used (7 > 4 and 7 prime), the
        // largest usable count is 4.
        let shape = FmapShape::new(1, 1, 4);
        assert_eq!(largest_factorable(7, shape, 1), 4);
        assert_eq!(largest_factorable(3, shape, 1), 3);
    }
}
