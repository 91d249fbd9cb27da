//! Sorted-set intersection kernels for the enumeration hot path.
//!
//! The CandidateSpace enumeration engine computes local candidate sets
//! `LC(u, M)` as multi-way intersections of precomputed sorted lists, so
//! these kernels are the innermost loop of the whole matcher. Two regimes:
//!
//! * **Linear merge** when the inputs have comparable sizes — one pass,
//!   no binary searches. It is not branch-predictable: every comparison
//!   branches on the data, and mispredicts wherever the inputs interleave.
//!   A branch-free merge measured slower still (the benchmark ledger's
//!   skewed-hub cell, 10.97 → 20.06 ms), so the enumeration engine avoids
//!   merging instead, testing lists against cached bitmaps where it can.
//! * **Galloping** (exponential search, as in Timsort/roaring) when one
//!   side is much smaller: for each element of the small side, locate its
//!   lower bound in the large side in `O(log gap)` instead of scanning.
//!   The crossover ratio of 16 follows the usual `m log n < m + n` break
//!   point with a comfortable margin for the constant factors.
//!
//! All kernels write into caller-provided buffers so steady-state
//! enumeration allocates nothing.

use crate::graph::VertexId;

/// Size ratio beyond which per-element galloping beats a linear merge.
const GALLOP_RATIO: usize = 16;

/// Index of the first element of `hay[from..]` that is `>= target`, i.e.
/// the lower bound, found by exponential probing then binary search inside
/// the bracketed window. Returns `hay.len()` when every element is smaller.
#[inline]
pub fn gallop_lower_bound(hay: &[VertexId], target: VertexId, from: usize) -> usize {
    let n = hay.len();
    let mut lo = from;
    if lo >= n || hay[lo] >= target {
        return lo.min(n);
    }
    // Invariant: hay[lo] < target. Double the probe distance until the
    // window [lo, hi] brackets the boundary.
    let mut step = 1;
    let mut hi = lo + 1;
    while hi < n && hay[hi] < target {
        lo = hi;
        step <<= 1;
        hi = lo + step;
    }
    let hi = hi.min(n);
    // Binary search in (lo, hi]: hay[lo] < target <= hay[hi] (if hi < n).
    lo + 1 + hay[lo + 1..hi].partition_point(|&x| x < target)
}

/// `out = a ∩ b`. Clears `out` first; both inputs must be strictly sorted.
/// Picks merge vs. gallop by size ratio.
pub fn intersect_into(out: &mut Vec<VertexId>, a: &[VertexId], b: &[VertexId]) {
    out.clear();
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if small.is_empty() {
        return;
    }
    if large.len() / small.len() >= GALLOP_RATIO {
        let mut base = 0;
        for &x in small {
            base = gallop_lower_bound(large, x, base);
            if base == large.len() {
                break;
            }
            if large[base] == x {
                out.push(x);
                base += 1;
            }
        }
    } else {
        let (mut i, mut j) = (0, 0);
        while i < small.len() && j < large.len() {
            let (x, y) = (small[i], large[j]);
            match x.cmp(&y) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(x);
                    i += 1;
                    j += 1;
                }
            }
        }
    }
}

/// `acc = acc ∩ other`, in place (survivors are compacted to the front and
/// the vector truncated). `acc` must be strictly sorted, as must `other`.
pub fn intersect_in_place(acc: &mut Vec<VertexId>, other: &[VertexId]) {
    if acc.is_empty() {
        return;
    }
    if other.is_empty() {
        acc.clear();
        return;
    }
    let mut w = 0;
    if other.len() / acc.len() >= GALLOP_RATIO {
        let mut base = 0;
        for r in 0..acc.len() {
            let x = acc[r];
            base = gallop_lower_bound(other, x, base);
            if base == other.len() {
                break;
            }
            if other[base] == x {
                acc[w] = x;
                w += 1;
                base += 1;
            }
        }
    } else {
        let mut j = 0;
        'outer: for r in 0..acc.len() {
            let x = acc[r];
            while other[j] < x {
                j += 1;
                if j == other.len() {
                    break 'outer;
                }
            }
            if other[j] == x {
                acc[w] = x;
                w += 1;
                j += 1;
                if j == other.len() {
                    break;
                }
            }
        }
    }
    acc.truncate(w);
}

/// For every element of `a ∩ b`, pushes its **position in `b`** onto
/// `out` (ascending). This is the CandidateSpace build kernel: `a` is a
/// data adjacency list, `b` a candidate set `C(u')`, and the engine wants
/// candidate *indices*, not vertex ids.
pub fn intersect_positions_into(out: &mut Vec<u32>, a: &[VertexId], b: &[VertexId]) {
    out.clear();
    if a.is_empty() || b.is_empty() {
        return;
    }
    if b.len() / a.len().max(1) >= GALLOP_RATIO {
        // Small a, large b: gallop through b.
        let mut base = 0;
        for &x in a {
            base = gallop_lower_bound(b, x, base);
            if base == b.len() {
                break;
            }
            if b[base] == x {
                out.push(base as u32);
                base += 1;
            }
        }
    } else if a.len() / b.len() >= GALLOP_RATIO {
        // Large a, small b: gallop through a, walking b linearly.
        let mut base = 0;
        for (j, &y) in b.iter().enumerate() {
            base = gallop_lower_bound(a, y, base);
            if base == a.len() {
                break;
            }
            if a[base] == y {
                out.push(j as u32);
                base += 1;
            }
        }
    } else {
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(j as u32);
                    i += 1;
                    j += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_intersect(a: &[u32], b: &[u32]) -> Vec<u32> {
        a.iter().copied().filter(|x| b.contains(x)).collect()
    }

    #[test]
    fn gallop_lower_bound_matches_partition_point() {
        let hay: Vec<u32> = (0..200).map(|i| i * 3).collect();
        for target in 0..620 {
            for from in [0usize, 1, 50, 199, 200] {
                let got = gallop_lower_bound(&hay, target, from);
                let want = from.max(hay.partition_point(|&x| x < target)).min(hay.len());
                assert_eq!(got, want, "target {target} from {from}");
            }
        }
    }

    #[test]
    fn intersect_into_merge_and_gallop_agree() {
        let a: Vec<u32> = (0..2000).filter(|x| x % 7 == 0).collect();
        let b_small: Vec<u32> = vec![0, 7, 8, 49, 50, 700, 1999];
        // Small-vs-large triggers galloping; same sizes trigger merge.
        let mut out = Vec::new();
        intersect_into(&mut out, &b_small, &a);
        assert_eq!(out, naive_intersect(&b_small, &a));
        let c: Vec<u32> = (0..2000).filter(|x| x % 3 == 0).collect();
        intersect_into(&mut out, &a, &c);
        assert_eq!(out, naive_intersect(&a, &c));
    }

    #[test]
    fn intersect_into_clears_previous_content() {
        let mut out = vec![99, 98];
        intersect_into(&mut out, &[1, 2, 3], &[2, 3, 4]);
        assert_eq!(out, vec![2, 3]);
    }

    #[test]
    fn intersect_in_place_matches_intersect_into() {
        let cases: Vec<(Vec<u32>, Vec<u32>)> = vec![
            (vec![], vec![1, 2]),
            (vec![1, 2], vec![]),
            (vec![1, 3, 5, 7], vec![2, 3, 4, 7, 9]),
            ((0..100).collect(), (0..4000).filter(|x| x % 5 == 0).collect()),
            (vec![5], (0..10_000).collect()),
            ((0..10).map(|x| x * 1000).collect(), (0..10_000).collect()),
        ];
        for (a, b) in cases {
            let mut expected = Vec::new();
            intersect_into(&mut expected, &a, &b);
            let mut acc = a.clone();
            intersect_in_place(&mut acc, &b);
            assert_eq!(acc, expected, "a={a:?}");
        }
    }

    #[test]
    fn positions_point_into_second_list() {
        let a = vec![2, 4, 6, 8, 10];
        let b = vec![1, 2, 3, 6, 10, 12];
        let mut pos = Vec::new();
        intersect_positions_into(&mut pos, &a, &b);
        assert_eq!(pos, vec![1, 3, 4]);
        for &p in &pos {
            assert!(a.contains(&b[p as usize]));
        }
    }

    #[test]
    fn positions_gallop_both_directions() {
        let big: Vec<u32> = (0..5000).collect();
        let small = vec![3, 999, 4999];
        let mut pos = Vec::new();
        // Small a, big b: positions in b are the values themselves.
        intersect_positions_into(&mut pos, &small, &big);
        assert_eq!(pos, vec![3, 999, 4999]);
        // Big a, small b: positions in the small list.
        intersect_positions_into(&mut pos, &big, &small);
        assert_eq!(pos, vec![0, 1, 2]);
    }

    #[test]
    fn empty_inputs() {
        let mut out = vec![1];
        intersect_into(&mut out, &[], &[1, 2]);
        assert!(out.is_empty());
        let mut pos = vec![1];
        intersect_positions_into(&mut pos, &[1, 2], &[]);
        assert!(pos.is_empty());
    }
}
