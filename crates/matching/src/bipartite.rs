//! Bipartite matching for GraphQL's global refinement: a data vertex `v`
//! survives in `C(u)` only if the bipartite graph between `N(u)` and `N(v)`
//! (edge when `v' ∈ C(u')`) has a matching saturating `N(u)` — the paper's
//! "semi-perfect matching" check (§II-C).
//!
//! The filter runs that check once per (query vertex, candidate) pair per
//! round through `MaskMatcher`: the left side is a set of bits, every
//! right vertex is the bitmask of the lefts it can serve, and nearly all
//! checks are decided while the rights stream by (a greedy matching
//! completes, or some left was never seen). Only the rest runs
//! augmenting paths (Kuhn's algorithm, driven from the free rights).
//!
//! [`max_bipartite_matching`] / [`has_left_saturating_matching`] are the
//! plain adjacency-list version, kept as the oracle the mask kernel and
//! `GqlFilter::filter_reference` are tested against.

/// Maximum matching size in a bipartite graph given as adjacency lists of
/// the left side (`adj[i]` = right vertices adjacent to left vertex `i`).
/// `right_count` is the number of right-side vertices.
pub fn max_bipartite_matching(adj: &[Vec<usize>], right_count: usize) -> usize {
    let mut match_right: Vec<Option<usize>> = vec![None; right_count];
    let mut matched = 0usize;
    let mut visited = vec![u32::MAX; right_count];
    for (left, _) in adj.iter().enumerate() {
        if try_kuhn(left, adj, &mut match_right, &mut visited, left as u32) {
            matched += 1;
        }
    }
    matched
}

/// True when a matching saturating the whole left side exists.
pub fn has_left_saturating_matching(adj: &[Vec<usize>], right_count: usize) -> bool {
    // Hall-style quick reject: any isolated left vertex kills saturation.
    if adj.iter().any(|a| a.is_empty()) {
        return false;
    }
    max_bipartite_matching(adj, right_count) == adj.len()
}

/// Reusable left-saturation check over bitmask rows. The left side is the
/// set bits of `need` (`need.len()` words; any width, one code path); right
/// vertex `r` is row `r` of a caller-owned table `rows` of the same width,
/// whose bit `l` says `r` is adjacent to left `l`. The scratch is cleared,
/// never reallocated, between checks, and may be reused across widths.
#[derive(Clone, Debug, Default)]
pub(crate) struct MaskMatcher {
    /// `held[l]` is the right serving left `l`; meaningful only where
    /// `matched` has bit `l`.
    held: Vec<u32>,
    /// Rights the greedy pass left without a left, in scan order.
    spares: Vec<u32>,
    /// `matched | seen | visited`, `need.len()` words each.
    marks: Vec<u64>,
}

impl MaskMatcher {
    /// True when the rights listed in `rights` can be matched onto every
    /// set bit of `need`. Row bits outside `need` are ignored.
    pub(crate) fn saturates(&mut self, need: &[u64], rows: &[u64], rights: &[u32]) -> bool {
        let w = need.len();
        if self.held.len() < 64 * w {
            self.held.resize(64 * w, 0);
        }
        self.spares.clear();
        // One kernel for every width. The one-word case (queries of up to
        // 64 vertices: every query set of the paper) is instantiated with
        // the width as a constant and its marks on the stack, so its word
        // loops fold away and the marks stay in registers.
        if w == 1 {
            saturates_in(need, rows, rights, &mut self.held, &mut self.spares, &mut [0; 3], 1)
        } else {
            self.marks.clear();
            self.marks.resize(3 * w, 0);
            saturates_in(need, rows, rights, &mut self.held, &mut self.spares, &mut self.marks, w)
        }
    }
}

#[inline(always)]
fn saturates_in(
    need: &[u64],
    rows: &[u64],
    rights: &[u32],
    held: &mut [u32],
    spares: &mut Vec<u32>,
    marks: &mut [u64],
    w: usize,
) -> bool {
    let need = &need[..w];
    let (matched, rest) = marks.split_at_mut(w);
    let (seen, visited) = rest.split_at_mut(w);
    if matched == need {
        return true;
    }
    // One pass: every right hands itself to the lowest left it can
    // serve that has none yet — a valid partial matching at each step.
    for &r in rights {
        let row = &rows[r as usize * w..][..w];
        let (mut given, mut any) = (false, 0u64);
        for i in 0..w {
            let m = row[i] & need[i];
            seen[i] |= m;
            any |= m;
            let free = m & !matched[i];
            if !given && free != 0 {
                given = true;
                matched[i] |= free & free.wrapping_neg();
                held[i * 64 + free.trailing_zeros() as usize] = r;
            }
        }
        if given {
            if matched == need {
                return true;
            }
        } else if any != 0 {
            spares.push(r);
        }
    }
    // Hall-style reject: some left has no right at all.
    if seen != need {
        return false;
    }
    // Kuhn's algorithm from each spare in turn. `visited` survives a
    // failed search (a left no path got through stays a dead end until
    // the matching changes) and is cleared after a successful one, so
    // no mark outlives the matching it was made under.
    for &r in spares.iter() {
        if augment(need, rows, held, matched, visited, r) {
            if matched == need {
                return true;
            }
            visited.fill(0);
        }
    }
    false
}

/// Tries to serve one more left from right `r`, re-routing the rights of
/// already served lefts along the way.
fn augment(need: &[u64], rows: &[u64], held: &mut [u32], matched: &mut [u64], visited: &mut [u64], r: u32) -> bool {
    let w = need.len();
    for i in 0..w {
        loop {
            let open = rows[r as usize * w + i] & need[i] & !visited[i];
            if open == 0 {
                break;
            }
            let bit = open & open.wrapping_neg();
            let left = i * 64 + open.trailing_zeros() as usize;
            visited[i] |= bit;
            if matched[i] & bit == 0 || augment(need, rows, held, matched, visited, held[left]) {
                matched[i] |= bit;
                held[left] = r;
                return true;
            }
        }
    }
    false
}

fn try_kuhn(
    left: usize,
    adj: &[Vec<usize>],
    match_right: &mut [Option<usize>],
    visited: &mut [u32],
    stamp: u32,
) -> bool {
    for &r in &adj[left] {
        if visited[r] == stamp {
            continue;
        }
        visited[r] = stamp;
        match match_right[r] {
            None => {
                match_right[r] = Some(left);
                return true;
            }
            Some(other) => {
                if try_kuhn(other, adj, match_right, visited, stamp) {
                    match_right[r] = Some(left);
                    return true;
                }
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_matching_on_identity() {
        let adj = vec![vec![0], vec![1], vec![2]];
        assert_eq!(max_bipartite_matching(&adj, 3), 3);
        assert!(has_left_saturating_matching(&adj, 3));
    }

    #[test]
    fn augmenting_path_is_found() {
        // left0-{r0}, left1-{r0,r1}: saturating requires augmentation.
        let adj = vec![vec![0], vec![0, 1]];
        assert_eq!(max_bipartite_matching(&adj, 2), 2);
        assert!(has_left_saturating_matching(&adj, 2));
    }

    #[test]
    fn unsaturable_when_hall_violated() {
        // Two left vertices share one right vertex.
        let adj = vec![vec![0], vec![0]];
        assert_eq!(max_bipartite_matching(&adj, 1), 1);
        assert!(!has_left_saturating_matching(&adj, 1));
    }

    #[test]
    fn isolated_left_vertex_fails_fast() {
        let adj = vec![vec![0], vec![]];
        assert!(!has_left_saturating_matching(&adj, 1));
    }

    #[test]
    fn empty_left_is_trivially_saturated() {
        let adj: Vec<Vec<usize>> = vec![];
        assert!(has_left_saturating_matching(&adj, 5));
    }

    #[test]
    fn larger_random_instance_agrees_with_greedy_bound() {
        // A 4x4 complete bipartite graph has a perfect matching.
        let adj: Vec<Vec<usize>> = (0..4).map(|_| (0..4).collect()).collect();
        assert_eq!(max_bipartite_matching(&adj, 4), 4);
    }

    /// Transposes a left-adjacency-list instance into what [`MaskMatcher`]
    /// consumes: the `need` mask of `words` words and the row table.
    fn to_masks(adj: &[Vec<usize>], right_count: usize, words: usize) -> (Vec<u64>, Vec<u64>) {
        let mut need = vec![0u64; words];
        let mut rows = vec![0u64; right_count * words];
        for (l, row) in adj.iter().enumerate() {
            need[l / 64] |= 1 << (l % 64);
            for &r in row {
                rows[r * words + l / 64] |= 1 << (l % 64);
            }
        }
        (need, rows)
    }

    fn saturates(m: &mut MaskMatcher, adj: &[Vec<usize>], right_count: usize, words: usize) -> bool {
        let (need, rows) = to_masks(adj, right_count, words);
        m.saturates(&need, &rows, &(0..right_count as u32).collect::<Vec<_>>())
    }

    #[test]
    fn scratch_matcher_agrees_with_vec_api() {
        let cases: Vec<(Vec<Vec<usize>>, usize)> = vec![
            (vec![vec![0], vec![1], vec![2]], 3),
            (vec![vec![0], vec![0, 1]], 2),
            (vec![vec![0], vec![0]], 1),
            (vec![vec![0], vec![]], 1),
            (vec![], 5),
            ((0..4).map(|_| (0..4).collect()).collect(), 4),
            (vec![vec![1, 2], vec![0, 2], vec![0, 1], vec![2]], 3),
            // 70 lefts (two words) on a cycle of 70 rights, then one right short.
            ((0..70).map(|i| vec![i, (i + 1) % 70]).collect(), 70),
            ((0..70).map(|i| vec![i % 69, (i + 1) % 69]).collect(), 69),
        ];
        let mut m = MaskMatcher::default();
        for (adj, right) in cases {
            let words = adj.len().div_ceil(64).max(1);
            assert_eq!(saturates(&mut m, &adj, right, words), has_left_saturating_matching(&adj, right), "{adj:?}");
        }
    }

    #[test]
    fn greedy_dead_end_is_repaired_by_augmentation() {
        let mut m = MaskMatcher::default();
        // r0 serves {l0, l1}, r1 serves {l0} only, scanned in that order:
        // greedy hands l0 to r0 and leaves r1 spare; r1 must take l0 over.
        assert!(m.saturates(&[0b11], &[0b11, 0b01], &[0, 1]));
        // The unsaturable twin: without r1 every left has still been seen,
        // so only the (empty) augmentation phase can say no.
        assert!(!m.saturates(&[0b11], &[0b11, 0b01], &[0]));
        // Same pair across a word boundary (l0 = bit 63, l1 = bit 64).
        let (hi, lo) = (1u64 << 63, 1u64);
        assert!(m.saturates(&[hi, lo], &[hi, lo, hi, 0], &[0, 1]));
        assert!(!m.saturates(&[hi, lo], &[hi, lo, hi, 0], &[0]));
    }

    #[test]
    fn scratch_matcher_is_reusable_across_differently_sized_queries() {
        let mut m = MaskMatcher::default();
        // Big (two words, spares left behind) then small then big: `held`
        // and `spares` of an earlier instance must not be read by a later one.
        let big: Vec<Vec<usize>> = (0..70).map(|i| vec![i, (i + 1) % 70]).collect();
        assert!(saturates(&mut m, &big, 70, 2));
        assert!(!saturates(&mut m, &[vec![0], vec![0]], 1, 1));
        assert!(saturates(&mut m, &big, 70, 2));
        // Pigeonhole: more lefts than rights.
        assert!(!saturates(&mut m, &[vec![0], vec![0], vec![0]], 1, 1));
        assert!(saturates(&mut m, &[vec![0], vec![0, 1]], 2, 1));
    }

    #[test]
    fn visited_marks_cannot_leak_across_phases_or_checks() {
        // The kernel has no stamp counter to wrap: `visited` is a mask,
        // cleared after every successful augmentation and at the start of
        // every check, and both clears are load-bearing here. In `yes`
        // greedy serves l0 and l1 and leaves two spares; the first
        // augmentation walks l0 → l1 → l2, the second must walk l1 → l0
        // (dead end) → l2 → l3 through those same marks. `no` ends on a
        // failed search that leaves l0 marked, right before the next `yes`.
        let yes = vec![vec![0, 1, 2], vec![0, 1, 3], vec![0, 1], vec![0, 1]];
        let no = vec![vec![0, 1, 2], vec![0], vec![0]];
        assert!(has_left_saturating_matching(&yes, 4) && !has_left_saturating_matching(&no, 3));
        let (yes_need, yes_rows) = to_masks(&yes, 4, 1);
        assert_eq!(yes_rows, [0b1111, 0b1111, 0b0001, 0b0010]);
        let mut m = MaskMatcher::default();
        for _ in 0..8 {
            assert!(m.saturates(&yes_need, &yes_rows, &[0, 1, 2, 3]));
            assert!(!saturates(&mut m, &no, 3, 1));
        }
    }
}
