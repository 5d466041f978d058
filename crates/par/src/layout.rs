//! Contiguous row distributions over ranks.

/// A block-row distribution of `0..n` over `nranks` ranks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    offsets: Vec<usize>,
}

impl Layout {
    /// Even block distribution (first `n % nranks` ranks get one extra row).
    pub fn even(n: usize, nranks: usize) -> Self {
        assert!(nranks >= 1);
        let base = n / nranks;
        let extra = n % nranks;
        let mut offsets = Vec::with_capacity(nranks + 1);
        let mut acc = 0;
        offsets.push(0);
        for r in 0..nranks {
            acc += base + usize::from(r < extra);
            offsets.push(acc);
        }
        Self { offsets }
    }

    /// Number of ranks.
    pub fn nranks(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Global problem size.
    pub fn n(&self) -> usize {
        *self.offsets.last().unwrap()
    }

    /// Row range owned by rank `r`.
    pub fn range(&self, r: usize) -> std::ops::Range<usize> {
        self.offsets[r]..self.offsets[r + 1]
    }

    /// Number of rows owned by rank `r`.
    pub fn local_n(&self, r: usize) -> usize {
        self.offsets[r + 1] - self.offsets[r]
    }

    /// Owning rank of global row `i` (binary search).
    pub fn rank_of(&self, i: usize) -> usize {
        debug_assert!(i < self.n());
        match self.offsets.binary_search(&i) {
            Ok(r) if r == self.nranks() => r - 1,
            Ok(r) => r,
            Err(r) => r - 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_distribution_covers() {
        let l = Layout::even(10, 3);
        assert_eq!(l.nranks(), 3);
        assert_eq!(l.n(), 10);
        assert_eq!(l.range(0), 0..4);
        assert_eq!(l.range(1), 4..7);
        assert_eq!(l.range(2), 7..10);
        let total: usize = (0..3).map(|r| l.local_n(r)).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn rank_of_matches_ranges() {
        let l = Layout::even(100, 7);
        for i in 0..100 {
            let r = l.rank_of(i);
            assert!(l.range(r).contains(&i), "row {i} → rank {r}");
        }
    }

    #[test]
    fn more_ranks_than_rows() {
        let l = Layout::even(2, 4);
        assert_eq!(l.local_n(0), 1);
        assert_eq!(l.local_n(1), 1);
        assert_eq!(l.local_n(2), 0);
        assert_eq!(l.local_n(3), 0);
    }
}
