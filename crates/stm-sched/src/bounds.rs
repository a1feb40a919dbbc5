//! Closed-form bounds from the paper and from Garey & Graham.

/// Theorem 9: any contention manager satisfying the pending-commit property
/// produces a makespan within a factor of `s(s + 1) + 2` of optimal, where
/// `s` is the number of shared objects.
pub fn theorem9_bound(s: usize) -> f64 {
    (s * (s + 1) + 2) as f64
}

/// Garey & Graham: any list schedule is within a factor of `s + 1` of the
/// optimal schedule for a task system with `s` resources.
pub fn garey_graham_bound(s: usize) -> f64 {
    (s + 1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theorem9_values() {
        assert_eq!(theorem9_bound(1), 4.0);
        assert_eq!(theorem9_bound(2), 8.0);
        assert_eq!(theorem9_bound(5), 32.0);
        assert_eq!(theorem9_bound(10), 112.0);
    }

    #[test]
    fn garey_graham_values() {
        assert_eq!(garey_graham_bound(1), 2.0);
        assert_eq!(garey_graham_bound(7), 8.0);
    }

    #[test]
    fn bounds_grow_monotonically() {
        for s in 1..50 {
            assert!(theorem9_bound(s + 1) > theorem9_bound(s));
            assert!(garey_graham_bound(s + 1) > garey_graham_bound(s));
            assert!(theorem9_bound(s) > garey_graham_bound(s));
        }
    }
}
