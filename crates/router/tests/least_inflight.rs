//! The router's one routing rule, `least_inflight`: a healthy replica
//! with the fewest requests in flight, the lowest index on ties, and no
//! replica at all when none is healthy.

use lre_router::least_inflight;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // least_inflight always returns a healthy index carrying a minimal
    // inflight count, and None exactly when nothing is healthy.
    #[test]
    fn least_inflight_picks_a_minimal_healthy_entry(
        inflights in prop::collection::vec(0usize..10, 1..8),
        mask in 0u64..256,
    ) {
        let healthy: Vec<bool> = (0..inflights.len()).map(|i| (mask >> i) & 1 == 1).collect();
        match least_inflight(&inflights, &healthy) {
            Some(i) => {
                prop_assert!(healthy[i]);
                for j in 0..inflights.len() {
                    if healthy[j] {
                        prop_assert!(inflights[i] <= inflights[j]);
                    }
                }
            }
            None => prop_assert!(healthy.iter().all(|&h| !h)),
        }
    }
}

#[test]
fn least_inflight_prefers_the_emptiest_healthy_backend() {
    assert_eq!(least_inflight(&[3, 1, 2], &[true, true, true]), Some(1));
    // The emptiest backend is down: next-emptiest healthy one wins.
    assert_eq!(least_inflight(&[3, 1, 2], &[true, false, true]), Some(2));
    // Ties go to the lowest index, so placement is deterministic.
    assert_eq!(least_inflight(&[4, 4, 4], &[true, true, true]), Some(0));
    assert_eq!(least_inflight(&[4, 4], &[false, true]), Some(1));
    assert_eq!(least_inflight(&[5, 5], &[false, false]), None);
    assert_eq!(least_inflight(&[], &[]), None);
}

#[test]
fn least_inflight_ignores_the_load_of_unhealthy_backends() {
    // An ejected backend still drains its pending map; its (stale) count
    // must never make it look attractive or repulsive.
    assert_eq!(least_inflight(&[0, 9], &[false, true]), Some(1));
    assert_eq!(least_inflight(&[9, 0], &[true, false]), Some(0));
}
