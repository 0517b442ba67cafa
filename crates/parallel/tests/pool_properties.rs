//! Property tests for the pooled scheduler: for every thread count and
//! chunk-sensitive workload shape, `par_map`/`par_map_exact`
//! must produce output identical to the sequential loop.

use ctxrank_parallel::{par_map, par_map_exact};
use proptest::prelude::*;

/// A workload whose per-item cost depends on the item, so chunk
/// boundaries and stealing actually matter: `skew` concentrates heavy
/// items at the front, back, or scattered.
fn spin(i: usize, n: usize, skew: u8) -> u64 {
    let heavy = match skew % 3 {
        0 => i < 4,                // heavy head: early segments lag
        1 => i.is_multiple_of(17), // scattered spikes
        _ => i + 4 >= n,           // heavy tail: stealing at the end
    };
    let spins = if heavy { 5_000 } else { 5 };
    let mut acc = i as u64 ^ u64::from(skew);
    for s in 0..spins {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(s);
    }
    acc
}

proptest! {
    #[test]
    fn par_map_equals_serial_across_thread_counts(
        n in 0usize..600,
        threads in 1usize..=32,
        skew in 0u8..=5,
    ) {
        let items: Vec<usize> = (0..n).collect();
        let serial: Vec<u64> = items.iter().map(|&i| spin(i, n, skew)).collect();
        let pooled = par_map(threads, &items, |&i| spin(i, n, skew));
        prop_assert_eq!(&pooled, &serial);
    }

    #[test]
    fn par_map_exact_equals_serial_across_fan_outs(
        n in 0usize..600,
        fan_out in 2usize..=24,
        skew in 0u8..=5,
    ) {
        // Bypasses the hardware cap: exercises segments, chunk claims
        // and stealing even on a single-core host.
        let items: Vec<usize> = (0..n).collect();
        let serial: Vec<u64> = items.iter().map(|&i| spin(i, n, skew)).collect();
        let pooled = par_map_exact(fan_out, &items, |&i| spin(i, n, skew));
        prop_assert_eq!(&pooled, &serial);
    }

    #[test]
    fn chunk_sensitive_sizes_keep_order(
        // Sizes straddling segment/chunk boundaries: k*fan_out ± 1.
        base in 1usize..=40,
        fan_out in 2usize..=16,
        delta in 0usize..=2,
    ) {
        let n = (base * fan_out + delta).saturating_sub(1);
        let items: Vec<usize> = (0..n).collect();
        let out = par_map_exact(fan_out, &items, |&i| i);
        prop_assert_eq!(out, items);
    }
}
