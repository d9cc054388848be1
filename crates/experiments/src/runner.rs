//! Sweep support: every experiment point derives its own deterministic
//! seed, so points can run in parallel (through
//! `hetsched_core::par::par_map_collect`, which returns results in input
//! order) and still produce the numbers a serial run does.

/// Derive a per-instance seed from a base seed and coordinates (SplitMix64
/// finalizer — decorrelates neighbouring points).
pub fn instance_seed(base: u64, point: u64, rep: u64) -> u64 {
    let mut z = base
        .wrapping_add(point.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(rep.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_decorrelate() {
        let a = instance_seed(42, 0, 0);
        let b = instance_seed(42, 0, 1);
        let c = instance_seed(42, 1, 0);
        let d = instance_seed(43, 0, 0);
        let all = [a, b, c, d];
        let mut uniq = all.to_vec();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 4, "seeds collide: {all:?}");
    }
}
