//! The fixed utterance and digest fold shared by the bit-identity goldens.

/// 7.5 s (748 frames, the length of the benchmark's 30 s-nominal utterance)
/// of seeded noise under two drifting resonator tones.
pub fn fixed_utterance() -> Vec<f32> {
    let mut state = 0x2545_f491_4f6c_dd1d_u64;
    // Two-pole resonators `y[n] = c·y[n-1] − y[n-2]`, c = 2cos(ω): ≈ 500 Hz
    // and ≈ 1 500 Hz at 8 kHz, written as literals so no libm call shapes
    // the input.
    let (c1, c2) = (1.847_759_f32, 0.765_366_9_f32);
    let (mut a1, mut a0) = (0.382_683_4_f32, 0.0_f32);
    let (mut b1, mut b0) = (0.923_879_5_f32, 0.0_f32);
    (0..60_000)
        .map(|i| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let noise = ((state >> 40) as i32 - (1 << 23)) as f32 / (1 << 23) as f32;
            let a = c1 * a1 - a0;
            (a0, a1) = (a1, a);
            let b = c2 * b1 - b0;
            (b0, b1) = (b1, b);
            // A slow amplitude ramp keeps frames distinct under CMS.
            let gain = 0.2 + 0.8 * (i % 4_000) as f32 / 4_000.0;
            gain * (0.5 * a + 0.25 * b) + 0.05 * noise
        })
        .collect()
}

/// The fold of `lre_serve::sample_digest`: FNV-1a over the little-endian
/// bytes, then the count of 32-bit words.
pub fn fnv(bytes: impl IntoIterator<Item = u8>, words: usize) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h ^= words as u64;
    h.wrapping_mul(PRIME)
}

pub fn digest(values: &[f32]) -> u64 {
    fnv(
        values.iter().flat_map(|v| v.to_bits().to_le_bytes()),
        values.len(),
    )
}
