//! `expf` / `lnf` over slices — the emission hot path's transcendentals.
//!
//! Both functions are the ARM optimized-routines single-precision
//! algorithms that glibc has shipped as `expf` / `logf` since 2.28 (`f64`
//! arithmetic, a 32- / 16-entry table, a degree-3 polynomial), ported with a
//! fused multiply-add exactly where glibc's FMA build (`__expf_fma` /
//! `__logf_fma`, what its ifunc resolves to on an x86-64 host with FMA)
//! fuses. On such a host the result is **bit-identical** to `f32::exp` /
//! `f32::ln` for every one of the 2³² inputs — not by argument but by
//! enumeration: `exhaustive_all_bit_patterns` below compares them all (NaN
//! has to meet NaN; its sign and payload are unspecified, as everywhere in
//! this workspace), and CI runs it. That test is the bridge between the
//! block scorers, which call these, and their scalar twins and training,
//! which stay on `std`. The constants are the published `__exp2f_data`
//! (N = 32) / `__logf_data` (N = 16) tables, but it is the test, not their
//! provenance, that certifies them.
//!
//! What a slice buys over a call per element is vectorisation without
//! `unsafe` or `std::arch`: each function walks its slice in
//! [`CHUNK`]-element pieces through three unit-stride passes (argument
//! reduction → table fetch → polynomial) over cache-line-aligned stack
//! arrays, a shape the autovectoriser turns into `vfmadd…pd`, `vcvtps2pd`
//! and `vpgatherqq` under the repository's `target-cpu=native`; written as
//! one loop per element the same arithmetic stays scalar and is slower than
//! the libm call. Special cases are a clamp (`expf`) or selects on the
//! original input (`lnf`), never branches, so no path depends on the data.
//!
//! `f64::mul_add` is a true fused operation on every target: a hardware
//! instruction where the build enables FMA, a call to libm's `fma()`
//! otherwise (CI's baseline-ISA build) — the same bits, several times
//! slower. There is deliberately no unfused fallback: it would be a second
//! kernel with different bits.

/// Elements per pass; the stage arrays are stack arrays of this length.
const CHUNK: usize = 64;

/// A stage array on a cache-line boundary. The compiler moves these as
/// 32-byte vectors but aligns a plain array to 16, which would leave it to
/// the caller's stack depth whether every other access splits a line (see
/// `gemm_xwt_f32`'s `Block`).
#[repr(align(64))]
struct Stage<T>([T; CHUNK]);

const fn f64s<const N: usize>(bits: [u64; N]) -> [f64; N] {
    let mut out = [0.0; N];
    let mut i = 0;
    while i < N {
        out[i] = f64::from_bits(bits[i]);
        i += 1;
    }
    out
}

/// `2^(i/32)` as `f64` bits, with `i << 47` subtracted so that adding
/// `k << 47` for `k ≡ i (mod 32)` lands `⌊k/32⌋` in the exponent field.
const EXP_TAB: [u64; 32] = [
    0x3ff0000000000000,
    0x3fefd9b0d3158574,
    0x3fefb5586cf9890f,
    0x3fef9301d0125b51,
    0x3fef72b83c7d517b,
    0x3fef54873168b9aa,
    0x3fef387a6e756238,
    0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb,
    0x3feedea64c123422,
    0x3feece086061892d,
    0x3feebfdad5362a27,
    0x3feeb42b569d4f82,
    0x3feeab07dd485429,
    0x3feea47eb03a5585,
    0x3feea09e667f3bcd,
    0x3fee9f75e8ec5f74,
    0x3feea11473eb0187,
    0x3feea589994cce13,
    0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5,
    0x3feec49182a3f090,
    0x3feed503b23e255d,
    0x3feee89f995ad3ad,
    0x3feeff76f2fb5e47,
    0x3fef199bdd85529c,
    0x3fef3720dcef9069,
    0x3fef5818dcfba487,
    0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da,
    0x3fefd0765b6e4540,
];
/// `32 / ln 2`.
const INV_LN2_N: f64 = f64::from_bits(0x40471547652b82fe);
/// `1.5 · 2⁵²`: adding it rounds to an integer held in the low mantissa bits.
const SHIFT: f64 = f64::from_bits(0x4338000000000000);
const EXP_C: [f64; 3] = f64s([0x3ebc6af84b912394, 0x3f2ebfce50fac4f3, 0x3f962e42ff0c52d6]);

/// `x[i] = expf(x[i])`, bit-identical to `f32::exp` (module doc).
pub fn expf_in_place(xs: &mut [f32]) {
    let Stage(ki) = &mut Stage([0u64; CHUNK]);
    let Stage(r) = &mut Stage([0.0f64; CHUNK]);
    let Stage(s) = &mut Stage([0.0f64; CHUNK]);
    for chunk in xs.chunks_mut(CHUNK) {
        let n = chunk.len();
        let (ki, r, s) = (&mut ki[..n], &mut r[..n], &mut s[..n]);
        // x · 32/ln 2 = k + r with k an integer and r in [−½, ½]. The clamp
        // is all the special-case handling there is: past `ln 2¹²⁸` (88.72)
        // and `ln 2⁻¹⁵⁰` (−103.97) the `f64` result rounds to `+∞` / `+0.0`
        // when it is narrowed, so nothing is lost by stopping at 89 and
        // −105, where `k` still fits the bit tricks below; and a NaN passes
        // through the clamp and then through every operation.
        for ((&x, ki), r) in chunk.iter().zip(ki.iter_mut()).zip(r.iter_mut()) {
            let xd = f64::from(x.clamp(-105.0, 89.0));
            let shifted = INV_LN2_N.mul_add(xd, SHIFT);
            *ki = shifted.to_bits();
            *r = INV_LN2_N.mul_add(xd, -(shifted - SHIFT));
        }
        // s = 2^(k/32).
        for (s, &ki) in s.iter_mut().zip(ki.iter()) {
            *s = f64::from_bits(EXP_TAB[(ki & 31) as usize].wrapping_add(ki << 47));
        }
        // expf(x) = s · 2^(r/32) ≈ s · (C0·r³ + C1·r² + C2·r + 1).
        for ((x, &r), &s) in chunk.iter_mut().zip(r.iter()).zip(s.iter()) {
            let z = r.mul_add(EXP_C[0], EXP_C[1]);
            let y = r.mul_add(EXP_C[2], 1.0);
            let y = z.mul_add(r * r, y);
            *x = (y * s) as f32;
        }
    }
}

/// `1/c_i` and `ln c_i` for `c_i` near the centre of the `i`-th sixteenth of
/// `[0x3f330000, 2 · 0x3f330000)`.
const LN_INVC: [f64; 16] = f64s([
    0x3ff661ec79f8f3be,
    0x3ff571ed4aaf883d,
    0x3ff49539f0f010b0,
    0x3ff3c995b0b80385,
    0x3ff30d190c8864a5,
    0x3ff25e227b0b8ea0,
    0x3ff1bb4a4a1a343f,
    0x3ff12358f08ae5ba,
    0x3ff0953f419900a7,
    0x3ff0000000000000,
    0x3fee608cfd9a47ac,
    0x3feca4b31f026aa0,
    0x3feb2036576afce6,
    0x3fe9c2d163a1aa2d,
    0x3fe886e6037841ed,
    0x3fe767dcf5534862,
]);
const LN_LOGC: [f64; 16] = f64s([
    0xbfd57bf7808caade,
    0xbfd2bef0a7c06ddb,
    0xbfd01eae7f513a67,
    0xbfcb31d8a68224e9,
    0xbfc6574f0ac07758,
    0xbfc1aa2bc79c8100,
    0xbfba4e76ce8c0e5e,
    0xbfb1973c5a611ccc,
    0xbfa252f438e10c1e,
    0x0000000000000000,
    0x3faaa5aa5df25984,
    0x3fbc5e53aa362eb4,
    0x3fc526e57720db08,
    0x3fcbc2860d224770,
    0x3fd1058bc8a07ee1,
    0x3fd4043057b6ee09,
]);
const LN2: f64 = f64::from_bits(0x3fe62e42fefa39ef);
const LN_A: [f64; 3] = f64s([0xbfd00ea348b88334, 0x3fd5575b0be00b6a, 0xbfdffffef20a4123]);
/// Bits of the low end of the reduced range, `≈ 0.6992`.
const LN_OFF: u32 = 0x3f330000;

/// `x[i] = lnf(x[i])`, bit-identical to `f32::ln` (module doc).
pub fn lnf_in_place(xs: &mut [f32]) {
    let Stage(tmp) = &mut Stage([0u32; CHUNK]);
    let Stage(z) = &mut Stage([0.0f64; CHUNK]);
    let Stage(invc) = &mut Stage([0.0f64; CHUNK]);
    let Stage(logc) = &mut Stage([0.0f64; CHUNK]);
    for chunk in xs.chunks_mut(CHUNK) {
        let n = chunk.len();
        let (tmp, z) = (&mut tmp[..n], &mut z[..n]);
        let (invc, logc) = (&mut invc[..n], &mut logc[..n]);
        // x = 2^k · z with z in [OFF, 2·OFF), exactly.
        for ((&x, tmp), z) in chunk.iter().zip(tmp.iter_mut()).zip(z.iter_mut()) {
            let ix = x.to_bits();
            // Subnormals are normalised first; the other inputs this catches
            // (≤ 0, +∞, NaN) are overwritten by the selects below.
            let ix = if ix.wrapping_sub(0x0080_0000) >= 0x7f00_0000 {
                (x * 8_388_608.0).to_bits().wrapping_sub(23 << 23)
            } else {
                ix
            };
            *tmp = ix.wrapping_sub(LN_OFF);
            *z = f64::from(f32::from_bits(ix.wrapping_sub(*tmp & 0xff80_0000)));
        }
        for ((invc, logc), &tmp) in invc.iter_mut().zip(logc.iter_mut()).zip(tmp.iter()) {
            let i = ((tmp >> 19) & 15) as usize;
            *invc = LN_INVC[i];
            *logc = LN_LOGC[i];
        }
        // lnf(x) = ln1p(z/c − 1) + ln c + k · ln 2.
        for ((((x, &tmp), &z), &invc), &logc) in chunk
            .iter_mut()
            .zip(tmp.iter())
            .zip(z.iter())
            .zip(invc.iter())
            .zip(logc.iter())
        {
            let k = (tmp as i32) >> 23;
            let r = z.mul_add(invc, -1.0);
            let y0 = f64::from(k).mul_add(LN2, logc);
            let r2 = r * r;
            let y = r.mul_add(LN_A[1], LN_A[2]);
            let y = r2.mul_add(LN_A[0], y);
            let v = r2.mul_add(y, y0 + r) as f32;
            let ix = x.to_bits();
            let v = if ix == 0x7f80_0000 { f32::INFINITY } else { v };
            // Negative (the sign bit makes it the larger integer) or NaN.
            let v = if ix > 0x7f80_0000 { f32::NAN } else { v };
            *x = if ix << 1 == 0 { f32::NEG_INFINITY } else { v };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::hint::black_box;

    const NOT_THIS_LIBM: &str = "the host libm is not the glibc ≥ 2.28 FMA-variant algorithm \
        the goldens were recorded under — this is not a kernel bug; see vmath.rs";

    type InPlace = fn(&mut [f32]);
    type Libm = fn(f32) -> f32;
    const PAIRS: [(&str, InPlace, Libm); 2] = [
        ("expf", expf_in_place, |x| black_box(x).exp()),
        ("lnf", lnf_in_place, |x| black_box(x).ln()),
    ];

    fn same(got: f32, want: f32) -> bool {
        got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan())
    }

    /// Runs `bits` through `kernel` in blocks; the first input whose result
    /// differs from `libm`'s, if any.
    fn first_mismatch(
        bits: impl Iterator<Item = u32>,
        kernel: InPlace,
        libm: Libm,
    ) -> Option<(f32, f32, f32)> {
        let mut bits = bits.peekable();
        let mut input = Vec::with_capacity(4096);
        let mut buf = Vec::with_capacity(4096);
        while bits.peek().is_some() {
            input.clear();
            input.extend(bits.by_ref().take(4096).map(f32::from_bits));
            buf.clone_from(&input);
            kernel(&mut buf);
            for (&x, &got) in input.iter().zip(&buf) {
                if !same(got, libm(x)) {
                    return Some((x, got, libm(x)));
                }
            }
        }
        None
    }

    fn assert_no_mismatch(name: &str, found: Option<(f32, f32, f32)>) {
        if let Some((x, got, want)) = found {
            panic!(
                "{name}({x:e}) [{:#010x}]: kernel {got:e} [{:#010x}], libm {want:e} [{:#010x}]: \
                 {NOT_THIS_LIBM}",
                x.to_bits(),
                got.to_bits(),
                want.to_bits()
            );
        }
    }

    /// Every `f32` there is, both functions, on two threads (release build:
    /// ≈ 40 s with the repository's flags, ≈ 110 s for the baseline ISA).
    #[test]
    #[ignore = "2³² inputs per function; CI runs it in release"]
    fn exhaustive_all_bit_patterns() {
        for (name, kernel, libm) in PAIRS {
            let halves = [0..=u32::MAX / 2, u32::MAX / 2 + 1..=u32::MAX];
            let found = std::thread::scope(|scope| {
                let workers = halves.map(|half| scope.spawn(|| first_mismatch(half, kernel, libm)));
                workers.map(|w| w.join().expect("comparison thread panicked"))
            });
            assert_no_mismatch(name, found.into_iter().flatten().next());
        }
    }

    /// The same comparison in under a second: a stride over all bit
    /// patterns, and every pattern within 64 ulps of each place either
    /// algorithm changes regime.
    #[test]
    fn strided_and_dense_around_every_regime_change() {
        let edges = [
            0.0,
            1.0,
            -1.0,
            -17.4,
            -87.336_55,
            -103.28,
            -103.972,
            -104.0,
            88.0,
            88.7228,
            f32::MIN_POSITIVE,
            f32::from_bits(1),
            f32::from_bits(0x007f_ffff),
            f32::INFINITY,
            f32::NAN,
            f32::MAX,
        ];
        let dense = edges
            .iter()
            .flat_map(|e| [e.to_bits(), (-e).to_bits()])
            .flat_map(|b| (0..=128).map(move |u| b.wrapping_add(u).wrapping_sub(64)));
        let bits: Vec<u32> = (0..=u32::MAX).step_by(4099).chain(dense).collect();
        for (name, kernel, libm) in PAIRS {
            assert_no_mismatch(name, first_mismatch(bits.iter().copied(), kernel, libm));
        }
    }

    /// An element's result depends on its value alone: not on its index,
    /// the slice's length (chunk tails, the 63 / 64 / 65 edges) or the
    /// slice's alignment.
    #[test]
    fn same_bits_at_every_position_length_and_offset() {
        // 13 values, coprime with the chunk length, so every value meets
        // every lane.
        let values = [
            -0.37f32,
            0.0,
            -90.0,
            88.9,
            f32::NAN,
            1.0,
            1e-40,
            -2.5,
            f32::INFINITY,
            0.699_3,
            -1e30,
            3.0e38,
            17.25,
        ];
        for (name, kernel, _) in PAIRS {
            let alone = values.map(|v| {
                let mut one = [v];
                kernel(&mut one);
                one[0]
            });
            let mut buf = [0.0f32; 140];
            for len in 0..=130 {
                for offset in [0, 1, 3, 8] {
                    let xs = &mut buf[offset..offset + len];
                    for (i, x) in xs.iter_mut().enumerate() {
                        *x = values[(i + len) % values.len()];
                    }
                    kernel(xs);
                    for (i, &got) in xs.iter().enumerate() {
                        let want = alone[(i + len) % values.len()];
                        assert!(
                            same(got, want),
                            "{name}: index {i} of {len} at offset {offset}"
                        );
                    }
                }
            }
        }
    }

    proptest! {
        #[test]
        fn arbitrary_bits_never_panic_and_nan_iff_libm_nan(
            bits in prop::collection::vec(any::<u32>(), 0..200),
        ) {
            let input: Vec<f32> = bits.into_iter().map(f32::from_bits).collect();
            for (name, kernel, libm) in PAIRS {
                let mut out = input.clone();
                kernel(&mut out);
                for (&x, &y) in input.iter().zip(&out) {
                    prop_assert_eq!(y.is_nan(), libm(x).is_nan(), "{}({:e}) = {:e}", name, x, y);
                }
            }
        }
    }
}
