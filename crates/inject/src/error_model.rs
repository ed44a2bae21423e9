//! Fault abstractions: how errors are materialised inside an INT32 accumulator tensor.
//!
//! Three models cover everything the paper uses:
//!
//! * [`BitFlipModel`] — every bit of every accumulator element flips independently with
//!   probability `ber`, optionally restricted to the high bits (timing errors predominantly
//!   affect the more significant bits, Sec. III-A).
//! * [`FixedBitModel`] — flips a *specific* bit position with per-element probability `ber`;
//!   the paper's Q1.1/Q1.3/Q2.x protocols use the 30th bit.
//! * [`MagFreqModel`] — injects exactly `freq` identical errors of magnitude `mag`
//!   (`MSD = freq × mag`), the controlled model of Sec. III-B used to separate the effects of
//!   error magnitude and error frequency (Q1.4).
//!
//! # Sampling cost
//!
//! The undervolted operating points the paper studies have tiny bit-error rates (4e-6 at
//! 0.70 V), so almost every accumulator element is fault-free. The Bernoulli models
//! therefore never visit elements one by one: they draw the *gap* to the next faulty
//! element (or bit) from the geometric distribution by inversion, which costs O(1 + flips)
//! random draws per tensor instead of O(elements). The law is exactly that of independent
//! per-element (and per-bit) Bernoulli trials; only the order in which the random stream is
//! consumed differs from a dense walk.

use rand::Rng;
use realm_tensor::rng::SeededRng;
use serde::{Deserialize, Serialize};

/// Width of the accumulator word errors are injected into.
pub const ACCUMULATOR_BITS: u8 = 32;

/// A fault model that corrupts INT32 accumulator tensors in place.
pub trait ErrorModel {
    /// Corrupts `acc` in place and returns the number of injected errors.
    ///
    /// `acc` is any contiguous run of accumulator elements: a whole row-major `MatI32`
    /// (`as_mut_slice`) or one row range of it.
    fn corrupt(&self, rng: &mut SeededRng, acc: &mut [i32]) -> usize;

    /// A short human-readable description used in reports.
    fn describe(&self) -> String;
}

/// Calls `hit(rng, i)` for each success `i` of `len` independent Bernoulli trials whose
/// failure probability has logarithm `ln_q` (finite and negative), in increasing order.
///
/// Each gap to the next success is one exact inverse-CDF draw of the geometric
/// distribution, `⌊ln U / ln_q⌋` with `U` uniform on (0, 1], so the walk costs one draw per
/// success plus one to end it. A gap can exceed any `usize` (or be `+∞`), so it is compared
/// against the remaining length as an `f64`.
fn for_each_success(
    rng: &mut SeededRng,
    len: usize,
    ln_q: f64,
    mut hit: impl FnMut(&mut SeededRng, usize),
) {
    let mut i = 0usize;
    while i < len {
        let u = 1.0 - rng.gen::<f64>();
        let gap = (u.ln() / ln_q).floor();
        if gap >= (len - i) as f64 {
            return;
        }
        i += gap as usize;
        hit(rng, i);
        i += 1;
    }
}

/// Independent random bit flips at a given bit-error rate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BitFlipModel {
    /// Probability that any individual bit within the eligible range flips.
    pub ber: f64,
    /// Lowest eligible bit position (inclusive).
    pub min_bit: u8,
    /// Highest eligible bit position (exclusive, at most 32).
    pub max_bit: u8,
}

impl BitFlipModel {
    /// Bit flips uniformly across all 32 accumulator bits.
    ///
    /// # Panics
    ///
    /// Panics if `ber` is not in `[0, 1]`.
    pub fn uniform(ber: f64) -> Self {
        Self::with_bit_range(ber, 0, ACCUMULATOR_BITS)
    }

    /// Bit flips restricted to the upper half of the accumulator (bits 16–31), reflecting the
    /// observation that timing errors affect the more significant bits.
    ///
    /// # Panics
    ///
    /// Panics if `ber` is not in `[0, 1]`.
    pub fn high_bits(ber: f64) -> Self {
        Self::with_bit_range(ber, 16, ACCUMULATOR_BITS)
    }

    /// Bit flips restricted to an explicit `[min_bit, max_bit)` range.
    ///
    /// # Panics
    ///
    /// Panics if `ber` is outside `[0, 1]`, the range is empty, or `max_bit > 32`.
    pub fn with_bit_range(ber: f64, min_bit: u8, max_bit: u8) -> Self {
        assert!((0.0..=1.0).contains(&ber), "BER {ber} must be in [0, 1]");
        assert!(min_bit < max_bit, "empty bit range {min_bit}..{max_bit}");
        assert!(max_bit <= ACCUMULATOR_BITS, "max_bit {max_bit} exceeds 32");
        Self {
            ber,
            min_bit,
            max_bit,
        }
    }

    fn eligible_bits(&self) -> u32 {
        (self.max_bit - self.min_bit) as u32
    }
}

impl ErrorModel for BitFlipModel {
    fn corrupt(&self, rng: &mut SeededRng, acc: &mut [i32]) -> usize {
        let bits = self.eligible_bits();
        if self.ber <= 0.0 || bits == 0 || acc.is_empty() {
            return 0;
        }
        if self.ber >= 1.0 {
            // ln(1 − ber) = −∞: every eligible bit of every element flips.
            let mask = (u32::MAX >> (32 - bits)) << self.min_bit;
            for v in acc.iter_mut() {
                *v ^= mask as i32;
            }
            return acc.len() * bits as usize;
        }
        let ln_q = (-self.ber).ln_1p();
        // An element is corrupted unless all of its eligible bits survive.
        let ln_q_any = bits as f64 * ln_q;
        let p_any = -ln_q_any.exp_m1();
        let mut injected = 0usize;
        for_each_success(rng, acc.len(), ln_q_any, |rng, i| {
            // First flipped bit, conditioned on at least one flip: the inverse CDF of the
            // geometric distribution truncated to `bits` trials.
            let u = 1.0 - rng.gen::<f64>();
            let first = ((-u * p_any).ln_1p() / ln_q).floor().min((bits - 1) as f64) as u32;
            let mut mask = 1u32 << first;
            // Every higher eligible bit still flips independently with probability `ber`.
            let higher = first + 1;
            for_each_success(rng, (bits - higher) as usize, ln_q, |_, b| {
                mask |= 1u32 << (higher + b as u32);
            });
            injected += mask.count_ones() as usize;
            acc[i] ^= (mask << self.min_bit) as i32;
        });
        injected
    }

    fn describe(&self) -> String {
        format!(
            "random bit flips, BER {:.2e}, bits {}..{}",
            self.ber, self.min_bit, self.max_bit
        )
    }
}

/// Flips one specific bit position with a per-element probability.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FixedBitModel {
    /// Probability that the bit flips in any given accumulator element.
    pub ber: f64,
    /// Bit position to flip (0 = LSB, 31 = sign bit).
    pub bit: u8,
}

impl FixedBitModel {
    /// Creates a fixed-bit model.
    ///
    /// # Panics
    ///
    /// Panics if `ber` is outside `[0, 1]` or `bit >= 32`.
    pub fn new(ber: f64, bit: u8) -> Self {
        assert!((0.0..=1.0).contains(&ber), "BER {ber} must be in [0, 1]");
        assert!(bit < ACCUMULATOR_BITS, "bit {bit} out of range");
        Self { ber, bit }
    }

    /// The paper's default protocol: flip the 30th bit.
    pub fn bit30(ber: f64) -> Self {
        Self::new(ber, 30)
    }
}

impl ErrorModel for FixedBitModel {
    fn corrupt(&self, rng: &mut SeededRng, acc: &mut [i32]) -> usize {
        if self.ber <= 0.0 {
            return 0;
        }
        let mask = (1u32 << self.bit) as i32;
        if self.ber >= 1.0 {
            for v in acc.iter_mut() {
                *v ^= mask;
            }
            return acc.len();
        }
        let mut injected = 0usize;
        for_each_success(rng, acc.len(), (-self.ber).ln_1p(), |_, i| {
            acc[i] ^= mask;
            injected += 1;
        });
        injected
    }

    fn describe(&self) -> String {
        format!("bit {} flips, BER {:.2e}", self.bit, self.ber)
    }
}

/// Injects exactly `freq` identical errors of magnitude `mag` per corrupted tensor.
///
/// This is the controlled model of Sec. III-B: the matrix-sum deviation it produces is
/// `MSD = freq × mag`, which lets the characterization separate "one huge error" from "many
/// small errors" at identical MSD (Q1.4).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MagFreqModel {
    /// Magnitude added to each corrupted accumulator element.
    pub mag: i64,
    /// Number of corrupted elements per targeted GEMM result.
    pub freq: usize,
}

impl MagFreqModel {
    /// Creates a magnitude/frequency model.
    pub fn new(mag: i64, freq: usize) -> Self {
        Self { mag, freq }
    }

    /// Creates a model from a target MSD and an error frequency (`mag = msd / freq`).
    ///
    /// # Panics
    ///
    /// Panics if `freq` is zero.
    pub fn from_msd(msd: i64, freq: usize) -> Self {
        assert!(freq > 0, "frequency must be positive");
        Self {
            mag: msd / freq as i64,
            freq,
        }
    }

    /// The matrix-sum deviation this model produces per corrupted tensor.
    pub fn msd(&self) -> i64 {
        self.mag * self.freq as i64
    }
}

/// Samples of at most this many positions are tracked in a stack buffer with a linear scan;
/// larger ones (the characterization sweeps reach 2^14 per GEMM) use a bitmap over the tensor.
const INLINE_POSITIONS: usize = 32;

impl ErrorModel for MagFreqModel {
    fn corrupt(&self, rng: &mut SeededRng, acc: &mut [i32]) -> usize {
        if self.freq == 0 || self.mag == 0 || acc.is_empty() {
            return 0;
        }
        let n = acc.len();
        let count = self.freq.min(n);
        let mag = self.mag as i32;
        // Sample `count` distinct positions with Floyd's algorithm (O(count) draws): the
        // draw for `j` picks `t`, or `j` itself when `t` was already taken.
        if count <= INLINE_POSITIONS {
            let mut taken = [0usize; INLINE_POSITIONS];
            for (k, j) in ((n - count)..n).enumerate() {
                let t = rng.gen_range(0..=j);
                let idx = if taken[..k].contains(&t) { j } else { t };
                taken[k] = idx;
                acc[idx] = acc[idx].wrapping_add(mag);
            }
        } else {
            let mut taken = vec![0u64; n.div_ceil(64)];
            for j in (n - count)..n {
                let t = rng.gen_range(0..=j);
                let seen = taken[t / 64] >> (t % 64) & 1 == 1;
                let idx = if seen { j } else { t };
                taken[idx / 64] |= 1 << (idx % 64);
                acc[idx] = acc[idx].wrapping_add(mag);
            }
        }
        count
    }

    fn describe(&self) -> String {
        format!(
            "controlled errors, mag 2^{:.1}, freq {}, MSD 2^{:.1}",
            (self.mag.abs().max(1) as f64).log2(),
            self.freq,
            (self.msd().abs().max(1) as f64).log2()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use realm_tensor::rng::seeded;

    #[test]
    fn zero_ber_injects_nothing() {
        let mut rng = seeded(1);
        let mut acc = vec![42i32; 256];
        assert_eq!(BitFlipModel::uniform(0.0).corrupt(&mut rng, &mut acc), 0);
        assert_eq!(FixedBitModel::bit30(0.0).corrupt(&mut rng, &mut acc), 0);
        assert!(acc.iter().all(|&v| v == 42));
    }

    #[test]
    fn high_ber_corrupts_most_elements() {
        let mut rng = seeded(2);
        let mut acc = vec![0i32; 1024];
        let injected = BitFlipModel::uniform(0.05).corrupt(&mut rng, &mut acc);
        assert!(injected > 500, "expected many flips, got {injected}");
        let changed = acc.iter().filter(|&&v| v != 0).count();
        assert!(changed > 500);
    }

    #[test]
    fn injected_count_tracks_changed_bits() {
        let mut rng = seeded(3);
        let mut acc = vec![0i32; 4096];
        let injected = BitFlipModel::high_bits(1e-3).corrupt(&mut rng, &mut acc);
        let set_bits: u32 = acc.iter().map(|&v| (v as u32).count_ones()).sum();
        assert_eq!(injected as u32, set_bits);
        // All flips must land in the configured high-bit range.
        for &v in &acc {
            assert_eq!(v as u32 & 0x0000_FFFF, 0, "low bit flipped: {v:#x}");
        }
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1]")]
    fn invalid_ber_is_rejected() {
        let _ = BitFlipModel::uniform(1.5);
    }

    #[test]
    fn fixed_bit_model_only_touches_one_bit() {
        let mut rng = seeded(4);
        let mut acc = vec![0i32; 1024];
        let injected = FixedBitModel::bit30(0.02).corrupt(&mut rng, &mut acc);
        assert!(injected > 0);
        for &v in &acc {
            assert!(v == 0 || v as u32 == 1 << 30, "unexpected value {v:#x}");
        }
        let changed = acc.iter().filter(|&&v| v != 0).count();
        assert_eq!(changed, injected);
    }

    #[test]
    fn magfreq_injects_exact_count_and_msd() {
        let mut rng = seeded(5);
        let mut acc = vec![0i32; 256];
        let model = MagFreqModel::new(1 << 20, 8);
        let injected = model.corrupt(&mut rng, &mut acc);
        assert_eq!(injected, 8);
        let sum: i64 = acc.iter().map(|&v| v as i64).sum();
        assert_eq!(sum, model.msd());
        let touched = acc.iter().filter(|&&v| v != 0).count();
        assert_eq!(touched, 8, "errors must land on distinct elements");
    }

    #[test]
    fn magfreq_from_msd_divides_magnitude() {
        let m = MagFreqModel::from_msd(1 << 24, 1 << 4);
        assert_eq!(m.mag, 1 << 20);
        assert_eq!(m.msd(), 1 << 24);
    }

    #[test]
    fn magfreq_caps_frequency_at_tensor_size() {
        let mut rng = seeded(6);
        let mut acc = vec![0i32; 4];
        let injected = MagFreqModel::new(10, 100).corrupt(&mut rng, &mut acc);
        assert_eq!(injected, 4);
        assert!(acc.iter().all(|&v| v == 10));
    }

    /// Floyd's algorithm tracked in a `HashSet`, the formulation `MagFreqModel` replaced.
    fn hashed_magfreq(model: &MagFreqModel, rng: &mut SeededRng, acc: &mut [i32]) {
        let n = acc.len();
        let count = model.freq.min(n);
        let mut chosen = std::collections::HashSet::with_capacity(count);
        for j in (n - count)..n {
            let t = rng.gen_range(0..=j);
            if !chosen.insert(t) {
                chosen.insert(j);
            }
        }
        for &idx in &chosen {
            acc[idx] = acc[idx].wrapping_add(model.mag as i32);
        }
    }

    #[test]
    fn magfreq_positions_match_the_hashed_formulation_draw_for_draw() {
        // Both the stack-buffer and the bitmap branch, including a full-tensor sample.
        for (freq, n) in [
            (1, 16),
            (8, 256),
            (32, 64),
            (33, 64),
            (100, 4096),
            (300, 300),
        ] {
            let model = MagFreqModel::new(1 << 12, freq);
            for seed in 0..20 {
                let (mut ra, mut rb) = (seeded(seed), seeded(seed));
                let (mut a, mut b) = (vec![7i32; n], vec![7i32; n]);
                model.corrupt(&mut ra, &mut a);
                hashed_magfreq(&model, &mut rb, &mut b);
                assert_eq!(a, b, "freq {freq}, n {n}, seed {seed}");
                assert_eq!(ra.gen::<u64>(), rb.gen::<u64>(), "same draws consumed");
            }
        }
    }

    #[test]
    fn describe_mentions_key_parameters() {
        assert!(BitFlipModel::uniform(1e-4).describe().contains("1.00e-4"));
        assert!(FixedBitModel::bit30(0.5).describe().contains("bit 30"));
        assert!(MagFreqModel::new(1 << 10, 4).describe().contains("freq 4"));
    }

    #[test]
    fn corrupt_is_deterministic_for_a_seed() {
        let model = BitFlipModel::uniform(1e-3);
        let run = |seed| {
            let mut rng = seeded(seed);
            let mut acc = vec![0i32; 1024];
            model.corrupt(&mut rng, &mut acc);
            acc
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn certain_flips_hit_every_eligible_bit() {
        let mut rng = seeded(9);
        let mut acc = vec![0i32; 35];
        assert_eq!(
            BitFlipModel::uniform(1.0).corrupt(&mut rng, &mut acc),
            35 * 32
        );
        assert!(acc.iter().all(|&v| v == -1));

        let mut acc = vec![0i32; 35];
        let model = BitFlipModel::with_bit_range(1.0, 3, 9);
        assert_eq!(model.corrupt(&mut rng, &mut acc), 35 * 6);
        assert!(acc.iter().all(|&v| v == 0b11_1111 << 3));

        let mut acc = vec![0i32; 35];
        assert_eq!(FixedBitModel::new(1.0, 31).corrupt(&mut rng, &mut acc), 35);
        assert!(acc.iter().all(|&v| v == i32::MIN));
    }

    #[test]
    fn empty_and_single_element_accumulators() {
        let mut rng = seeded(10);
        assert_eq!(BitFlipModel::uniform(0.5).corrupt(&mut rng, &mut []), 0);
        assert_eq!(FixedBitModel::bit30(0.5).corrupt(&mut rng, &mut []), 0);
        assert_eq!(MagFreqModel::new(1, 4).corrupt(&mut rng, &mut []), 0);
        let (mut hit_bits, mut hit_fixed) = (0, 0);
        for _ in 0..200 {
            let mut one = [0i32];
            let injected = BitFlipModel::uniform(0.05).corrupt(&mut rng, &mut one);
            assert_eq!(injected as u32, one[0].count_ones());
            hit_bits += injected;
            let mut one = [0i32];
            let injected = FixedBitModel::new(0.5, 0).corrupt(&mut rng, &mut one);
            assert_eq!(injected as i32, one[0]);
            hit_fixed += injected;
        }
        assert!(hit_bits > 0 && hit_fixed > 0);
        let mut one = [5i32];
        assert_eq!(MagFreqModel::new(3, 8).corrupt(&mut rng, &mut one), 1);
        assert_eq!(one, [8]);
    }

    #[test]
    fn flips_stay_inside_the_bit_range() {
        let mut rng = seeded(11);
        let model = BitFlipModel::with_bit_range(0.05, 5, 11);
        let mut acc = vec![0i32; 4096];
        let injected = model.corrupt(&mut rng, &mut acc);
        let union = acc.iter().fold(0u32, |m, &v| m | v as u32);
        assert_eq!(
            union,
            0b11_1111 << 5,
            "every in-range bit hit, none outside"
        );
        let set: u32 = acc.iter().map(|&v| v.count_ones()).sum();
        assert_eq!(injected as u32, set);
    }

    /// The dense walk the geometric-skip sampler replaced, kept as its statistical oracle:
    /// one uniform per element, then re-draw every eligible bit until at least one flips.
    fn dense_bitflip(model: &BitFlipModel, rng: &mut SeededRng, acc: &mut [i32]) -> usize {
        let p_any = 1.0 - (1.0 - model.ber).powi(model.eligible_bits() as i32);
        let mut injected = 0usize;
        for v in acc.iter_mut() {
            if rng.gen::<f64>() >= p_any {
                continue;
            }
            let mut mask = 0u32;
            while mask == 0 {
                for b in model.min_bit..model.max_bit {
                    if rng.gen::<f64>() < model.ber {
                        mask |= 1u32 << b;
                    }
                }
            }
            injected += mask.count_ones() as usize;
            *v = (*v as u32 ^ mask) as i32;
        }
        injected
    }

    /// The dense per-element walk of [`FixedBitModel`], kept as its oracle.
    fn dense_fixed(model: &FixedBitModel, rng: &mut SeededRng, acc: &mut [i32]) -> usize {
        let mut injected = 0usize;
        for v in acc.iter_mut() {
            if rng.gen::<f64>() < model.ber {
                *v ^= 1 << model.bit;
                injected += 1;
            }
        }
        injected
    }

    /// Fault statistics over a run of zero-initialised accumulators.
    #[derive(Debug)]
    struct FlipStats {
        elements: u64,
        corrupted: u64,
        flips: u64,
        flips_sq: u64,
        per_bit: [u64; 32],
    }

    impl FlipStats {
        fn gather(
            seed: u64,
            trials: usize,
            len: usize,
            mut corrupt: impl FnMut(&mut SeededRng, &mut [i32]) -> usize,
        ) -> Self {
            let mut stats = Self {
                elements: (trials * len) as u64,
                corrupted: 0,
                flips: 0,
                flips_sq: 0,
                per_bit: [0; 32],
            };
            let mut rng = seeded(seed);
            let mut acc = vec![0i32; len];
            for _ in 0..trials {
                acc.fill(0);
                let injected = corrupt(&mut rng, &mut acc) as u64;
                let before = stats.flips;
                for &v in acc.iter().filter(|&&v| v != 0) {
                    let f = u64::from(v.count_ones());
                    stats.corrupted += 1;
                    stats.flips += f;
                    stats.flips_sq += f * f;
                    for (b, n) in stats.per_bit.iter_mut().enumerate() {
                        *n += u64::from(v as u32 >> b & 1);
                    }
                }
                assert_eq!(injected, stats.flips - before, "injected counts the flips");
            }
            stats
        }

        fn rate(&self, count: u64) -> (f64, f64) {
            let p = count as f64 / self.elements as f64;
            (p, p * (1.0 - p) / self.elements as f64)
        }

        fn flips_per_corrupted(&self) -> (f64, f64) {
            let k = self.corrupted as f64;
            let mean = self.flips as f64 / k;
            (mean, (self.flips_sq as f64 / k - mean * mean) / k)
        }
    }

    /// Asserts two estimates `(value, variance)` agree within five standard deviations of
    /// their difference (exactly, when both are deterministic).
    fn assert_within_5_sigma(label: &str, (a, va): (f64, f64), (b, vb): (f64, f64)) {
        let sigma = (va + vb).sqrt();
        assert!(
            (a - b).abs() <= 5.0 * sigma,
            "{label}: {a} vs {b} (σ {sigma})"
        );
    }

    fn assert_same_law(label: &str, new: &FlipStats, oracle: &FlipStats) {
        assert!(new.corrupted > 1000, "{label}: too few faults to test");
        assert_within_5_sigma(
            &format!("{label} corrupted-element rate"),
            new.rate(new.corrupted),
            oracle.rate(oracle.corrupted),
        );
        assert_within_5_sigma(
            &format!("{label} flips per corrupted element"),
            new.flips_per_corrupted(),
            oracle.flips_per_corrupted(),
        );
        for b in 0..32 {
            assert_within_5_sigma(
                &format!("{label} bit {b}"),
                new.rate(new.per_bit[b]),
                oracle.rate(oracle.per_bit[b]),
            );
        }
    }

    /// 64 accumulators of 64×64: 2^18 element trials per sampler and configuration.
    const TRIALS: usize = 64;
    const LEN: usize = 4096;

    #[test]
    fn bitflip_sampler_matches_the_dense_oracle() {
        for ber in [1e-3, 2e-2] {
            for model in [BitFlipModel::uniform(ber), BitFlipModel::high_bits(ber)] {
                let new = FlipStats::gather(21, TRIALS, LEN, |r, a| model.corrupt(r, a));
                let oracle = FlipStats::gather(22, TRIALS, LEN, |r, a| dense_bitflip(&model, r, a));
                assert_same_law(&model.describe(), &new, &oracle);
            }
        }
    }

    #[test]
    fn fixed_bit_sampler_matches_the_dense_oracle() {
        // One flip per corrupted element, so eight times the trials for the same power.
        for ber in [1e-3, 2e-2] {
            let model = FixedBitModel::bit30(ber);
            let new = FlipStats::gather(23, 8 * TRIALS, LEN, |r, a| model.corrupt(r, a));
            let oracle = FlipStats::gather(24, 8 * TRIALS, LEN, |r, a| dense_fixed(&model, r, a));
            assert_same_law(&model.describe(), &new, &oracle);
        }
    }

    #[test]
    fn undervolted_corruption_rate_matches_the_analytic_rate() {
        // 4.0e-6 is the 0.70 V operating point of the default 14 nm voltage/BER curve.
        let ber = 4.0e-6;
        let model = BitFlipModel::uniform(ber);
        let stats = FlipStats::gather(25, 64, 1 << 16, |r, a| model.corrupt(r, a));
        let p_any = 1.0 - (1.0 - ber).powi(32);
        let n = stats.elements as f64;
        assert_within_5_sigma(
            "corrupted-element rate at 4e-6",
            stats.rate(stats.corrupted),
            (p_any, p_any * (1.0 - p_any) / n),
        );
    }
}
