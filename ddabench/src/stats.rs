//! Sample statistics used by every workload: nearest-rank percentiles
//! with the "ten samples beyond" rule, quartile spread, and the
//! attribution arithmetic that makes unattributed time visible.

/// Samples a percentile must have beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Operations a timed window runs at least, so that p99 has
/// [`MIN_BEYOND`] samples beyond it.
pub const MIN_OPS: usize = 100 * MIN_BEYOND;

/// 1-based nearest rank of percentile `pct` (0 < pct <= 100) among `n`
/// samples: the smallest rank with at least `pct`% of the samples at or
/// below it. Integer arithmetic, so `rank(1000, 99) == 990` exactly.
pub fn rank(n: usize, pct: usize) -> usize {
    assert!(n > 0 && (1..=100).contains(&pct), "rank of an empty sample");
    (n * pct).div_ceil(100)
}

/// Samples strictly beyond the nearest-rank percentile `pct`.
pub fn beyond(n: usize, pct: usize) -> usize {
    n - rank(n, pct)
}

/// Nearest-rank percentile of an ascending-sorted, non-empty slice.
pub fn percentile(sorted: &[f64], pct: usize) -> f64 {
    sorted[rank(sorted.len(), pct) - 1]
}

/// Median, p99 and the sample counts behind them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    /// Samples measured.
    pub samples: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// Nearest-rank 99th percentile.
    pub p99: f64,
    /// Samples strictly beyond `p99`.
    pub beyond_p99: usize,
    /// Arithmetic mean (used for attribution, where parts must add).
    pub mean: f64,
}

/// Summarises `samples` (any order; sorted in place). `None` when the
/// slice is empty.
pub fn latency(samples: &mut [f64]) -> Option<Latency> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    Some(Latency {
        samples: samples.len(),
        p50: percentile(samples, 50),
        p99: percentile(samples, 99),
        beyond_p99: beyond(samples.len(), 99),
        mean: mean(samples),
    })
}

/// Arithmetic mean (0 for an empty slice).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Nearest-rank median (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50)
}

/// Quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let m = d.len() + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let im = (i + 1) * m;
        let j = (im / 4).clamp(1, d.len() - 1);
        let delta = im as f64 - (j * 4) as f64;
        *q = (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0;
    }
    Some(out)
}

/// Inter-quartile distance as a share of the median of the quartiles:
/// the spread by which repeated runs of one benchmark are judged.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// One attributed part of an operation: how many calls of a layer one
/// operation makes, and the mean cost of one call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Part {
    /// Calls per operation (may be fractional: a mean over operations).
    pub calls: f64,
    /// Mean cost of one call, in the operation's time unit.
    pub each: f64,
}

/// Operation time not covered by its attributed parts: `op_mean` minus
/// the sum of `calls * each`. Means add, percentiles do not, so the
/// arithmetic is on means. Negative when the parts over-attribute.
pub fn unattributed(op_mean: f64, parts: &[Part]) -> f64 {
    op_mean - parts.iter().map(|p| p.calls * p.each).sum::<f64>()
}

/// SplitMix64 step: seeds per-op RNG streams from (seed, index) pairs.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The op digest that pins outputs across passes: FNV-1a folded over
/// little-endian 8-byte words (and the zero-padded tail), then mixed with
/// the length. Word-at-a-time keeps hashing a small share of an op.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let word = u64::from_le_bytes(w.try_into().expect("chunks_exact yields 8 bytes"));
        h = (h ^ word).wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    h = (h ^ u64::from_le_bytes(tail)).wrapping_mul(0x0000_0100_0000_01b3);
    splitmix(h ^ bytes.len() as u64)
}

/// Seeded Fisher–Yates permutation of `0..n`.
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    let mut s = seed;
    for i in (1..n).rev() {
        s = splitmix(s);
        v.swap(i, (s % (i as u64 + 1)) as usize);
    }
    v
}
