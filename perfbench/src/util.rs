//! Small self-contained helpers: seeded randomness, result digests,
//! percentiles and the process's peak resident set.

/// SplitMix64 finalizer over a mixed tuple: an independent, reproducible
/// stream seed for every `(seed, stream, index)` triple.
pub fn mix(seed: u64, stream: u64, index: u64) -> u64 {
    let mut x = seed
        ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ index.wrapping_mul(0x94d0_49bb_1331_11eb);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A SplitMix64 generator for the benchmark's own draws (cell choice,
/// admission stream); the layers under test bring their own RNGs.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0, 0, 0)
    }
}

/// FNV-1a over 64-bit words: the per-op result digest.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn add(&mut self, word: u64) -> &mut Digest {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn add_i64(&mut self, word: i64) -> &mut Digest {
        self.add(word as u64)
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Nearest-rank percentile of an ascending slice; `None` when empty.
pub fn percentile(sorted: &[u64], pct: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of unsorted values (upper median for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Peak resident set (`VmHWM`) of this process in MiB, 0 where the
/// kernel does not report it.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), Some(50));
        assert_eq!(percentile(&v, 95.0), Some(95));
        assert_eq!(percentile(&v, 100.0), Some(100));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn digest_depends_on_every_word() {
        let a = Digest::new().add(1).add(2).finish();
        let b = Digest::new().add(2).add(1).finish();
        assert_ne!(a, b);
    }
}
