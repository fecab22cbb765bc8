//! Small numeric and process helpers: order statistics, peak memory, registry parsing.

/// The `q`-quantile (0..=1) of `values` with linear interpolation between the closest
/// ranks; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let low = pos.floor() as usize;
    let high = pos.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (pos - low as f64)
}

/// The median of `values`; 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The median over consecutive blocks of `block` samples (in arrival order) of each
/// block's `q`-quantile: a tail percentile that one host stall cannot move on its own.
/// With less than one full block, the plain quantile of every sample.
pub fn blocked_quantile(values: &[f64], block: usize, q: f64) -> f64 {
    let per_block: Vec<f64> = values
        .chunks_exact(block)
        .map(|chunk| quantile(chunk, q))
        .collect();
    if per_block.is_empty() {
        quantile(values, q)
    } else {
        median(&per_block)
    }
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where `/proc` is absent.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Sum over every series of the metric `name` in a Prometheus text exposition (all label
/// sets; `name` must be the full series name, e.g. `mess_exec_job_wait_seconds_sum`).
pub fn prom_sum(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|line| !line.starts_with('#'))
        .filter_map(|line| {
            let rest = line.strip_prefix(name)?;
            let value = match rest.as_bytes().first()? {
                b' ' => rest,
                b'{' => &rest[rest.find('}')? + 1..],
                _ => return None,
            };
            value.trim().parse::<f64>().ok()
        })
        .sum()
}

/// A snapshot of the global `mess-obs` registry, for before/after deltas.
pub struct Registry(String);

impl Registry {
    /// Renders the process-global registry now.
    pub fn snapshot() -> Registry {
        Registry(mess_obs::Registry::global().render_prometheus())
    }

    /// `self - earlier` for the series sum of `name`.
    pub fn delta(&self, earlier: &Registry, name: &str) -> f64 {
        prom_sum(&self.0, name) - prom_sum(&earlier.0, name)
    }
}

/// SplitMix64: the benchmark's seeded generator for derived workload seeds.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for stream `stream` of `seed`.
    pub fn new(seed: u64, stream: u64) -> SplitMix {
        SplitMix(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn blocked_quantiles_take_the_median_block() {
        let mut v: Vec<f64> = (0..300).map(|i| (i % 100) as f64).collect();
        v[50] = 1e6; // one stall in the first block
        assert_eq!(blocked_quantile(&v, 100, 1.0), 99.0);
        assert_eq!(blocked_quantile(&v[..10], 100, 1.0), 9.0);
    }

    #[test]
    fn prometheus_sums_cover_every_label_set() {
        let text = "# HELP a_total x\n# TYPE a_total counter\na_total{backend=\"x\"} 3\n\
                    a_total{backend=\"y\"} 4\na_total_other 9\nb_sum 1.5\n";
        assert_eq!(prom_sum(text, "a_total"), 7.0);
        assert_eq!(prom_sum(text, "b_sum"), 1.5);
        assert_eq!(prom_sum(text, "missing"), 0.0);
    }

    #[test]
    fn splitmix_streams_are_reproducible_and_distinct() {
        let mut a = SplitMix::new(1, 0);
        let mut b = SplitMix::new(1, 0);
        let mut c = SplitMix::new(1, 1);
        let x = a.next_u64();
        assert_eq!(x, b.next_u64());
        assert_ne!(x, c.next_u64());
    }
}
