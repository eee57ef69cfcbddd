//! Order statistics for timings.
//!
//! A timing is reported as its median and the highest percentile that
//! still has at least [`MIN_TAIL`] samples beyond it, so that a tail
//! figure never rests on one or two outliers.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_TAIL: usize = 10;

/// Sorted copy of `xs` (NaN-free input expected; NaNs sort last).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Linear-interpolation quantile of sorted data (`q` in `[0, 1]`).
fn quantile_sorted(v: &[f64], q: f64) -> f64 {
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `xs`; `None` for no samples.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    Some(quantile_sorted(&sorted(xs), 0.5))
}

/// Samples strictly beyond the `q`-quantile's position among `n`
/// sorted samples (`q·(n − 1)`, zero-based).
fn beyond(n: usize, q: f64) -> usize {
    (n - 1) - (q * (n - 1) as f64).floor() as usize
}

/// The `q`-quantile of `xs`, or `None` when fewer than [`MIN_TAIL`]
/// samples lie beyond it (so a p90 needs about 100 samples).
pub fn percentile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() || beyond(xs.len(), q) < MIN_TAIL {
        return None;
    }
    Some(quantile_sorted(&sorted(xs), q))
}

/// Median plus the tail percentile the sample count allows, with the
/// count — how every repeated timing is printed.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p90: Option<f64>,
}

impl Summary {
    pub fn of(xs: &[f64]) -> Option<Summary> {
        Some(Summary {
            n: xs.len(),
            p50: median(xs)?,
            p90: percentile(xs, 0.9),
        })
    }

    /// `"p50 1.234 ms, p90 2.345 ms (n=120)"`, with the p90 omitted
    /// when the sample is too small to carry it.
    pub fn describe(&self, scale: f64, unit: &str) -> String {
        let tail = match self.p90 {
            Some(p) => format!(", p90 {:.4} {unit}", p * scale),
            None => String::new(),
        };
        format!("p50 {:.4} {unit}{tail} (n={})", self.p50 * scale, self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_refuses_thin_tails() {
        let ramp = |n: usize| (0..n).map(|i| i as f64).collect::<Vec<f64>>();
        // 90 samples leave 9 beyond the p90 position; 100 leave 10.
        assert_eq!(percentile(&ramp(90), 0.9), None);
        assert_eq!(percentile(&ramp(1), 0.5), None);
        let p = percentile(&ramp(100), 0.9).expect("100 samples carry a p90");
        assert_eq!(ramp(100).iter().filter(|&&x| x > p).count(), 10);
    }

    #[test]
    fn no_reported_percentile_has_fewer_than_ten_beyond() {
        for n in 1..400 {
            // A scrambled sample with ties.
            let xs: Vec<f64> = (0..n).map(|i| ((i * 37) % 101) as f64).collect();
            for q in [0.5, 0.75, 0.9, 0.95, 0.99] {
                let got = percentile(&xs, q);
                let mut v = xs.clone();
                v.sort_by(f64::total_cmp);
                let pos = q * (n - 1) as f64;
                let tail = v.len() - 1 - pos.floor() as usize;
                assert_eq!(got.is_some(), tail >= MIN_TAIL, "n={n} q={q}");
                if let Some(p) = got {
                    // Every sample ranked beyond the position is >= p.
                    assert!(v[v.len() - tail..].iter().all(|&x| x >= p));
                }
            }
        }
    }
}
