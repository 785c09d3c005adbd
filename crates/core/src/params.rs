//! Scheme parameters and the formulas of Section 3.
//!
//! Everything that is "a function of `n` and `k`" in the paper lives here so
//! the rest of the code reads like the paper: sampling probability `n^{-1/k}`,
//! accuracy `ε = 1/(48 k⁴)`, exploration depths `4 n^{i/k} ln n`, the
//! large-scale hop bound `B`, and the hopset trade-off parameter `ρ`.

/// Parameters of the routing-scheme construction.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeParams {
    /// The trade-off parameter `k ≥ 1` (stretch `4k − 5 + o(1)`).
    pub k: usize,
    /// Number of vertices `n` of the input graph.
    pub n: usize,
    /// Random seed from which all sampling randomness is derived.
    pub seed: u64,
}

impl SchemeParams {
    /// Creates the parameter set.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `n == 0` (callers validate and return errors
    /// before reaching this constructor).
    pub fn new(k: usize, n: usize, seed: u64) -> Self {
        assert!(k >= 1, "k must be at least 1");
        assert!(n >= 1, "n must be at least 1");
        SchemeParams { k, n, seed }
    }

    /// The accuracy parameter `ε = 1/(48 k⁴)` of Section 3.1.
    pub fn epsilon(&self) -> f64 {
        1.0 / (48.0 * (self.k as f64).powi(4))
    }

    /// The per-level sampling probability `n^{-1/k}`.
    pub fn sampling_probability(&self) -> f64 {
        (self.n as f64).powf(-1.0 / self.k as f64)
    }

    /// `⌈k/2⌉`, the first "large" scale.
    pub fn half_k(&self) -> usize {
        self.k.div_ceil(2)
    }

    /// The odd-`k` middle level `(k−1)/2`, if `k` is odd and `k ≥ 3`.
    pub fn middle_level(&self) -> Option<usize> {
        if self.k % 2 == 1 && self.k >= 3 {
            Some((self.k - 1) / 2)
        } else {
            None
        }
    }

    /// The exploration depth `4 n^{i/k} ln n` of Claim 3, capped at `n`
    /// (running longer than `n` iterations is never useful).
    pub fn exploration_depth(&self, i: usize) -> usize {
        let nf = self.n as f64;
        let raw = 4.0 * nf.powf(i as f64 / self.k as f64) * nf.ln().max(1.0);
        (raw.ceil() as usize).clamp(1, self.n)
    }

    /// The large-scale hop bound `B = 4 (n / E[|V'|]) ln n` of Section 3.3.1:
    /// `4 n^{1/2} ln n` for even `k` and `4 n^{1/2 + 1/(2k)} ln n` for odd `k`,
    /// capped at `n`.
    pub fn large_scale_hop_bound(&self) -> usize {
        let nf = self.n as f64;
        let exponent = if self.k % 2 == 0 {
            0.5
        } else {
            0.5 + 1.0 / (2.0 * self.k as f64)
        };
        let raw = 4.0 * nf.powf(exponent) * nf.ln().max(1.0);
        (raw.ceil() as usize).clamp(1, self.n)
    }

    /// The hopset trade-off parameter
    /// `ρ = max(1/k, log log n / √(log n))` of Section 3.3.1, clamped to the
    /// `(0, 1/2]` range the hopset construction accepts.
    pub fn hopset_rho(&self) -> f64 {
        let log_n = (self.n.max(4) as f64).log2();
        let candidate = (1.0 / self.k as f64).max(log_n.log2() / log_n.sqrt());
        candidate.clamp(0.05, 0.5)
    }

    /// The expected routing-table size bound `4 n^{1/k} ln n` of Claim 2
    /// (number of clusters containing a fixed vertex, w.h.p.).
    pub fn overlap_bound(&self) -> usize {
        let nf = self.n as f64;
        (4.0 * nf.powf(1.0 / self.k as f64) * nf.ln().max(1.0)).ceil() as usize
    }

    /// The paper's stretch bound `4k − 5 + o(1)` (reported as a float with the
    /// explicit `o(1)` term evaluated from the analysis of Section 4, using
    /// the slack `(1 + 5ε)(4 + 26ε)/(4k²)` rounded up generously).
    pub fn stretch_bound(&self) -> f64 {
        let k = self.k as f64;
        let eps = self.epsilon();
        let base = if self.k == 1 { 1.0 } else { 4.0 * k - 5.0 };
        // The o(1) term from the analysis in Section 4 (inequality chain ending
        // at (4k - 3 + o(1)) before the last-trick improvement); a conservative
        // closed form keeps the bound sound for every k ≥ 1.
        let slack = (1.0 + 5.0 * eps) * (4.0 + 26.0 * eps) * (1.0 / (4.0 * k * k)) + 30.0 * eps * k;
        base + slack
    }

    /// The distance-estimation stretch bound `2k − 1 + o(1)` of Theorem 6.
    pub fn sketch_stretch_bound(&self) -> f64 {
        let k = self.k as f64;
        let eps = self.epsilon();
        2.0 * k - 1.0 + 30.0 * eps * k
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epsilon_formula() {
        let p = SchemeParams::new(2, 100, 0);
        assert!((p.epsilon() - 1.0 / (48.0 * 16.0)).abs() < 1e-12);
        let p = SchemeParams::new(4, 100, 0);
        assert!(p.epsilon() < 1e-3);
    }

    #[test]
    fn half_k_and_middle_level() {
        assert_eq!(SchemeParams::new(4, 10, 0).half_k(), 2);
        assert_eq!(SchemeParams::new(5, 10, 0).half_k(), 3);
        assert_eq!(SchemeParams::new(4, 10, 0).middle_level(), None);
        assert_eq!(SchemeParams::new(5, 10, 0).middle_level(), Some(2));
        assert_eq!(SchemeParams::new(1, 10, 0).middle_level(), None);
        assert_eq!(SchemeParams::new(3, 10, 0).middle_level(), Some(1));
    }

    #[test]
    fn exploration_depth_grows_with_level_and_caps_at_n() {
        let p = SchemeParams::new(4, 4096, 0);
        assert!(p.exploration_depth(1) < p.exploration_depth(2));
        assert!(p.exploration_depth(3) <= 4096);
        let tiny = SchemeParams::new(4, 10, 0);
        assert!(tiny.exploration_depth(3) <= 10);
    }

    #[test]
    fn hop_bound_larger_for_odd_k() {
        let even = SchemeParams::new(4, 4096, 0);
        let odd = SchemeParams::new(5, 4096, 0);
        assert!(odd.large_scale_hop_bound() >= even.large_scale_hop_bound());
    }

    #[test]
    fn sampling_probability_and_overlap() {
        let p = SchemeParams::new(2, 10_000, 0);
        assert!((p.sampling_probability() - 0.01).abs() < 1e-9);
        assert!(p.overlap_bound() > 100);
    }

    #[test]
    fn stretch_bounds_close_to_headline_values() {
        let p = SchemeParams::new(3, 1000, 0);
        assert!(p.stretch_bound() >= 7.0);
        assert!(p.stretch_bound() < 7.5);
        assert!(p.sketch_stretch_bound() >= 5.0);
        assert!(p.sketch_stretch_bound() < 5.5);
        let p1 = SchemeParams::new(1, 1000, 0);
        assert!(p1.stretch_bound() >= 1.0);
    }

    #[test]
    fn rho_in_valid_range() {
        for k in 1..=8 {
            for &n in &[16usize, 256, 4096, 1 << 20] {
                let p = SchemeParams::new(k, n, 0);
                let rho = p.hopset_rho();
                assert!(rho > 0.0 && rho <= 0.5, "k={k} n={n} rho={rho}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "k must be at least 1")]
    fn zero_k_panics() {
        let _ = SchemeParams::new(0, 10, 0);
    }
}
