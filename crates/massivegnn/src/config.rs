//! Prefetcher configuration — the paper's tunables (Table I).

/// Which `S_A` memory layout to use (§IV-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScoreLayout {
    /// `O(|V|)` array indexed by global node id; `O(1)` updates. The
    /// default for all inputs except papers in the paper's experiments.
    Dense,
    /// `O(|V_p^h|)` scores over the sorted halo list; `O(log |V_p^h|)`
    /// binary-search updates. Used for papers100M.
    MemEfficient,
}

/// Which admission/eviction/pull policy drives the prefetcher (DESIGN
/// §10). Selecting `Scoreboard` reproduces the paper bitwise; the
/// variants only change *which* rows sit in the buffer and *when* they
/// are fetched — never the feature bytes a minibatch trains on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrefetchPolicyKind {
    /// The paper's reactive S_E/S_A scoreboard with Δ-periodic
    /// evict-and-replace (Algorithm 2).
    Scoreboard,
    /// Deterministic lookahead planning: run the seeded sampler over the
    /// memoized epoch plan a window of `depth + 1` steps at a time, and
    /// pull the window's not-yet-resident halo rows in one request
    /// before they are due. Disables the reactive scoreboard passes. The
    /// look-ahead queue is as deep as the window.
    Lookahead {
        /// Planning horizon in minibatch steps (≥ 1; past the end of the
        /// run it plans the whole run).
        depth: usize,
    },
}

impl PrefetchPolicyKind {
    /// Stable CLI/report name.
    pub fn name(&self) -> &'static str {
        match self {
            PrefetchPolicyKind::Scoreboard => "scoreboard",
            PrefetchPolicyKind::Lookahead { .. } => "lookahead",
        }
    }
}

/// All prefetch/eviction parameters (paper Table I, §IV).
#[derive(Debug, Clone, Copy)]
pub struct PrefetchConfig {
    /// `f_p^h`: fraction of the partition's halo nodes to prefetch at
    /// initialization (buffer capacity). Paper sweeps {0.15, 0.25, 0.35,
    /// 0.5} (plus 0.85/0.95 for papers at large scale).
    pub f_h: f64,
    /// `γ`: eviction-score decay per unsampled minibatch. Paper sweeps
    /// {0.95, 0.995, 0.9995}; γ→1 is low decay.
    pub gamma: f64,
    /// `Δ`: eviction interval in minibatch steps. Paper sweeps 16–1024.
    pub delta: usize,
    /// Enable the Δ-periodic evict-and-replace pass ("prefetch with
    /// eviction" vs "prefetch without eviction", §V-A).
    pub eviction: bool,
    /// `S_A` layout.
    pub layout: ScoreLayout,
    /// Admission/eviction/pull policy (DESIGN §10). `Scoreboard` is the
    /// paper-faithful default.
    pub policy: PrefetchPolicyKind,
}

impl Default for PrefetchConfig {
    fn default() -> Self {
        PrefetchConfig {
            f_h: 0.25,
            gamma: 0.995,
            delta: 64,
            eviction: true,
            layout: ScoreLayout::Dense,
            policy: PrefetchPolicyKind::Scoreboard,
        }
    }
}

impl PrefetchConfig {
    /// The Eq. 1 eviction threshold `α = S_E(init) · γ^Δ` with
    /// `S_E(init) = 1`.
    pub fn alpha(&self) -> f64 {
        self.gamma.powi(self.delta as i32)
    }

    /// Validate ranges; returns a description of the first problem.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.f_h) {
            return Err(format!("f_h {} out of [0,1]", self.f_h));
        }
        if !(0.0..=1.0).contains(&self.gamma) {
            return Err(format!("gamma {} out of [0,1]", self.gamma));
        }
        if self.eviction && self.delta == 0 {
            return Err("delta must be >= 1 when eviction is enabled".into());
        }
        // `alpha()` computes γ^Δ with `powi`, whose exponent is an `i32`.
        if i32::try_from(self.delta).is_err() {
            return Err(format!(
                "delta {} exceeds {}: alpha() = gamma^delta takes an i32 exponent",
                self.delta,
                i32::MAX
            ));
        }
        if let PrefetchPolicyKind::Lookahead { depth } = self.policy {
            if depth == 0 {
                return Err("lookahead policy depth must be >= 1".into());
            }
        }
        Ok(())
    }

    /// Disable eviction (the paper's "prefetch without eviction" variant).
    pub fn without_eviction(mut self) -> Self {
        self.eviction = false;
        self
    }

    /// Switch to the deterministic lookahead policy with the given
    /// planning horizon.
    pub fn with_lookahead_policy(mut self, depth: usize) -> Self {
        self.policy = PrefetchPolicyKind::Lookahead { depth };
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alpha_matches_eq1() {
        let c = PrefetchConfig {
            gamma: 0.95,
            delta: 10,
            ..Default::default()
        };
        assert!((c.alpha() - 0.95f64.powi(10)).abs() < 1e-12);
    }

    #[test]
    fn default_is_valid() {
        assert!(PrefetchConfig::default().validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_ranges() {
        let mut c = PrefetchConfig {
            f_h: 1.5,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        c = PrefetchConfig {
            gamma: -0.1,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        c = PrefetchConfig {
            delta: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        c = c.without_eviction();
        assert!(c.validate().is_ok(), "delta=0 fine without eviction");
    }

    #[test]
    fn default_policy_is_scoreboard() {
        let c = PrefetchConfig::default();
        assert_eq!(c.policy, PrefetchPolicyKind::Scoreboard);
        assert_eq!(c.policy.name(), "scoreboard");
    }

    #[test]
    fn lookahead_policy_validates_depth() {
        let c = PrefetchConfig::default().with_lookahead_policy(4);
        assert_eq!(c.policy, PrefetchPolicyKind::Lookahead { depth: 4 });
        assert_eq!(c.policy.name(), "lookahead");
        assert!(c.validate().is_ok());
        let bad = PrefetchConfig::default().with_lookahead_policy(0);
        assert!(bad.validate().is_err());
    }
}
