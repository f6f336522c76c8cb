//! Deterministic fault injection for the simulated cluster.
//!
//! A [`FaultProfile`] is the user-facing chaos configuration: a seed
//! plus per-request probabilities for dropping a reply, delaying it by
//! a sim-time factor, or truncating the payload, and an optional
//! crash-after-N-requests budget for one partition. From it each
//! server derives a [`FaultPlan`] whose per-request verdict is a pure
//! function of `(seed, part, request_index)` — no RNG state, no wall
//! clock — so a chaos run replays bit-for-bit from its seed alone, and
//! the verdict for request *i* is independent of how many other
//! requests interleaved before it.
//!
//! [`RetryPolicy`] is the client-side counterpart: bounded retries
//! with a wall-clock wait per attempt and a deterministic exponential
//! backoff schedule that is charged to the *simulated* clock (see
//! `Prefetcher::prepare_reuse`), so retries surface in `t_prepare` and the
//! Eq. 6 overlap model rather than silently vanishing.

use std::time::Duration;

/// What the server does with one incoming pull request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultVerdict {
    /// Serve normally.
    None,
    /// Swallow the request: never send a reply. The client observes a
    /// timeout.
    Drop,
    /// Serve correctly, but tag the reply as having taken `k` extra
    /// RPC-times on the modeled timeline.
    Delay(u32),
    /// Serve a payload with the last row missing; the client detects
    /// the short byte count.
    Truncate,
}

/// Seeded chaos configuration for a whole cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultProfile {
    /// Root seed; every per-server [`FaultPlan`] derives from it.
    pub seed: u64,
    /// Probability a request's reply is dropped (client times out).
    pub drop_prob: f64,
    /// Probability a reply is delayed on the modeled timeline.
    pub delay_prob: f64,
    /// Sim-time delay factor `k` applied when a delay fires.
    pub delay_factor: u32,
    /// Probability a reply is served truncated.
    pub truncate_prob: f64,
    /// Partition whose server crashes (thread exits) once.
    pub crash_part: Option<u32>,
    /// Requests the crashing server completes before dying.
    pub crash_after: u64,
}

impl FaultProfile {
    /// A profile that injects nothing. Running with `off` must be
    /// bitwise-identical to running with no profile at all — the
    /// identity tests pin this.
    pub fn off(seed: u64) -> Self {
        FaultProfile {
            seed,
            drop_prob: 0.0,
            delay_prob: 0.0,
            delay_factor: 0,
            truncate_prob: 0.0,
            crash_part: None,
            crash_after: 0,
        }
    }

    /// Mild chaos: occasional delays and rare drops, no crash.
    pub fn light(seed: u64) -> Self {
        FaultProfile {
            seed,
            drop_prob: 0.02,
            delay_prob: 0.10,
            delay_factor: 3,
            truncate_prob: 0.01,
            crash_part: None,
            crash_after: 0,
        }
    }

    /// Heavy chaos: frequent drops/delays/truncations plus one server
    /// crash early in the run.
    pub fn heavy(seed: u64) -> Self {
        FaultProfile {
            seed,
            drop_prob: 0.10,
            delay_prob: 0.20,
            delay_factor: 5,
            truncate_prob: 0.05,
            crash_part: Some(0),
            crash_after: 8,
        }
    }

    /// Look up a named profile for CLI use (`--fault-profile`).
    pub fn named(name: &str, seed: u64) -> Option<Self> {
        match name {
            "off" => Some(Self::off(seed)),
            "light" => Some(Self::light(seed)),
            "heavy" => Some(Self::heavy(seed)),
            _ => None,
        }
    }

    /// The CLI-recognized profile names.
    pub const NAMES: [&'static str; 3] = ["off", "light", "heavy"];

    /// Derive the plan for one partition's server.
    pub fn plan_for(&self, part: u32) -> FaultPlan {
        FaultPlan {
            seed: self.seed,
            part,
            drop_prob: self.drop_prob,
            delay_prob: self.delay_prob,
            delay_factor: self.delay_factor,
            truncate_prob: self.truncate_prob,
            crash_after: match self.crash_part {
                Some(p) if p == part => Some(self.crash_after),
                _ => None,
            },
        }
    }
}

/// Per-server fault schedule. Verdicts are a pure function of the
/// request index, so they are stable under any client interleaving.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    part: u32,
    drop_prob: f64,
    delay_prob: f64,
    delay_factor: u32,
    truncate_prob: f64,
    crash_after: Option<u64>,
}

impl FaultPlan {
    /// The same plan with the crash budget spent — what a respawned
    /// server runs with, so a partition crashes at most once.
    pub fn without_crash(mut self) -> Self {
        self.crash_after = None;
        self
    }

    /// Whether the server should exit instead of serving request
    /// `request_index`.
    pub fn crash_before(&self, request_index: u64) -> bool {
        matches!(self.crash_after, Some(n) if request_index >= n)
    }

    /// The verdict for request `request_index`.
    pub fn verdict(&self, request_index: u64) -> FaultVerdict {
        let total = self.drop_prob + self.delay_prob + self.truncate_prob;
        if total <= 0.0 {
            return FaultVerdict::None;
        }
        let u = unit_hash(self.seed, self.part, request_index);
        if u < self.drop_prob {
            FaultVerdict::Drop
        } else if u < self.drop_prob + self.delay_prob {
            FaultVerdict::Delay(self.delay_factor)
        } else if u < total {
            FaultVerdict::Truncate
        } else {
            FaultVerdict::None
        }
    }
}

/// Hash `(seed, part, index)` to a uniform value in `[0, 1)` via two
/// rounds of splitmix64 finalization.
fn unit_hash(seed: u64, part: u32, index: u64) -> f64 {
    let mut x = seed
        ^ (u64::from(part)).wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ index.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    // Top 53 bits → exactly representable fraction in [0, 1).
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Client-side retry/backoff policy for failed pulls.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Retries after the first failed attempt; 0 disables retrying.
    pub max_retries: u32,
    /// Wall-clock wait per attempt before declaring a timeout. Only
    /// applied when a fault profile is active — the fault-free path
    /// blocks indefinitely exactly as before.
    pub timeout: Duration,
    /// Simulated seconds charged for the first backoff.
    pub base_backoff_s: f64,
    /// Multiplier applied per further attempt.
    pub backoff_mult: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            timeout: Duration::from_millis(250),
            base_backoff_s: 1e-3,
            backoff_mult: 2.0,
        }
    }
}

impl RetryPolicy {
    /// Simulated backoff charged before retry attempt `attempt`
    /// (1-based): `base × mult^(attempt−1)`. Deterministic — no
    /// jitter — so chaos runs replay exactly.
    pub fn backoff_s(&self, attempt: u32) -> f64 {
        self.base_backoff_s * self.backoff_mult.powi(attempt.saturating_sub(1) as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chaotic() -> FaultProfile {
        FaultProfile {
            seed: 42,
            drop_prob: 0.2,
            delay_prob: 0.3,
            delay_factor: 4,
            truncate_prob: 0.1,
            crash_part: Some(1),
            crash_after: 5,
        }
    }

    #[test]
    fn verdicts_are_reproducible() {
        let a = chaotic().plan_for(0);
        let b = chaotic().plan_for(0);
        for i in 0..1000 {
            assert_eq!(a.verdict(i), b.verdict(i));
        }
    }

    #[test]
    fn verdicts_differ_across_parts_and_seeds() {
        let p0 = chaotic().plan_for(0);
        let p1 = chaotic().plan_for(3);
        let other = FaultProfile {
            seed: 43,
            ..chaotic()
        }
        .plan_for(0);
        let differs = |x: &FaultPlan, y: &FaultPlan| (0..200).any(|i| x.verdict(i) != y.verdict(i));
        assert!(differs(&p0, &p1), "per-part plans must decorrelate");
        assert!(differs(&p0, &other), "seed must matter");
    }

    #[test]
    fn verdict_mix_tracks_probabilities() {
        let plan = chaotic().plan_for(2);
        let n = 20_000u64;
        let mut drops = 0;
        let mut delays = 0;
        let mut truncs = 0;
        for i in 0..n {
            match plan.verdict(i) {
                FaultVerdict::Drop => drops += 1,
                FaultVerdict::Delay(k) => {
                    assert_eq!(k, 4);
                    delays += 1;
                }
                FaultVerdict::Truncate => truncs += 1,
                FaultVerdict::None => {}
            }
        }
        let frac = |c: u64| c as f64 / n as f64;
        assert!(
            (frac(drops) - 0.2).abs() < 0.02,
            "drop rate {}",
            frac(drops)
        );
        assert!(
            (frac(delays) - 0.3).abs() < 0.02,
            "delay rate {}",
            frac(delays)
        );
        assert!(
            (frac(truncs) - 0.1).abs() < 0.02,
            "truncate rate {}",
            frac(truncs)
        );
    }

    #[test]
    fn off_profile_is_faultless_and_silent() {
        let p = FaultProfile::off(7);
        let plan = p.plan_for(0);
        assert!(!plan.crash_before(u64::MAX - 1));
        for i in 0..500 {
            assert_eq!(plan.verdict(i), FaultVerdict::None);
        }
    }

    #[test]
    fn crash_budget_applies_to_one_part_and_is_spent_by_respawn() {
        let profile = chaotic();
        let crashing = profile.plan_for(1);
        let healthy = profile.plan_for(0);
        assert!(!crashing.crash_before(4));
        assert!(crashing.crash_before(5));
        assert!(crashing.crash_before(6));
        assert!(!healthy.crash_before(u64::MAX - 1));
        let respawned = crashing.clone().without_crash();
        assert!(!respawned.crash_before(u64::MAX - 1));
        // Verdicts are unchanged by the respawn.
        for i in 0..200 {
            assert_eq!(crashing.verdict(i), respawned.verdict(i));
        }
    }

    #[test]
    fn backoff_grows_geometrically() {
        let r = RetryPolicy {
            base_backoff_s: 0.5,
            backoff_mult: 3.0,
            ..RetryPolicy::default()
        };
        assert!((r.backoff_s(1) - 0.5).abs() < 1e-12);
        assert!((r.backoff_s(2) - 1.5).abs() < 1e-12);
        assert!((r.backoff_s(3) - 4.5).abs() < 1e-12);
    }

    #[test]
    fn named_profiles_resolve() {
        for name in FaultProfile::NAMES {
            assert!(FaultProfile::named(name, 1).is_some(), "{name}");
        }
        assert!(FaultProfile::named("bogus", 1).is_none());
        assert_eq!(FaultProfile::named("off", 1), Some(FaultProfile::off(1)));
        assert_eq!(
            FaultProfile::named("heavy", 1),
            Some(FaultProfile::heavy(1))
        );
    }
}
