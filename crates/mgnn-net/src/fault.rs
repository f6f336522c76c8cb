//! Deterministic fault injection for the simulated cluster.
//!
//! A [`FaultProfile`] is the user-facing chaos configuration: a seed
//! plus per-request probabilities for dropping a reply, delaying it by
//! a sim-time factor, or truncating the payload, and an optional crash
//! of one partition's server. From it each partition derives a
//! [`FaultPlan`] whose verdict is a pure function of `(seed, part,
//! key)`, where the key ([`fault_key`]) names the request itself — the
//! pull's request id and the attempt. The crash is a verdict too: it
//! answers one request of one *designated* trainer, its `crash_after`-th
//! to the crashing part since the plan was last rearmed (once a run),
//! and a trainer's requests leave in its own program order. So no RNG
//! state, no wall clock and no arrival order enters a verdict: a chaos
//! run replays bit-for-bit from its seed alone, under any interleaving
//! of trainers, and so does a second run of the same cluster.
//!
//! [`RetryPolicy`] is the client-side counterpart: bounded retries
//! with a deterministic exponential backoff schedule that is charged to
//! the *simulated* clock (see `Prefetcher::prepare_reuse`), so retries
//! surface in `t_prepare` and the Eq. 6 overlap model rather than
//! silently vanishing.

use std::sync::atomic::{AtomicU64, Ordering};

/// What the server does with one incoming pull request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultVerdict {
    /// Serve normally.
    None,
    /// Lose the reply: the server answers at once, unserved, and the
    /// client reads the answer as a timeout.
    Drop,
    /// Serve correctly, but tag the reply as having taken `k` extra
    /// RPC-times on the modeled timeline.
    Delay(u32),
    /// Serve a payload with the last row missing; the client detects
    /// the short byte count.
    Truncate,
    /// Answer, unserved, that the server crashed; the client reads it as
    /// a disconnect and books a respawn. The server keeps serving.
    Crash,
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
    /// Partition whose server answers one request with a crash. That
    /// request is the designated trainer's — the engine's lowest rank not
    /// on this partition; rank 0 on a directly built `SimCluster`.
    pub crash_part: Option<u32>,
    /// Requests (retries included) the designated trainer sends
    /// `crash_part` before the one that meets the crash.
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

    /// A profile [`FaultPlan::verdict`] reads the way it was meant:
    /// three probabilities that share one unit interval, a delay that
    /// delays, and a crash on one of the `num_parts` partitions. The
    /// first problem comes back as a message naming the field.
    pub fn validate(&self, num_parts: usize) -> Result<(), String> {
        let probs = [
            ("fault.drop_prob", self.drop_prob),
            ("fault.delay_prob", self.delay_prob),
            ("fault.truncate_prob", self.truncate_prob),
        ];
        for (name, p) in probs {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} {p} out of [0,1]"));
            }
        }
        let total: f64 = probs.iter().map(|&(_, p)| p).sum();
        if total > 1.0 {
            return Err(format!(
                "fault.drop_prob + fault.delay_prob + fault.truncate_prob = {total} exceeds 1: \
                 a request gets one verdict"
            ));
        }
        if self.delay_prob > 0.0 && self.delay_factor == 0 {
            return Err("fault.delay_factor must be >= 1 when fault.delay_prob > 0".into());
        }
        if let Some(part) = self.crash_part {
            if part as usize >= num_parts {
                return Err(format!(
                    "fault.crash_part {part} is not one of the {num_parts} partitions"
                ));
            }
        }
        Ok(())
    }

    /// Derive the plan for one partition's server; if the profile
    /// crashes `part`, the crash meets trainer `designated`'s requests.
    pub fn plan_for(&self, part: u32, designated: u64) -> FaultPlan {
        FaultPlan {
            seed: self.seed,
            part,
            drop_prob: self.drop_prob,
            delay_prob: self.delay_prob,
            delay_factor: self.delay_factor,
            truncate_prob: self.truncate_prob,
            crash: (self.crash_part == Some(part)).then_some((designated, self.crash_after)),
            sent: AtomicU64::new(0),
        }
    }
}

/// Per-partition fault schedule. Verdicts are a pure function of the
/// request's [`fault_key`], and the crash meets one request of the
/// designated trainer, counted in that trainer's own order from the
/// last [`rearm`](Self::rearm).
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    part: u32,
    drop_prob: f64,
    delay_prob: f64,
    delay_factor: u32,
    truncate_prob: f64,
    /// The designated rank and how many of its requests are served
    /// before one meets the crash; `None` on a part that never crashes.
    crash: Option<(u64, u64)>,
    /// Requests of the designated rank answered since the last rearm.
    /// Only that rank's requests touch it.
    sent: AtomicU64,
}

impl FaultPlan {
    /// What the server answers attempt `attempt` of the pull tagged
    /// `request_id` with: the crash on the designated trainer's request
    /// it falls on, else the [`verdict`](Self::verdict) of its fault key.
    pub fn answer(&self, request_id: u64, attempt: u32) -> FaultVerdict {
        if let Some((rank, after)) = self.crash {
            if rank == mgnn_obs::events::rank_of(request_id)
                && self.sent.fetch_add(1, Ordering::Relaxed) == after
            {
                return FaultVerdict::Crash;
            }
        }
        self.verdict(fault_key(request_id, attempt))
    }

    /// Start the crash countdown again, as a new run must: the
    /// designated trainer's next `crash_after` requests are served and
    /// the one after meets the crash.
    pub fn rearm(&self) {
        self.sent.store(0, Ordering::Relaxed);
    }

    /// The verdict for the request with fault key `key`.
    pub fn verdict(&self, key: u64) -> FaultVerdict {
        let total = self.drop_prob + self.delay_prob + self.truncate_prob;
        if total <= 0.0 {
            return FaultVerdict::None;
        }
        let u = unit_hash(self.seed, self.part, key);
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

/// The fault key of attempt `attempt` (0 for the first round) of the
/// pull tagged `request_id` ([`mgnn_obs::events::request_id`]). An
/// untagged pull (id 0) has one key per attempt, so every untagged pull
/// to a partition meets the same verdict at the same attempt.
pub fn fault_key(request_id: u64, attempt: u32) -> u64 {
    request_id ^ u64::from(attempt).wrapping_mul(0xd6e8_feb8_6659_fd93)
}

/// Hash `(seed, part, key)` to a uniform value in `[0, 1)` via two
/// rounds of splitmix64 finalization.
fn unit_hash(seed: u64, part: u32, key: u64) -> f64 {
    let mut x = seed
        ^ (u64::from(part)).wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ key.wrapping_mul(0xbf58_476d_1ce4_e5b9);
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
    /// Simulated seconds charged for the first backoff.
    pub base_backoff_s: f64,
    /// Multiplier applied per further attempt.
    pub backoff_mult: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_backoff_s: 1e-3,
            backoff_mult: 2.0,
        }
    }
}

impl RetryPolicy {
    /// A backoff that never runs the simulated clock backwards; the first
    /// problem comes back as a message naming the field.
    pub fn validate(&self) -> Result<(), String> {
        for (name, value) in [
            ("retry.base_backoff_s", self.base_backoff_s),
            ("retry.backoff_mult", self.backoff_mult),
        ] {
            if !(value.is_finite() && value >= 0.0) {
                return Err(format!("{name} {value} must be finite and >= 0"));
            }
        }
        Ok(())
    }

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
        let a = chaotic().plan_for(0, 0);
        let b = chaotic().plan_for(0, 0);
        for i in 0..1000 {
            assert_eq!(a.verdict(i), b.verdict(i));
        }
    }

    #[test]
    fn verdicts_differ_across_parts_and_seeds() {
        let p0 = chaotic().plan_for(0, 0);
        let p1 = chaotic().plan_for(3, 0);
        let other = FaultProfile {
            seed: 43,
            ..chaotic()
        }
        .plan_for(0, 0);
        let differs = |x: &FaultPlan, y: &FaultPlan| (0..200).any(|i| x.verdict(i) != y.verdict(i));
        assert!(differs(&p0, &p1), "per-part plans must decorrelate");
        assert!(differs(&p0, &other), "seed must matter");
    }

    /// The keys a run issues: four trainers' prepare pulls, every attempt.
    fn run_keys() -> impl Iterator<Item = u64> {
        use mgnn_obs::events::{request_id, ORIGIN_PREPARE};
        (0..4u64).flat_map(|rank| {
            (0..1250u64).flat_map(move |step| {
                (0..4)
                    .map(move |attempt| fault_key(request_id(ORIGIN_PREPARE, rank, step), attempt))
            })
        })
    }

    #[test]
    fn fault_keys_are_distinct_per_request_and_attempt() {
        let keys: Vec<u64> = run_keys().collect();
        let mut unique = keys.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), keys.len());
        assert_eq!(fault_key(0, 0), 0, "an untagged first round");
        // A retry is not doomed to repeat its first round's verdict.
        let plan = chaotic().plan_for(2, 0);
        let dropped_first: Vec<u64> = (0..2000)
            .filter(|&id| plan.verdict(fault_key(id, 0)) == FaultVerdict::Drop)
            .collect();
        let again = dropped_first
            .iter()
            .filter(|&&id| plan.verdict(fault_key(id, 1)) == FaultVerdict::Drop)
            .count();
        let rate = again as f64 / dropped_first.len() as f64;
        assert!((rate - 0.2).abs() < 0.06, "retry drop rate {rate}");
    }

    #[test]
    fn verdict_mix_tracks_probabilities() {
        let plan = chaotic().plan_for(2, 0);
        let n = 20_000u64;
        let mut drops = 0;
        let mut delays = 0;
        let mut truncs = 0;
        for key in run_keys() {
            match plan.verdict(key) {
                FaultVerdict::Drop => drops += 1,
                FaultVerdict::Delay(k) => {
                    assert_eq!(k, 4);
                    delays += 1;
                }
                FaultVerdict::Truncate => truncs += 1,
                FaultVerdict::None => {}
                FaultVerdict::Crash => panic!("a key is never a crash"),
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
        let plan = p.plan_for(0, 0);
        for i in 0..500 {
            assert_eq!(plan.verdict(i), FaultVerdict::None);
            assert_eq!(plan.answer(i, 0), FaultVerdict::None);
        }
    }

    /// The crash applies to one part and one rank: the designated
    /// trainer's sixth request there (`crash_after` 5, retries counted)
    /// meets it, once. Every other answer is its request's verdict —
    /// another rank's requests in between included.
    #[test]
    fn crash_budget_applies_to_one_part_and_is_spent_by_respawn() {
        use mgnn_obs::events::{request_id, ORIGIN_PREPARE};
        let profile = chaotic();
        let crashing = profile.plan_for(1, 2);
        let healthy = profile.plan_for(0, 2);
        let run = || {
            let mut crashed = Vec::new();
            for step in 0..20 {
                for rank in [3, 2] {
                    for attempt in 0..2 {
                        let id = request_id(ORIGIN_PREPARE, rank, step);
                        let key = fault_key(id, attempt);
                        assert_eq!(healthy.answer(id, attempt), healthy.verdict(key));
                        match crashing.answer(id, attempt) {
                            FaultVerdict::Crash => crashed.push((rank, step, attempt)),
                            got => assert_eq!(got, crashing.verdict(key)),
                        }
                    }
                }
            }
            crashed
        };
        // Two requests a step: rank 2's sixth is step 2's retry.
        assert_eq!(run(), [(2, 2, 1)]);
        assert_eq!(run(), [], "spent until rearmed");
        crashing.rearm();
        assert_eq!(run(), [(2, 2, 1)], "a rearmed plan replays its crash");
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
