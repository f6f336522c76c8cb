//! Per-trainer simulated clock.

/// Simulated clock for the two-stage prepare/train pipeline and the
/// bounded queue between them — Eq. 4/5 of the paper, batch by batch.
///
/// Stage 1 (preparation) produces a batch into the queue; stage 2
/// (training) consumes it. The queue holds `window` batches: as many as
/// its producer makes in one go (1 for the paper's per-step scoreboard,
/// a planner's whole window). Preparation of batch `i` may start once the
/// prepare server is free **and** batch `i − window` has been popped for
/// training (a queue slot freed). A window of 0 holds nothing in flight:
/// batch `i` is prepared only once batch `i − 1` has trained, which is the
/// paper's serial baseline (Eq. 2).
///
/// ```text
/// prep_start(i)  = max(prep_done(i−1), train_start(i−window))   window ≥ 1
/// prep_start(i)  = max(prep_done(i−1), train_done(i−1))         window 0
/// prep_done(i)   = prep_start(i) + t_prep(i)
/// train_start(i) = max(train_done(i−1), prep_done(i))
/// train_done(i)  = train_start(i) + t_train(i)
/// ```
#[derive(Debug, Clone)]
pub struct PipelineClock {
    prep_done: f64,
    train_done: f64,
    /// `train_start` of the last `window` batches, batch `i` in slot
    /// `i % window`; `−∞` where no batch has been yet. Empty at window 0.
    train_starts: Vec<f64>,
    /// Batches processed so far.
    batches: usize,
    stall: f64,
    slack: f64,
}

impl PipelineClock {
    /// A pipeline clock starting at time `start` (e.g. after
    /// initialization costs) whose queue holds `window` batches.
    pub fn new(start: f64, window: usize) -> Self {
        PipelineClock {
            prep_done: start,
            train_done: start,
            train_starts: vec![f64::NEG_INFINITY; window],
            batches: 0,
            stall: 0.0,
            slack: 0.0,
        }
    }

    /// Process one batch: it is prepared (respecting server and queue
    /// constraints) and then trained. Returns where on the simulated
    /// timeline its preparation and training landed — the anchors the
    /// tracing layer needs to place spans absolutely.
    pub fn step_timed(&mut self, t_prep: f64, t_train: f64) -> PipelineStepTimes {
        debug_assert!(t_prep >= 0.0 && t_train >= 0.0);
        // Batch `i − window`'s train_start frees the slot this batch's
        // own train_start overwrites below; while the queue has never
        // been full the slot reads −∞ and prep may start immediately.
        // Without a slot, the previous batch must finish training.
        let slot = self.batches.checked_rem(self.train_starts.len());
        let freed = slot.map_or(self.train_done, |s| self.train_starts[s]);
        let prep_start = self.prep_done.max(freed);
        let prep_done = prep_start + t_prep;
        let train_start = self.train_done.max(prep_done);
        // Stall: trainer idle waiting for the batch; slack: batch waited
        // ready in the queue. The pipeline-fill warmup (the first batch,
        // Eq. 4's unavoidable serial preparation) is excluded from the
        // efficiency metric, as in the paper's Fig. 9 which measures
        // steady-state waiting.
        let mut step_stall = 0.0;
        let mut step_slack = 0.0;
        if self.batches > 0 {
            if prep_done > self.train_done {
                step_stall = prep_done - self.train_done;
                self.stall += step_stall;
            } else {
                step_slack = self.train_done - prep_done;
                self.slack += step_slack;
            }
        }
        let train_done = train_start + t_train;
        self.prep_done = prep_done;
        self.train_done = train_done;
        if let Some(s) = slot {
            self.train_starts[s] = train_start;
        }
        self.batches += 1;
        PipelineStepTimes {
            prep_start,
            prep_done,
            train_start,
            train_done,
            stall_s: step_stall,
            slack_s: step_slack,
        }
    }

    /// Simulated completion time of everything processed so far.
    pub fn now(&self) -> f64 {
        self.train_done
    }

    /// Cumulative trainer stall time.
    pub fn stall(&self) -> f64 {
        self.stall
    }

    /// Overlap efficiency of every batch so far (see
    /// [`PipelineStepTimes::overlap_efficiency`]).
    pub fn overlap_efficiency(&self) -> f64 {
        hidden_fraction(self.stall, self.slack)
    }
}

/// Where one [`PipelineClock::step_timed`] batch landed on the simulated
/// timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineStepTimes {
    /// When the batch's preparation started.
    pub prep_start: f64,
    /// When its preparation finished.
    pub prep_done: f64,
    /// When its training started.
    pub train_start: f64,
    /// When its training finished.
    pub train_done: f64,
    /// Trainer stall attributed to this batch (0 during pipeline warmup).
    pub stall_s: f64,
    /// Slack attributed to this batch (0 during warmup).
    pub slack_s: f64,
}

impl PipelineStepTimes {
    /// Overlap efficiency in `[0, 1]`: `slack / (stall + slack)`, the share
    /// of the waiting that the batch did, not the trainer. 1 = the paper's
    /// perfect overlap, 0 = every wait was a stall (a window-0 clock after
    /// warmup); 1 when nobody waited.
    pub fn overlap_efficiency(&self) -> f64 {
        hidden_fraction(self.stall_s, self.slack_s)
    }
}

/// `slack / (stall + slack)`, 1 when both are 0.
fn hidden_fraction(stall: f64, slack: f64) -> f64 {
    let waited = stall + slack;
    if waited == 0.0 {
        1.0
    } else {
        slack / waited
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_advance_accumulates() {
        // Window 0: nothing in flight. Every batch is prepared once the
        // previous one has trained, so the clock is the serial sum.
        let mut p = PipelineClock::new(10.0, 0);
        let mut prev_train_done = 10.0;
        let mut serial = 10.0;
        for i in 0..20 {
            let (prep, train) = (1.0 + (i % 3) as f64, 2.0 - (i % 2) as f64 * 0.5);
            let t = p.step_timed(prep, train);
            assert_eq!(t.prep_start, prev_train_done);
            assert_eq!(t.train_start, t.prep_done);
            if i > 0 {
                // After warmup the trainer waits out every preparation.
                assert!((t.stall_s - prep).abs() < 1e-12);
                assert_eq!(t.slack_s, 0.0);
                assert_eq!(t.overlap_efficiency(), 0.0);
            }
            prev_train_done = t.train_done;
            serial += prep + train;
        }
        assert!((p.now() - serial).abs() < 1e-12 * serial);
        assert_eq!(p.overlap_efficiency(), 0.0);
    }

    #[test]
    fn stall_recorded_when_prepare_dominates() {
        // One deep, prep 5 against train 2: each step after warmup waits
        // 3 for its batch.
        let mut p = PipelineClock::new(0.0, 1);
        for _ in 0..4 {
            p.step_timed(5.0, 2.0);
        }
        assert!((p.now() - (5.0 + 4.0 * 5.0 - 3.0)).abs() < 1e-12);
        assert!((p.stall() - 3.0 * 3.0).abs() < 1e-12);
        assert_eq!(p.overlap_efficiency(), 0.0);
    }

    #[test]
    fn overlap_efficiency_bounds() {
        let run = |window: usize, schedule: &[(f64, f64)]| {
            let mut p = PipelineClock::new(0.0, window);
            for &(prep, train) in schedule {
                p.step_timed(prep, train);
            }
            p.overlap_efficiency()
        };
        // Prep always hidden under training: perfect overlap.
        assert_eq!(run(1, &[(1.0, 2.0); 3]), 1.0);
        // The same batches with nothing in flight: none.
        assert_eq!(run(0, &[(1.0, 2.0); 3]), 0.0);
        // Warmup, then slack 1 (ready at 2, wanted at 3), then stall 1
        // (ready at 6, wanted at 5).
        assert!((run(1, &[(1.0, 2.0), (1.0, 2.0), (3.0, 2.0)]) - 0.5).abs() < 1e-12);
        // Zero-time batches: nobody waited.
        assert_eq!(run(0, &[(0.0, 0.0); 3]), 1.0);
        assert_eq!(run(1, &[]), 1.0);
    }

    #[test]
    fn pipeline_depth1_matches_eq5() {
        // Constant times: steady state should advance by max(prep, train)
        // per step.
        let mut p = PipelineClock::new(0.0, 1);
        for _ in 0..100 {
            p.step_timed(2.0, 3.0);
        }
        // First batch: prep 2 then train 3 = 5; afterwards each step adds
        // max(2,3)=3. The warmup batch is excluded from efficiency.
        assert!((p.now() - (5.0 + 99.0 * 3.0)).abs() < 1e-9);
        assert!((p.overlap_efficiency() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pipeline_never_faster_than_either_stage_sum() {
        let mut p = PipelineClock::new(0.0, 1);
        let mut prep_sum = 0.0;
        let mut train_sum = 0.0;
        for i in 0..50 {
            let a = 1.0 + (i % 3) as f64;
            let b = 2.0 - (i % 2) as f64 * 0.5;
            prep_sum += a;
            train_sum += b;
            p.step_timed(a, b);
        }
        assert!(p.now() + 1e-9 >= prep_sum.max(train_sum));
        assert!(p.now() <= prep_sum + train_sum + 1e-9);
    }

    #[test]
    fn step_timed_reports_timeline_and_per_step_stall() {
        let mut p = PipelineClock::new(10.0, 1);
        let t0 = p.step_timed(2.0, 3.0);
        assert_eq!(t0.prep_start, 10.0);
        assert_eq!(t0.prep_done, 12.0);
        assert_eq!(t0.train_start, 12.0);
        assert_eq!(t0.train_done, 15.0);
        assert_eq!((t0.stall_s, t0.slack_s), (0.0, 0.0), "warmup excluded");
        // Steady state with prep 2 / train 3: prep hidden, slack 1 per step.
        let t1 = p.step_timed(2.0, 3.0);
        assert!((t1.slack_s - 1.0).abs() < 1e-12);
        assert_eq!(t1.stall_s, 0.0);
        assert_eq!(t1.train_start, t0.train_done);
        // A burst stalls the trainer by prep_done − prev train_done.
        let t2 = p.step_timed(10.0, 3.0);
        assert!((t2.stall_s - (t2.prep_done - t1.train_done)).abs() < 1e-12);
        assert!((p.stall() - t2.stall_s).abs() < 1e-12);
        assert!((p.slack - t1.slack_s).abs() < 1e-12);
    }

    /// Makespan of `schedule` through a queue of `window` batches.
    fn makespan(window: usize, schedule: &[(f64, f64)]) -> f64 {
        let mut p = PipelineClock::new(0.0, window);
        for &(prep, train) in schedule {
            p.step_timed(prep, train);
        }
        p.now()
    }

    proptest::proptest! {
        #[test]
        fn deeper_queue_is_never_later_and_stays_in_bounds(
            schedule in proptest::collection::vec((0.0f64..5.0, 0.0f64..5.0), 1..60),
            window in 0usize..8,
        ) {
            let prep: f64 = schedule.iter().map(|s| s.0).sum();
            let train: f64 = schedule.iter().map(|s| s.1).sum();
            let shallow = makespan(window, &schedule);
            let deep = makespan(window + 1, &schedule);
            // Max and plus are monotone, so a looser queue constraint can
            // only move every event earlier — exactly, not within an ε.
            proptest::prop_assert!(deep <= shallow);
            for t in [shallow, deep] {
                proptest::prop_assert!(t >= prep.max(train) * (1.0 - 1e-12));
                proptest::prop_assert!(t <= (prep + train) * (1.0 + 1e-12));
            }
            // Nothing in flight is the serial sum.
            if window == 0 {
                proptest::prop_assert!((shallow - (prep + train)).abs() <= (prep + train) * 1e-12);
            }
        }
    }

    #[test]
    fn window_deep_queue_hides_a_windowed_burst() {
        // The planner's cadence: one bulk pull `burst` on the first step
        // of every `w`-step window, `p` on every step, against constant
        // training — and the prepare side keeps up on average:
        // burst + w·p ≤ w·t_train.
        let (w, burst, p, t_train) = (3usize, 4.0, 0.5, 2.0);
        assert!(burst + w as f64 * p <= w as f64 * t_train);
        let run = |window: usize| {
            let mut clock = PipelineClock::new(0.0, window);
            let mut stall = 0.0;
            for i in 0..20 * w {
                let t_prep = if i % w == 0 { burst + p } else { p };
                let times = clock.step_timed(t_prep, t_train);
                // Warm-up: the first window fills the queue.
                if i >= w {
                    stall += times.stall_s;
                }
            }
            (stall, clock.now())
        };
        let (stall_1, end_1) = run(1);
        let (stall_w, end_w) = run(w);
        // One deep, the burst starts only when the previous batch is
        // popped and outlasts its training every window.
        assert!(stall_1 > 19.0 * (burst + p - t_train) - 1e-9, "{stall_1}");
        // A window deep, it starts while the previous window trains.
        assert_eq!(stall_w, 0.0);
        assert!(end_w < end_1);
    }
}
