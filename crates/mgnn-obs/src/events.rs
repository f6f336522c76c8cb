//! Request-correlated trace events.
//!
//! Every remote pull carries a deterministic request id ([`request_id`]):
//! a pure function of *where* the pull originates (prepare loop, baseline
//! prepare, lookahead planner, or prefetcher init), *which* trainer
//! issues it, and the training step — never a shared counter, so ids are
//! identical across the sequential and threaded engines and across pool
//! widths. The cluster and prefetcher emit [`TraceEvent`]s keyed by that
//! id as a pull walks the fault ladder (delay → timeout/truncation/
//! disconnect → retry → respawn → stale/zero-fill), which makes every
//! degraded input row attributable to the exact fault verdict that
//! caused it.
//!
//! The log is a process-global buffer with the same lifecycle as
//! [`crate::sink`]: install before a run, drain after, one atomic load
//! per emission site when disabled. [`to_jsonl`] renders a drained batch
//! as sorted JSON-lines; the sort is deterministic even though threaded
//! trainers interleave their pushes arbitrarily.

use crate::collector::Collector;

/// Request originated in the prefetcher's steady-state prepare loop.
pub const ORIGIN_PREPARE: u8 = 0;
/// Request originated in a baseline (no-prefetch) inline prepare.
pub const ORIGIN_BASELINE: u8 = 1;
/// Request originated in the lookahead planner (off the critical path).
pub const ORIGIN_PLANNED: u8 = 2;
/// Request originated in prefetcher buffer initialization.
pub const ORIGIN_INIT: u8 = 3;

/// Deterministic request id for a pull: `origin` (+1, so ids are never
/// 0 — 0 means "untagged"), trainer rank, and step packed into one u64.
/// 16 bits of rank and 40 bits of step leave both far beyond any
/// realistic run before wrapping.
pub fn request_id(origin: u8, rank: u64, step: u64) -> u64 {
    ((origin as u64 + 1) << 56) | ((rank & 0xFFFF) << 40) | (step & 0xFF_FFFF_FFFF)
}

/// The trainer rank a [`request_id`] was made for; 0 for an untagged pull.
pub fn rank_of(request_id: u64) -> u64 {
    (request_id >> 40) & 0xFFFF
}

/// One event in a request's fault/degradation history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// The pull this event belongs to ([`request_id`]; never 0).
    pub request_id: u64,
    /// What happened: `"delay"`, `"timeout"`, `"truncated"`,
    /// `"disconnect"`, `"rejected"`, `"retry"`, `"respawn"`,
    /// `"zero_fill"` (cluster),
    /// `"stale_rows"`, `"degraded_rows"` (prefetcher).
    pub kind: &'static str,
    /// Partition/server the event concerns.
    pub part: u32,
    /// Retry attempt (0 for first-round events).
    pub attempt: u32,
    /// Kind-specific magnitude (delay steps, rows zero-filled, ...).
    pub value: u64,
}

static LOG: Collector<TraceEvent> = Collector::new();

/// Install the global event log; subsequent emissions land here.
pub fn install() {
    LOG.install()
}

/// Disable the log and return anything still buffered.
pub fn uninstall() -> Vec<TraceEvent> {
    LOG.uninstall()
}

/// Whether the log is installed (one atomic load).
pub fn enabled() -> bool {
    LOG.enabled()
}

/// Record an event if the log is installed; a no-op otherwise.
pub fn push(event: TraceEvent) {
    LOG.push(event)
}

/// Take all buffered events, leaving the log installed.
pub fn drain() -> Vec<TraceEvent> {
    LOG.drain()
}

/// Canonical order: by request id, then ladder position approximated by
/// (attempt, kind, part, value). Threaded trainers push in arbitrary
/// interleavings; sorting makes the exported log reproducible.
pub fn sort_events(events: &mut [TraceEvent]) {
    events.sort_by(|a, b| {
        (a.request_id, a.attempt, a.kind, a.part, a.value).cmp(&(
            b.request_id,
            b.attempt,
            b.kind,
            b.part,
            b.value,
        ))
    });
}

/// Render events as JSON-lines in canonical order. Fields are plain
/// integers and fixed strings, so no escaping is needed.
pub fn to_jsonl(events: &[TraceEvent]) -> String {
    let mut sorted = events.to_vec();
    sort_events(&mut sorted);
    let mut out = String::with_capacity(sorted.len() * 96);
    for e in &sorted {
        out.push_str(&format!(
            "{{\"request_id\":{},\"kind\":\"{}\",\"part\":{},\"attempt\":{},\"value\":{}}}\n",
            e.request_id, e.kind, e.part, e.attempt, e.value
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // Single lifecycle test: the log is process-global (see sink.rs for
    // the same pattern and rationale).
    #[test]
    fn lifecycle_and_jsonl() {
        assert!(!enabled());
        push(TraceEvent {
            request_id: 1,
            kind: "timeout",
            part: 0,
            attempt: 0,
            value: 0,
        });
        install();
        assert!(enabled());
        assert!(drain().is_empty(), "push before install must not land");
        push(TraceEvent {
            request_id: request_id(ORIGIN_PREPARE, 1, 7),
            kind: "retry",
            part: 2,
            attempt: 1,
            value: 0,
        });
        push(TraceEvent {
            request_id: request_id(ORIGIN_PREPARE, 0, 7),
            kind: "timeout",
            part: 2,
            attempt: 0,
            value: 0,
        });
        let got = uninstall();
        assert!(!enabled());
        assert_eq!(got.len(), 2);

        let jsonl = to_jsonl(&got);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        // Sorted by request id: rank 0 before rank 1.
        assert!(lines[0].contains("\"kind\":\"timeout\""));
        assert!(lines[1].contains("\"kind\":\"retry\""));
        for line in lines {
            assert!(line.starts_with("{\"request_id\":"));
            assert!(line.ends_with('}'));
        }
    }

    #[test]
    fn request_ids_are_deterministic_nonzero_and_distinct() {
        let a = request_id(ORIGIN_PREPARE, 0, 0);
        assert_ne!(a, 0, "id 0 is reserved for untagged pulls");
        assert_eq!(a, request_id(ORIGIN_PREPARE, 0, 0), "pure function");
        // Distinct along each axis.
        assert_ne!(a, request_id(ORIGIN_BASELINE, 0, 0));
        assert_ne!(a, request_id(ORIGIN_PLANNED, 0, 0));
        assert_ne!(a, request_id(ORIGIN_INIT, 0, 0));
        assert_ne!(a, request_id(ORIGIN_PREPARE, 1, 0));
        assert_ne!(a, request_id(ORIGIN_PREPARE, 0, 1));
        // Rank and step land in disjoint bit ranges.
        let b = request_id(ORIGIN_PREPARE, 3, 12345);
        assert_eq!((b >> 56) & 0xFF, ORIGIN_PREPARE as u64 + 1);
        assert_eq!((b >> 40) & 0xFFFF, 3);
        assert_eq!(b & 0xFF_FFFF_FFFF, 12345);
        assert_eq!(rank_of(b), 3);
        assert_eq!(rank_of(request_id(ORIGIN_INIT, 0xFFFF, u64::MAX)), 0xFFFF);
        assert_eq!(rank_of(0), 0, "an untagged pull reads as rank 0");
    }
}
