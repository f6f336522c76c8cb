//! Exporter: Chrome/Perfetto `trace.json`.
//!
//! The Perfetto export emits the Chrome trace-event format (the
//! `{"traceEvents": [...]}` envelope of complete `"X"` events plus `"M"`
//! metadata naming processes and threads), which both
//! <https://ui.perfetto.dev> and `chrome://tracing` open directly. Each
//! trainer becomes one *process* with one *thread* per [`Lane`] it
//! recorded on. Timestamps are the simulated timeline in microseconds,
//! resolved through each trace's per-step anchors; spans whose step has
//! no anchor (a batch prepared ahead but never consumed) are dropped.

use crate::span::{Lane, SpanEvent, TrainerTrace};
use serde::Value;

/// Microseconds per second (trace-event timestamps are µs).
const US: f64 = 1.0e6;

/// Display label of a lane's Perfetto track. The out-of-band lanes
/// (fault injection, lookahead planning) carry spans only on the steps
/// where something fired, so they are labeled explicitly — an unlabeled
/// sparse track reads as mysterious gaps in the main timeline.
pub fn track_label(lane: Lane) -> &'static str {
    match lane {
        Lane::Fault => "fault injection (out-of-band)",
        Lane::Lookahead => "lookahead planner (out-of-band)",
        _ => lane.name(),
    }
}

fn event_row(trace: &TrainerTrace, ev: &SpanEvent, start_s: f64) -> Value {
    let args = if ev.corr != 0 {
        Value::obj([
            ("step", Value::U64(ev.step)),
            ("request_id", Value::U64(ev.corr)),
        ])
    } else {
        Value::obj([("step", Value::U64(ev.step))])
    };
    Value::obj([
        ("name", Value::Str(ev.phase.name().into())),
        ("ph", Value::Str("X".into())),
        ("pid", Value::U64(trace.trainer as u64)),
        ("tid", Value::U64(ev.phase.lane().tid() as u64)),
        ("ts", Value::F64(start_s * US)),
        ("dur", Value::F64(ev.dur_s * US)),
        ("cat", Value::Str(ev.phase.lane().name().into())),
        ("args", args),
    ])
}

/// One flow-event row (`ph` ∈ {"s", "t", "f"}) at `start_s`, tying the
/// spans that share a request id into a visible arrow chain.
fn flow_row(ph: &str, corr: u64, trace: &TrainerTrace, ev: &SpanEvent, start_s: f64) -> Value {
    let mut fields = vec![
        ("name".to_string(), Value::Str("request".into())),
        ("cat".to_string(), Value::Str("request".into())),
        ("ph".to_string(), Value::Str(ph.into())),
        ("id".to_string(), Value::U64(corr)),
        ("pid".to_string(), Value::U64(trace.trainer as u64)),
        ("tid".to_string(), Value::U64(ev.phase.lane().tid() as u64)),
        ("ts".to_string(), Value::F64(start_s * US)),
    ];
    if ph == "f" {
        // Bind the finish to the enclosing slice's end.
        fields.push(("bp".to_string(), Value::Str("e".into())));
    }
    Value::Obj(fields)
}

fn metadata_row(name: &str, pid: u64, tid: Option<u64>, label: &str) -> Value {
    let mut fields = vec![
        ("name".to_string(), Value::Str(name.into())),
        ("ph".to_string(), Value::Str("M".into())),
        ("pid".to_string(), Value::U64(pid)),
    ];
    if let Some(tid) = tid {
        fields.push(("tid".to_string(), Value::U64(tid)));
    }
    fields.push((
        "args".to_string(),
        Value::obj([("name", Value::Str(label.into()))]),
    ));
    Value::Obj(fields)
}

/// Lower a set of trainer traces to a Chrome/Perfetto trace-event tree.
pub fn perfetto_trace(traces: &[TrainerTrace]) -> Value {
    let mut rows: Vec<Value> = Vec::new();
    for trace in traces {
        let pid = trace.trainer as u64;
        rows.push(metadata_row(
            "process_name",
            pid,
            None,
            &format!("trainer {} (part {})", trace.trainer, trace.part_id),
        ));
        // Name only the lanes that actually carry events.
        let mut lanes: Vec<_> = trace.events.iter().map(|e| e.phase.lane()).collect();
        lanes.sort_by_key(|l| l.tid());
        lanes.dedup();
        for lane in lanes {
            rows.push(metadata_row(
                "thread_name",
                pid,
                Some(lane.tid() as u64),
                track_label(lane),
            ));
        }
        // Resolve each span onto the absolute timeline, then sort for a
        // deterministic file (ring order interleaves the two writers).
        let mut resolved: Vec<(u64, u32, f64, u64, SpanEvent)> = trace
            .events
            .iter()
            .filter_map(|ev| {
                trace
                    .absolute_start_s(ev)
                    .map(|s| (pid, ev.phase.lane().tid(), s, ev.step, *ev))
            })
            .collect();
        resolved.sort_by(|a, b| {
            (a.0, a.1, a.3, a.4.phase.index())
                .cmp(&(b.0, b.1, b.3, b.4.phase.index()))
                .then(a.2.total_cmp(&b.2))
        });
        for (_, _, start_s, _, ev) in &resolved {
            rows.push(event_row(trace, ev, *start_s));
        }
        // Flow events: chain every group of ≥2 spans sharing a request
        // id ("s" at the first, "t" through the middle, "f" at the
        // last), so the rpc → fault hand-off of one tagged pull renders
        // as arrows in Perfetto. Groups sort by id for a stable file.
        let mut corrs: Vec<u64> = resolved
            .iter()
            .map(|(_, _, _, _, ev)| ev.corr)
            .filter(|&c| c != 0)
            .collect();
        corrs.sort_unstable();
        corrs.dedup();
        for corr in corrs {
            let mut group: Vec<(f64, &SpanEvent)> = resolved
                .iter()
                .filter(|(_, _, _, _, ev)| ev.corr == corr)
                .map(|(_, _, start_s, _, ev)| (*start_s, ev))
                .collect();
            if group.len() < 2 {
                continue;
            }
            group.sort_by(|a, b| {
                a.0.total_cmp(&b.0)
                    .then(a.1.phase.lane().tid().cmp(&b.1.phase.lane().tid()))
            });
            let last = group.len() - 1;
            for (i, (start_s, ev)) in group.iter().enumerate() {
                let ph = if i == 0 {
                    "s"
                } else if i == last {
                    "f"
                } else {
                    "t"
                };
                rows.push(flow_row(ph, corr, trace, ev, *start_s));
            }
        }
    }
    Value::obj([
        ("traceEvents", Value::Arr(rows)),
        ("displayTimeUnit", Value::Str("ms".into())),
    ])
}

/// Perfetto trace as a JSON string, ready to write to `trace.json`.
pub fn perfetto_trace_string(traces: &[TrainerTrace]) -> String {
    serde_json::to_string(&perfetto_trace(traces))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{Lane, Phase, SpanRecorder, StepAnchor};

    fn sample_trace() -> TrainerTrace {
        let r = SpanRecorder::for_trainer(2, 5);
        r.record(0, Phase::Sampling, 0.0, 1.0e-3);
        r.record(0, Phase::Rpc, 1.0e-3, 3.0e-3);
        r.record(0, Phase::Train, 0.0, 2.0e-3);
        r.record_anchor(StepAnchor {
            step: 0,
            prep_start_s: 0.0,
            train_start_s: 4.0e-3,
        });
        // Anchorless span: prepared ahead, never trained on.
        r.record(1, Phase::Sampling, 0.0, 1.0e-3);
        r.snapshot()
    }

    #[test]
    fn perfetto_has_metadata_and_complete_events() {
        let v = perfetto_trace(&[sample_trace()]);
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        let metas: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("M"))
            .collect();
        let spans: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("X"))
            .collect();
        // process_name + two thread_names (prepare, train).
        assert_eq!(metas.len(), 3);
        // The anchorless span is dropped.
        assert_eq!(spans.len(), 3);
        let train = spans
            .iter()
            .find(|e| e.get("name").unwrap().as_str() == Some("train"))
            .unwrap();
        assert_eq!(train.get("ts").unwrap().as_f64(), Some(4.0e3));
        assert_eq!(train.get("dur").unwrap().as_f64(), Some(2.0e3));
        assert_eq!(train.get("pid").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn perfetto_string_parses_back() {
        let s = perfetto_trace_string(&[sample_trace()]);
        let v = serde_json::from_str(&s).unwrap();
        assert!(v.get("traceEvents").unwrap().as_array().is_some());
    }

    #[test]
    fn out_of_band_lanes_get_distinct_track_names() {
        // The label contract, pinned directly…
        assert_eq!(track_label(Lane::Fault), "fault injection (out-of-band)");
        assert_eq!(
            track_label(Lane::Lookahead),
            "lookahead planner (out-of-band)"
        );
        assert_eq!(track_label(Lane::Prepare), "prepare");
        assert_eq!(track_label(Lane::Train), "train");

        // …and through the rendered metadata rows.
        let r = SpanRecorder::for_trainer(0, 0);
        r.record(0, Phase::Rpc, 0.0, 1.0e-3);
        r.record(0, Phase::Fault, 1.0e-3, 2.0e-3);
        r.record(0, Phase::Planned, 0.0, 5.0e-4);
        r.record_anchor(StepAnchor {
            step: 0,
            prep_start_s: 0.0,
            train_start_s: 4.0e-3,
        });
        let v = perfetto_trace(&[r.snapshot()]);
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        let thread_label = |tid: u64| -> Option<&str> {
            events.iter().find_map(|e| {
                let is_thread_meta = e.get("ph").and_then(Value::as_str) == Some("M")
                    && e.get("name").and_then(Value::as_str) == Some("thread_name")
                    && e.get("tid").and_then(Value::as_u64) == Some(tid);
                if !is_thread_meta {
                    return None;
                }
                e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Value::as_str)
            })
        };
        assert_eq!(
            thread_label(Lane::Fault.tid() as u64),
            Some("fault injection (out-of-band)")
        );
        assert_eq!(
            thread_label(Lane::Lookahead.tid() as u64),
            Some("lookahead planner (out-of-band)")
        );
        assert_eq!(thread_label(Lane::Prepare.tid() as u64), Some("prepare"));
    }

    #[test]
    fn correlated_spans_emit_flow_events() {
        let r = SpanRecorder::for_trainer(1, 0);
        // One tagged pull: its rpc span and its fault span share an id.
        r.record_corr(0, Phase::Rpc, 1.0e-3, 3.0e-3, 77);
        r.record_corr(0, Phase::Fault, 4.0e-3, 2.0e-3, 77);
        // A lone correlated span must NOT produce a dangling flow.
        r.record_corr(0, Phase::Copy, 6.0e-3, 1.0e-3, 99);
        r.record(0, Phase::Sampling, 0.0, 1.0e-3);
        r.record_anchor(StepAnchor {
            step: 0,
            prep_start_s: 0.0,
            train_start_s: 8.0e-3,
        });
        let v = perfetto_trace(&[r.snapshot()]);
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        let flows: Vec<_> = events
            .iter()
            .filter(|e| {
                matches!(
                    e.get("ph").unwrap().as_str(),
                    Some("s") | Some("t") | Some("f")
                )
            })
            .collect();
        assert_eq!(flows.len(), 2, "one start + one finish for the pair");
        assert!(flows
            .iter()
            .all(|f| f.get("id").unwrap().as_u64() == Some(77)));
        assert_eq!(flows[0].get("ph").unwrap().as_str(), Some("s"));
        assert_eq!(flows[1].get("ph").unwrap().as_str(), Some("f"));
        assert_eq!(flows[1].get("bp").unwrap().as_str(), Some("e"));
        // The correlated X rows carry the id in args for inspection.
        let rpc = events
            .iter()
            .find(|e| e.get("name").unwrap().as_str() == Some("rpc"))
            .unwrap();
        assert_eq!(
            rpc.get("args").unwrap().get("request_id").unwrap().as_u64(),
            Some(77)
        );
        // Uncorrelated rows don't.
        let sampling = events
            .iter()
            .find(|e| e.get("name").unwrap().as_str() == Some("sampling"))
            .unwrap();
        assert!(sampling.get("args").unwrap().get("request_id").is_none());
    }
}
