//! The counter table: every per-trainer event counter, declared once.
//!
//! One row of `counter_table!` is one counter — field name, doc line,
//! Prometheus family name, help text, and whether a non-zero value means
//! a fault fired. The macro generates the atomic set a trainer updates
//! ([`CounterSet`]), its plain-data image ([`CounterSnapshot`], what a
//! `RunReport` carries and serializes) and the rows the Prometheus
//! exposition walks ([`CounterSnapshot::rows`]). Row order is output
//! order, of the JSON keys (the derived `hit_rate` comes last) and of the
//! `_total` families alike. A new counter is one row plus the
//! `fetch_add` that feeds it.

use serde::{Serialize, Value};
use std::sync::atomic::{AtomicU64, Ordering};

macro_rules! counter_table {
    ($($(#[$doc:meta])+ $field:ident: $name:literal, $help:literal, fault = $fault:literal;)+) => {
        /// Exact event counters of one trainer. All atomics, so the
        /// trainer thread and its prepare thread update them
        /// concurrently, and a scrape ([`crate::registry::attach`]) reads
        /// the very memory the run report is later snapshotted from.
        #[derive(Debug, Default)]
        pub struct CounterSet {
            $($(#[$doc])+ pub $field: AtomicU64,)+
        }

        impl CounterSet {
            /// Read every counter into a plain struct.
            pub fn snapshot(&self) -> CounterSnapshot {
                CounterSnapshot { $($field: self.$field.load(Ordering::Relaxed),)+ }
            }
        }

        /// Plain-data image of a [`CounterSet`].
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct CounterSnapshot {
            $($(#[$doc])+ pub $field: u64,)+
        }

        impl CounterSnapshot {
            /// Sum two snapshots (aggregate across trainers).
            pub fn merge(&self, other: &CounterSnapshot) -> CounterSnapshot {
                CounterSnapshot { $($field: self.$field + other.$field,)+ }
            }

            /// Whether any fault, retry, or degradation event was recorded.
            pub fn had_faults(&self) -> bool {
                $(($fault && self.$field > 0))||+
            }

            /// Every row as `(family name, help text, value)`, in row order.
            pub fn rows(&self) -> impl Iterator<Item = (&'static str, &'static str, u64)> {
                [$(($name, $help, self.$field)),+].into_iter()
            }
        }

        impl Serialize for CounterSnapshot {
            fn to_value(&self) -> Value {
                Value::obj([
                    $((stringify!($field), self.$field.to_value()),)+
                    ("hit_rate", self.hit_rate().to_value()),
                ])
            }
        }
    };
}

counter_table! {
    /// Bulk RPC requests issued.
    rpc_calls: "mgnn_rpc_calls_total", "RPC pull calls issued", fault = false;
    /// Remote node feature rows fetched over RPC (the paper's Fig. 11 Y).
    remote_nodes_fetched: "mgnn_remote_nodes_fetched_total", "Remote feature rows fetched over RPC", fault = false;
    /// Payload bytes of the remote feature rows moved over the network.
    remote_bytes: "mgnn_remote_bytes_total", "Remote feature bytes fetched", fault = false;
    /// Local feature rows copied from the partition's own KVStore.
    local_nodes_copied: "mgnn_local_nodes_copied_total", "Feature rows copied from the local partition", fault = false;
    /// Prefetch-buffer hits (sampled halo node found in buffer).
    buffer_hits: "mgnn_prefetch_hits_total", "Prefetch buffer lookup hits", fault = false;
    /// Prefetch-buffer misses.
    buffer_misses: "mgnn_prefetch_misses_total", "Prefetch buffer lookup misses", fault = false;
    /// Nodes evicted from the buffer.
    evictions: "mgnn_evictions_total", "Prefetch buffer rows evicted", fault = false;
    /// Replacement nodes fetched on eviction rounds.
    replacements_fetched: "mgnn_replacements_fetched_total", "Replacement rows fetched after eviction", fault = false;
    /// RPC retry attempts issued after a failed pull.
    rpc_retries: "mgnn_rpc_retries_total", "RPC pulls retried after a fault", fault = true;
    /// Pull attempts that timed out (dropped replies).
    rpc_timeouts: "mgnn_rpc_timeouts_total", "RPC pulls that timed out", fault = true;
    /// Replies rejected for a truncated payload.
    rpc_truncations: "mgnn_rpc_truncations_total", "RPC replies truncated by fault injection", fault = true;
    /// Pull attempts that met the crash.
    rpc_disconnects: "mgnn_rpc_disconnects_total", "RPC failures from crashed or dropped servers", fault = true;
    /// Injected delay tags observed on replies.
    rpc_delays: "mgnn_rpc_delays_total", "Injected RPC delay events", fault = true;
    /// Crashes met, each booked as a server respawn.
    server_respawns: "mgnn_server_respawns_total", "Crashed feature servers respawned", fault = true;
    /// Eviction replacements cancelled because the fetch failed — the
    /// stale resident row kept serving instead (degradation rung 2).
    stale_served: "mgnn_stale_served_total", "Stale buffer rows served when a replacement pull failed", fault = true;
    /// Input rows zero-filled after retries were exhausted
    /// (degradation rung 3).
    degraded_rows: "mgnn_degraded_rows_total", "Input rows zero-filled after the degradation ladder was exhausted", fault = true;
    /// Planned lookahead pulls issued (one per planning round that
    /// actually fetched rows). Zero under the scoreboard policy.
    planned_pulls: "mgnn_planned_pulls_total", "Lookahead-planned pulls issued off the critical path", fault = false;
    /// Halo rows fetched ahead of their due step by the lookahead
    /// planner. Also counted in `remote_nodes_fetched` (they are real
    /// network traffic); this counter separates planned from
    /// critical-path volume.
    planned_rows: "mgnn_planned_rows_total", "Feature rows fetched by lookahead-planned pulls", fault = false;
}

impl CounterSnapshot {
    /// Cumulative hit rate (Eq. 8 of the paper): `h / (h + m)`; 0.0
    /// before any lookup. The one formula behind every reported hit rate.
    pub fn hit_rate(&self) -> f64 {
        let t = self.buffer_hits + self.buffer_misses;
        if t == 0 {
            0.0
        } else {
            self.buffer_hits as f64 / t as f64
        }
    }
}
