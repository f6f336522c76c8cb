//! Prometheus text exposition and a dependency-free scrape server.
//!
//! [`render`] lowers the whole [`crate::registry`] to the Prometheus
//! text format (version 0.0.4): `# HELP`/`# TYPE` pairs, `_total`
//! counters, gauges, and histograms as cumulative `_bucket{le=...}`
//! rows closed by `+Inf`, `_sum`, and `_count`. The log₂ buckets of
//! [`crate::hist::LatencyHistogram`] map directly onto `le` bounds.
//!
//! [`ScrapeServer`] serves that rendering over HTTP from a single
//! `std::net::TcpListener` thread — no framework, no dependency — so a
//! running training or chaos job can be curled:
//!
//! ```bash
//! curl http://127.0.0.1:9184/metrics
//! ```
//!
//! The server only ever *reads* the registry; it cannot perturb the
//! simulated clock or any report.

use crate::hist::LatencyHistogram;
use crate::registry;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Content-Type of the text exposition format.
pub const CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// Format an `f64` for the exposition format. Rust's `Display` never
/// produces scientific notation, which Prometheus parsers accept as-is;
/// non-finite values use the spec's spellings.
fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".into()
    } else if v == f64::INFINITY {
        "+Inf".into()
    } else if v == f64::NEG_INFINITY {
        "-Inf".into()
    } else {
        format!("{v}")
    }
}

fn render_histogram(
    out: &mut String,
    name: &str,
    help: &str,
    label_key: &str,
    series: &[(&str, LatencyHistogram)],
) {
    out.push_str(&format!("# HELP {name} {help}\n"));
    out.push_str(&format!("# TYPE {name} histogram\n"));
    for (label, hist) in series {
        let mut cumulative = 0u64;
        for (_, hi, count) in hist.buckets() {
            cumulative += count;
            out.push_str(&format!(
                "{name}_bucket{{{label_key}=\"{label}\",le=\"{}\"}} {cumulative}\n",
                fmt_f64(hi)
            ));
        }
        out.push_str(&format!(
            "{name}_bucket{{{label_key}=\"{label}\",le=\"+Inf\"}} {}\n",
            hist.count()
        ));
        out.push_str(&format!(
            "{name}_sum{{{label_key}=\"{label}\"}} {}\n",
            fmt_f64(hist.sum_s())
        ));
        out.push_str(&format!(
            "{name}_count{{{label_key}=\"{label}\"}} {}\n",
            hist.count()
        ));
    }
}

/// Render the entire registry as Prometheus text exposition. The output
/// is deterministic for fixed metric values: the per-trainer counters
/// render in table order from one [`registry::scrape`], the hit-rate
/// gauge is derived from that same scrape through the one `hit_rate`
/// formula — so it is live, not a value stored at the end of a run — and
/// histogram series sort by label.
pub fn render() -> String {
    let mut out = String::with_capacity(4096);
    let mut family = |name: &str, help: &str, kind: &str, value: String| {
        out.push_str(&format!(
            "# HELP {name} {help}\n# TYPE {name} {kind}\n{name} {value}\n"
        ));
    };
    let live = registry::scrape();
    let steps = &registry::STEPS;
    let engine_side = [(steps.name(), steps.help(), steps.get())];
    for (name, help, value) in live.rows().chain(engine_side) {
        family(name, help, "counter", value.to_string());
    }
    family(
        "mgnn_buffer_hit_rate",
        "Cumulative prefetch buffer hit rate of the attached trainers",
        "gauge",
        fmt_f64(live.hit_rate()),
    );
    for g in registry::GAUGES {
        family(g.name(), g.help(), "gauge", fmt_f64(g.get()));
    }
    for h in registry::HISTOGRAMS {
        render_histogram(&mut out, h.name(), h.help(), h.label_key(), &h.series());
    }
    out
}

fn respond(stream: &mut TcpStream, status: &str, content_type: &str, body: &str) {
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    // A peer hanging up mid-response is its problem, not ours.
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

fn handle_connection(mut stream: TcpStream) {
    // Bound the read so a silent client cannot wedge the serve loop.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let mut buf = [0u8; 1024];
    let n = match stream.read(&mut buf) {
        Ok(n) if n > 0 => n,
        _ => return,
    };
    let request = String::from_utf8_lossy(&buf[..n]);
    let mut parts = request.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    if method != "GET" {
        respond(
            &mut stream,
            "405 Method Not Allowed",
            "text/plain",
            "GET only\n",
        );
        return;
    }
    match path {
        "/metrics" | "/" => respond(&mut stream, "200 OK", CONTENT_TYPE, &render()),
        _ => respond(&mut stream, "404 Not Found", "text/plain", "try /metrics\n"),
    }
}

/// A one-thread HTTP scrape endpoint over the global registry.
///
/// Binds `127.0.0.1:port` (`port` 0 asks the OS for an ephemeral port —
/// tests use this; read it back with [`local_addr`]). Dropping the
/// server stops the serve loop and joins the thread.
///
/// [`local_addr`]: ScrapeServer::local_addr
pub struct ScrapeServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl ScrapeServer {
    /// Bind and start serving. Fails if the port is taken.
    pub fn start(port: u16) -> std::io::Result<ScrapeServer> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("mgnn-scrape".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if stop_flag.load(Ordering::Acquire) {
                        break;
                    }
                    if let Ok(stream) = stream {
                        handle_connection(stream);
                    }
                }
            })?;
        Ok(ScrapeServer {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop the serve loop and join its thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        let Some(handle) = self.handle.take() else {
            return;
        };
        self.stop.store(true, Ordering::Release);
        // accept() blocks; a self-connection wakes it so it observes the
        // stop flag.
        let _ = TcpStream::connect(self.addr);
        let _ = handle.join();
    }
}

impl Drop for ScrapeServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::CounterSet;
    use crate::registry::TEST_LOCK;

    fn http_get(addr: SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
            .unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn exposition_format_and_scrape_server() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        registry::enable();
        let set = Arc::new(CounterSet::default());
        registry::attach(Arc::clone(&set));
        // Recorded after the attach: the exposition reads the set live,
        // hit rate included (3 hits / 1 miss through the one formula).
        set.rpc_calls.fetch_add(5, Ordering::Relaxed);
        set.buffer_hits.fetch_add(3, Ordering::Relaxed);
        set.buffer_misses.fetch_add(1, Ordering::Relaxed);
        for i in 1..=100u64 {
            registry::STEP_LATENCY.record("train", i as f64 * 1.0e-6);
        }
        registry::STEP_LATENCY.record("prepare", 3.0e-3);

        let text = render();
        // HELP precedes TYPE precedes the sample for every metric.
        for (name, _, _) in registry::scrape().rows() {
            let help_at = text.find(&format!("# HELP {name} ")).unwrap();
            let type_at = text.find(&format!("# TYPE {name} counter")).unwrap();
            assert!(help_at < type_at, "{name}: HELP after TYPE");
        }
        assert!(text.contains("mgnn_rpc_calls_total 5\n"));
        assert!(text.contains("mgnn_prefetch_hits_total 3\n"));
        assert!(text.contains("# TYPE mgnn_buffer_hit_rate gauge"));
        assert!(text.contains("mgnn_buffer_hit_rate 0.75\n"));
        assert!(text.contains("# TYPE mgnn_step_latency histogram"));
        assert!(text.contains("mgnn_step_latency_bucket{lane=\"train\",le=\"+Inf\"} 100\n"));
        assert!(text.contains("mgnn_step_latency_count{lane=\"train\"} 100\n"));
        assert!(text.contains("mgnn_step_latency_count{lane=\"prepare\"} 1\n"));

        // Bucket counts are cumulative, hence monotone per series.
        let mut last = 0u64;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("mgnn_step_latency_bucket{lane=\"train\"") {
                let count: u64 = rest.rsplit(' ').next().unwrap().parse().unwrap();
                assert!(count >= last, "bucket counts must be monotone: {line}");
                last = count;
            }
        }
        assert_eq!(last, 100);

        // Scrape it over real HTTP on an ephemeral port.
        let server = ScrapeServer::start(0).unwrap();
        let addr = server.local_addr();
        let ok = http_get(addr, "/metrics");
        assert!(ok.starts_with("HTTP/1.1 200 OK"));
        assert!(ok.contains(CONTENT_TYPE));
        assert!(ok.contains("mgnn_rpc_calls_total 5"));
        let missing = http_get(addr, "/nope");
        assert!(missing.starts_with("HTTP/1.1 404"));
        server.shutdown();
        assert!(
            TcpStream::connect(addr).is_err() || http_get_safe(addr).is_none(),
            "server must stop serving after shutdown"
        );
        registry::disable();
        registry::reset();
    }

    /// Generating the snapshot's serializer and the exposition from one
    /// table must not move a key or a family: these are the orders the
    /// hand-written serializer and statics had, as literals. (The engine
    /// fingerprints hash the report, so they catch a reordered snapshot;
    /// nothing else catches a reordered exposition.)
    #[test]
    fn generated_orders_match_the_hand_written_ones() {
        use serde::{Serialize, Value};
        let Value::Obj(fields) = CounterSet::default().snapshot().to_value() else {
            panic!("a snapshot serializes as an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "rpc_calls",
                "remote_nodes_fetched",
                "remote_bytes",
                "local_nodes_copied",
                "buffer_hits",
                "buffer_misses",
                "evictions",
                "replacements_fetched",
                "rpc_retries",
                "rpc_timeouts",
                "rpc_truncations",
                "rpc_disconnects",
                "rpc_delays",
                "server_respawns",
                "stale_served",
                "degraded_rows",
                "planned_pulls",
                "planned_rows",
                "hit_rate",
            ]
        );

        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let text = render();
        let families: Vec<&str> = text
            .lines()
            .filter_map(|l| l.strip_prefix("# TYPE "))
            .collect();
        assert_eq!(
            families,
            [
                "mgnn_rpc_calls_total counter",
                "mgnn_remote_nodes_fetched_total counter",
                "mgnn_remote_bytes_total counter",
                "mgnn_local_nodes_copied_total counter",
                "mgnn_prefetch_hits_total counter",
                "mgnn_prefetch_misses_total counter",
                "mgnn_evictions_total counter",
                "mgnn_replacements_fetched_total counter",
                "mgnn_rpc_retries_total counter",
                "mgnn_rpc_timeouts_total counter",
                "mgnn_rpc_truncations_total counter",
                "mgnn_rpc_disconnects_total counter",
                "mgnn_rpc_delays_total counter",
                "mgnn_server_respawns_total counter",
                "mgnn_stale_served_total counter",
                "mgnn_degraded_rows_total counter",
                "mgnn_planned_pulls_total counter",
                "mgnn_planned_rows_total counter",
                "mgnn_steps_total counter",
                "mgnn_buffer_hit_rate gauge",
                "mgnn_sim_makespan_seconds gauge",
                "mgnn_world_trainers gauge",
                "mgnn_step_latency histogram",
            ]
        );
    }

    fn http_get_safe(addr: SocketAddr) -> Option<String> {
        let mut stream = TcpStream::connect(addr).ok()?;
        stream
            .set_read_timeout(Some(Duration::from_millis(200)))
            .ok()?;
        stream.write_all(b"GET /metrics HTTP/1.1\r\n\r\n").ok()?;
        let mut out = String::new();
        stream.read_to_string(&mut out).ok()?;
        if out.is_empty() {
            None
        } else {
            Some(out)
        }
    }

    #[test]
    fn f64_formatting_for_exposition() {
        assert_eq!(fmt_f64(0.5), "0.5");
        assert_eq!(fmt_f64(f64::INFINITY), "+Inf");
        assert_eq!(fmt_f64(f64::NEG_INFINITY), "-Inf");
        assert_eq!(fmt_f64(f64::NAN), "NaN");
        // No scientific notation: le bounds must parse as plain decimals.
        assert_eq!(fmt_f64(2.0e-9), "0.000000002");
    }
}
