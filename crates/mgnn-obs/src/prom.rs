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

/// Render the entire registry as Prometheus text exposition, from one
/// [`registry::scrape`]. The output is deterministic for fixed metric
/// values: the per-trainer counters render in table order, then the step
/// counter, the hit-rate gauge — derived from the same scrape through the
/// one `hit_rate` formula, so it is live, not a value stored at the end
/// of a run — the makespan and world gauges, and one histogram series
/// per lane of [`registry::LANES`] that has samples.
pub fn render() -> String {
    let mut out = String::with_capacity(4096);
    let mut family = |name: &str, help: &str, kind: &str, value: String| {
        out.push_str(&format!(
            "# HELP {name} {help}\n# TYPE {name} {kind}\n{name} {value}\n"
        ));
    };
    let live = registry::scrape();
    for (name, help, value) in live.counters.rows() {
        family(name, help, "counter", value.to_string());
    }
    family(
        "mgnn_steps_total",
        "Training steps completed",
        "counter",
        live.steps.to_string(),
    );
    family(
        "mgnn_buffer_hit_rate",
        "Cumulative prefetch buffer hit rate of the attached trainers",
        "gauge",
        fmt_f64(live.counters.hit_rate()),
    );
    family(
        "mgnn_sim_makespan_seconds",
        "Simulated makespan of the last finished run (slowest trainer)",
        "gauge",
        fmt_f64(live.makespan_s),
    );
    family(
        "mgnn_world_trainers",
        "Total trainers in the last started run",
        "gauge",
        live.world.to_string(),
    );

    let name = "mgnn_step_latency";
    out.push_str(&format!(
        "# HELP {name} Simulated per-step latency by pipeline lane\n# TYPE {name} histogram\n"
    ));
    for (lane, hist) in registry::LANES.iter().zip(&live.lanes) {
        if hist.count() == 0 {
            continue;
        }
        let mut cumulative = 0u64;
        for (_, hi, count) in hist.buckets() {
            cumulative += count;
            out.push_str(&format!(
                "{name}_bucket{{lane=\"{lane}\",le=\"{}\"}} {cumulative}\n",
                fmt_f64(hi)
            ));
        }
        let (count, sum) = (hist.count(), fmt_f64(hist.sum_s()));
        out.push_str(&format!(
            "{name}_bucket{{lane=\"{lane}\",le=\"+Inf\"}} {count}\n\
             {name}_sum{{lane=\"{lane}\"}} {sum}\n\
             {name}_count{{lane=\"{lane}\"}} {count}\n"
        ));
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
            registry::record_step(3.0e-3, i as f64 * 1.0e-6);
        }

        let text = render();
        // HELP precedes TYPE precedes the sample for every metric.
        for (name, _, _) in registry::scrape().counters.rows() {
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
        assert!(text.contains("mgnn_step_latency_count{lane=\"prepare\"} 100\n"));
        assert!(text.contains("mgnn_steps_total 100\n"));
        assert!(text.contains("mgnn_world_trainers 1\n"));

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
    }

    /// The world is the number of attached sets, readable as soon as the
    /// trainers attach — not a value stored when a run finishes.
    #[test]
    fn world_is_counted_off_the_attached_sets() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        registry::enable();
        registry::attach(Arc::new(CounterSet::default()));
        registry::attach(Arc::new(CounterSet::default()));
        let text = render();
        registry::disable();
        assert!(text.contains("\nmgnn_world_trainers 2\n"), "{text}");
    }

    /// Send `bytes` (then half-close) and read whatever comes back; a
    /// reset or a refused write reads as a close.
    fn exchange(addr: SocketAddr, bytes: &[u8]) -> Vec<u8> {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let _ = stream.write_all(bytes);
        let _ = stream.shutdown(std::net::Shutdown::Write);
        let mut out = Vec::new();
        let _ = stream.read_to_end(&mut out);
        out
    }

    #[test]
    fn scrape_server_survives_hostile_requests() {
        let mut long_line = b"GET /metrics".to_vec();
        long_line.resize(4096, b'a');
        long_line.extend_from_slice(b" HTTP/1.1\r\n\r\n");
        let mut hostile: Vec<Vec<u8>> = vec![
            vec![0xff, 0xfe, 0xc3, 0x28, b' ', 0x80, b'\r', b'\n'],
            b"GET /\xe2\x28\xa1 HTTP/1.1\r\n\r\n".to_vec(),
            long_line,
            b"GET".to_vec(),
            b"GET\r\n\r\n".to_vec(),
            Vec::new(),
        ];
        // Random bytes from a fixed xorshift stream, some 1 024+ long.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for len in [1usize, 7, 64, 1023, 1024, 1025, 3000] {
            hostile.push(
                (0..len)
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        x as u8
                    })
                    .collect(),
            );
        }

        let server = ScrapeServer::start(0).unwrap();
        let addr = server.local_addr();
        for bytes in &hostile {
            let reply = exchange(addr, bytes);
            let status = String::from_utf8_lossy(&reply[..reply.len().min(12)]).into_owned();
            assert!(
                reply.is_empty()
                    || ["HTTP/1.1 200", "HTTP/1.1 404", "HTTP/1.1 405"].contains(&status.as_str()),
                "{status:?} for {} bytes",
                bytes.len()
            );
        }
        // Connect, then hang up without a byte.
        drop(TcpStream::connect(addr).unwrap());

        let ok = String::from_utf8(exchange(addr, b"GET /metrics HTTP/1.1\r\n\r\n")).unwrap();
        assert!(ok.starts_with("HTTP/1.1 200 OK"), "{ok}");
        assert!(ok.contains("# TYPE mgnn_steps_total counter\n"));
        server.shutdown();
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
