//! Minimal read-only line-protocol scrape endpoint.
//!
//! [`ScrapeServer`] binds a std `TcpListener` and serves three commands,
//! one request per connection, newline-terminated:
//!
//! ```text
//! METRICS          -> counter <name> <value>
//!                     histogram <name> count=<n> sum=<s>
//!                     gauge <name> <value>            (from the latest sample point)
//!                     END
//! HEALTH           -> health rules=<n> epochs=<n> alerts=<n> dropped=<n>
//!                     alert <epoch> <severity> <rule> observed=<x> threshold=<y>
//!                     END
//! SERIES <name>    -> point <tick> <value>
//!                     END
//! ```
//!
//! Unknown commands answer `ERR unknown command` followed by `END`. The
//! server reads at most 1,024 bytes of a request, newline included; a
//! longer line answers `ERR command too long` followed by `END`, without
//! waiting for the rest. The server is strictly read-only — it cannot
//! mutate the registry or the monitor — so pointing `xtask top` at a
//! running soak observes without perturbing. The accept loop runs on one
//! plain thread (this is I/O plumbing, not simulation work, so it stays
//! off `memutil::par` and out of every determinism-sensitive path).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use crate::health::HealthMonitor;
use crate::Registry;

/// Longest request line the server reads, newline included. The longest
/// command is `SERIES <name>`, so a longer line is refused unread rather
/// than buffered.
const MAX_COMMAND_BYTES: u64 = 1024;

/// A running scrape endpoint; shuts down when dropped or via
/// [`ScrapeServer::shutdown`].
pub struct ScrapeServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ScrapeServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts serving scrapes of `registry` and, when given, `health`.
    pub fn start(
        registry: Arc<Registry>,
        health: Option<Arc<Mutex<HealthMonitor>>>,
        addr: &str,
    ) -> std::io::Result<ScrapeServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        // memlint: allow(thread-outside-par): accept-loop I/O thread, not simulation work
        let handle = std::thread::spawn(move || {
            for conn in listener.incoming() {
                if stop_flag.load(Ordering::Relaxed) {
                    break;
                }
                if let Ok(stream) = conn {
                    let _ = serve_one(stream, &registry, health.as_deref());
                }
            }
        });
        Ok(ScrapeServer {
            addr: local,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves ephemeral ports).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the server thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.stop.store(true, Ordering::Relaxed);
            // Unblock the accept call with a throwaway connection.
            let _ = TcpStream::connect(self.addr);
            let _ = handle.join();
        }
    }
}

impl Drop for ScrapeServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn serve_one(
    stream: TcpStream,
    registry: &Registry,
    health: Option<&Mutex<HealthMonitor>>,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    let mut reader = BufReader::new(stream.try_clone()?.take(MAX_COMMAND_BYTES));
    let mut line = String::new();
    let read = reader.read_line(&mut line)?;
    let mut out = stream;
    let reply = if read as u64 == MAX_COMMAND_BYTES && !line.ends_with('\n') {
        "ERR command too long\nEND\n".to_string()
    } else {
        respond(line.trim(), registry, health)
    };
    out.write_all(reply.as_bytes())?;
    out.flush()
}

/// Builds the full reply (including the trailing `END` line) for one
/// command line. Split out from the socket plumbing so tests can drive
/// the protocol without a listener.
#[must_use]
pub fn respond(
    command: &str,
    registry: &Registry,
    health: Option<&Mutex<HealthMonitor>>,
) -> String {
    let mut reply = String::new();
    let mut parts = command.split_whitespace();
    match parts.next() {
        Some("METRICS") => {
            for (name, value) in registry.deterministic_counters() {
                reply.push_str(&format!("counter {name} {value}\n"));
            }
            for (name, count, sum) in registry.deterministic_histogram_stats() {
                reply.push_str(&format!("histogram {name} count={count} sum={sum}\n"));
            }
            if let Some(point) = registry.timeseries_tail(1).pop() {
                for (name, value) in &point.gauges {
                    reply.push_str(&format!("gauge {name} {value}\n"));
                }
            }
        }
        Some("HEALTH") => match health {
            Some(monitor) => {
                let m = monitor.lock().unwrap_or_else(PoisonError::into_inner);
                reply.push_str(&format!(
                    "health rules={} epochs={} alerts={} dropped={}\n",
                    m.rules().len(),
                    m.epochs_evaluated(),
                    m.alerts().len(),
                    m.dropped_alerts()
                ));
                for alert in m.alerts() {
                    reply.push_str(&alert.line());
                    reply.push('\n');
                }
            }
            None => reply.push_str("health rules=0 epochs=0 alerts=0 dropped=0\n"),
        },
        Some("SERIES") => match parts.next() {
            Some(name) => {
                for (tick, value) in registry.series(name) {
                    reply.push_str(&format!("point {tick} {value}\n"));
                }
            }
            None => reply.push_str("ERR SERIES needs a name\n"),
        },
        _ => reply.push_str("ERR unknown command\n"),
    }
    reply.push_str("END\n");
    reply
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Class;

    fn registry() -> Registry {
        let r = Registry::new();
        r.set_enabled(true);
        r
    }

    #[test]
    fn metrics_reply_lists_counters_histograms_and_gauges() {
        let r = registry();
        r.counter("a.b.c", Class::Deterministic).add(5);
        r.histogram("a.b.h", Class::Deterministic, &[10]).record(4);
        r.sample_point(1, &[("g.x", 9)]);
        let reply = respond("METRICS", &r, None);
        assert!(reply.contains("counter a.b.c 5\n"));
        assert!(reply.contains("histogram a.b.h count=1 sum=4\n"));
        assert!(reply.contains("gauge g.x 9\n"));
        assert!(reply.ends_with("END\n"));
    }

    #[test]
    fn series_reply_walks_the_ring() {
        let r = registry();
        let c = r.counter("a.b.c", Class::Deterministic);
        c.add(2);
        r.sample_point(1, &[]);
        c.add(3);
        r.sample_point(2, &[]);
        let reply = respond("SERIES a.b.c", &r, None);
        assert_eq!(reply, "point 1 2\npoint 2 3\nEND\n");
    }

    #[test]
    fn health_reply_without_monitor_is_well_formed() {
        let r = registry();
        let reply = respond("HEALTH", &r, None);
        assert_eq!(reply, "health rules=0 epochs=0 alerts=0 dropped=0\nEND\n");
    }

    #[test]
    fn unknown_command_errs() {
        let r = registry();
        assert_eq!(respond("BOGUS", &r, None), "ERR unknown command\nEND\n");
        assert_eq!(
            respond("SERIES", &r, None),
            "ERR SERIES needs a name\nEND\n"
        );
    }
}
