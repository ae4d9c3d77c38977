//! `xtask top` — terminal viewer for a live scrape endpoint.
//!
//! Connects to the read-only line-protocol endpoint a soak exposes (e.g.
//! `chaos health --serve=127.0.0.1:9853`) and prints the `HEALTH` summary
//! plus the `METRICS` snapshot — one-shot by default, redrawn every N
//! seconds with `--watch N`. `--series NAME` appends the per-epoch points
//! of one named metric. Purely a client: it never mutates the observed
//! process.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// How long one read of a reply may wait for bytes (the server's own
/// request read timeout).
const READ_TIMEOUT: Duration = Duration::from_secs(2);

/// Longest reply read, in bytes; a longer one is refused, not buffered.
const MAX_REPLY_BYTES: u64 = 1 << 20;

/// Entry point for `xtask top <args>`; returns a process exit code.
#[must_use]
pub fn top_cmd(args: &[String]) -> i32 {
    let mut addr: Option<String> = None;
    let mut watch: Option<u64> = None;
    let mut series: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--watch" {
            let Some(secs) = it.next().and_then(|v| v.parse().ok()) else {
                eprintln!("top: --watch expects a number of seconds");
                return 2;
            };
            watch = Some(secs);
        } else if let Some(v) = arg.strip_prefix("--watch=") {
            let Ok(secs) = v.parse() else {
                eprintln!("top: --watch expects a number of seconds, got '{v}'");
                return 2;
            };
            watch = Some(secs);
        } else if arg == "--series" {
            let Some(name) = it.next() else {
                eprintln!("top: --series expects a metric name");
                return 2;
            };
            series.push(name.clone());
        } else if let Some(name) = arg.strip_prefix("--series=") {
            series.push(name.to_string());
        } else if arg.starts_with("--") {
            eprintln!("top: unknown argument {arg:?} (expected ADDR, --watch N, --series NAME)");
            return 2;
        } else if addr.is_none() {
            addr = Some(arg.clone());
        } else {
            eprintln!("top: more than one address given ({arg:?})");
            return 2;
        }
    }
    let Some(addr) = addr else {
        eprintln!(
            "top: no endpoint address; usage: xtask top HOST:PORT [--watch N] [--series NAME]"
        );
        return 2;
    };

    loop {
        match snapshot(&addr, &series) {
            Ok(text) => {
                if watch.is_some() {
                    // ANSI clear + home: redraw in place like top(1).
                    print!("\x1b[2J\x1b[H");
                }
                println!("top: {addr}");
                print!("{text}");
            }
            Err(e) => {
                eprintln!("top: {addr}: {e}");
                return 1;
            }
        }
        match watch {
            Some(secs) => std::thread::sleep(std::time::Duration::from_secs(secs.max(1))),
            None => return 0,
        }
    }
}

/// One full display frame: `HEALTH`, `METRICS`, and any requested series.
fn snapshot(addr: &str, series: &[String]) -> Result<String, String> {
    let mut out = String::new();
    out.push_str(&scrape_one(addr, "HEALTH")?);
    out.push_str(&scrape_one(addr, "METRICS")?);
    for name in series {
        out.push_str(&format!("series {name}\n"));
        out.push_str(&scrape_one(addr, &format!("SERIES {name}"))?);
    }
    Ok(out)
}

/// Sends one command and returns the reply body (the `END` terminator
/// stripped, `ERR` replies surfaced as errors). An endpoint that stalls
/// for [`READ_TIMEOUT`] before closing, or replies with more than
/// [`MAX_REPLY_BYTES`], is an error.
fn scrape_one(addr: &str, command: &str) -> Result<String, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(READ_TIMEOUT))
        .map_err(|e| format!("connect: {e}"))?;
    stream
        .write_all(format!("{command}\n").as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut reply = String::new();
    stream
        .take(MAX_REPLY_BYTES + 1)
        .read_to_string(&mut reply)
        .map_err(|e| format!("read: {e}"))?;
    if reply.len() as u64 > MAX_REPLY_BYTES {
        return Err(format!("reply longer than {MAX_REPLY_BYTES} bytes"));
    }
    let mut body = String::new();
    for line in reply.lines() {
        if line == "END" {
            return Ok(body);
        }
        if let Some(err) = line.strip_prefix("ERR ") {
            return Err(format!("endpoint: {err}"));
        }
        body.push_str(line);
        body.push('\n');
    }
    Err("truncated reply (no END terminator)".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn snapshot_renders_health_metrics_and_series_from_a_live_endpoint() {
        let r = Arc::new(telemetry::Registry::new());
        r.set_enabled(true);
        r.counter("t.top.hits", telemetry::Class::Deterministic)
            .add(3);
        r.sample_point(1, &[]);
        let server = telemetry::ScrapeServer::start(Arc::clone(&r), None, "127.0.0.1:0")
            .expect("bind ephemeral port");
        let addr = server.local_addr().to_string();
        let text = snapshot(&addr, &["t.top.hits".to_string()]).expect("scrape");
        assert!(text.contains("health rules=0 epochs=0 alerts=0 dropped=0"));
        assert!(text.contains("counter t.top.hits 3"));
        assert!(text.contains("series t.top.hits"));
        assert!(text.contains("point 1 3"));
        server.shutdown();
    }

    /// A loopback endpoint that reads the command and hands the connection
    /// to `reply`; returns its address and the serving thread.
    fn misbehaving_endpoint(
        reply: impl FnOnce(TcpStream) + Send + 'static,
    ) -> (String, std::thread::JoinHandle<()>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut byte = [0u8; 1];
            while conn.read(&mut byte).is_ok_and(|n| n == 1) && byte[0] != b'\n' {}
            reply(conn);
        });
        (addr, server)
    }

    #[test]
    fn an_endpoint_that_never_ends_its_reply_times_out() {
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let (addr, server) = misbehaving_endpoint(move |mut conn| {
            let _ = conn.write_all(b"counter a.b.c 1\n");
            // Hold the connection open, without END, until the client gave up.
            let _ = done_rx.recv();
        });
        let err = scrape_one(&addr, "METRICS").expect_err("a stalled reply must fail");
        assert!(err.starts_with("read: "), "{err}");
        done_tx.send(()).unwrap();
        server.join().unwrap();
    }

    #[test]
    fn an_oversized_reply_is_refused() {
        let (addr, server) = misbehaving_endpoint(|mut conn| {
            // Fails part way once the client stops reading.
            let _ = conn.write_all(&b"x\n".repeat(MAX_REPLY_BYTES as usize));
            let _ = conn.write_all(b"END\n");
        });
        let err = scrape_one(&addr, "METRICS").expect_err("an oversized reply must fail");
        assert!(err.contains("longer than"), "{err}");
        server.join().unwrap();
    }

    #[test]
    fn top_cmd_rejects_bad_flags() {
        assert_eq!(top_cmd(&[]), 2);
        assert_eq!(top_cmd(&["--bogus".to_string()]), 2);
        assert_eq!(
            top_cmd(&["a:1".to_string(), "b:2".to_string()]),
            2,
            "two addresses"
        );
    }
}
