//! Scrapes `METRICS`/`HEALTH`/`SERIES` over a real `TcpListener` on an
//! ephemeral port and asserts the line protocol is well formed.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use telemetry::health::{HealthMonitor, Rule, Severity};
use telemetry::{Class, Registry, ScrapeServer};

fn scrape(addr: SocketAddr, command: &str) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(format!("{command}\n").as_bytes())
        .expect("send");
    let mut reply = String::new();
    stream.read_to_string(&mut reply).expect("read");
    reply.lines().map(str::to_string).collect()
}

#[test]
fn scrape_endpoint_speaks_well_formed_line_protocol() {
    let r = Arc::new(Registry::new());
    r.set_enabled(true);
    r.counter("t.scrape.hits", Class::Deterministic).add(42);
    r.counter("t.scrape.misses", Class::Deterministic).add(0);
    r.histogram("t.scrape.lat", Class::Deterministic, &[10, 100])
        .record(7);
    r.sample_point(1, &[("t.gauge", 9)]);

    let mut monitor = HealthMonitor::new(vec![Rule::delta_above(
        "scrape-smoke",
        Severity::Critical,
        "t.scrape.hits",
        0,
    )]);
    let point = r.timeseries_points().pop().expect("sampled point");
    assert_eq!(monitor.evaluate(&point), 1, "seed one alert");
    let monitor = Arc::new(Mutex::new(monitor));

    let server = ScrapeServer::start(Arc::clone(&r), Some(monitor), "127.0.0.1:0")
        .expect("bind ephemeral port");
    let addr = server.local_addr();

    // METRICS: every line is `kind name value...` and the reply is
    // END-terminated.
    let metrics = scrape(addr, "METRICS");
    assert_eq!(metrics.last().map(String::as_str), Some("END"));
    let body = &metrics[..metrics.len() - 1];
    assert!(!body.is_empty());
    for line in body {
        let tokens: Vec<&str> = line.split(' ').collect();
        assert!(
            matches!(tokens[0], "counter" | "histogram" | "gauge"),
            "unexpected line kind: {line}"
        );
        match tokens[0] {
            "counter" | "gauge" => {
                assert_eq!(tokens.len(), 3, "malformed: {line}");
                tokens[2].parse::<u64>().expect("numeric value");
            }
            _ => {
                assert_eq!(tokens.len(), 4, "malformed: {line}");
                assert!(tokens[2].starts_with("count="));
                assert!(tokens[3].starts_with("sum="));
            }
        }
    }
    assert!(body.iter().any(|l| l == "counter t.scrape.hits 42"));
    assert!(body.iter().any(|l| l == "counter t.scrape.misses 0"));
    assert!(body
        .iter()
        .any(|l| l == "histogram t.scrape.lat count=1 sum=7"));
    assert!(body.iter().any(|l| l == "gauge t.gauge 9"));

    // HEALTH: summary line, one alert line, END.
    let health = scrape(addr, "HEALTH");
    assert_eq!(
        health.first().map(String::as_str),
        Some("health rules=1 epochs=1 alerts=1 dropped=0")
    );
    assert!(
        health[1].starts_with("alert 1 critical scrape-smoke observed=42"),
        "alert line malformed: {}",
        health[1]
    );
    assert_eq!(health.last().map(String::as_str), Some("END"));

    // SERIES: per-tick points for a named metric, zeros for unknown names.
    assert_eq!(
        scrape(addr, "SERIES t.scrape.hits"),
        vec!["point 1 42", "END"]
    );
    assert_eq!(
        scrape(addr, "SERIES no.such.metric"),
        vec!["point 1 0", "END"]
    );

    // Unknown commands answer ERR, still END-terminated.
    assert_eq!(scrape(addr, "BOGUS"), vec!["ERR unknown command", "END"]);

    server.shutdown();

    // The port actually closed: a fresh scrape must fail to connect or
    // read nothing.
    assert!(TcpStream::connect(addr).is_err() || scrape_is_dead(addr));
}

fn scrape_is_dead(addr: SocketAddr) -> bool {
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return true;
    };
    let _ = stream.write_all(b"METRICS\n");
    let mut reply = String::new();
    stream.read_to_string(&mut reply).unwrap_or(0) == 0
}

#[test]
fn oversized_command_line_is_refused_at_the_cap() {
    let r = Arc::new(Registry::new());
    r.set_enabled(true);
    r.counter("t.scrape.hits", Class::Deterministic).add(1);
    let server = ScrapeServer::start(Arc::clone(&r), None, "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();
    // The server's fixed cap on a request line, newline included.
    let cap = 1024;

    // The longest accepted line: the cap, newline included.
    let longest = format!("SERIES {}", "x".repeat(cap - "SERIES \n".len()));
    assert_eq!(
        scrape(addr, &longest).last().map(String::as_str),
        Some("END")
    );

    // Exactly the cap with no newline, the socket kept open: the reply
    // must come at the cap, not after a newline that never arrives. The
    // client sends no more than the cap, because a server that closes over
    // unread input resets the connection and can drop the reply.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    stream.write_all(&vec![b'A'; cap]).expect("send");
    let mut reply = String::new();
    stream.read_to_string(&mut reply).expect("read");
    assert_eq!(reply, "ERR command too long\nEND\n");

    // The endpoint still serves.
    assert!(scrape(addr, "METRICS")
        .iter()
        .any(|l| l == "counter t.scrape.hits 1"));
    server.shutdown();
}
