//! End-to-end tests of the `ptmap gateway` front: consistent-hash
//! routing, breaker-driven failover, async-job continuity across a
//! dead owner, and the cluster metrics contract.
//!
//! Each test boots real daemons ([`Server`]) and a real gateway
//! ([`Gateway`]) in-process on ephemeral ports; faults are injected
//! through the governor's faultpoints, scoped to one peer's address so
//! concurrently running tests (all on distinct ports) cannot see each
//! other's faults.

use ptmap_governor::faultpoint;
use ptmap_serve::metrics::check_prometheus_text;
use ptmap_serve::{
    run_loadtest, DrainSummary, Gateway, GatewayConfig, GatewayHandle, GatewaySummary,
    LoadtestConfig, ServeConfig, Server, ServerHandle,
};
use ptmap_trace::AttrValue;
use serde_json::Value;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One in-process daemon.
struct Daemon {
    addr: SocketAddr,
    handle: ServerHandle,
    runner: std::thread::JoinHandle<DrainSummary>,
}

impl Daemon {
    fn boot() -> Daemon {
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            drain_timeout: Duration::from_secs(5),
            ..ServeConfig::default()
        })
        .expect("bind daemon");
        let addr = server.local_addr().expect("daemon addr");
        let handle = server.handle();
        let runner = std::thread::spawn(move || server.run());
        Daemon {
            addr,
            handle,
            runner,
        }
    }

    fn stop(self) {
        self.handle.shutdown();
        let _ = self.runner.join();
    }
}

/// An in-process gateway over the given peers, with chaos-friendly
/// (fast) probe and breaker settings.
struct Gw {
    addr: SocketAddr,
    handle: GatewayHandle,
    runner: std::thread::JoinHandle<GatewaySummary>,
}

impl Gw {
    fn boot(peers: &[SocketAddr], tweak: impl FnOnce(&mut GatewayConfig)) -> Gw {
        let mut config = GatewayConfig {
            addr: "127.0.0.1:0".to_string(),
            peers: peers.iter().map(|a| a.to_string()).collect(),
            probe_interval: Duration::from_millis(50),
            failure_threshold: 2,
            cooldown: Duration::from_millis(200),
            drain_timeout: Duration::from_secs(5),
            ..GatewayConfig::default()
        };
        tweak(&mut config);
        let gateway = Gateway::bind(config).expect("bind gateway");
        let addr = gateway.local_addr().expect("gateway addr");
        let handle = gateway.handle();
        let runner = std::thread::spawn(move || gateway.run());
        Gw {
            addr,
            handle,
            runner,
        }
    }

    fn stop(self) -> GatewaySummary {
        self.handle.shutdown();
        self.runner.join().expect("gateway run loop")
    }
}

/// One parsed HTTP response.
struct Reply {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl Reply {
    fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }
}

fn http(addr: SocketAddr, method: &str, path: &str, headers: &[(&str, &str)], body: &str) -> Reply {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut req = format!("{method} {path} HTTP/1.1\r\nHost: ptmap\r\n");
    for (name, value) in headers {
        req.push_str(&format!("{name}: {value}\r\n"));
    }
    req.push_str(&format!("Content-Length: {}\r\n\r\n{body}", body.len()));
    // Note: no write-half shutdown here — the daemons treat a closed
    // client as a disconnect and cancel the request's budget.
    stream.write_all(req.as_bytes()).expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    let status: u16 = head
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|c| c.parse().ok())
        .expect("status code");
    let headers = head
        .lines()
        .skip(1)
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    Reply {
        status,
        headers,
        body: body.to_string(),
    }
}

fn compile_spec(name: &str, kernel: &str) -> String {
    format!("{{\"name\":\"{name}\",\"kernel\":\"{kernel}\",\"arch\":\"S4\"}}")
}

fn json(body: &str) -> Value {
    serde_json::from_str(body).unwrap_or_else(|e| panic!("bad JSON ({e}): {body}"))
}

/// Polls `check` until it passes or `within` elapses.
fn wait_for(within: Duration, what: &str, mut check: impl FnMut() -> bool) {
    let t0 = Instant::now();
    while !check() {
        assert!(t0.elapsed() < within, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Extracts `metric{...label_part...} value` from a Prometheus doc.
fn labelled_value(text: &str, metric: &str, label_part: &str) -> Option<f64> {
    text.lines()
        .find(|l| l.starts_with(metric) && l.contains(label_part))
        .and_then(|l| l.rsplit_once(' '))
        .and_then(|(_, v)| v.parse().ok())
}

fn metric_value(text: &str, metric: &str) -> Option<f64> {
    text.lines()
        .find(|l| l.starts_with(metric) && l.as_bytes().get(metric.len()) == Some(&b' '))
        .and_then(|l| l.rsplit_once(' '))
        .and_then(|(_, v)| v.parse().ok())
}

/// Sums every labelled series of `metric` (e.g. a per-peer rollup).
fn metric_sum(text: &str, metric: &str) -> f64 {
    text.lines()
        .filter(|l| l.starts_with(metric) && l.as_bytes().get(metric.len()) == Some(&b'{'))
        .filter_map(|l| l.rsplit_once(' '))
        .filter_map(|(_, v)| v.parse::<f64>().ok())
        .sum()
}

#[test]
fn gateway_routes_compiles_and_relays_daemon_bytes() {
    let daemons: Vec<Daemon> = (0..3).map(|_| Daemon::boot()).collect();
    let peers: Vec<SocketAddr> = daemons.iter().map(|d| d.addr).collect();
    let gw = Gw::boot(&peers, |_| {});

    // Route a compile through the gateway.
    let spec = compile_spec("routed", "vecsum:16");
    let via_gw = http(gw.addr, "POST", "/compile", &[], &spec);
    assert_eq!(via_gw.status, 200, "{}", via_gw.body);
    let owner: SocketAddr = via_gw
        .header("x-ptmap-peer")
        .expect("gateway stamps the answering peer")
        .parse()
        .expect("peer header is an address");
    assert!(peers.contains(&owner), "peer {owner} is not in the cluster");

    // The same spec sent directly to the owner is a cache hit with the
    // exact same report: the gateway relayed the daemon's bytes, it did
    // not re-encode or re-compile.
    let direct = http(owner, "POST", "/compile", &[], &spec);
    assert_eq!(direct.status, 200, "{}", direct.body);
    let direct_doc = json(&direct.body);
    assert_eq!(
        direct_doc.get("cache_hit"),
        Some(&Value::Bool(true)),
        "owner must already hold this key: {}",
        direct.body
    );
    assert_eq!(
        json(&via_gw.body).get("report"),
        direct_doc.get("report"),
        "gateway-relayed report differs from the owner's"
    );

    // Repeats of the same key stay on the same peer (cache affinity).
    for _ in 0..3 {
        let again = http(gw.addr, "POST", "/compile", &[], &spec);
        assert_eq!(again.status, 200);
        assert_eq!(
            again.header("x-ptmap-peer"),
            Some(owner.to_string().as_str())
        );
        assert_eq!(json(&again.body).get("cache_hit"), Some(&Value::Bool(true)));
    }

    // Different keys (distinct kernels — the job name is not part of
    // the request key) spread over the ring, but every reply names a
    // cluster member.
    for i in 0..6 {
        let spec = compile_spec(&format!("spread-{i}"), &format!("vecsum:{}", 8 + 4 * i));
        let reply = http(gw.addr, "POST", "/compile", &[], &spec);
        assert_eq!(reply.status, 200, "{}", reply.body);
        let peer: SocketAddr = reply.header("x-ptmap-peer").unwrap().parse().unwrap();
        assert!(peers.contains(&peer));
    }

    // /healthz and /cluster agree: three live peers.
    let health = http(gw.addr, "GET", "/healthz", &[], "");
    assert_eq!(health.status, 200, "{}", health.body);
    assert!(
        health.body.contains("\"peers_available\":3"),
        "{}",
        health.body
    );
    let cluster = json(&http(gw.addr, "GET", "/cluster", &[], "").body);
    assert_eq!(cluster.get("available"), Some(&Value::Int(3)));
    assert_eq!(
        cluster.get("peers").and_then(Value::as_array).map(Vec::len),
        Some(3)
    );

    let summary = gw.stop();
    assert!(summary.clean);
    assert!(
        summary.forwards >= 1,
        "at least the first compile forwarded"
    );
    for d in daemons {
        d.stop();
    }
}

#[test]
fn gateway_rejects_malformed_headers_before_forwarding() {
    let daemon = Daemon::boot();
    let gw = Gw::boot(&[daemon.addr], |_| {});
    let spec = compile_spec("hdr", "vecsum:8");

    for path in ["/compile", "/jobs"] {
        let bad_deadline = http(
            gw.addr,
            "POST",
            path,
            &[("X-Ptmap-Deadline-Ms", "soon")],
            &spec,
        );
        assert_eq!(bad_deadline.status, 400, "{}", bad_deadline.body);
        assert!(
            bad_deadline.body.contains("\"reason\":\"bad-deadline\""),
            "{}",
            bad_deadline.body
        );

        let bad_quality = http(
            gw.addr,
            "POST",
            path,
            &[("X-Ptmap-Quality", "speedy")],
            &spec,
        );
        assert_eq!(bad_quality.status, 400, "{}", bad_quality.body);
        assert!(
            bad_quality.body.contains("\"reason\":\"bad-quality\""),
            "{}",
            bad_quality.body
        );
    }

    // Unroutable bodies are client errors, not forwards.
    assert_eq!(http(gw.addr, "POST", "/compile", &[], "{ nope").status, 400);
    assert_eq!(
        http(
            gw.addr,
            "POST",
            "/compile",
            &[],
            "{\"kernel\":\"nope:1\",\"arch\":\"S4\"}"
        )
        .status,
        400
    );

    gw.stop();
    daemon.stop();
}

#[test]
fn breaker_ejects_failing_peer_and_readmits_after_recovery() {
    let daemons: Vec<Daemon> = (0..3).map(|_| Daemon::boot()).collect();
    let peers: Vec<SocketAddr> = daemons.iter().map(|d| d.addr).collect();
    let sick = peers[0].to_string();

    // Fail health probes for peer 0 only (scoped by address), from
    // before the gateway boots so its very first probes fail.
    let fault = faultpoint::install(&format!("peer_health:refuse@{sick}")).unwrap();
    let gw = Gw::boot(&peers, |_| {});

    let peer_state = |addr: &str| -> String {
        let cluster = json(&http(gw.addr, "GET", "/cluster", &[], "").body);
        cluster
            .get("peers")
            .and_then(Value::as_array)
            .and_then(|ps| {
                ps.iter()
                    .find(|p| p.get("addr").and_then(Value::as_str) == Some(addr))
            })
            .and_then(|p| p.get("state"))
            .and_then(Value::as_str)
            .unwrap_or("?")
            .to_string()
    };

    // threshold=2 at a 50ms probe interval: the breaker must open
    // within a couple of probe rounds.
    wait_for(Duration::from_secs(10), "breaker to open", || {
        peer_state(&sick) == "open"
    });

    // While ejected, the cluster still serves: the sick peer is
    // demoted, never first choice.
    for i in 0..4 {
        let spec = compile_spec(&format!("around-{i}"), "vecsum:8");
        let reply = http(gw.addr, "POST", "/compile", &[], &spec);
        assert_eq!(reply.status, 200, "{}", reply.body);
        assert_ne!(
            reply.header("x-ptmap-peer"),
            Some(sick.as_str()),
            "ejected peer must not be routed to while healthy peers exist"
        );
    }

    // Lift the fault: cooldown (200ms) passes, a probe succeeds in
    // half-open, and the breaker closes again.
    drop(fault);
    wait_for(Duration::from_secs(10), "breaker to close", || {
        peer_state(&sick) == "closed"
    });

    // The journey is visible in the metrics: probes failed, the
    // breaker opened, and it transitioned back to closed.
    let text = gw.handle.metrics_text();
    check_prometheus_text(&text).expect("valid gateway metrics");
    let sick_label = format!("peer=\"{sick}\"");
    assert!(
        labelled_value(
            &text,
            "ptmap_gateway_probes_total",
            &format!("{sick_label},outcome=\"failed\"")
        )
        .unwrap_or(0.0)
            >= 2.0,
        "{text}"
    );
    assert!(
        labelled_value(
            &text,
            "ptmap_gateway_breaker_transitions_total",
            &format!("{sick_label},state=\"open\"")
        )
        .unwrap_or(0.0)
            >= 1.0,
        "{text}"
    );
    assert!(
        labelled_value(
            &text,
            "ptmap_gateway_breaker_transitions_total",
            &format!("{sick_label},state=\"closed\"")
        )
        .unwrap_or(0.0)
            >= 1.0,
        "{text}"
    );

    gw.stop();
    for d in daemons {
        d.stop();
    }
}

#[test]
fn sync_compiles_fail_over_when_the_owner_refuses() {
    let daemons: Vec<Daemon> = (0..3).map(|_| Daemon::boot()).collect();
    let peers: Vec<SocketAddr> = daemons.iter().map(|d| d.addr).collect();
    let gw = Gw::boot(&peers, |_| {});

    // Learn which peer owns this key.
    let spec = compile_spec("failover", "vecsum:12");
    let first = http(gw.addr, "POST", "/compile", &[], &spec);
    assert_eq!(first.status, 200, "{}", first.body);
    let owner = first.header("x-ptmap-peer").unwrap().to_string();

    // Refuse all gateway forwards to the owner; the same key must be
    // served by the next ring replica.
    let _fault = faultpoint::install(&format!("gateway_forward:refuse@{owner}")).unwrap();
    let reply = http(gw.addr, "POST", "/compile", &[], &spec);
    assert_eq!(reply.status, 200, "{}", reply.body);
    let stand_in = reply.header("x-ptmap-peer").unwrap().to_string();
    assert_ne!(stand_in, owner, "the refused owner cannot have answered");

    let text = gw.handle.metrics_text();
    assert!(
        metric_value(&text, "ptmap_gateway_retries_total").unwrap_or(0.0) >= 1.0,
        "failover must be counted as a retry:\n{text}"
    );
    assert!(
        labelled_value(
            &text,
            "ptmap_gateway_forward_failures_total",
            &format!("peer=\"{owner}\"")
        )
        .unwrap_or(0.0)
            >= 1.0,
        "{text}"
    );

    gw.stop();
    for d in daemons {
        d.stop();
    }
}

#[test]
fn async_jobs_survive_their_owner_dying() {
    let daemons: Vec<Daemon> = (0..3).map(|_| Daemon::boot()).collect();
    let peers: Vec<SocketAddr> = daemons.iter().map(|d| d.addr).collect();
    let gw = Gw::boot(&peers, |_| {});

    // Submit through the gateway and note the owning peer.
    let spec = compile_spec("survivor", "vecsum:20");
    let submit = http(gw.addr, "POST", "/jobs", &[], &spec);
    assert_eq!(submit.status, 202, "{}", submit.body);
    let submit_doc = json(&submit.body);
    let gid = match submit_doc.get("id") {
        Some(Value::UInt(u)) => *u,
        Some(Value::Int(i)) => *i as u64,
        other => panic!("submit body has no id ({other:?}): {}", submit.body),
    };
    let owner = submit
        .header("x-ptmap-peer")
        .expect("submit names the owner")
        .to_string();

    // Kill the owner (drains and releases its port).
    let mut survivors = Vec::new();
    for d in daemons {
        if d.addr.to_string() == owner {
            d.stop();
        } else {
            survivors.push(d);
        }
    }
    assert_eq!(survivors.len(), 2, "exactly one daemon was the owner");

    // Polling the gateway id must never 404: the gateway requeues the
    // job onto a replica and eventually reports it done.
    let t0 = Instant::now();
    let done = loop {
        let poll = http(gw.addr, "GET", &format!("/jobs/{gid}"), &[], "");
        assert_ne!(
            poll.status, 404,
            "job lost after owner death: {}",
            poll.body
        );
        if poll.status == 200 && poll.body.contains("\"state\":\"done\"") {
            break poll;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(120),
            "job never completed after requeue (last: {} {})",
            poll.status,
            poll.body
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(
        done.body.contains(&format!("\"id\":{gid}")),
        "poll bodies carry the gateway's id: {}",
        done.body
    );
    assert!(done.body.contains("\"report\""), "{}", done.body);

    let text = gw.handle.metrics_text();
    assert!(
        metric_value(&text, "ptmap_gateway_jobs_requeued_total").unwrap_or(0.0) >= 1.0,
        "the requeue must be visible in metrics:\n{text}"
    );

    let summary = gw.stop();
    assert!(summary.requeued >= 1);
    for d in survivors {
        d.stop();
    }
}

#[test]
fn loadtest_against_a_live_daemon_reports_zero_failures() {
    let daemon = Daemon::boot();
    let report = run_loadtest(&LoadtestConfig {
        target: daemon.addr.to_string(),
        workers: 2,
        requests: 12,
        seed: 7,
        distinct: 3,
        deadline_ms: Some(60_000),
    });
    assert_eq!(report.sent, 12);
    assert_eq!(report.failed(), 0, "errors: {:?}", report.errors);
    let rendered = report.render();
    assert!(rendered.contains("loadtest sent: 12"), "{rendered}");
    assert!(rendered.contains("loadtest failed: 0"), "{rendered}");
    daemon.stop();
}

#[test]
fn gateway_metrics_rollup_covers_the_cluster() {
    let daemons: Vec<Daemon> = (0..2).map(|_| Daemon::boot()).collect();
    let peers: Vec<SocketAddr> = daemons.iter().map(|d| d.addr).collect();
    let gw = Gw::boot(&peers, |_| {});

    // Traffic through the gateway lands on daemons; the rollup view
    // aggregates their counters.
    for i in 0..3 {
        let spec = compile_spec(&format!("roll-{i}"), "vecsum:8");
        assert_eq!(http(gw.addr, "POST", "/compile", &[], &spec).status, 200);
    }
    let text = http(gw.addr, "GET", "/metrics", &[], "").body;
    check_prometheus_text(&text).expect("valid rolled-up metrics");
    for required in [
        "ptmap_gateway_forwards_total",
        "ptmap_gateway_peer_state",
        "ptmap_gateway_peers_available",
        "ptmap_gateway_retries_total",
        "ptmap_cluster_compiles_started_total",
        "ptmap_cluster_peer_up",
    ] {
        assert!(text.contains(required), "missing {required}:\n{text}");
    }
    // The three specs share one request key (the job name is not part
    // of it), so the cluster saw one real compile and two cache hits.
    assert!(
        metric_sum(&text, "ptmap_cluster_compiles_started_total") >= 1.0,
        "cluster compiles rollup must cover the forwarded traffic:\n{text}"
    );
    assert!(
        metric_sum(&text, "ptmap_cluster_cache_hits_total") >= 2.0,
        "cluster cache-hit rollup must cover the repeated key:\n{text}"
    );
    for peer in &peers {
        assert_eq!(
            labelled_value(&text, "ptmap_cluster_peer_up", &format!("peer=\"{peer}\"")),
            Some(1.0),
            "{text}"
        );
    }

    gw.stop();
    for d in daemons {
        d.stop();
    }
}

#[test]
fn stitched_trace_covers_gateway_and_daemon_under_one_id() {
    let daemons: Vec<Daemon> = (0..3).map(|_| Daemon::boot()).collect();
    let peers: Vec<SocketAddr> = daemons.iter().map(|d| d.addr).collect();
    let gw = Gw::boot(&peers, |_| {});

    let spec = compile_spec("stitched", "vecsum:24");
    let reply = http(gw.addr, "POST", "/compile", &[], &spec);
    assert_eq!(reply.status, 200, "{}", reply.body);
    let trace_id = reply
        .header("x-ptmap-trace-id")
        .expect("compile responses carry the trace id")
        .to_string();

    // The raw stitched tree: gateway spans and the daemon's compile
    // tree under one trace id, with the compile root grafted onto the
    // winning forward span.
    let raw = http(
        gw.addr,
        "GET",
        &format!("/jobs/{trace_id}/trace?format=raw"),
        &[],
        "",
    );
    assert_eq!(raw.status, 200, "{}", raw.body);
    let trace: ptmap_trace::Trace = serde_json::from_str(&raw.body).expect("raw trace parses");
    assert_eq!(trace.trace_id, trace_id);
    let winner = trace
        .spans_named(ptmap_trace::FORWARD_SPAN)
        .find(|s| {
            s.attrs
                .iter()
                .any(|(k, v)| k == ptmap_trace::WINNER_ATTR && *v == AttrValue::Bool(true))
        })
        .expect("a winning forward span");
    let compile = trace
        .spans_named("compile")
        .next()
        .expect("daemon compile root grafted in");
    assert_eq!(
        compile.parent,
        Some(winner.id),
        "daemon tree must hang off the winning forward"
    );
    assert!(trace.spans_named("admission").next().is_some());
    assert!(trace.spans_named("ring_lookup").next().is_some());
    let roots = trace.spans.iter().filter(|s| s.parent.is_none()).count();
    assert_eq!(roots, 1, "stitched trace is a single tree");
    for (i, s) in trace.spans.iter().enumerate() {
        assert_eq!(s.id as usize, i, "span ids stay index-aligned");
        if let Some(p) = s.parent {
            assert!((p as usize) < i, "parents precede children");
        }
    }

    // The Chrome rendering of the same trace is balanced and names
    // both tiers' spans.
    let chrome = http(gw.addr, "GET", &format!("/jobs/{trace_id}/trace"), &[], "");
    assert_eq!(chrome.status, 200, "{}", chrome.body);
    let doc = json(&chrome.body);
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents array");
    let mut depth = 0i64;
    let mut names = std::collections::BTreeSet::new();
    for ev in events {
        match ev.get("ph").and_then(Value::as_str) {
            Some("B") => {
                depth += 1;
                if let Some(n) = ev.get("name").and_then(Value::as_str) {
                    names.insert(n.to_string());
                }
            }
            Some("E") => {
                depth -= 1;
                assert!(depth >= 0, "E without a matching B");
            }
            _ => {}
        }
    }
    assert_eq!(depth, 0, "unbalanced B/E events");
    for required in ["gateway", "admission", "forward", "compile"] {
        assert!(
            names.contains(required),
            "missing span {required:?}: {names:?}"
        );
    }

    gw.stop();
    for d in daemons {
        d.stop();
    }
}

#[test]
fn failover_leaves_retry_evidence_in_the_stitched_trace() {
    let daemons: Vec<Daemon> = (0..3).map(|_| Daemon::boot()).collect();
    let peers: Vec<SocketAddr> = daemons.iter().map(|d| d.addr).collect();
    let gw = Gw::boot(&peers, |_| {});

    // Learn which peer owns this key, then refuse all forwards to it.
    let spec = compile_spec("traced-failover", "vecsum:28");
    let first = http(gw.addr, "POST", "/compile", &[], &spec);
    assert_eq!(first.status, 200, "{}", first.body);
    let owner = first.header("x-ptmap-peer").unwrap().to_string();
    let _fault = faultpoint::install(&format!("gateway_forward:refuse@{owner}")).unwrap();

    let reply = http(gw.addr, "POST", "/compile", &[], &spec);
    assert_eq!(reply.status, 200, "{}", reply.body);
    let trace_id = reply.header("x-ptmap-trace-id").unwrap().to_string();

    // The stitched trace must show the refused attempt AND the retry
    // that won — the whole failover story in one tree. Fetching it
    // also exercises the budget-sliced peer fan-out: the probe to the
    // refused owner fails without eating the other peers' budget.
    let raw = http(
        gw.addr,
        "GET",
        &format!("/jobs/{trace_id}/trace?format=raw"),
        &[],
        "",
    );
    assert_eq!(raw.status, 200, "{}", raw.body);
    let trace: ptmap_trace::Trace = serde_json::from_str(&raw.body).expect("raw trace parses");
    let forwards: Vec<_> = trace.spans_named(ptmap_trace::FORWARD_SPAN).collect();
    assert!(
        forwards.len() >= 2,
        "refused attempt plus failover, got {}",
        forwards.len()
    );
    let refused = forwards
        .iter()
        .find(|s| s.attrs.iter().any(|(k, _)| k == "error"))
        .expect("the refused attempt records its error");
    assert!(
        refused
            .attrs
            .iter()
            .any(|(k, v)| k == "attempt" && *v == AttrValue::UInt(0)),
        "{:?}",
        refused.attrs
    );
    let winner = forwards
        .iter()
        .find(|s| {
            s.attrs
                .iter()
                .any(|(k, v)| k == ptmap_trace::WINNER_ATTR && *v == AttrValue::Bool(true))
        })
        .expect("a winning forward span");
    assert!(
        winner
            .attrs
            .iter()
            .any(|(k, v)| k == "attempt" && matches!(v, AttrValue::UInt(n) if *n >= 1)),
        "the winner must have been a retry: {:?}",
        winner.attrs
    );
    assert!(
        trace.spans_named("compile").next().is_some(),
        "the stand-in daemon's compile tree is stitched in"
    );

    gw.stop();
    for d in daemons {
        d.stop();
    }
}

#[test]
fn gateway_flight_recorder_replays_schema_valid_events() {
    let daemon = Daemon::boot();
    let gw = Gw::boot(&[daemon.addr], |_| {});

    let spec = compile_spec("evented", "vecsum:10");
    let reply = http(gw.addr, "POST", "/compile", &[], &spec);
    assert_eq!(reply.status, 200, "{}", reply.body);
    let trace_id = reply.header("x-ptmap-trace-id").unwrap().to_string();

    // Every flight-recorder line is schema-valid JSON; at least one is
    // correlated to the compile's trace id.
    let events = http(gw.addr, "GET", "/debug/events", &[], "");
    assert_eq!(events.status, 200);
    assert!(!events.body.is_empty(), "the compile must have logged");
    let mut correlated = false;
    for line in events.body.lines() {
        let ev = json(line);
        for key in ["ts", "level", "component", "event"] {
            assert!(ev.get(key).is_some(), "event missing {key:?}: {line}");
        }
        assert_eq!(ev.get("component").and_then(Value::as_str), Some("gateway"));
        if ev.get("trace_id").and_then(Value::as_str) == Some(trace_id.as_str()) {
            correlated = true;
        }
    }
    assert!(
        correlated,
        "no event correlated to trace {trace_id}:\n{}",
        events.body
    );

    // `n=` bounds the replay to the most recent lines.
    let one = http(gw.addr, "GET", "/debug/events?n=1", &[], "");
    assert_eq!(one.status, 200);
    assert_eq!(one.body.lines().count(), 1, "{}", one.body);

    gw.stop();
    daemon.stop();
}

#[test]
fn idle_gateway_shutdown_does_not_wait_out_the_probe_interval() {
    // No peer listens on port 1, so each probe round fails at once and
    // the prober spends the run parked in its 5 s interval.
    let dead: SocketAddr = "127.0.0.1:1".parse().unwrap();
    let gw = Gw::boot(&[dead], |c| c.probe_interval = Duration::from_secs(5));
    std::thread::sleep(Duration::from_millis(300));
    let t0 = Instant::now();
    let summary = gw.stop();
    let took = t0.elapsed();
    assert!(summary.clean);
    assert!(
        took < Duration::from_secs(2),
        "drain must not wait out the probe interval, took {took:?}"
    );
}
