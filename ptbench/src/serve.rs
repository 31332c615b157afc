//! The `serve-*` workloads: the release `ptmap serve` daemon (and, for
//! `serve-gateway`, `ptmap gateway` in front of two daemons) driven
//! over HTTP by two closed-loop clients.
//!
//! A run is a sequence of rounds. Each round boots a fresh cluster
//! (its set-up time is one `setup_s` sample), sends one round of the
//! seeded stream, and stops the cluster; a fresh daemon has a cold
//! report cache, so every round compiles each spec exactly once and
//! the hit/miss mix is the same in every round and every run.
//!
//! The daemon and the gateway poll their listeners and sleep
//! [`ACCEPT_POLL`] when no connection is waiting, so a request waits
//! for the next poll at each process it enters. Two things keep that
//! wait from locking to one value per run:
//!
//! - each client pauses for a seeded time, uniform over one poll
//!   period, before each request. A client that sent the next request
//!   the instant the last reply came back would meet the poll at the
//!   same phase every time, and its latency would follow the host's
//!   speed modulo 10 ms;
//! - `serve-gateway` boots a fresh gateway [`GATEWAY_LEGS`] times per
//!   round, keeping the daemons and their caches. The gateway forwards
//!   right after its own poll, so the daemon's wait is set by the
//!   offset between the two poll loops, which is fixed from boot for
//!   a gateway's lifetime. Booting it again draws a new offset; many
//!   draws per run average it out.

use crate::ledger::Ledger;
use crate::provenance::{self, Provenance};
use crate::report::Outcome;
use crate::stats::{geomean, hd_quantile, mean, median, quartiles, tail_supported};
use crate::stream::{Spec, Stream};
use crate::Args;
use ptmap_core::CompileReport;
use ptmap_pipeline::{run_batch, BatchConfig, Job, JobOutcome, JobSpec};
use ptmap_serve::client;
use ptmap_trace::Tracer;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::ops::Range;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Closed-loop clients, one connection each.
const CLIENTS: usize = 2;
/// A run keeps adding rounds until it has this many requests, so at
/// least ten lie beyond the 90th percentile.
const MIN_REQUESTS: usize = 100;
/// Longest wait for a process to boot or a cluster to become healthy.
const BOOT_TIMEOUT: Duration = Duration::from_secs(20);
/// Per-request deadline; far above any compile in the stream.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(60);
/// The idle sleep of the daemon's and the gateway's accept loops; the
/// span of the clients' pause before each request.
const ACCEPT_POLL: Duration = Duration::from_millis(10);
/// Gateways booted per `serve-gateway` round, each serving an equal
/// share of the round's requests.
const GATEWAY_LEGS: usize = 6;

/// One `ptmap` child process; killed and reaped on drop.
struct Proc {
    child: Child,
    // Held open so the child's later writes to stdout never fail.
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Proc {
    /// Spawns `ptmap <args> --addr 127.0.0.1:0` and returns once its
    /// boot line names the bound address.
    fn spawn(ptmap: &Path, args: &[&str]) -> Result<Proc, String> {
        let mut child = Command::new(ptmap)
            .args(args)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", ptmap.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .map(str::to_string);
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Proc {
                child,
                _stdout: stdout,
                addr,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("ptmap {} did not boot (read {line:?})", args[0]))
            }
        }
    }

    /// Polls `/healthz` until it answers 200 with a body accepted by `ok`.
    fn wait_healthy(&self, ok: impl Fn(&str) -> bool) -> Result<(), String> {
        let start = Instant::now();
        loop {
            if let Ok(r) = get(&self.addr, "/healthz") {
                if r.status == 200 && ok(&r.body_text()) {
                    return Ok(());
                }
            }
            if start.elapsed() > BOOT_TIMEOUT {
                return Err(format!("{} not healthy after {BOOT_TIMEOUT:?}", self.addr));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn peak_rss_mib(&self) -> f64 {
        provenance::peak_rss_mib(self.child.id())
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn get(addr: &str, path: &str) -> Result<client::PeerResponse, String> {
    client::request(
        addr,
        "GET",
        path,
        &[],
        b"",
        Some(Instant::now() + Duration::from_secs(5)),
    )
    .map_err(|e| format!("GET {addr}{path}: {e}"))
}

/// The daemons and, for `serve-gateway`, the gateway of one round.
struct Cluster {
    daemons: Vec<Proc>,
    gateway: Option<Proc>,
}

impl Cluster {
    /// Boots the cluster and waits until it serves. Returns it with its
    /// set-up time: for one daemon, spawn until its boot line (bound and
    /// serving); with the gateway, spawn until the gateway reports every
    /// peer available. A daemon's `/healthz` is polled outside the
    /// timed part, because the first probe either beats its accept loop
    /// or waits out one idle sleep, so its timing splits into two modes
    /// 10 ms apart.
    fn start(ptmap: &Path, with_gateway: bool) -> Result<(Cluster, f64), String> {
        let t = Instant::now();
        let n = if with_gateway { 2 } else { 1 };
        let daemons = (0..n)
            .map(|_| Proc::spawn(ptmap, &["serve", "--workers", "2"]))
            .collect::<Result<Vec<_>, _>>()?;
        let mut cluster = Cluster {
            daemons,
            gateway: None,
        };
        if with_gateway {
            cluster.gateway = Some(cluster.boot_gateway(ptmap)?);
        }
        let setup = t.elapsed().as_secs_f64();
        for d in &cluster.daemons {
            d.wait_healthy(|_| true)?;
        }
        Ok((cluster, setup))
    }

    /// Boots a gateway over the daemons and waits until it reports
    /// every peer available.
    fn boot_gateway(&self, ptmap: &Path) -> Result<Proc, String> {
        let peers = self
            .daemons
            .iter()
            .map(|d| d.addr.as_str())
            .collect::<Vec<_>>()
            .join(",");
        let g = Proc::spawn(ptmap, &["gateway", "--peers", &peers])?;
        let want = format!("\"peers_available\":{}", self.daemons.len());
        g.wait_healthy(|body| body.contains(&want))?;
        Ok(g)
    }

    /// Stops the gateway and boots a new one over the same daemons.
    fn restart_gateway(&mut self, ptmap: &Path) -> Result<(), String> {
        self.gateway = None;
        self.gateway = Some(self.boot_gateway(ptmap)?);
        Ok(())
    }

    /// The address the clients talk to.
    fn target(&self) -> &str {
        self.gateway
            .as_ref()
            .unwrap_or(&self.daemons[0])
            .addr
            .as_str()
    }

    fn peak_rss_mib(&self) -> f64 {
        self.daemons
            .iter()
            .chain(&self.gateway)
            .map(Proc::peak_rss_mib)
            .sum()
    }
}

/// How the service answered one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Hit,
    Miss,
    Coalesced,
    Failed,
}

struct Sample {
    round: u64,
    seq: usize,
    spec: usize,
    latency_s: f64,
    class: Class,
    /// The report with timing stripped, as JSON (200 responses only).
    report: Option<String>,
}

/// Sends one request; returns its latency and either the answer's
/// class with its report (timing stripped, as JSON) or what went wrong.
fn send(target: &str, spec: &Spec, tracer: &Tracer) -> (f64, Result<(Class, String), String>) {
    let span = tracer.span("bench.request");
    span.attr("spec", spec.label());
    let t = Instant::now();
    let resp = client::request(
        target,
        "POST",
        "/compile",
        &[("Content-Type", "application/json")],
        spec.body().as_bytes(),
        Some(Instant::now() + REQUEST_TIMEOUT),
    );
    let latency = t.elapsed().as_secs_f64();
    let resp = match resp {
        Ok(r) => r,
        Err(e) => {
            span.attr("error", e.to_string());
            return (latency, Err(format!("{}: {e}", spec.label())));
        }
    };
    span.attr("status", u64::from(resp.status));
    if let Some(id) = resp.header("x-ptmap-trace-id") {
        span.attr("daemon_trace_id", id);
    }
    let outcome: Option<JobOutcome> = serde_json::from_str(&resp.body_text()).ok();
    let Some((outcome, report)) = outcome
        .as_ref()
        .and_then(|o| Some((o, o.report.as_ref()?)))
        .filter(|_| resp.status == 200)
    else {
        return (
            latency,
            Err(format!("{}: status {}", spec.label(), resp.status)),
        );
    };
    let class = if outcome.cache_hit {
        Class::Hit
    } else if resp.header("x-ptmap-coalesced") == Some("1") {
        Class::Coalesced
    } else {
        Class::Miss
    };
    span.attr("class", format!("{class:?}"));
    let text = serde_json::to_string(&report.without_timing()).expect("report serializes");
    (latency, Ok((class, text)))
}

/// Sends requests `seqs` of one round's `order` from [`CLIENTS`]
/// closed-loop clients, each pausing before every request.
fn run_leg(
    target: &str,
    stream: &Stream,
    round: u64,
    order: &[usize],
    seqs: Range<usize>,
    ledger: Option<&Ledger>,
) -> (Vec<Sample>, Vec<String>, f64) {
    let next = AtomicUsize::new(seqs.start);
    let problems = Mutex::new(Vec::new());
    let t0 = Instant::now();
    let samples: Vec<Sample> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let seq = next.fetch_add(1, Ordering::Relaxed);
                        if seq >= seqs.end {
                            break;
                        }
                        let spec = order[seq];
                        std::thread::sleep(stream.pause(round, seq, ACCEPT_POLL));
                        let tracer = ledger.map_or_else(Tracer::disabled, |_| {
                            Tracer::root(&format!("request-{round}-{seq}"))
                        });
                        let (latency_s, answer) = send(target, &stream.specs[spec], &tracer);
                        if let (Some(l), Some(t)) = (ledger, tracer.finish()) {
                            l.push(t);
                        }
                        let (class, report) = match answer {
                            Ok((class, report)) => (class, Some(report)),
                            Err(problem) => {
                                problems.lock().expect("problem list lock").push(problem);
                                (Class::Failed, None)
                            }
                        };
                        mine.push(Sample {
                            round,
                            seq,
                            spec,
                            latency_s,
                            class,
                            report,
                        });
                    }
                    mine
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    (
        samples,
        problems.into_inner().expect("problem list lock"),
        wall,
    )
}

/// A parsed Prometheus text document: `(name, labels, value)` rows.
struct Scrape(Vec<(String, String, f64)>);

impl Scrape {
    fn fetch(addr: &str) -> Result<Scrape, String> {
        let text = get(addr, "/metrics")?.body_text();
        let rows = text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
            .filter_map(|l| {
                let (series, value) = l.rsplit_once(' ')?;
                let value: f64 = value.parse().ok()?;
                let (name, labels) = match series.split_once('{') {
                    Some((n, rest)) => (n, rest.trim_end_matches('}')),
                    None => (series, ""),
                };
                Some((name.to_string(), labels.to_string(), value))
            })
            .collect();
        Ok(Scrape(rows))
    }

    /// Sum of every series named `name` whose labels contain `label`.
    fn sum(&self, name: &str, label: &str) -> f64 {
        self.0
            .iter()
            .filter(|(n, l, _)| n == name && l.contains(label))
            .map(|(_, _, v)| v)
            .sum()
    }
}

/// Daemon- and gateway-side counters summed over the rounds.
#[derive(Default)]
struct ServiceTotals {
    /// Per-daemon compiles, by daemon index.
    compiles: Vec<f64>,
    daemon_requests: f64,
    daemon_seconds: f64,
    gateway_requests: f64,
    gateway_seconds: f64,
    cache_hits: f64,
    coalesced: f64,
    rejects: f64,
    forwards: f64,
    retries: f64,
    stages: BTreeMap<&'static str, f64>,
    events: BTreeMap<&'static str, f64>,
}

const STAGES: [&str; 5] = ["explore", "evaluate", "map", "simulate", "job"];
const EVENTS: [&str; 4] = [
    "candidates_explored",
    "candidates_pruned",
    "mapper_accepts",
    "mapper_rejects",
];
const COMPILE: &str = "endpoint=\"compile\"";

impl ServiceTotals {
    /// Adds the counters of every process in the cluster.
    fn absorb(&mut self, cluster: &Cluster) -> Result<(), String> {
        self.compiles.resize(cluster.daemons.len(), 0.0);
        for (i, d) in cluster.daemons.iter().enumerate() {
            let s = Scrape::fetch(&d.addr)?;
            self.compiles[i] += s.sum("ptmap_compiles_started_total", "");
            self.daemon_requests += s.sum("ptmap_http_request_seconds_count", COMPILE);
            self.daemon_seconds += s.sum("ptmap_http_request_seconds_sum", COMPILE);
            self.cache_hits += s.sum("ptmap_cache_hits_total", "");
            self.coalesced += s.sum("ptmap_coalesced_requests_total", "");
            self.rejects += s.sum("ptmap_admission_rejects_total", "");
            for stage in STAGES {
                *self.stages.entry(stage).or_default() +=
                    s.sum("ptmap_stage_seconds_total", &format!("stage=\"{stage}\""));
            }
            for event in EVENTS {
                *self.events.entry(event).or_default() +=
                    s.sum("ptmap_pipeline_events_total", &format!("event=\"{event}\""));
            }
        }
        match &cluster.gateway {
            Some(g) => self.absorb_gateway(g),
            None => Ok(()),
        }
    }

    /// Adds the counters of one gateway.
    fn absorb_gateway(&mut self, gateway: &Proc) -> Result<(), String> {
        let s = Scrape::fetch(&gateway.addr)?;
        self.gateway_requests += s.sum("ptmap_http_request_seconds_count", COMPILE);
        self.gateway_seconds += s.sum("ptmap_http_request_seconds_sum", COMPILE);
        self.forwards += s.sum("ptmap_gateway_forwards_total", "");
        self.retries += s.sum("ptmap_gateway_retries_total", "");
        Ok(())
    }

    fn report(&self, client_mean_ms: f64, gateway: bool, out: &mut Outcome) {
        let ms = |secs: f64, n: f64| if n > 0.0 { 1e3 * secs / n } else { 0.0 };
        let daemon_ms = ms(self.daemon_seconds, self.daemon_requests);
        let stage = |s: &str| self.stages.get(s).copied().unwrap_or(0.0);
        let event = |e: &str| self.events.get(e).copied().unwrap_or(0.0);
        let staged = stage("explore") + stage("evaluate") + stage("map") + stage("simulate");
        out.set("transform.explore_s", stage("explore"));
        out.set("transform.candidates", event("candidates_explored"));
        out.set("eval.evaluate_s", stage("evaluate"));
        out.set(
            "eval.evaluate_pct",
            if stage("job") > 0.0 {
                100.0 * stage("evaluate") / stage("job")
            } else {
                0.0
            },
        );
        out.set("eval.pruned", event("candidates_pruned"));
        out.set("mapper.map_s", stage("map"));
        out.set("mapper.accepts", event("mapper_accepts"));
        out.set("mapper.rejects", event("mapper_rejects"));
        out.set("sim.simulate_s", stage("simulate"));
        out.set("pipeline.overhead_s", stage("job") - staged);
        out.set("pipeline.evaluate_s", stage("evaluate"));
        out.set("pipeline.map_s", stage("map"));
        let compiles: f64 = self.compiles.iter().sum();
        let server_ms = if gateway {
            ms(self.gateway_seconds, self.gateway_requests)
        } else {
            daemon_ms
        };
        out.set("serve.server_ms", server_ms);
        out.set("serve.accept_wait_ms", client_mean_ms - server_ms);
        out.set("serve.compiles", compiles);
        out.set("serve.cache_hits", self.cache_hits);
        out.set("serve.coalesced", self.coalesced);
        out.set("serve.rejects", self.rejects);
        out.set(
            "serve.reuse_ratio",
            if self.daemon_requests > 0.0 {
                (self.cache_hits + self.coalesced) / self.daemon_requests
            } else {
                0.0
            },
        );
        if gateway {
            let (lo, hi) = self
                .compiles
                .iter()
                .fold((f64::INFINITY, 0.0f64), |(lo, hi), &c| {
                    (lo.min(c), hi.max(c))
                });
            out.set("gateway.hop_ms", server_ms - daemon_ms);
            out.set("gateway.forwards", self.forwards);
            out.set("gateway.retries", self.retries);
            out.set("gateway.peer_skew", if lo > 0.0 { hi / lo } else { 0.0 });
        }
        println!(
            "service compile requests: daemon {} (mean {daemon_ms:.3} ms), gateway {}",
            self.daemon_requests, self.gateway_requests
        );
    }
}

/// Compiles every spec in process with the daemon's default
/// configuration (untimed, so on both cores); reports without timing.
fn references(specs: &[Spec]) -> Result<Vec<CompileReport>, String> {
    let jobs = specs
        .iter()
        .map(|s| {
            Job::resolve(&JobSpec {
                name: None,
                kernel: s.kernel.clone(),
                arch: s.arch.clone(),
                predictor: None,
                mode: None,
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    let batch = run_batch(
        &jobs,
        &BatchConfig {
            workers: 2,
            ..BatchConfig::default()
        },
    );
    batch
        .outcomes
        .iter()
        .map(|o| {
            o.report
                .as_ref()
                .map(CompileReport::without_timing)
                .ok_or_else(|| {
                    format!(
                        "reference {}: {}",
                        o.name,
                        o.error.clone().unwrap_or_default()
                    )
                })
        })
        .collect()
}

pub fn run(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let with_gateway = args.workload == "serve-gateway";
    let stream = Stream::new(args.seed);
    let prov = Provenance::capture(&args.root, None);
    let ledger = args.trace.then(Ledger::default);
    let mut totals = ServiceTotals::default();
    let mut samples: Vec<Sample> = Vec::new();
    let mut setups = Vec::new();
    let mut rss = Vec::new();
    let mut busy = 0.0;
    let budget = Duration::from_secs(args.seconds);
    let t0 = Instant::now();
    let mut round = 0u64;
    while round == 0 || t0.elapsed() < budget || samples.len() < MIN_REQUESTS {
        let tracer = ledger.as_ref().map_or_else(Tracer::disabled, |_| {
            Tracer::root(&format!("round-{round}"))
        });
        let setup_span = tracer.span("bench.setup");
        let (mut cluster, setup) = Cluster::start(&args.ptmap, with_gateway)?;
        setups.push(setup);
        drop(setup_span);
        let order = stream.round(round);
        let legs = if with_gateway { GATEWAY_LEGS } else { 1 };
        for leg in 0..legs {
            if leg > 0 {
                let _restart = tracer.span("bench.gateway_restart");
                if args.trace {
                    totals.absorb_gateway(cluster.gateway.as_ref().expect("gateway"))?;
                }
                cluster.restart_gateway(&args.ptmap)?;
            }
            let seqs = order.len() * leg / legs..order.len() * (leg + 1) / legs;
            let requests_span = tracer.span("bench.requests");
            let (leg_samples, problems, wall) = run_leg(
                cluster.target(),
                &stream,
                round,
                &order,
                seqs,
                ledger.as_ref(),
            );
            drop(requests_span);
            busy += wall;
            for p in problems {
                out.fail(p);
            }
            samples.extend(leg_samples);
        }
        rss.push(cluster.peak_rss_mib());
        if args.trace {
            let _scrape = tracer.span("bench.scrape");
            totals.absorb(&cluster)?;
        }
        drop(cluster);
        if let (Some(l), Some(t)) = (&ledger, tracer.finish()) {
            l.push(t);
        }
        round += 1;
    }
    out.attempted += samples.len() as u64;

    // Correctness: every 200 answer must equal an in-process compile
    // of the same spec with the daemon's configuration.
    let mut answers: BTreeMap<usize, BTreeMap<&str, u64>> = BTreeMap::new();
    for s in &samples {
        if let Some(r) = &s.report {
            *answers
                .entry(s.spec)
                .or_default()
                .entry(r.as_str())
                .or_default() += 1;
        }
    }
    let quality = references(&stream.specs)?;
    for (spec, expected) in quality.iter().enumerate() {
        let label = stream.specs[spec].label();
        let Some(texts) = answers.get(&spec) else {
            out.fail(format!("{label}: never answered 200"));
            continue;
        };
        let expected_text = serde_json::to_string(expected).expect("report serializes");
        for (&text, &n) in texts {
            if text != expected_text {
                for _ in 0..n {
                    out.fail(format!(
                        "{label}: report differs from the in-process compile"
                    ));
                }
            }
        }
    }

    // compile_s: per spec, the median over rounds of its first miss.
    let mut first_miss: BTreeMap<(u64, usize), (usize, f64)> = BTreeMap::new();
    for s in samples.iter().filter(|s| s.class == Class::Miss) {
        let e = first_miss
            .entry((s.round, s.spec))
            .or_insert((s.seq, s.latency_s));
        if s.seq < e.0 {
            *e = (s.seq, s.latency_s);
        }
    }
    let mut per_spec: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for ((_, spec), (_, lat)) in first_miss {
        per_spec.entry(spec).or_default().push(lat);
    }
    let latencies: Vec<f64> = samples.iter().map(|s| s.latency_s * 1e3).collect();
    let of_class = |c: Class| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| s.class == c)
            .map(|s| s.latency_s * 1e3)
            .collect()
    };
    out.set(
        "compile_s",
        per_spec.values().filter_map(|v| median(v)).sum(),
    );
    out.set("setup_s", median(&setups).unwrap_or(0.0));
    out.set(
        "sim_cycles_total",
        quality.iter().map(|r| r.cycles as f64).sum(),
    );
    out.set(
        "edp_geomean",
        geomean(&quality.iter().map(|r| r.edp).collect::<Vec<_>>()).unwrap_or(0.0),
    );
    out.set(
        "latency_p50_ms",
        hd_quantile(&latencies, 0.5).unwrap_or(0.0),
    );
    out.set(
        "latency_p90_ms",
        hd_quantile(&latencies, 0.9).unwrap_or(0.0),
    );
    out.set("throughput_rps", samples.len() as f64 / busy);
    out.set("peak_rss_mb", median(&rss).unwrap_or(0.0));
    let (q1, q3) = quartiles(&latencies).unwrap_or((0.0, 0.0));
    println!(
        "samples rounds={round} requests={} hits={} misses={} coalesced={} \
         p90_supported={} latency_q1_ms={q1:.3} latency_q3_ms={q3:.3}",
        samples.len(),
        of_class(Class::Hit).len(),
        of_class(Class::Miss).len(),
        of_class(Class::Coalesced).len(),
        tail_supported(latencies.len(), 0.9)
    );
    // The mix follows from the assumed repeat profile in `stream.rs`,
    // not from a recorded request log; print it beside the metrics.
    let share = |c: Class| of_class(c).len() as f64 / samples.len().max(1) as f64;
    println!(
        "request mix (assumed profile, not recorded traffic): hit {:.3} miss {:.3} coalesced {:.3} \
         failed {:.3}",
        share(Class::Hit),
        share(Class::Miss),
        share(Class::Coalesced),
        share(Class::Failed)
    );

    if let Some(ledger) = &ledger {
        out.set(
            "serve.hit_p50_ms",
            median(&of_class(Class::Hit)).unwrap_or(0.0),
        );
        out.set(
            "serve.miss_p50_ms",
            median(&of_class(Class::Miss)).unwrap_or(0.0),
        );
        totals.report(mean(&latencies).unwrap_or(0.0), with_gateway, out);
        ledger.write(args, &prov)?;
    }
    prov.finish_and_print();
    Ok(())
}
