//! The sharding gateway: one HTTP front for a cluster of daemons.
//!
//! `ptmap gateway` runs the [`Server`](crate::Server)'s accept loop
//! but compiles nothing itself. Every `POST /compile` / `POST /jobs` is
//! routed by its pipeline [`request_key`] over a consistent-hash
//! [`HashRing`] of backend daemons, so one kernel always lands on the
//! same peer and that peer's report cache stays hot. Around that core
//! routing decision the gateway layers the cluster's failure handling:
//!
//! * **Health-checked ejection** — a prober thread hits each peer's
//!   `/healthz` every `probe_interval`; a run of failures opens that
//!   peer's [`Breaker`] and replica selection skips it until a cooldown
//!   passes and a half-open probe succeeds. Ring membership never
//!   changes, so a recovered peer gets its keys (and cache) back.
//! * **Retry with backoff** — connect/transport failures and peer
//!   `503`s reshard to the next replica in the key's failover sequence
//!   after an exponential backoff with deterministic jitter, all under
//!   the request's governor [`Budget`]; the deadline bounds the whole
//!   forward including every retry.
//! * **Deadline & trace propagation** — every hop re-derives
//!   `X-Ptmap-Deadline-Ms` from the *remaining* budget and carries the
//!   client's `X-Ptmap-Trace-Id` through, so a trace spans the cluster.
//! * **Hedged requests** — optionally, a sync compile still unanswered
//!   after `hedge_after` starts a second forward against the next
//!   replica; first response wins.
//! * **Shared cache tier** — with `--cache-dir`, a compile whose key is
//!   already in the gateway's [`ReportCache`] is answered locally;
//!   forwarded successes populate it.
//! * **Async job continuity** — the gateway keeps each submitted job's
//!   raw spec; polling a job whose owner died resubmits it to the next
//!   live replica instead of surfacing the loss.
//!
//! `GET /metrics` serves the gateway's own series plus a cluster
//! rollup scraped from live peers; `GET /cluster` is the membership
//! introspection endpoint.

use crate::accept::{self, Connections};
use crate::client::{self, ClientError, PeerResponse};
use crate::http::{read_request, write_response, HttpError, Request, Response};
use crate::metrics::{render_http_sections, ServiceMetrics};
use crate::server::{error_outcome, outcome_status};
use crate::shard::{hash64, Breaker, BreakerState, HashRing};
use crate::traces::TraceStore;
use crate::{lock_unpoisoned, signal};
use ptmap_core::PtMapConfig;
use ptmap_governor::faultpoint::{fail_point, sites, with_scope};
use ptmap_governor::Budget;
use ptmap_mapper::BackendKind;
use ptmap_pipeline::{request_key, Job, JobOutcome, JobSpec, ReportCache};
use ptmap_trace::obs::{EventLog, Level, LogFormat};
use ptmap_trace::{
    chrome_trace_json, next_trace_id, stitch, AttrValue, Span, Trace, Tracer, FORWARD_SPAN,
    WINNER_ATTR,
};
use serde_json::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Deadline for one health probe or metrics scrape of a peer.
const PROBE_DEADLINE: Duration = Duration::from_millis(750);
/// Deadline for forwarding one async-job poll.
const POLL_DEADLINE: Duration = Duration::from_secs(10);

/// How the gateway is configured (flags + defaults).
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Bind address (port `0` = ephemeral; printed on boot).
    pub addr: String,
    /// Backend daemon addresses (`host:port`). The ring is built over
    /// the deduplicated set.
    pub peers: Vec<String>,
    /// Health-probe period per peer.
    pub probe_interval: Duration,
    /// Consecutive failures that open a peer's breaker.
    pub failure_threshold: u32,
    /// How long an open breaker waits before a half-open probe.
    pub cooldown: Duration,
    /// Extra forward attempts after the first (resharded to the next
    /// replica each time).
    pub max_retries: u32,
    /// First backoff step; doubles per retry, plus deterministic
    /// jitter.
    pub backoff_base: Duration,
    /// Start a second (hedged) forward for a sync compile still
    /// unanswered after this long. `None` disables hedging.
    pub hedge_after: Option<Duration>,
    /// Shared report-cache directory consulted before forwarding
    /// (`None` = no gateway cache tier).
    pub cache_dir: Option<PathBuf>,
    /// Base compiler configuration — must match the peers' so request
    /// keys (and therefore routing and cache identity) agree.
    pub base: PtMapConfig,
    /// Per-request deadline when the client sends none; also the cap
    /// on client-supplied `X-Ptmap-Deadline-Ms`.
    pub default_timeout: Duration,
    /// How long drain waits for in-flight forwards.
    pub drain_timeout: Duration,
    /// Directory where stitched cluster traces for sync compiles are
    /// exported as `<trace-id>.json` Chrome trace-event documents
    /// (`None` = no export; `GET /jobs/<id>/trace` still works).
    pub trace_dir: Option<PathBuf>,
    /// Minimum severity the structured event log records.
    pub log_level: Level,
    /// How event-log lines are rendered on stderr (the `/debug/events`
    /// flight recorder always keeps JSON).
    pub log_format: LogFormat,
}

impl Default for GatewayConfig {
    fn default() -> GatewayConfig {
        GatewayConfig {
            addr: "127.0.0.1:7190".to_string(),
            peers: Vec::new(),
            probe_interval: Duration::from_millis(500),
            failure_threshold: 3,
            cooldown: Duration::from_secs(2),
            max_retries: 3,
            backoff_base: Duration::from_millis(25),
            hedge_after: None,
            cache_dir: None,
            base: PtMapConfig::default(),
            default_timeout: Duration::from_secs(300),
            drain_timeout: Duration::from_secs(20),
            trace_dir: None,
            log_level: Level::Info,
            log_format: LogFormat::Text,
        }
    }
}

/// What the gateway reported when it exited.
#[derive(Debug, Clone)]
pub struct GatewaySummary {
    /// Requests handled over the gateway's lifetime.
    pub requests: u64,
    /// Forward attempts dispatched to peers.
    pub forwards: u64,
    /// Forward attempts that were retries.
    pub retries: u64,
    /// Hedged forwards started.
    pub hedges: u64,
    /// Async jobs resubmitted after their owner died.
    pub requeued: u64,
    /// Whether everything in flight finished inside the drain timeout.
    pub clean: bool,
}

/// Live per-peer state: identity, breaker, and counters.
struct Peer {
    addr: String,
    breaker: Mutex<Breaker>,
    /// Forward attempts that reached a parsed HTTP response.
    forwards: AtomicU64,
    /// Forward attempts that failed in transport.
    failures: AtomicU64,
    probes_ok: AtomicU64,
    probes_failed: AtomicU64,
}

/// One tracked async job: enough to poll its owner and to resubmit it
/// elsewhere if the owner dies.
#[derive(Clone)]
struct GwJob {
    /// The raw spec body as submitted (replayed verbatim on requeue).
    body: Vec<u8>,
    /// The client's `X-Ptmap-Quality`, re-propagated on requeue.
    quality: Option<String>,
    /// Routing key (pipeline request key).
    key: String,
    /// Index of the owning peer.
    peer: usize,
    /// The job id the owning peer assigned.
    remote_id: u64,
    /// The final poll body (id already rewritten), retained so a
    /// finished job survives its owner dying afterwards.
    done: Option<String>,
    /// The gateway-side root span for the job's whole tracked
    /// lifetime. Requeue/poll activity nests under it; it stays open
    /// until the trace is snapshotted at completion (an open root
    /// exports clamped to the trace wall time).
    span: Arc<Span>,
}

impl GwJob {
    /// The job's gateway trace handle (scoped to its root span).
    fn tracer(&self) -> &Tracer {
        self.span.tracer()
    }
}

/// Everything the gateway's handler threads share.
struct GatewayState {
    config: GatewayConfig,
    ring: HashRing,
    peers: Vec<Peer>,
    cache: Option<ReportCache>,
    metrics: ServiceMetrics,
    /// Finished gateway-side span trees, ready for stitching.
    traces: TraceStore,
    /// Structured event log; also the `/debug/events` flight recorder.
    log: Arc<EventLog>,
    /// (peer index, new state name) → transition count.
    transitions: Mutex<BTreeMap<(usize, &'static str), u64>>,
    /// Gateway job id → tracked job.
    jobs: Mutex<BTreeMap<u64, GwJob>>,
    next_job_id: AtomicU64,
    retries: AtomicU64,
    hedges: AtomicU64,
    hedge_wins: AtomicU64,
    requeued: AtomicU64,
    shared_cache_hits: AtomicU64,
    root: Budget,
    stop: AtomicBool,
    draining: AtomicBool,
    conns: Arc<Connections>,
    requests: AtomicU64,
}

impl GatewayState {
    /// Records a breaker transition for `/metrics`, `/cluster`, and
    /// the event log.
    fn note_transition(&self, peer: usize, change: Option<(BreakerState, BreakerState)>) {
        if let Some((from, to)) = change {
            *lock_unpoisoned(&self.transitions)
                .entry((peer, to.name()))
                .or_default() += 1;
            self.log.info(
                "breaker_transition",
                None,
                "",
                &[
                    ("peer", AttrValue::Str(self.peers[peer].addr.clone())),
                    ("from", from.name().into()),
                    ("to", to.name().into()),
                ],
            );
        }
    }

    /// Peer indices whose breaker admits traffic right now.
    fn available_peers(&self) -> Vec<usize> {
        let now = Instant::now();
        (0..self.peers.len())
            .filter(|i| lock_unpoisoned(&self.peers[*i].breaker).admits(now))
            .collect()
    }

    /// The failover sequence for `key`, rotated by `offset`, with
    /// breaker-ejected peers moved to the back (they are still tried
    /// last rather than never — a fully ejected cluster beats an
    /// instant failure).
    fn candidates(&self, key: &str, offset: usize) -> Vec<usize> {
        let order = self.ring.replicas(key);
        if order.is_empty() {
            return order;
        }
        let rotated: Vec<usize> = (0..order.len())
            .map(|i| order[(offset + i) % order.len()])
            .collect();
        let now = Instant::now();
        let (open, shut): (Vec<usize>, Vec<usize>) = rotated
            .into_iter()
            .partition(|i| lock_unpoisoned(&self.peers[*i].breaker).admits(now));
        open.into_iter().chain(shut).collect()
    }
}

/// A shutdown/introspection handle (tests and the binary's wiring).
#[derive(Clone)]
pub struct GatewayHandle {
    state: Arc<GatewayState>,
}

impl GatewayHandle {
    /// Requests a graceful drain, as if SIGTERM arrived.
    pub fn shutdown(&self) {
        self.state.stop.store(true, Ordering::Release);
    }

    /// Rendered `/metrics` document without the cluster rollup (test
    /// convenience; no network).
    pub fn metrics_text(&self) -> String {
        render_gateway_metrics(&self.state, false)
    }
}

/// The bound, not-yet-running gateway.
pub struct Gateway {
    listener: TcpListener,
    state: Arc<GatewayState>,
}

impl Gateway {
    /// Binds the listener and builds the ring. Fails if no peers were
    /// given — a gateway with nothing behind it can only say 503.
    pub fn bind(config: GatewayConfig) -> std::io::Result<Gateway> {
        if config.peers.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "gateway needs at least one --peer",
            ));
        }
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        // Pin the start-time gauge's value before serving anything.
        crate::metrics::process_start_seconds();
        let log = Arc::new(EventLog::new(
            "gateway",
            config.log_level,
            config.log_format,
        ));
        ptmap_trace::obs::install(Arc::clone(&log));
        let ring = HashRing::new(&config.peers);
        let peers = ring
            .peers()
            .iter()
            .map(|addr| Peer {
                addr: addr.clone(),
                breaker: Mutex::new(Breaker::new(config.failure_threshold, config.cooldown)),
                forwards: AtomicU64::new(0),
                failures: AtomicU64::new(0),
                probes_ok: AtomicU64::new(0),
                probes_failed: AtomicU64::new(0),
            })
            .collect();
        let cache = config.cache_dir.as_ref().map(|dir| {
            ReportCache::with_dir(dir).unwrap_or_else(|e| {
                log.warn(
                    "cache_dir_fallback",
                    None,
                    &format!("cache dir {}: {e}; falling back to memory", dir.display()),
                    &[("dir", AttrValue::Str(dir.display().to_string()))],
                );
                ReportCache::in_memory()
            })
        });
        let state = Arc::new(GatewayState {
            ring,
            peers,
            cache,
            metrics: ServiceMetrics::new(),
            traces: TraceStore::new(),
            log,
            transitions: Mutex::new(BTreeMap::new()),
            jobs: Mutex::new(BTreeMap::new()),
            next_job_id: AtomicU64::new(1),
            retries: AtomicU64::new(0),
            hedges: AtomicU64::new(0),
            hedge_wins: AtomicU64::new(0),
            requeued: AtomicU64::new(0),
            shared_cache_hits: AtomicU64::new(0),
            root: Budget::cancellable(),
            stop: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            conns: Arc::default(),
            requests: AtomicU64::new(0),
            config,
        });
        Ok(Gateway { listener, state })
    }

    /// The bound address (resolves port `0`).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// A shutdown/introspection handle usable from another thread.
    pub fn handle(&self) -> GatewayHandle {
        GatewayHandle {
            state: Arc::clone(&self.state),
        }
    }

    /// Serves until SIGTERM/SIGINT (or [`GatewayHandle::shutdown`]),
    /// then drains and returns the lifetime summary.
    pub fn run(self) -> GatewaySummary {
        let state = Arc::clone(&self.state);

        // The health prober drives breaker transitions even when no
        // traffic is flowing, so recovery does not wait for a victim
        // request. It parks between rounds; drain unparks it, so
        // shutdown never waits out a probe interval.
        let prober = {
            let state = Arc::clone(&state);
            std::thread::Builder::new()
                .name("ptmap-probe".to_string())
                .spawn(move || {
                    while !state.stop.load(Ordering::Acquire) && !signal::shutdown_requested() {
                        for idx in 0..state.peers.len() {
                            probe_peer(&state, idx);
                        }
                        std::thread::park_timeout(state.config.probe_interval);
                    }
                })
                .expect("spawn prober")
        };

        // Accept loop (see `accept`): wakes when a connection arrives;
        // sees a stop request within 50 ms and a signal at once.
        let conn_state = Arc::clone(&state);
        accept::serve(
            &self.listener,
            &state.conns,
            &state.log,
            "ptmap-gw-conn",
            || state.stop.load(Ordering::Acquire),
            move |stream| handle_connection(&conn_state, stream),
        );

        // Drain: stop accepting, let in-flight forwards finish, then
        // cancel stragglers through the root budget.
        drop(self.listener);
        state.draining.store(true, Ordering::Release);
        let deadline = Instant::now() + state.config.drain_timeout;
        let mut clean = state.conns.wait_idle(deadline, || true);
        if !clean {
            state.log.warn(
                "drain_timeout",
                None,
                "drain timeout elapsed; cancelling in-flight forwards",
                &[("timeout_s", state.config.drain_timeout.as_secs().into())],
            );
            state.root.cancel();
            clean = state
                .conns
                .wait_idle(Instant::now() + Duration::from_secs(10), || true);
        }
        prober.thread().unpark();
        let _ = prober.join();

        state.metrics.log_drain(&state.log);
        eprintln!(
            "--- final metrics ---\n{}",
            render_gateway_metrics(&state, false)
        );

        GatewaySummary {
            requests: state.metrics.requests_total(),
            forwards: state
                .peers
                .iter()
                .map(|p| p.forwards.load(Ordering::Relaxed))
                .sum(),
            retries: state.retries.load(Ordering::Relaxed),
            hedges: state.hedges.load(Ordering::Relaxed),
            requeued: state.requeued.load(Ordering::Relaxed),
            clean,
        }
    }
}

/// One health probe of one peer; drives its breaker.
fn probe_peer(state: &GatewayState, idx: usize) {
    let peer = &state.peers[idx];
    let deadline = Instant::now()
        + PROBE_DEADLINE.min(state.config.probe_interval.max(Duration::from_millis(50)));
    let result = with_scope(&peer.addr, || fail_point(sites::PEER_HEALTH)).map_err(|f| {
        if f.refused {
            ClientError::Connect(format!("{}: injected refusal", peer.addr))
        } else {
            ClientError::Io(format!("injected fault at {}", f.site))
        }
    });
    let healthy = match result {
        Err(_) => false,
        Ok(()) => client::request(&peer.addr, "GET", "/healthz", &[], b"", Some(deadline))
            .map(|resp| resp.status == 200)
            .unwrap_or(false),
    };
    let now = Instant::now();
    let mut breaker = lock_unpoisoned(&peer.breaker);
    let change = if healthy {
        peer.probes_ok.fetch_add(1, Ordering::Relaxed);
        breaker.record_success(now)
    } else {
        peer.probes_failed.fetch_add(1, Ordering::Relaxed);
        breaker.record_failure(now)
    };
    drop(breaker);
    state.note_transition(idx, change);
}

/// Why a forward produced no relayable response.
enum ForwardError {
    /// The ring is empty (cannot happen post-`bind`, but total).
    NoPeers,
    /// The request budget expired mid-forward.
    Deadline,
    /// Every attempt failed in transport; the last error and its class.
    Exhausted { attempts: u32, last: String },
}

/// One attempt against one peer, through the faultpoint.
fn forward_once(
    state: &GatewayState,
    idx: usize,
    method: &str,
    path: &str,
    headers: &[(String, String)],
    body: &[u8],
    deadline: Option<Instant>,
) -> Result<PeerResponse, ClientError> {
    let peer = &state.peers[idx];
    with_scope(&peer.addr, || fail_point(sites::GATEWAY_FORWARD)).map_err(|f| {
        if f.refused {
            ClientError::Connect(format!("{}: injected refusal", peer.addr))
        } else {
            ClientError::Io(format!("injected fault at {}", f.site))
        }
    })?;
    let borrowed: Vec<(&str, &str)> = headers
        .iter()
        .map(|(n, v)| (n.as_str(), v.as_str()))
        .collect();
    client::request(&peer.addr, method, path, &borrowed, body, deadline)
}

/// Forwards with bounded retries, resharding to the next replica after
/// each transport failure (or peer 503) with exponential backoff and
/// deterministic jitter, all inside `budget`. Returns the first real
/// response and the peer index that produced it. Every attempt opens
/// a `forward` child span under `tracer` carrying the peer, attempt
/// number, outcome, and any backoff that followed; the attempt that
/// produced the relayed response is marked `winner=true` (the stitch
/// anchor).
#[allow(clippy::too_many_arguments)]
fn forward_with_retries(
    state: &GatewayState,
    key: &str,
    method: &str,
    path: &str,
    headers: &[(String, String)],
    body: &[u8],
    budget: &Budget,
    start_offset: usize,
    tracer: &Tracer,
) -> Result<(PeerResponse, usize), ForwardError> {
    if state.ring.is_empty() {
        return Err(ForwardError::NoPeers);
    }
    let mut last_err = String::new();
    let mut last_busy: Option<(PeerResponse, usize)> = None;
    let mut attempts = 0u32;
    for attempt in 0..=state.config.max_retries {
        if budget.check().is_err() {
            return Err(ForwardError::Deadline);
        }
        let order = state.candidates(key, start_offset + attempt as usize);
        let idx = order[0];
        let peer = &state.peers[idx];
        if attempt > 0 {
            state.retries.fetch_add(1, Ordering::Relaxed);
        }
        attempts += 1;

        let span = tracer.span(FORWARD_SPAN);
        span.attr("peer", peer.addr.as_str());
        span.attr("attempt", u64::from(attempt));
        // Breaker evidence: how many preferred replicas were ejected
        // and demoted behind this choice.
        let now = Instant::now();
        let ejected = order
            .iter()
            .filter(|i| !lock_unpoisoned(&state.peers[**i].breaker).admits(now))
            .count();
        if ejected > 0 {
            span.event_attr("breaker_skip", "ejected", ejected);
        }

        // Re-derive the hop deadline from what is left *now*.
        let mut hop_headers: Vec<(String, String)> = headers.to_vec();
        if let Some(left) = budget.remaining() {
            hop_headers.push((
                "X-Ptmap-Deadline-Ms".to_string(),
                (left.as_millis() as u64).max(1).to_string(),
            ));
        }
        match forward_once(
            state,
            idx,
            method,
            path,
            &hop_headers,
            body,
            budget.deadline(),
        ) {
            Ok(resp) => {
                peer.forwards.fetch_add(1, Ordering::Relaxed);
                span.attr("status", u64::from(resp.status));
                // Any parsed response proves the peer alive.
                let change = lock_unpoisoned(&peer.breaker).record_success(Instant::now());
                state.note_transition(idx, change);
                if resp.status == 503 {
                    // Overloaded or draining: reshard, but the breaker
                    // stays closed — the peer is answering.
                    span.event("peer_busy");
                    last_busy = Some((resp, idx));
                    last_err = format!("{}: 503 busy", peer.addr);
                } else {
                    span.attr(WINNER_ATTR, true);
                    return Ok((resp, idx));
                }
            }
            Err(ClientError::DeadlineExpired) => {
                peer.failures.fetch_add(1, Ordering::Relaxed);
                span.attr("error", "deadline");
                let change = lock_unpoisoned(&peer.breaker).record_failure(Instant::now());
                state.note_transition(idx, change);
                return Err(ForwardError::Deadline);
            }
            Err(e) => {
                peer.failures.fetch_add(1, Ordering::Relaxed);
                span.attr("error", e.to_string());
                let change = lock_unpoisoned(&peer.breaker).record_failure(Instant::now());
                state.note_transition(idx, change);
                last_err = format!("{}: {e}", peer.addr);
            }
        }
        // Backoff before the next replica: base·2^attempt plus jitter
        // derived from (key, attempt) so a thundering herd of retries
        // for different keys spreads out, capped by the budget.
        if attempt < state.config.max_retries {
            let base = state.config.backoff_base.max(Duration::from_millis(1));
            let step = base.saturating_mul(1 << attempt.min(10));
            let jitter_ms =
                hash64(format!("{key}:{attempt}").as_bytes()) % (base.as_millis().max(1) as u64);
            let mut sleep = step + Duration::from_millis(jitter_ms);
            if let Some(left) = budget.remaining() {
                sleep = sleep.min(left);
            }
            span.attr("backoff_ms", sleep.as_millis() as u64);
            drop(span);
            std::thread::sleep(sleep);
        }
    }
    // All attempts spent. A peer's own 503 is more truthful than a
    // synthesized 502 — relay the last one if we saw any.
    if let Some(busy) = last_busy {
        return Ok(busy);
    }
    Err(ForwardError::Exhausted {
        attempts,
        last: last_err,
    })
}

/// What a hedge leg reports back: its ring offset and the forward's
/// outcome.
type LegResult = (usize, Result<(PeerResponse, usize), ForwardError>);

/// A sync-compile forward, hedged when configured: if the primary has
/// not answered after `hedge_after`, a second forward starts one
/// replica further along the failover sequence and the first response
/// wins.
fn forward_sync(
    state: &Arc<GatewayState>,
    key: &str,
    headers: &[(String, String)],
    body: &[u8],
    budget: &Budget,
    tracer: &Tracer,
) -> Result<(PeerResponse, usize), ForwardError> {
    let hedge_after = match state.config.hedge_after {
        Some(d) if state.ring.len() > 1 => d,
        _ => {
            return forward_with_retries(
                state, key, "POST", "/compile", headers, body, budget, 0, tracer,
            )
        }
    };

    let (tx, rx) = mpsc::channel();
    let spawn_leg = |offset: usize, tx: mpsc::Sender<LegResult>| {
        let state = Arc::clone(state);
        let key = key.to_string();
        let headers = headers.to_vec();
        let body = body.to_vec();
        let budget = budget.clone();
        // A clone records into the same trace under the same
        // parent, so both legs' forward spans land side by side.
        let tracer = tracer.clone();
        let _ = std::thread::Builder::new()
            .name("ptmap-gw-fwd".to_string())
            .spawn(move || {
                let result = forward_with_retries(
                    &state, &key, "POST", "/compile", &headers, &body, &budget, offset, &tracer,
                );
                let _ = tx.send((offset, result));
            });
    };
    spawn_leg(0, tx.clone());
    match rx.recv_timeout(hedge_after) {
        Ok((_, result)) => result,
        Err(mpsc::RecvTimeoutError::Timeout) => {
            state.hedges.fetch_add(1, Ordering::Relaxed);
            tracer.event("hedge_start");
            state.log.info(
                "hedge",
                tracer.trace_id(),
                "primary quiet past hedge-after; racing a second replica",
                &[("after_ms", (hedge_after.as_millis() as u64).into())],
            );
            spawn_leg(1, tx);
            match rx.recv() {
                Ok((offset, result)) => {
                    if offset == 1 && result.is_ok() {
                        state.hedge_wins.fetch_add(1, Ordering::Relaxed);
                        tracer.event("hedge_winner");
                    }
                    result
                }
                Err(_) => Err(ForwardError::Exhausted {
                    attempts: 0,
                    last: "all forward legs died".to_string(),
                }),
            }
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => Err(ForwardError::Exhausted {
            attempts: 0,
            last: "forward leg died".to_string(),
        }),
    }
}

/// Maps a terminal forward error to the client-facing response, in the
/// same outcome shape the daemons produce.
fn forward_error_response(
    state: &GatewayState,
    name: &str,
    err: ForwardError,
    trace_id: Option<&str>,
) -> Response {
    match err {
        ForwardError::NoPeers => {
            state.metrics.reject("no-peers");
            state.log.warn(
                "forward_failed",
                trace_id,
                "no backend peers",
                &[("name", name.into()), ("reason", "no-peers".into())],
            );
            let outcome = error_outcome(name, "overloaded", "no backend peers".to_string());
            Response::json(503, serde_json::to_string(&outcome).unwrap_or_default())
                .with_header("Retry-After", "1".to_string())
        }
        ForwardError::Deadline => {
            state.metrics.reject("deadline");
            state.log.warn(
                "forward_failed",
                trace_id,
                "deadline expired while forwarding",
                &[("name", name.into()), ("reason", "deadline".into())],
            );
            let outcome = error_outcome(
                name,
                "timeout",
                "deadline expired while forwarding".to_string(),
            );
            Response::json(504, serde_json::to_string(&outcome).unwrap_or_default())
        }
        ForwardError::Exhausted { attempts, last } => {
            state.metrics.reject("unreachable");
            state.log.warn(
                "forward_failed",
                trace_id,
                &format!("all {attempts} forward attempts failed; last: {last}"),
                &[
                    ("name", name.into()),
                    ("reason", "unreachable".into()),
                    ("attempts", u64::from(attempts).into()),
                ],
            );
            let outcome = error_outcome(
                name,
                "unreachable",
                format!("all {attempts} forward attempts failed; last: {last}"),
            );
            Response::json(502, serde_json::to_string(&outcome).unwrap_or_default())
        }
    }
}

/// Relays a peer response, keeping the body byte-identical and the
/// API-meaningful headers, and stamping which peer answered.
fn relay(state: &GatewayState, resp: PeerResponse, idx: usize) -> Response {
    let mut out = Response::json(resp.status, String::new());
    out.body = resp.body.clone();
    for name in [
        "x-ptmap-trace-id",
        "x-ptmap-quality",
        "x-ptmap-coalesced",
        "retry-after",
    ] {
        if let Some(v) = resp.header(name) {
            out = out.with_header(name, v.to_string());
        }
    }
    out.with_header("X-Ptmap-Peer", state.peers[idx].addr.clone())
}

/// Validates the optional request headers shared by `/compile` and
/// `/jobs`; returns `(timeout, quality)` or the structured 400.
fn validate_headers(
    request: &Request,
    config: &GatewayConfig,
) -> Result<(Duration, Option<BackendKind>), Response> {
    let timeout = match request.header("x-ptmap-deadline-ms") {
        None => config.default_timeout,
        Some(raw) => match raw.parse::<u64>() {
            Ok(ms) => Duration::from_millis(ms).min(config.default_timeout),
            Err(_) => {
                return Err(Response::json(
                    400,
                    format!(
                        "{{\"error\":{:?},\"reason\":\"bad-deadline\"}}",
                        format!("bad X-Ptmap-Deadline-Ms {raw:?}: expected milliseconds")
                    ),
                ))
            }
        },
    };
    let quality = match request.header("x-ptmap-quality") {
        None => None,
        Some(raw) => match raw.parse::<BackendKind>() {
            Ok(q) => Some(q),
            Err(e) => {
                return Err(Response::json(
                    400,
                    format!(
                        "{{\"error\":{:?},\"reason\":\"bad-quality\"}}",
                        format!("bad X-Ptmap-Quality: {e}")
                    ),
                ))
            }
        },
    };
    Ok((timeout, quality))
}

/// Headers propagated on every forwarded hop (minus the deadline,
/// which [`forward_with_retries`] re-derives per attempt).
fn hop_headers(request: &Request) -> Vec<(String, String)> {
    let mut headers = vec![("Content-Type".to_string(), "application/json".to_string())];
    for name in ["x-ptmap-trace-id", "x-ptmap-quality"] {
        if let Some(v) = request.header(name) {
            headers.push((name.to_string(), v.to_string()));
        }
    }
    headers
}

/// Parses the body as a spec and resolves its routing key under the
/// quality-adjusted base config.
fn resolve_key(
    state: &GatewayState,
    body: &[u8],
    quality: Option<BackendKind>,
) -> Result<(String, String), Response> {
    let text = std::str::from_utf8(body)
        .map_err(|_| Response::json(400, "{\"error\":\"body is not UTF-8\"}".to_string()))?;
    let spec: JobSpec = serde_json::from_str(text).map_err(|e| {
        Response::json(400, format!("{{\"error\":{:?}}}", format!("job spec: {e}")))
    })?;
    let job =
        Job::resolve(&spec).map_err(|e| Response::json(400, format!("{{\"error\":{e:?}}}")))?;
    let mut base = state.config.base.clone();
    if let Some(q) = quality {
        base.mapper.backend = q;
    }
    Ok((request_key(&job, &base), job.name))
}

/// Reads, routes, answers, closes.
fn handle_connection(state: &Arc<GatewayState>, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let request = match read_request(&mut stream) {
        Ok(r) => r,
        Err(HttpError::BadRequest(m)) => {
            let resp = Response::json(400, format!("{{\"error\":{:?}}}", m));
            let _ = write_response(&mut stream, &resp);
            return;
        }
        Err(HttpError::TooLarge(m)) => {
            let resp = Response::json(413, format!("{{\"error\":{:?}}}", m));
            let _ = write_response(&mut stream, &resp);
            return;
        }
        Err(HttpError::Io(_)) => return,
    };
    let _ = stream.set_read_timeout(None);
    state.requests.fetch_add(1, Ordering::Relaxed);

    let t0 = Instant::now();
    let (endpoint, response) = route(state, &request);
    state
        .metrics
        .observe_request(endpoint, response.status, t0.elapsed());
    let _ = write_response(&mut stream, &response);
    let _ = stream.shutdown(Shutdown::Both);
}

/// Dispatches one request.
fn route(state: &Arc<GatewayState>, request: &Request) -> (&'static str, Response) {
    let (path, query) = match request.path.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (request.path.as_str(), None),
    };
    match (request.method.as_str(), path) {
        ("POST", "/compile") => ("compile", handle_compile(state, request)),
        ("POST", "/jobs") => ("jobs_submit", handle_submit(state, request)),
        ("GET", path) if path.starts_with("/jobs/") && path.ends_with("/trace") => {
            ("jobs_trace", handle_trace(state, path, query))
        }
        ("GET", path) if path.starts_with("/jobs/") => ("jobs_poll", handle_poll(state, path)),
        ("GET", "/metrics") => (
            "metrics",
            Response::text(200, render_gateway_metrics(state, true)),
        ),
        ("GET", "/cluster") => ("cluster", handle_cluster(state)),
        ("GET", "/healthz") => ("healthz", handle_healthz(state)),
        ("GET", "/debug/events") => (
            "debug_events",
            crate::events::events_response(&state.log, query),
        ),
        (_, "/compile" | "/jobs" | "/metrics" | "/cluster" | "/healthz" | "/debug/events") => (
            "other",
            Response::json(405, "{\"error\":\"method not allowed\"}".to_string()),
        ),
        _ => (
            "other",
            Response::json(404, "{\"error\":\"not found\"}".to_string()),
        ),
    }
}

/// The gateway's own draining 503.
fn draining_response(state: &GatewayState) -> Response {
    state.metrics.reject("draining");
    Response::json(
        503,
        "{\"error\":\"gateway is draining\",\"reason\":\"draining\"}".to_string(),
    )
    .with_header(
        "Retry-After",
        state.config.drain_timeout.as_secs().max(1).to_string(),
    )
}

/// `POST /compile`: cache tier, then a (possibly hedged) forward. The
/// whole hop records a gateway-side span tree under the client's
/// trace id (or a freshly minted one), which is retained for
/// stitching with the daemon's compile tree.
fn handle_compile(state: &Arc<GatewayState>, request: &Request) -> Response {
    if state.draining.load(Ordering::Acquire) {
        return draining_response(state);
    }
    let trace_id = request
        .header("x-ptmap-trace-id")
        .map(str::to_string)
        .unwrap_or_else(|| next_trace_id("gateway"));
    let tracer = Tracer::root_with_id("gateway", trace_id.clone());
    let (response, winner) = {
        let root = tracer.span("gateway");
        root.attr("endpoint", "compile");
        compile_via_cluster(state, request, &root, &trace_id)
    };
    if let Some(trace) = tracer.finish() {
        if let Some(idx) = winner {
            export_stitched(state, &trace, idx);
        }
        state.traces.insert(trace);
    }
    // Error paths carry no daemon-set trace-id header; stamp ours so
    // the client can still fetch the gateway-side trace.
    if response
        .headers
        .iter()
        .any(|(n, _)| n.eq_ignore_ascii_case("x-ptmap-trace-id"))
    {
        response
    } else {
        response.with_header("X-Ptmap-Trace-Id", trace_id)
    }
}

/// The body of one traced sync compile: admission, ring lookup,
/// shared-cache tier, forward. Returns the response plus the winning
/// peer index when a forward produced it (for `--trace-dir` export).
fn compile_via_cluster(
    state: &Arc<GatewayState>,
    request: &Request,
    root: &Span,
    trace_id: &str,
) -> (Response, Option<usize>) {
    let admission = root.tracer().span("admission");
    let (timeout, quality) = match validate_headers(request, &state.config) {
        Ok(v) => v,
        Err(resp) => {
            admission.attr("rejected", "bad-headers");
            return (resp, None);
        }
    };
    let (key, name) = match resolve_key(state, &request.body, quality) {
        Ok(v) => v,
        Err(resp) => {
            admission.attr("rejected", "bad-spec");
            return (resp, None);
        }
    };
    admission.attr("timeout_ms", timeout.as_millis() as u64);

    let budget = state.root.scoped_child(Some(timeout));
    if let Err(e) = budget.check() {
        admission.attr("rejected", "deadline");
        state.metrics.reject("deadline");
        let outcome = error_outcome(&name, e.class(), e.to_string());
        return (
            Response::json(
                outcome_status(&outcome),
                serde_json::to_string(&outcome).unwrap_or_default(),
            ),
            None,
        );
    }
    drop(admission);

    {
        let lookup = root.tracer().span("ring_lookup");
        let order = state.candidates(&key, 0);
        lookup.attr("owner", state.peers[order[0]].addr.as_str());
        lookup.attr("replicas", order.len());
    }

    // Shared cache tier: a key any peer (or a previous gateway run)
    // already compiled is answered without a hop.
    if let Some(cache) = &state.cache {
        let lookup = root.tracer().span("shared_cache");
        if let Some(report) = cache.get(&key) {
            lookup.attr("hit", true);
            state.shared_cache_hits.fetch_add(1, Ordering::Relaxed);
            state.log.info(
                "compile",
                Some(trace_id),
                "",
                &[
                    ("name", name.as_str().into()),
                    ("status", 200u64.into()),
                    ("cache_hit", true.into()),
                ],
            );
            let outcome = JobOutcome {
                name,
                cache_hit: true,
                report: Some(report),
                error: None,
                error_class: None,
                degraded: None,
                retries: 0,
                trace_id: Some(trace_id.to_string()),
            };
            return (
                Response::json(200, serde_json::to_string(&outcome).unwrap_or_default())
                    .with_header("X-Ptmap-Gateway-Cache", "hit".to_string()),
                None,
            );
        }
        lookup.attr("hit", false);
    }

    // Always propagate the gateway's trace id: the daemon adopts it
    // (and force-keeps the trace), so its compile tree is fetchable
    // under the same id for stitching.
    let mut headers = hop_headers(request);
    if !headers
        .iter()
        .any(|(n, _)| n.eq_ignore_ascii_case("x-ptmap-trace-id"))
    {
        headers.push(("x-ptmap-trace-id".to_string(), trace_id.to_string()));
    }
    match forward_sync(state, &key, &headers, &request.body, &budget, root.tracer()) {
        Ok((resp, idx)) => {
            // Populate the shared tier from forwarded successes.
            if resp.status == 200 {
                if let Some(cache) = &state.cache {
                    if let Ok(outcome) = serde_json::from_str::<JobOutcome>(&resp.body_text()) {
                        if let Some(report) = &outcome.report {
                            cache.put(&key, report);
                        }
                    }
                }
            }
            state.log.info(
                "compile",
                Some(trace_id),
                "",
                &[
                    ("name", name.as_str().into()),
                    ("status", u64::from(resp.status).into()),
                    ("peer", AttrValue::Str(state.peers[idx].addr.clone())),
                ],
            );
            (relay(state, resp, idx), Some(idx))
        }
        Err(err) => (
            forward_error_response(state, &name, err, Some(trace_id)),
            None,
        ),
    }
}

/// Exports the stitched cluster trace for one forwarded sync compile
/// to `--trace-dir` as `<trace-id>.json` Chrome trace-event JSON,
/// fetching the daemon's raw span tree from the winning peer. Falls
/// back to the gateway-only tree if the fetch fails.
fn export_stitched(state: &GatewayState, gateway_trace: &Trace, winner: usize) {
    let Some(dir) = &state.config.trace_dir else {
        return;
    };
    let remote = format!("/jobs/{}/trace?format=raw", gateway_trace.trace_id);
    let deadline = Instant::now() + PROBE_DEADLINE;
    let daemons: Vec<Trace> = client::request(
        &state.peers[winner].addr,
        "GET",
        &remote,
        &[],
        b"",
        Some(deadline),
    )
    .ok()
    .filter(|r| r.status == 200)
    .and_then(|r| serde_json::from_str::<Trace>(&r.body_text()).ok())
    .into_iter()
    .collect();
    let stitched = stitch(gateway_trace, &daemons);
    // Client-supplied trace ids are arbitrary bytes; keep the
    // filename safe.
    let safe: String = stitched
        .trace_id
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    let path = dir.join(format!("{safe}.json"));
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, chrome_trace_json(&stitched)));
    if let Err(e) = written {
        state.log.warn(
            "trace_export_failed",
            Some(&stitched.trace_id),
            &format!("write {}: {e}", path.display()),
            &[],
        );
    }
}

/// `POST /jobs`: forward to the key's owner, track the mapping. The
/// gateway-side span tree stays open for the job's tracked lifetime,
/// so later requeues land inside it.
fn handle_submit(state: &Arc<GatewayState>, request: &Request) -> Response {
    if state.draining.load(Ordering::Acquire) {
        return draining_response(state);
    }
    let trace_id = request
        .header("x-ptmap-trace-id")
        .map(str::to_string)
        .unwrap_or_else(|| next_trace_id("gateway"));
    let tracer = Tracer::root_with_id("gateway", trace_id.clone());
    let root = tracer.span("gateway");
    root.attr("endpoint", "jobs_submit");
    let admission = root.tracer().span("admission");
    let (timeout, quality) = match validate_headers(request, &state.config) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let (key, name) = match resolve_key(state, &request.body, quality) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    drop(admission);
    let budget = state.root.scoped_child(Some(timeout.min(POLL_DEADLINE)));
    let headers = hop_headers(request);
    let (resp, idx) = match forward_with_retries(
        state,
        &key,
        "POST",
        "/jobs",
        &headers,
        &request.body,
        &budget,
        0,
        root.tracer(),
    ) {
        Ok(v) => v,
        Err(err) => return forward_error_response(state, &name, err, Some(&trace_id)),
    };
    if resp.status != 202 {
        return relay(state, resp, idx);
    }
    let Some(remote_id) = parse_job_id(&resp.body) else {
        return Response::json(
            502,
            format!(
                "{{\"error\":{:?}}}",
                format!(
                    "peer {} answered 202 without a job id",
                    state.peers[idx].addr
                )
            ),
        );
    };
    let gid = state.next_job_id.fetch_add(1, Ordering::Relaxed);
    root.attr("job_id", gid);
    root.attr("peer", state.peers[idx].addr.as_str());
    state.log.info(
        "job_submitted",
        Some(&trace_id),
        "",
        &[
            ("job", gid.into()),
            ("name", name.into()),
            ("peer", AttrValue::Str(state.peers[idx].addr.clone())),
        ],
    );
    lock_unpoisoned(&state.jobs).insert(
        gid,
        GwJob {
            body: request.body.clone(),
            quality: request.header("x-ptmap-quality").map(str::to_string),
            key,
            peer: idx,
            remote_id,
            done: None,
            span: Arc::new(root),
        },
    );
    Response::json(
        202,
        format!(
            "{{\"id\":{gid},\"state\":\"queued\",\"peer\":{:?}}}",
            state.peers[idx].addr
        ),
    )
    .with_header("X-Ptmap-Peer", state.peers[idx].addr.clone())
    .with_header("X-Ptmap-Trace-Id", trace_id)
}

/// Extracts `id` from a submit/poll body.
fn parse_job_id(body: &[u8]) -> Option<u64> {
    let text = std::str::from_utf8(body).ok()?;
    let value: Value = serde_json::from_str(text).ok()?;
    match value.get("id") {
        Some(Value::UInt(u)) => Some(*u),
        Some(Value::Int(i)) if *i >= 0 => Some(*i as u64),
        _ => None,
    }
}

/// Rewrites the `id` field of a poll body to the gateway's job id.
fn rewrite_job_id(body: &str, gid: u64) -> Option<String> {
    let mut value: Value = serde_json::from_str(body).ok()?;
    if let Value::Object(fields) = &mut value {
        for (name, field) in fields.iter_mut() {
            if name == "id" {
                *field = Value::UInt(gid);
            }
        }
    }
    serde_json::to_string(&value).ok()
}

/// Resubmits a tracked job whose owner is unreachable to the next live
/// replica. Returns the poll-shaped response for the client. The
/// attempt records a `requeue` span inside the job's still-open
/// gateway trace plus a correlated event-log line.
fn requeue_job(state: &Arc<GatewayState>, gid: u64, job: &GwJob) -> Response {
    let span = job.tracer().span("requeue");
    span.attr("job_id", gid);
    span.attr("from", state.peers[job.peer].addr.as_str());
    let mut headers = vec![("Content-Type".to_string(), "application/json".to_string())];
    if let Some(q) = &job.quality {
        headers.push(("x-ptmap-quality".to_string(), q.clone()));
    }
    let budget = state.root.scoped_child(Some(POLL_DEADLINE));
    for candidate in state.candidates(&job.key, 0) {
        if candidate == job.peer {
            continue; // the peer that just failed
        }
        let result = forward_once(
            state,
            candidate,
            "POST",
            "/jobs",
            &headers,
            &job.body,
            budget.deadline(),
        );
        let Ok(resp) = result else {
            let change =
                lock_unpoisoned(&state.peers[candidate].breaker).record_failure(Instant::now());
            state.note_transition(candidate, change);
            continue;
        };
        state.peers[candidate]
            .forwards
            .fetch_add(1, Ordering::Relaxed);
        let change =
            lock_unpoisoned(&state.peers[candidate].breaker).record_success(Instant::now());
        state.note_transition(candidate, change);
        if resp.status != 202 {
            continue; // queue full or draining there; try further along
        }
        let Some(remote_id) = parse_job_id(&resp.body) else {
            continue;
        };
        if let Some(tracked) = lock_unpoisoned(&state.jobs).get_mut(&gid) {
            tracked.peer = candidate;
            tracked.remote_id = remote_id;
        }
        state.requeued.fetch_add(1, Ordering::Relaxed);
        span.attr("to", state.peers[candidate].addr.as_str());
        span.attr("remote_id", remote_id);
        state.log.warn(
            "job_requeued",
            job.tracer().trace_id(),
            "owner unreachable; job resubmitted",
            &[
                ("job", gid.into()),
                ("from", AttrValue::Str(state.peers[job.peer].addr.clone())),
                ("to", AttrValue::Str(state.peers[candidate].addr.clone())),
            ],
        );
        return Response::json(
            202,
            format!(
                "{{\"id\":{gid},\"state\":\"queued\",\"requeued\":true,\"peer\":{:?}}}",
                state.peers[candidate].addr
            ),
        )
        .with_header("X-Ptmap-Peer", state.peers[candidate].addr.clone());
    }
    state.metrics.reject("unreachable");
    span.attr("error", "no replica accepted the requeue");
    state.log.error(
        "requeue_failed",
        job.tracer().trace_id(),
        "owner unreachable and no replica accepted a requeue",
        &[("job", gid.into())],
    );
    Response::json(
        503,
        format!(
            "{{\"error\":\"job {gid} owner unreachable and no replica accepted a requeue\",\
             \"reason\":\"unreachable\"}}"
        ),
    )
    .with_header("Retry-After", "1".to_string())
}

/// `GET /jobs/<id>`: poll through to the owner, requeue if it died.
fn handle_poll(state: &Arc<GatewayState>, path: &str) -> Response {
    let id_text = &path["/jobs/".len()..];
    let Ok(gid) = id_text.parse::<u64>() else {
        return Response::json(400, format!("{{\"error\":\"bad job id {id_text:?}\"}}"));
    };
    let Some(job) = lock_unpoisoned(&state.jobs).get(&gid).cloned() else {
        return Response::json(404, format!("{{\"error\":\"no job {gid}\"}}"));
    };
    if let Some(done) = &job.done {
        return Response::json(200, done.clone());
    }
    let budget = state.root.scoped_child(Some(POLL_DEADLINE));
    let remote_path = format!("/jobs/{}", job.remote_id);
    match forward_once(
        state,
        job.peer,
        "GET",
        &remote_path,
        &[],
        b"",
        budget.deadline(),
    ) {
        Ok(resp) if resp.status == 200 => {
            state.peers[job.peer]
                .forwards
                .fetch_add(1, Ordering::Relaxed);
            let change =
                lock_unpoisoned(&state.peers[job.peer].breaker).record_success(Instant::now());
            state.note_transition(job.peer, change);
            let Some(body) = rewrite_job_id(&resp.body_text(), gid) else {
                return Response::json(
                    502,
                    "{\"error\":\"peer poll body did not parse\"}".to_string(),
                );
            };
            if body.contains("\"state\":\"done\"") {
                if let Some(tracked) = lock_unpoisoned(&state.jobs).get_mut(&gid) {
                    tracked.done = Some(body.clone());
                }
                // Snapshot and retain the gateway-side trace now that
                // the job reached a terminal state, so a stitched
                // cluster trace is servable for it.
                if let Some(trace) = job.tracer().finish() {
                    state.traces.insert(trace);
                }
                state.log.info(
                    "job_done",
                    job.tracer().trace_id(),
                    "",
                    &[
                        ("job", gid.into()),
                        ("peer", AttrValue::Str(state.peers[job.peer].addr.clone())),
                    ],
                );
            }
            Response::json(200, body)
                .with_header("X-Ptmap-Peer", state.peers[job.peer].addr.clone())
        }
        // A 404 means the owner restarted and lost the job table; treat
        // it like a dead owner and resubmit.
        Ok(resp) if resp.status == 404 => {
            state.peers[job.peer]
                .forwards
                .fetch_add(1, Ordering::Relaxed);
            requeue_job(state, gid, &job)
        }
        Ok(resp) => {
            state.peers[job.peer]
                .forwards
                .fetch_add(1, Ordering::Relaxed);
            relay(state, resp, job.peer)
        }
        Err(ClientError::Connect(_)) => {
            let change =
                lock_unpoisoned(&state.peers[job.peer].breaker).record_failure(Instant::now());
            state.note_transition(job.peer, change);
            state.peers[job.peer]
                .failures
                .fetch_add(1, Ordering::Relaxed);
            requeue_job(state, gid, &job)
        }
        Err(e) => {
            let change =
                lock_unpoisoned(&state.peers[job.peer].breaker).record_failure(Instant::now());
            state.note_transition(job.peer, change);
            state.peers[job.peer]
                .failures
                .fetch_add(1, Ordering::Relaxed);
            Response::json(
                502,
                format!("{{\"error\":{:?}}}", format!("poll forward failed: {e}")),
            )
        }
    }
}

/// Parses a raw daemon [`Trace`] out of a peer's
/// `/jobs/<id>/trace?format=raw` response.
fn parse_raw_trace(resp: &PeerResponse) -> Option<Trace> {
    if resp.status != 200 {
        return None;
    }
    serde_json::from_str::<Trace>(&resp.body_text()).ok()
}

/// Serves a (possibly stitched) trace: Chrome trace-event JSON by
/// default, the raw span tree with `?format=raw`.
fn trace_response(trace: &Trace, raw: bool) -> Response {
    let body = if raw {
        serde_json::to_string(trace).unwrap_or_else(|_| "{}".to_string())
    } else {
        chrome_trace_json(trace)
    };
    Response::json(200, body).with_header("X-Ptmap-Trace-Id", trace.trace_id.clone())
}

/// `GET /jobs/<id>/trace`: one stitched cluster trace. The gateway's
/// own span tree (admission, forwards, retries, hedges, requeues) and
/// the daemon's compile tree are merged under the shared trace id:
/// the daemon's spans graft onto the winning `forward` span. A
/// numeric id resolves through the tracked async job to its owner;
/// otherwise the id is a trace id — served from the local store and,
/// for the daemon half, fanned out to live (breaker-admitting) peers
/// with each probe bounded by a slice of the remaining request budget
/// so one hung peer cannot starve the rest of the fan-out.
fn handle_trace(state: &Arc<GatewayState>, path: &str, query: Option<&str>) -> Response {
    let id_text = &path["/jobs/".len()..path.len() - "/trace".len()];
    let raw = query
        .map(|q| q.split('&').any(|kv| kv == "format=raw"))
        .unwrap_or(false);
    let budget = state.root.scoped_child(Some(POLL_DEADLINE));

    if let Ok(gid) = id_text.parse::<u64>() {
        let Some(job) = lock_unpoisoned(&state.jobs).get(&gid).cloned() else {
            return Response::json(404, format!("{{\"error\":\"no job {gid}\"}}"));
        };
        let remote = format!("/jobs/{}/trace?format=raw", job.remote_id);
        let daemon = forward_once(state, job.peer, "GET", &remote, &[], b"", budget.deadline())
            .ok()
            .as_ref()
            .and_then(parse_raw_trace);
        // The stored snapshot (taken at poll-done) is preferred; a
        // still-running job gets a live snapshot of its open tree.
        let gateway = match job
            .tracer()
            .trace_id()
            .and_then(|id| state.traces.by_trace_id(id))
        {
            Some(stored) => Some(stored.raw.as_ref().clone()),
            None => job.tracer().finish(),
        };
        return match (gateway, daemon) {
            (Some(gw), Some(d)) => trace_response(&stitch(&gw, &[d]), raw),
            (Some(gw), None) => trace_response(&stitch(&gw, &[]), raw),
            (None, Some(d)) => trace_response(&d, raw),
            (None, None) => {
                Response::json(404, format!("{{\"error\":\"no trace for job {gid}\"}}"))
            }
        };
    }

    let stored = state.traces.by_trace_id(id_text);
    let mut daemon: Option<Trace> = None;
    let peers = state.available_peers();
    let total = peers.len();
    for (i, idx) in peers.into_iter().enumerate() {
        if budget.check().is_err() {
            break;
        }
        // Each probe gets an even slice of what is left (with a small
        // floor), never the whole remaining budget.
        let left = budget.remaining().unwrap_or(POLL_DEADLINE);
        let slice = (left / (total - i) as u32)
            .max(Duration::from_millis(100))
            .min(left);
        let remote = format!("/jobs/{id_text}/trace?format=raw");
        let deadline = Some(Instant::now() + slice);
        if let Ok(resp) = forward_once(state, idx, "GET", &remote, &[], b"", deadline) {
            if let Some(t) = parse_raw_trace(&resp) {
                daemon = Some(t);
                break;
            }
        }
    }
    match (stored, daemon) {
        (Some(gw), Some(d)) => trace_response(&stitch(&gw.raw, &[d]), raw),
        (Some(gw), None) => trace_response(&stitch(&gw.raw, &[]), raw),
        (None, Some(d)) => trace_response(&d, raw),
        (None, None) => Response::json(404, format!("{{\"error\":\"no trace {id_text}\"}}")),
    }
}

/// `GET /cluster`: membership and breaker introspection.
fn handle_cluster(state: &Arc<GatewayState>) -> Response {
    let now = Instant::now();
    let transitions = lock_unpoisoned(&state.transitions).clone();
    let peers: Vec<Value> = state
        .peers
        .iter()
        .enumerate()
        .map(|(idx, peer)| {
            let mut breaker = lock_unpoisoned(&peer.breaker);
            let state_name = breaker.state(now).name();
            let consecutive = breaker.consecutive_failures();
            drop(breaker);
            let opened = transitions.get(&(idx, "open")).copied().unwrap_or(0);
            Value::Object(vec![
                ("addr".to_string(), Value::Str(peer.addr.clone())),
                ("state".to_string(), Value::Str(state_name.to_string())),
                (
                    "consecutive_failures".to_string(),
                    Value::UInt(u64::from(consecutive)),
                ),
                (
                    "forwards".to_string(),
                    Value::UInt(peer.forwards.load(Ordering::Relaxed)),
                ),
                (
                    "failures".to_string(),
                    Value::UInt(peer.failures.load(Ordering::Relaxed)),
                ),
                (
                    "probes_ok".to_string(),
                    Value::UInt(peer.probes_ok.load(Ordering::Relaxed)),
                ),
                (
                    "probes_failed".to_string(),
                    Value::UInt(peer.probes_failed.load(Ordering::Relaxed)),
                ),
                ("times_opened".to_string(), Value::UInt(opened)),
            ])
        })
        .collect();
    let doc = Value::Object(vec![
        ("peers".to_string(), Value::Array(peers)),
        (
            "available".to_string(),
            Value::UInt(state.available_peers().len() as u64),
        ),
        (
            "vnodes_per_peer".to_string(),
            Value::UInt(crate::shard::VNODES as u64),
        ),
        (
            "jobs_tracked".to_string(),
            Value::UInt(lock_unpoisoned(&state.jobs).len() as u64),
        ),
        (
            "draining".to_string(),
            Value::Bool(state.draining.load(Ordering::Acquire)),
        ),
    ]);
    Response::json(200, serde_json::to_string(&doc).unwrap_or_default())
}

/// `GET /healthz`: the gateway is ready iff it can route somewhere.
fn handle_healthz(state: &Arc<GatewayState>) -> Response {
    if state.draining.load(Ordering::Acquire) {
        return Response::json(503, "{\"status\":\"draining\"}".to_string());
    }
    let available = state.available_peers().len();
    if available == 0 {
        return Response::json(503, "{\"status\":\"no peers available\"}".to_string());
    }
    Response::json(
        200,
        format!("{{\"status\":\"ok\",\"peers_available\":{available}}}"),
    )
}

/// The scalar singletons re-exported per peer in the cluster rollup.
const ROLLUP_METRICS: [(&str, &str); 6] = [
    (
        "ptmap_compiles_started_total",
        "ptmap_cluster_compiles_started_total",
    ),
    ("ptmap_queue_depth", "ptmap_cluster_queue_depth"),
    ("ptmap_inflight_compiles", "ptmap_cluster_inflight_compiles"),
    ("ptmap_cache_hits_total", "ptmap_cluster_cache_hits_total"),
    ("ptmap_model_version", "ptmap_cluster_model_version"),
    (
        "ptmap_process_start_time_seconds",
        "ptmap_cluster_peer_start_time_seconds",
    ),
];

/// Renders the gateway `/metrics` document. `rollup` additionally
/// scrapes each live peer's `/metrics` for the cluster view (skipped in
/// tests and the drain summary, where no network should be touched).
fn render_gateway_metrics(state: &GatewayState, rollup: bool) -> String {
    let mut out = String::new();
    render_http_sections(&state.metrics, &mut out);

    out.push_str("# HELP ptmap_gateway_forwards_total Forward attempts answered, by peer.\n");
    out.push_str("# TYPE ptmap_gateway_forwards_total counter\n");
    for peer in &state.peers {
        let _ = writeln!(
            out,
            "ptmap_gateway_forwards_total{{peer=\"{}\"}} {}",
            peer.addr,
            peer.forwards.load(Ordering::Relaxed)
        );
    }
    out.push_str(
        "# HELP ptmap_gateway_forward_failures_total Forward attempts failed in transport, \
         by peer.\n",
    );
    out.push_str("# TYPE ptmap_gateway_forward_failures_total counter\n");
    for peer in &state.peers {
        let _ = writeln!(
            out,
            "ptmap_gateway_forward_failures_total{{peer=\"{}\"}} {}",
            peer.addr,
            peer.failures.load(Ordering::Relaxed)
        );
    }
    out.push_str("# HELP ptmap_gateway_probes_total Health probes, by peer and outcome.\n");
    out.push_str("# TYPE ptmap_gateway_probes_total counter\n");
    for peer in &state.peers {
        let _ = writeln!(
            out,
            "ptmap_gateway_probes_total{{peer=\"{}\",outcome=\"ok\"}} {}",
            peer.addr,
            peer.probes_ok.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "ptmap_gateway_probes_total{{peer=\"{}\",outcome=\"failed\"}} {}",
            peer.addr,
            peer.probes_failed.load(Ordering::Relaxed)
        );
    }

    out.push_str(
        "# HELP ptmap_gateway_breaker_transitions_total Breaker transitions, by peer and \
         entered state.\n",
    );
    out.push_str("# TYPE ptmap_gateway_breaker_transitions_total counter\n");
    for ((idx, to), n) in lock_unpoisoned(&state.transitions).iter() {
        let _ = writeln!(
            out,
            "ptmap_gateway_breaker_transitions_total{{peer=\"{}\",state=\"{to}\"}} {n}",
            state.peers[*idx].addr
        );
    }

    out.push_str(
        "# HELP ptmap_gateway_peer_state Breaker state per peer \
         (0=closed, 1=half-open, 2=open).\n",
    );
    out.push_str("# TYPE ptmap_gateway_peer_state gauge\n");
    let now = Instant::now();
    let mut available = 0u64;
    for peer in &state.peers {
        let s = lock_unpoisoned(&peer.breaker).state(now);
        if s != BreakerState::Open {
            available += 1;
        }
        let code = match s {
            BreakerState::Closed => 0,
            BreakerState::HalfOpen => 1,
            BreakerState::Open => 2,
        };
        let _ = writeln!(
            out,
            "ptmap_gateway_peer_state{{peer=\"{}\"}} {code}",
            peer.addr
        );
    }

    for (name, help, value) in [
        (
            "ptmap_gateway_peers_available",
            "Peers whose breaker admits traffic.",
            available,
        ),
        (
            "ptmap_gateway_jobs_tracked",
            "Async jobs the gateway is tracking.",
            lock_unpoisoned(&state.jobs).len() as u64,
        ),
        (
            "ptmap_gateway_draining",
            "1 while the gateway is draining for shutdown.",
            u64::from(state.draining.load(Ordering::Acquire)),
        ),
    ] {
        let _ = writeln!(
            out,
            "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {value}"
        );
    }
    for (name, help, value) in [
        (
            "ptmap_gateway_retries_total",
            "Forward attempts that were retries.",
            state.retries.load(Ordering::Relaxed),
        ),
        (
            "ptmap_gateway_hedges_total",
            "Hedged forwards started.",
            state.hedges.load(Ordering::Relaxed),
        ),
        (
            "ptmap_gateway_hedge_wins_total",
            "Hedged forwards that answered first.",
            state.hedge_wins.load(Ordering::Relaxed),
        ),
        (
            "ptmap_gateway_jobs_requeued_total",
            "Async jobs resubmitted after their owner died.",
            state.requeued.load(Ordering::Relaxed),
        ),
        (
            "ptmap_gateway_cache_hits_total",
            "Compiles answered from the gateway's shared cache tier.",
            state.shared_cache_hits.load(Ordering::Relaxed),
        ),
    ] {
        let _ = writeln!(
            out,
            "# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}"
        );
    }

    if rollup {
        render_cluster_rollup(state, &mut out);
    }
    out
}

/// Scrapes each peer's `/metrics` and re-emits headline scalars under
/// `ptmap_cluster_*{peer="..."}`, plus an up/down gauge per peer.
fn render_cluster_rollup(state: &GatewayState, out: &mut String) {
    let mut up: Vec<(usize, bool)> = Vec::new();
    let mut rows: BTreeMap<&'static str, Vec<(usize, String)>> = BTreeMap::new();
    let mut builds: Vec<(usize, String)> = Vec::new();
    for (idx, peer) in state.peers.iter().enumerate() {
        let deadline = Instant::now() + PROBE_DEADLINE;
        let scraped = client::request(&peer.addr, "GET", "/metrics", &[], b"", Some(deadline));
        let Ok(resp) = scraped else {
            up.push((idx, false));
            continue;
        };
        if resp.status != 200 {
            up.push((idx, false));
            continue;
        }
        up.push((idx, true));
        let text = resp.body_text();
        for line in text.lines() {
            for (source, target) in ROLLUP_METRICS {
                if let Some(rest) = line.strip_prefix(source) {
                    if let Some(value) = rest.strip_prefix(' ') {
                        rows.entry(target)
                            .or_default()
                            .push((idx, value.to_string()));
                    }
                }
            }
            // Build identity carries its own label set; re-export it
            // verbatim with the peer label prepended.
            if let Some(rest) = line.strip_prefix("ptmap_build_info{") {
                if let Some((labels, _)) = rest.split_once('}') {
                    builds.push((idx, labels.to_string()));
                }
            }
        }
    }
    out.push_str("# HELP ptmap_cluster_peer_up Whether the peer answered a metrics scrape.\n");
    out.push_str("# TYPE ptmap_cluster_peer_up gauge\n");
    for (idx, ok) in &up {
        let _ = writeln!(
            out,
            "ptmap_cluster_peer_up{{peer=\"{}\"}} {}",
            state.peers[*idx].addr,
            u64::from(*ok)
        );
    }
    for (target, series) in rows {
        let _ = writeln!(
            out,
            "# HELP {target} Peer metric, rolled up by the gateway."
        );
        let _ = writeln!(out, "# TYPE {target} gauge");
        for (idx, value) in series {
            let _ = writeln!(
                out,
                "{target}{{peer=\"{}\"}} {value}",
                state.peers[idx].addr
            );
        }
    }
    if !builds.is_empty() {
        out.push_str(
            "# HELP ptmap_cluster_peer_build_info Peer build identity, rolled up by the \
             gateway.\n",
        );
        out.push_str("# TYPE ptmap_cluster_peer_build_info gauge\n");
        for (idx, labels) in builds {
            let _ = writeln!(
                out,
                "ptmap_cluster_peer_build_info{{peer=\"{}\",{labels}}} 1",
                state.peers[idx].addr
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_requires_peers() {
        let err = match Gateway::bind(GatewayConfig {
            addr: "127.0.0.1:0".to_string(),
            ..GatewayConfig::default()
        }) {
            Ok(_) => panic!("bind must fail without peers"),
            Err(e) => e,
        };
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }

    #[test]
    fn job_id_parsing_and_rewriting() {
        assert_eq!(parse_job_id(b"{\"id\":7,\"state\":\"queued\"}"), Some(7));
        assert_eq!(parse_job_id(b"{\"state\":\"queued\"}"), None);
        assert_eq!(parse_job_id(b"not json"), None);

        let rewritten = rewrite_job_id("{\"id\":7,\"state\":\"done\"}", 42).unwrap();
        assert!(rewritten.contains("\"id\":42"), "{rewritten}");
        assert!(rewritten.contains("\"state\":\"done\""));
    }

    #[test]
    fn gateway_metrics_text_is_valid_prometheus() {
        let gw = Gateway::bind(GatewayConfig {
            addr: "127.0.0.1:0".to_string(),
            peers: vec!["127.0.0.1:1".to_string(), "127.0.0.1:2".to_string()],
            ..GatewayConfig::default()
        })
        .unwrap();
        let handle = gw.handle();
        handle
            .state
            .metrics
            .observe_request("compile", 200, Duration::from_millis(5));
        handle
            .state
            .note_transition(0, Some((BreakerState::Closed, BreakerState::Open)));
        let text = handle.metrics_text();
        crate::metrics::check_prometheus_text(&text).expect("must parse");
        assert!(text.contains("ptmap_gateway_forwards_total{peer=\"127.0.0.1:1\"} 0"));
        assert!(text.contains(
            "ptmap_gateway_breaker_transitions_total{peer=\"127.0.0.1:1\",state=\"open\"} 1"
        ));
        assert!(text.contains("ptmap_gateway_peers_available 2"));
        assert!(text.contains("ptmap_gateway_hedges_total 0"));
    }

    #[test]
    fn candidates_rotate_and_demote_ejected_peers() {
        let gw = Gateway::bind(GatewayConfig {
            addr: "127.0.0.1:0".to_string(),
            peers: vec![
                "127.0.0.1:1".to_string(),
                "127.0.0.1:2".to_string(),
                "127.0.0.1:3".to_string(),
            ],
            failure_threshold: 1,
            ..GatewayConfig::default()
        })
        .unwrap();
        let state = &gw.state;
        let base = state.candidates("some-key", 0);
        assert_eq!(base.len(), 3);
        let rotated = state.candidates("some-key", 1);
        assert_eq!(rotated[0], base[1], "offset rotates the failover order");

        // Eject the owner: it must drop to the back, not vanish.
        let now = Instant::now();
        lock_unpoisoned(&state.peers[base[0]].breaker).record_failure(now);
        let after = state.candidates("some-key", 0);
        assert_eq!(after.len(), 3);
        assert_eq!(*after.last().unwrap(), base[0]);
        assert_eq!(after[0], base[1]);
    }
}
