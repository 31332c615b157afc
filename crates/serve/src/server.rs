//! The daemon: request routing, worker pool, drain.
//!
//! One [`ServerState`] holds everything resident: the report cache,
//! the pipeline recorder, the flight table, the async job queue, and
//! the server-wide root [`Budget`]. Every request compiles under a
//! *scope* of that root ([`Budget::scoped_child`]): cancelling a
//! request (client disconnect, per-request deadline) never touches the
//! root, while cancelling the root (drain timeout) reaches every
//! in-flight compile through the ancestor chain.

use crate::accept::{self, Connections};
use crate::coalesce::{Coalescer, Join};
use crate::http::{read_request, write_response, HttpError, Request, Response};
use crate::jobs::{JobState, JobTable, SubmitError};
use crate::metrics::{render, ServiceGauges, ServiceMetrics};
use crate::signal;
use crate::traces::TraceStore;
use ptmap_core::PtMapConfig;
use ptmap_governor::Budget;
use ptmap_learn::{LearnConfig, LearnEngine};
use ptmap_mapper::BackendKind;
use ptmap_pipeline::{
    compile_job_keyed, request_key, BatchConfig, Job, JobOutcome, JobSpec, Recorder, ReportCache,
};
use ptmap_trace::obs::{EventLog, Level, LogFormat};
use ptmap_trace::{AttrValue, SamplePolicy, Tracer};
use serde_json::Value;
use std::io::Read;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How the daemon is configured (flags + defaults).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:7199` by default; port `0` asks the OS
    /// for an ephemeral port — the chosen address is printed on boot).
    pub addr: String,
    /// Async worker threads draining the `POST /jobs` queue.
    pub workers: usize,
    /// Bound on queued (not yet running) async jobs.
    pub queue_cap: usize,
    /// Most leader compiles running at once; beyond this, new flights
    /// are refused with `503` (admission control).
    pub max_inflight: usize,
    /// Persistent report cache directory (`None` = in-memory).
    pub cache_dir: Option<PathBuf>,
    /// Base compiler configuration shared by every request.
    pub base: PtMapConfig,
    /// Retry-ladder depth per compile.
    pub max_retries: u32,
    /// Per-request compile deadline when the client sends none; also
    /// the cap on client-supplied `X-Ptmap-Deadline-Ms`.
    pub default_timeout: Duration,
    /// How long drain waits for in-flight work before cancelling it.
    pub drain_timeout: Duration,
    /// Head-based trace sampling probability in `[0, 1]`: the fraction
    /// of compiles whose trace is retained in the ring buffer behind
    /// `GET /jobs/<id>/trace`.
    pub trace_sample: f64,
    /// Slow-compile threshold: a compile slower than this keeps its
    /// trace even when sampled out, so outliers are always inspectable.
    pub trace_slow_ms: Option<u64>,
    /// Online cost-model learning (`--learn`): `Some` boots a
    /// [`LearnEngine`] that taps every completed compile, fine-tunes in
    /// the background, and hot-swaps the learned model behind
    /// `GET /model`. `None` disables the subsystem entirely.
    pub learn: Option<LearnConfig>,
    /// Minimum severity of structured events emitted to stderr and
    /// retained by the flight recorder (`--log-level`).
    pub log_level: Level,
    /// How events are rendered on stderr (`--log-format json|text`);
    /// the flight recorder behind `GET /debug/events` always keeps
    /// JSON.
    pub log_format: LogFormat,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:7199".to_string(),
            workers: 2,
            queue_cap: 64,
            max_inflight: 8,
            cache_dir: None,
            base: PtMapConfig::default(),
            max_retries: 2,
            default_timeout: Duration::from_secs(300),
            drain_timeout: Duration::from_secs(20),
            trace_sample: 1.0,
            trace_slow_ms: None,
            learn: None,
            log_level: Level::Info,
            log_format: LogFormat::Text,
        }
    }
}

/// What the drain reported when the server exited.
#[derive(Debug, Clone)]
pub struct DrainSummary {
    /// Requests handled over the server's lifetime.
    pub requests: u64,
    /// Underlying compiles started.
    pub compiles: u64,
    /// Requests served by coalescing onto another flight.
    pub coalesced: u64,
    /// Whether everything in flight finished inside the drain timeout
    /// (false means the root budget had to cancel stragglers).
    pub clean: bool,
}

/// Everything the handler threads share.
pub(crate) struct ServerState {
    config: ServeConfig,
    cache: ReportCache,
    recorder: Recorder,
    coalescer: Arc<Coalescer>,
    jobs: JobTable,
    metrics: ServiceMetrics,
    /// Ring buffer of retained compile traces (`GET /jobs/<id>/trace`).
    traces: TraceStore,
    /// Structured event log + flight recorder (`GET /debug/events`).
    log: Arc<EventLog>,
    /// The online-learning engine (`--learn`); doubles as the pipeline
    /// sample tap.
    learn: Option<Arc<LearnEngine>>,
    /// The server-wide root budget; every request scope descends from
    /// it, so cancelling it (drain timeout) cancels all compiles.
    root: Budget,
    /// In-process shutdown request (tests; the CLI uses [`signal`]).
    stop: AtomicBool,
    draining: AtomicBool,
    /// Leader compiles currently running.
    inflight: AtomicUsize,
    /// Async worker threads currently alive.
    workers_alive: AtomicUsize,
    /// Open HTTP connections (drain waits for zero).
    conns: Arc<Connections>,
    /// Monotonic id handed to jobs submitted via `/compile` has no
    /// meaning; this counts *requests* for the drain summary.
    requests: AtomicU64,
}

impl ServerState {
    fn gauges(&self) -> ServiceGauges {
        let (hits, misses) = self.cache.stats();
        ServiceGauges {
            queue_depth: self.jobs.depth(),
            inflight_compiles: self.inflight.load(Ordering::Relaxed),
            flights_in_flight: self.coalescer.in_flight(),
            coalesced_total: self.coalescer.coalesced_total(),
            workers_alive: self.workers_alive.load(Ordering::Relaxed),
            draining: self.draining.load(Ordering::Relaxed),
            cache_hits: hits,
            cache_misses: misses,
            cache_quarantines: self.cache.quarantines(),
            cache_entries: self.cache.len(),
            trace_entries: self.traces.len(),
        }
    }

    /// The sampling policy the flag set configures.
    fn trace_policy(&self) -> SamplePolicy {
        SamplePolicy {
            sample: self.config.trace_sample,
            slow_ms: self.config.trace_slow_ms,
        }
    }

    fn render_metrics(&self) -> String {
        let (spans, counters) = self.recorder.snapshot();
        let mut out = render(&self.metrics, &self.gauges(), &spans, &counters);
        let fallbacks = counters.get("predictor_fallbacks").copied().unwrap_or(0);
        out.push_str(&format!(
            "# HELP ptmap_predictor_fallbacks_total Compiles that fell back to the \
             analytical predictor because a GNN model failed to load.\n\
             # TYPE ptmap_predictor_fallbacks_total counter\n\
             ptmap_predictor_fallbacks_total {fallbacks}\n"
        ));
        if let Some(engine) = &self.learn {
            out.push_str(&engine.render_metrics());
        }
        out
    }
}

/// A handle for telling a running server to drain (tests and the
/// binary's own wiring; external callers send SIGTERM).
#[derive(Clone)]
pub struct ServerHandle {
    state: Arc<ServerState>,
}

impl ServerHandle {
    /// Requests a graceful drain, as if SIGTERM arrived.
    pub fn shutdown(&self) {
        self.state.stop.store(true, Ordering::Release);
    }

    /// Rendered `/metrics` document (test convenience).
    pub fn metrics_text(&self) -> String {
        self.state.render_metrics()
    }
}

/// The bound, not-yet-running daemon.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
}

/// Decrements the in-flight leader count even if the compile panics.
struct InflightGuard<'a> {
    state: &'a ServerState,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.state.inflight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Builds a failure outcome in the same shape the pipeline produces,
/// so every error a client sees — admission or compile — parses the
/// same way.
pub(crate) fn error_outcome(name: &str, class: &str, message: String) -> JobOutcome {
    JobOutcome {
        name: name.to_string(),
        cache_hit: false,
        report: None,
        error: Some(message),
        error_class: Some(class.to_string()),
        degraded: None,
        retries: 0,
        trace_id: None,
    }
}

/// HTTP status for a compile outcome.
pub(crate) fn outcome_status(outcome: &JobOutcome) -> u16 {
    if outcome.report.is_some() {
        return 200;
    }
    match outcome.error_class.as_deref() {
        Some("timeout") => 504,
        Some("cancelled") | Some("overloaded") | Some("draining") => 503,
        _ => 500,
    }
}

fn outcome_response(outcome: &JobOutcome) -> Response {
    let body = serde_json::to_string(outcome).unwrap_or_else(|_| "{}".to_string());
    Response::json(outcome_status(outcome), body)
}

/// A structured 400: the human message plus a machine-readable reason
/// (`bad-deadline`, `bad-quality`, `bad-spec`) so clients and the
/// gateway can distinguish *which* input was malformed without string
/// matching.
fn bad_request(reason: &str, message: String) -> Response {
    Response::json(
        400,
        format!("{{\"error\":{message:?},\"reason\":{reason:?}}}"),
    )
}

/// Stamps a load-shedding 503 with the retry hint every rejected
/// client needs: when to come back (`Retry-After`, seconds) — without
/// it, a fleet of rejected clients retries immediately and the
/// overload feeds itself.
fn with_retry_after(resp: Response, seconds: u64) -> Response {
    resp.with_header("Retry-After", seconds.max(1).to_string())
}

/// Attaches the compile's trace id to the response, if it has one.
fn with_trace_header(resp: Response, outcome: &JobOutcome) -> Response {
    match &outcome.trace_id {
        Some(id) => resp.with_header("X-Ptmap-Trace-Id", id.clone()),
        None => resp,
    }
}

/// The effective base config for one request: the server-wide default
/// with the client's `X-Ptmap-Quality` backend override (if any)
/// applied. The override is folded in *before* the request key is
/// computed, so an exact-tier request never coalesces onto (or reads a
/// cache entry from) a heuristic flight, and vice versa.
fn effective_base(request: &Request, config: &ServeConfig) -> Result<PtMapConfig, String> {
    let mut base = config.base.clone();
    if let Some(raw) = request.header("x-ptmap-quality") {
        base.mapper.backend = raw
            .parse::<BackendKind>()
            .map_err(|e| format!("bad X-Ptmap-Quality: {e}"))?;
    }
    Ok(base)
}

/// The per-flight compile configuration every leader runs under.
fn leader_batch_config(
    state: &ServerState,
    base: PtMapConfig,
    flight: &crate::coalesce::Flight,
) -> BatchConfig {
    BatchConfig {
        workers: 1,
        cache_dir: None,
        base,
        job_timeout: None,
        budget: flight.budget.clone(),
        max_retries: state.config.max_retries,
        // File export is the batch CLI's sink; the daemon renders and
        // retains traces itself (see `store_trace`).
        trace: None,
        // Online-learning ingest: observe-only, so it never perturbs
        // compile results or cache keys.
        tap: state
            .learn
            .as_ref()
            .map(|l| std::sync::Arc::clone(l) as std::sync::Arc<dyn ptmap_eval::SampleTap>),
    }
}

/// Finishes a leader's tracer and retains the rendered Chrome trace if
/// the sampling policy keeps it. `force_keep` bypasses sampling for
/// client-supplied trace ids (the client asked for this one by name).
/// Outcomes surface as `traces_stored` / `traces_sampled_out` pipeline
/// events in `/metrics`.
fn store_trace(state: &ServerState, tracer: &Tracer, force_keep: bool, wall: Duration) {
    let Some(trace) = tracer.finish() else {
        return;
    };
    if force_keep || state.trace_policy().keep(&trace.trace_id, wall) {
        state.traces.insert(trace);
        state.recorder.incr("traces_stored", 1);
    } else {
        state.recorder.incr("traces_sampled_out", 1);
    }
}

impl Server {
    /// Binds the listener and builds the resident state. The cache
    /// falls back to memory-only (with a warning) if the directory
    /// cannot be created, mirroring `run_batch`.
    pub fn bind(config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        // Pin the start-time gauge and publish the event log early, so
        // library code (pipeline cache warnings) reaches it too.
        crate::metrics::process_start_seconds();
        let log = Arc::new(EventLog::new("serve", config.log_level, config.log_format));
        ptmap_trace::obs::install(Arc::clone(&log));
        let cache = match &config.cache_dir {
            Some(dir) => ReportCache::with_dir(dir).unwrap_or_else(|e| {
                log.warn(
                    "cache_dir_fallback",
                    None,
                    &format!("cache dir {}: {e}; falling back to memory", dir.display()),
                    &[("dir", AttrValue::Str(dir.display().to_string()))],
                );
                ReportCache::in_memory()
            }),
            None => ReportCache::in_memory(),
        };
        let queue_cap = config.queue_cap.max(1);
        let learn = match config.learn.clone() {
            Some(lc) => Some(Arc::new(LearnEngine::new(lc)?)),
            None => None,
        };
        let state = Arc::new(ServerState {
            cache,
            learn,
            log,
            recorder: Recorder::new(),
            coalescer: Arc::new(Coalescer::new()),
            jobs: JobTable::new(queue_cap),
            metrics: ServiceMetrics::new(),
            traces: TraceStore::new(),
            root: Budget::cancellable(),
            stop: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            inflight: AtomicUsize::new(0),
            workers_alive: AtomicUsize::new(0),
            conns: Arc::default(),
            requests: AtomicU64::new(0),
            config,
        });
        Ok(Server { listener, state })
    }

    /// The bound address (resolves port `0`).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// A shutdown/introspection handle usable from another thread.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            state: Arc::clone(&self.state),
        }
    }

    /// Serves until SIGTERM/SIGINT (or [`ServerHandle::shutdown`]),
    /// then drains and returns the lifetime summary.
    pub fn run(self) -> DrainSummary {
        let state = Arc::clone(&self.state);

        // The async worker pool.
        let mut workers = Vec::new();
        for i in 0..state.config.workers {
            let state = Arc::clone(&state);
            state.workers_alive.fetch_add(1, Ordering::AcqRel);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("ptmap-worker-{i}"))
                    .spawn(move || {
                        while let Some(queued) = state.jobs.next() {
                            let outcome = run_async_job(&state, &queued.spec);
                            state.jobs.finish(queued.id, outcome);
                        }
                        state.workers_alive.fetch_sub(1, Ordering::AcqRel);
                    })
                    .expect("spawn worker"),
            );
        }

        // The background trainer: drains the sample tap, fine-tunes,
        // shadows, and promotes — entirely off the request path. Each
        // pump runs under a scope of the root budget, so the drain
        // timeout's root cancel stops training within one epoch. The
        // final iteration after the stop flag flushes pending samples.
        let trainer = state.learn.as_ref().map(|engine| {
            let engine = Arc::clone(engine);
            let state = Arc::clone(&state);
            std::thread::Builder::new()
                .name("ptmap-learn".to_string())
                .spawn(move || loop {
                    let stopping = state.stop.load(Ordering::Acquire)
                        || signal::shutdown_requested()
                        || state.draining.load(Ordering::Acquire);
                    let tracer = Tracer::root("learn");
                    let budget = state.root.scoped_child(None);
                    let t0 = Instant::now();
                    let report = engine.pump(&budget, &tracer);
                    // Lifecycle pumps (a training round or a verdict)
                    // are rare and always worth a retained trace.
                    if report.trained || report.promoted || report.rejected {
                        store_trace(&state, &tracer, true, t0.elapsed());
                    }
                    if stopping {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(25));
                })
                .expect("spawn learn trainer")
        });

        // Accept loop (see `accept`): wakes when a connection arrives;
        // sees a stop request within 50 ms and a signal at once.
        let conn_state = Arc::clone(&state);
        accept::serve(
            &self.listener,
            &state.conns,
            &state.log,
            "ptmap-conn",
            || state.stop.load(Ordering::Acquire),
            move |stream| handle_connection(&conn_state, stream),
        );

        // Drain: stop accepting, let in-flight work finish, then
        // cancel stragglers through the root budget.
        drop(self.listener);
        state.draining.store(true, Ordering::Release);
        state.jobs.close();

        // Idle: no open connection, no async job queued or running.
        let jobs_idle = || state.jobs.active() == 0;
        let deadline = Instant::now() + state.config.drain_timeout;
        let mut clean = state.conns.wait_idle(deadline, jobs_idle);
        if !clean {
            state.log.warn(
                "drain_timeout",
                None,
                "drain timeout elapsed; cancelling in-flight work",
                &[(
                    "timeout_s",
                    AttrValue::UInt(state.config.drain_timeout.as_secs()),
                )],
            );
            state.root.cancel();
            state.coalescer.cancel_all();
            // Cancellation is cooperative; give compiles a bounded
            // window to observe it.
            clean = state
                .conns
                .wait_idle(Instant::now() + Duration::from_secs(10), jobs_idle);
        }
        for worker in workers {
            let _ = worker.join();
        }
        if let Some(trainer) = trainer {
            let _ = trainer.join();
        }

        // Flush the final metrics snapshot and the flight recorder
        // where an operator (or the CI smoke test) can see them after
        // the port is gone.
        state.metrics.log_drain(&state.log);
        eprintln!("--- final metrics ---\n{}", state.render_metrics());

        DrainSummary {
            requests: state.metrics.requests_total(),
            compiles: state.metrics.compiles_total(),
            coalesced: state.coalescer.coalesced_total(),
            clean,
        }
    }
}

/// Reads, routes, answers, closes.
fn handle_connection(state: &Arc<ServerState>, mut stream: TcpStream) {
    // A client that connects and never sends a full request must not
    // pin a handler thread forever.
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
        // The socket died mid-request; nobody is listening for errors.
        Err(HttpError::Io(_)) => return,
    };
    let _ = stream.set_read_timeout(None);
    state.requests.fetch_add(1, Ordering::Relaxed);

    let t0 = Instant::now();
    let (endpoint, response) = route(state, &request, &stream);
    state
        .metrics
        .observe_request(endpoint, response.status, t0.elapsed());
    let _ = write_response(&mut stream, &response);
    // Wake any disconnect watcher still parked on the socket.
    let _ = stream.shutdown(Shutdown::Both);
}

/// Dispatches one request; returns the endpoint label (for metrics)
/// and the response.
fn route(
    state: &Arc<ServerState>,
    request: &Request,
    stream: &TcpStream,
) -> (&'static str, Response) {
    // Split an attached query string off before matching, so
    // `/jobs/<id>/trace?format=raw` routes like `/jobs/<id>/trace`.
    let (path, query) = match request.path.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (request.path.as_str(), None),
    };
    match (request.method.as_str(), path) {
        ("POST", "/compile") => ("compile", handle_compile(state, request, stream)),
        ("POST", "/jobs") => ("jobs_submit", handle_submit(state, request)),
        ("GET", path) if path.starts_with("/jobs/") && path.ends_with("/trace") => {
            ("jobs_trace", handle_trace(state, path, query))
        }
        ("GET", path) if path.starts_with("/jobs/") => ("jobs_poll", handle_poll(state, path)),
        ("GET", "/metrics") => ("metrics", Response::text(200, state.render_metrics())),
        ("GET", "/debug/events") => (
            "debug_events",
            crate::events::events_response(&state.log, query),
        ),
        ("GET", "/model") => ("model", handle_model(state)),
        ("GET", "/healthz") => ("healthz", handle_healthz(state)),
        (_, "/compile" | "/jobs" | "/metrics" | "/debug/events" | "/model" | "/healthz") => (
            "other",
            Response::json(405, "{\"error\":\"method not allowed\"}".to_string()),
        ),
        _ => (
            "other",
            Response::json(404, "{\"error\":\"not found\"}".to_string()),
        ),
    }
}

/// Parses the request body as a job spec.
fn parse_spec(body: &[u8]) -> Result<JobSpec, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    serde_json::from_str::<JobSpec>(text).map_err(|e| format!("job spec: {e}"))
}

/// The effective compile deadline for a request: the client's
/// `X-Ptmap-Deadline-Ms`, capped by the server default.
fn effective_timeout(request: &Request, config: &ServeConfig) -> Result<Duration, String> {
    match request.header("x-ptmap-deadline-ms") {
        None => Ok(config.default_timeout),
        Some(raw) => {
            let ms: u64 = raw
                .parse()
                .map_err(|_| format!("bad X-Ptmap-Deadline-Ms {raw:?}"))?;
            Ok(Duration::from_millis(ms).min(config.default_timeout))
        }
    }
}

/// `POST /compile`: admission check, coalesced compile, synchronous
/// response.
fn handle_compile(state: &Arc<ServerState>, request: &Request, stream: &TcpStream) -> Response {
    if state.draining.load(Ordering::Acquire) {
        state.metrics.reject("draining");
        return with_retry_after(
            outcome_response(&error_outcome(
                "",
                "draining",
                "server is draining".to_string(),
            )),
            state.config.drain_timeout.as_secs(),
        );
    }
    let spec = match parse_spec(&request.body) {
        Ok(s) => s,
        Err(e) => return bad_request("bad-spec", e),
    };
    let timeout = match effective_timeout(request, &state.config) {
        Ok(t) => t,
        Err(e) => return bad_request("bad-deadline", e),
    };
    let name = spec.name.clone().unwrap_or_else(|| spec.kernel.clone());

    // Admission: the governor check runs before any resolution or
    // queueing, so an already-expired deadline costs one branch.
    let budget = state.root.scoped_child(Some(timeout));
    if let Err(e) = budget.check() {
        state.metrics.reject("deadline");
        return outcome_response(&error_outcome(&name, e.class(), e.to_string()));
    }

    let job = match Job::resolve(&spec) {
        Ok(j) => j,
        Err(e) => return bad_request("bad-spec", e),
    };
    let base = match effective_base(request, &state.config) {
        Ok(b) => b,
        Err(e) => return bad_request("bad-quality", e),
    };
    let quality = base.mapper.backend;
    let key = request_key(&job, &base);

    // A client-supplied trace id is adopted verbatim (and force-keeps
    // the trace — the client asked for this one by name); otherwise
    // the leader mints one.
    let client_trace_id = request.header("x-ptmap-trace-id").map(str::to_string);

    match state.coalescer.join(&key, || budget.clone()) {
        Join::Leader(flight) => {
            // Capacity gate applies to new flights only — followers
            // ride along for free.
            let previous = state.inflight.fetch_add(1, Ordering::AcqRel);
            let guard = InflightGuard { state };
            if previous >= state.config.max_inflight {
                drop(guard);
                state.metrics.reject("capacity");
                let outcome = error_outcome(
                    &job.name,
                    "overloaded",
                    format!(
                        "{} compiles already in flight (max {})",
                        previous, state.config.max_inflight
                    ),
                );
                state.coalescer.complete(&key, &flight, outcome.clone());
                // Capacity pressure is transient: tell the client when
                // to retry instead of letting it hammer the gate.
                return with_retry_after(outcome_response(&outcome), 1);
            }
            let _watcher = spawn_disconnect_watcher(state, stream, &flight);
            let t0 = Instant::now();
            let tracer = match &client_trace_id {
                Some(id) => Tracer::root_with_id(&job.name, id.clone()),
                None => Tracer::root(&job.name),
            };
            // The coalescing key is attempt 0's cache key: pass it on
            // so a cache hit hashes the job once.
            let (outcome, _job_metrics) = compile_job_keyed(
                &job,
                &leader_batch_config(state, base, &flight),
                &state.cache,
                &state.recorder,
                &tracer,
                &key,
            );
            drop(guard);
            // A cache hit never started a mapper run; the compile
            // counter tracks real underlying compiles.
            if !outcome.cache_hit {
                state.metrics.compile_started();
            }
            // Retain the trace *before* publishing the outcome, so a
            // follower acting on the outcome's trace id finds it.
            store_trace(state, &tracer, client_trace_id.is_some(), t0.elapsed());
            state.log.info(
                "compile",
                outcome.trace_id.as_deref(),
                "",
                &[
                    ("name", AttrValue::Str(job.name.clone())),
                    (
                        "status",
                        AttrValue::UInt(u64::from(outcome_status(&outcome))),
                    ),
                    ("cache_hit", AttrValue::Bool(outcome.cache_hit)),
                    ("retries", AttrValue::UInt(u64::from(outcome.retries))),
                    ("seconds", AttrValue::Float(t0.elapsed().as_secs_f64())),
                ],
            );
            state.coalescer.complete(&key, &flight, outcome.clone());
            with_trace_header(outcome_response(&outcome), &outcome)
                .with_header("X-Ptmap-Quality", quality.as_str().to_string())
        }
        Join::Follower(flight) => {
            let settled = spawn_disconnect_watcher(state, stream, &flight);
            let result = flight.wait(budget.deadline());
            let already_settled = settled.swap(true, Ordering::AcqRel);
            match result {
                Some(outcome) => with_trace_header(outcome_response(&outcome), &outcome)
                    .with_header("X-Ptmap-Quality", quality.as_str().to_string())
                    .with_header("X-Ptmap-Coalesced", "1".to_string()),
                None => {
                    // Own deadline expired while the leader was still
                    // compiling; stop counting as an audience member.
                    if !already_settled {
                        state.coalescer.detach(&flight);
                    }
                    state.metrics.reject("deadline");
                    outcome_response(&error_outcome(
                        &job.name,
                        "timeout",
                        "deadline expired while waiting for in-flight compile".to_string(),
                    ))
                    .with_header("X-Ptmap-Coalesced", "1".to_string())
                }
            }
        }
    }
}

/// Watches the request socket while the handler is busy compiling or
/// waiting; a client that disconnects detaches from the flight (the
/// last detach cancels the compile's budget). The returned flag gates
/// the detach: whichever side (watcher on EOF, handler on finish)
/// swaps it first owns the waiter slot.
fn spawn_disconnect_watcher(
    state: &Arc<ServerState>,
    stream: &TcpStream,
    flight: &Arc<crate::coalesce::Flight>,
) -> Arc<AtomicBool> {
    let settled = Arc::new(AtomicBool::new(false));
    let Ok(mut watch) = stream.try_clone() else {
        return settled;
    };
    let _ = watch.set_read_timeout(None);
    let coalescer = Arc::clone(&state.coalescer);
    let flight = Arc::clone(flight);
    let settled_for_watcher = Arc::clone(&settled);
    let _ = std::thread::Builder::new()
        .name("ptmap-watch".to_string())
        .spawn(move || {
            let mut buf = [0u8; 64];
            loop {
                match watch.read(&mut buf) {
                    // EOF: the client closed (or the handler shut the
                    // socket down after responding).
                    Ok(0) => break,
                    // Unexpected extra bytes; keep watching.
                    Ok(_) => continue,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => break,
                }
            }
            if !settled_for_watcher.swap(true, Ordering::AcqRel) {
                coalescer.detach(&flight);
            }
        });
    settled
}

/// Leader half of a compile, shared by the HTTP path and the async
/// workers... the async variant: resolve, coalesce, compile, no
/// disconnect watcher (the submitter polls; nobody is on a socket).
fn run_async_job(state: &Arc<ServerState>, spec: &JobSpec) -> JobOutcome {
    let job = match Job::resolve(spec) {
        Ok(j) => j,
        Err(e) => {
            let name = spec.name.clone().unwrap_or_else(|| spec.kernel.clone());
            return error_outcome(&name, "error", e);
        }
    };
    let budget = state.root.scoped_child(Some(state.config.default_timeout));
    let key = request_key(&job, &state.config.base);
    match state.coalescer.join(&key, || budget.clone()) {
        Join::Leader(flight) => {
            state.inflight.fetch_add(1, Ordering::AcqRel);
            let guard = InflightGuard { state };
            let t0 = Instant::now();
            let tracer = Tracer::root(&job.name);
            let (outcome, _metrics) = compile_job_keyed(
                &job,
                &leader_batch_config(state, state.config.base.clone(), &flight),
                &state.cache,
                &state.recorder,
                &tracer,
                &key,
            );
            drop(guard);
            if !outcome.cache_hit {
                state.metrics.compile_started();
            }
            // Retain before publishing, as in the synchronous path: a
            // poller that sees `done` must find the trace.
            store_trace(state, &tracer, false, t0.elapsed());
            state.log.info(
                "compile",
                outcome.trace_id.as_deref(),
                "",
                &[
                    ("name", AttrValue::Str(job.name.clone())),
                    (
                        "status",
                        AttrValue::UInt(u64::from(outcome_status(&outcome))),
                    ),
                    ("cache_hit", AttrValue::Bool(outcome.cache_hit)),
                    ("retries", AttrValue::UInt(u64::from(outcome.retries))),
                    ("async", AttrValue::Bool(true)),
                    ("seconds", AttrValue::Float(t0.elapsed().as_secs_f64())),
                ],
            );
            state.coalescer.complete(&key, &flight, outcome.clone());
            outcome
        }
        Join::Follower(flight) => match flight.wait(budget.deadline()) {
            Some(outcome) => outcome,
            None => {
                state.coalescer.detach(&flight);
                error_outcome(
                    &job.name,
                    "timeout",
                    "deadline expired while waiting for in-flight compile".to_string(),
                )
            }
        },
    }
}

/// `POST /jobs`: bounded async submission.
///
/// The compile itself runs later under server defaults, but the
/// request headers are validated *now*: a malformed
/// `X-Ptmap-Deadline-Ms` or `X-Ptmap-Quality` used to be silently
/// ignored here (unlike `/compile`, which rejects it), so a client
/// with a typo'd header got a `202` and no signal that its header did
/// nothing. Malformed values are a structured `400` at submission;
/// well-formed values are accepted (the async path runs under server
/// defaults either way, which the docs state).
fn handle_submit(state: &Arc<ServerState>, request: &Request) -> Response {
    if let Err(e) = effective_timeout(request, &state.config) {
        return bad_request("bad-deadline", e);
    }
    if let Err(e) = effective_base(request, &state.config) {
        return bad_request("bad-quality", e);
    }
    let spec = match parse_spec(&request.body) {
        Ok(s) => s,
        Err(e) => return bad_request("bad-spec", e),
    };
    match state.jobs.submit(spec) {
        Ok(id) => Response::json(202, format!("{{\"id\":{id},\"state\":\"queued\"}}")),
        Err(SubmitError::Full) => {
            state.metrics.reject("queue-full");
            with_retry_after(
                Response::json(
                    503,
                    format!(
                        "{{\"error\":\"queue full ({} jobs)\",\"reason\":\"queue-full\"}}",
                        state.config.queue_cap.max(1)
                    ),
                ),
                1,
            )
        }
        Err(SubmitError::Draining) => {
            state.metrics.reject("draining");
            with_retry_after(
                Response::json(
                    503,
                    "{\"error\":\"server is draining\",\"reason\":\"draining\"}".to_string(),
                ),
                state.config.drain_timeout.as_secs(),
            )
        }
    }
}

/// `GET /jobs/<id>`: poll an async job.
fn handle_poll(state: &Arc<ServerState>, path: &str) -> Response {
    let id_text = &path["/jobs/".len()..];
    let Ok(id) = id_text.parse::<u64>() else {
        return Response::json(400, format!("{{\"error\":\"bad job id {id_text:?}\"}}"));
    };
    match state.jobs.status(id) {
        None => Response::json(404, format!("{{\"error\":\"no job {id}\"}}")),
        Some(status) => {
            let mut fields = vec![
                ("id".to_string(), Value::UInt(id)),
                ("state".to_string(), Value::Str(status.name().to_string())),
            ];
            if let JobState::Done(outcome) = &status {
                match serde_json::to_value(outcome.as_ref()) {
                    Ok(v) => fields.push(("outcome".to_string(), v)),
                    Err(_) => fields.push(("outcome".to_string(), Value::Null)),
                }
            }
            let body =
                serde_json::to_string(&Value::Object(fields)).unwrap_or_else(|_| "{}".to_string());
            let status_code = 200;
            Response::json(status_code, body)
        }
    }
}

/// `GET /jobs/<id>/trace`: the retained trace for a compile.
///
/// `<id>` is either a numeric async-job id — resolved to a trace id
/// through the job table's completed outcome — or a trace id taken
/// from an `X-Ptmap-Trace-Id` response header. The default rendering
/// is Chrome trace-event JSON; `?format=raw` returns the serialized
/// span tree instead, which is what the gateway fetches to stitch a
/// cluster-wide trace.
fn handle_trace(state: &Arc<ServerState>, path: &str, query: Option<&str>) -> Response {
    let id_text = &path["/jobs/".len()..path.len() - "/trace".len()];
    // An exact trace-id match wins (it is unambiguous even when the id
    // happens to be all digits); numeric ids then resolve through the
    // async job table.
    let trace_id = match state.traces.by_trace_id(id_text) {
        Some(_) => id_text.to_string(),
        None => match id_text.parse::<u64>() {
            Err(_) => id_text.to_string(),
            Ok(job_id) => match state.jobs.status(job_id) {
                None => return Response::json(404, format!("{{\"error\":\"no job {job_id}\"}}")),
                Some(JobState::Done(outcome)) => match outcome.trace_id {
                    Some(id) => id,
                    None => {
                        return Response::json(
                            404,
                            format!("{{\"error\":\"job {job_id} has no trace\"}}"),
                        )
                    }
                },
                Some(_) => {
                    return Response::json(
                        404,
                        format!("{{\"error\":\"job {job_id} is not done yet\"}}"),
                    )
                }
            },
        },
    };
    let raw = query
        .map(|q| q.split('&').any(|kv| kv == "format=raw"))
        .unwrap_or(false);
    match state.traces.by_trace_id(&trace_id) {
        Some(stored) => {
            let body = if raw {
                serde_json::to_string(stored.raw.as_ref()).unwrap_or_else(|_| "{}".to_string())
            } else {
                stored.chrome_json.as_ref().clone()
            };
            Response::json(200, body).with_header("X-Ptmap-Trace-Id", stored.trace_id)
        }
        None => Response::json(
            404,
            format!("{{\"error\":{:?}}}", format!("no trace {trace_id}")),
        ),
    }
}

/// `GET /model`: the online-learning engine's state — serving model
/// version, sample/training/promotion counters, live MAPE, and any
/// in-flight shadow window. `404` when `--learn` is off.
fn handle_model(state: &Arc<ServerState>) -> Response {
    match &state.learn {
        Some(engine) => Response::json(200, engine.status_json()),
        None => Response::json(
            404,
            "{\"error\":\"online learning disabled (start with --learn)\"}".to_string(),
        ),
    }
}

/// `GET /healthz`: readiness.
fn handle_healthz(state: &Arc<ServerState>) -> Response {
    if state.draining.load(Ordering::Acquire) {
        return Response::json(503, "{\"status\":\"draining\"}".to_string());
    }
    // Workers configured but all dead means async submissions would
    // queue forever.
    if state.config.workers > 0 && state.workers_alive.load(Ordering::Acquire) == 0 {
        return Response::json(503, "{\"status\":\"no workers alive\"}".to_string());
    }
    // The disk cache must stay writable; probe with a real write.
    if let Some(dir) = state.cache.dir() {
        let probe = dir.join(".healthz-probe");
        if std::fs::write(&probe, b"ok").is_err() {
            return Response::json(
                503,
                format!(
                    "{{\"status\":\"cache dir {} not writable\"}}",
                    dir.display()
                ),
            );
        }
        let _ = std::fs::remove_file(&probe);
    }
    Response::json(200, "{\"status\":\"ok\"}".to_string())
}
