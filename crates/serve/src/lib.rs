//! `ptmap-serve`: the long-running compile daemon.
//!
//! A one-shot `ptmap batch` process pays cache warm-up, manifest
//! parsing, and thread-pool spin-up on every invocation. This crate
//! keeps one [`ReportCache`](ptmap_pipeline::ReportCache), one
//! [`Recorder`](ptmap_pipeline::Recorder), and one worker pool resident
//! behind a hand-rolled (std-only, no tokio/hyper) HTTP/1.1 server:
//!
//! | Endpoint          | Semantics                                          |
//! |-------------------|----------------------------------------------------|
//! | `POST /compile`   | synchronous compile of one job spec                |
//! | `POST /jobs`      | async submit into a bounded queue (`202` + id)     |
//! | `GET /jobs/<id>`  | poll an async job (`queued`/`running`/`done`)      |
//! | `GET /jobs/<id>/trace` | Chrome trace-event JSON for a retained trace  |
//! | `GET /metrics`    | Prometheus text: pipeline spans/counters + service |
//! | `GET /debug/events` | flight recorder: last N structured events (NDJSON) |
//! | `GET /healthz`    | readiness (cache dir writable, workers alive)      |
//!
//! Three properties make it a *service* rather than a socket in front
//! of the batch CLI:
//!
//! * **Request coalescing** ([`coalesce`]) — identical concurrent
//!   requests (same [`request_key`](ptmap_pipeline::request_key)) share
//!   one underlying compile; N waiters, one mapper run.
//! * **Governor-backed admission control** — every request derives a
//!   [`Budget`](ptmap_governor::Budget) scope from its
//!   `X-Ptmap-Deadline-Ms` header and the server defaults; an expired
//!   deadline is rejected at admission without occupying a worker, a
//!   client disconnect cancels the scope (unless other waiters are
//!   coalesced onto it), and a hung mapper run dies at the deadline
//!   instead of pinning a worker forever.
//! * **Graceful drain** — SIGTERM/ctrl-c stops accepting, finishes (or
//!   cancels, after the drain timeout, via the server-wide root budget)
//!   everything in flight, flushes metrics, and exits 0.

pub(crate) mod accept;
pub mod client;
pub mod coalesce;
pub(crate) mod events;
pub mod gateway;
pub mod http;
pub mod jobs;
pub mod loadtest;
pub mod metrics;
pub mod server;
pub mod shard;
pub mod signal;
pub mod traces;

pub use coalesce::Coalescer;
pub use gateway::{Gateway, GatewayConfig, GatewayHandle, GatewaySummary};
pub use jobs::{JobState, JobTable};
pub use loadtest::{run_loadtest, LoadtestConfig, LoadtestReport};
pub use metrics::ServiceMetrics;
pub use server::{DrainSummary, ServeConfig, Server, ServerHandle};
pub use shard::{Breaker, BreakerState, HashRing};
pub use traces::TraceStore;

/// Locks a mutex, recovering from poisoning: the daemon's shared maps
/// (flights, job states, histograms) stay valid across any interrupted
/// mutation, so one panicking request must not poison them for the
/// rest of the process lifetime.
pub(crate) fn lock_unpoisoned<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
