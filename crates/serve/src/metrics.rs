//! Service-level metrics and the Prometheus text rendering.
//!
//! The pipeline's [`Recorder`](ptmap_pipeline::Recorder) already
//! accumulates stage spans and counters for every compile; this module
//! adds what only the serving layer can know — per-endpoint request
//! counts and latency histograms, admission rejections, coalescing —
//! and renders everything in the Prometheus text exposition format
//! (version 0.0.4) for `GET /metrics`.
//!
//! Naming scheme: service metrics are `ptmap_http_*` / `ptmap_*`
//! gauges; pipeline spans become
//! `ptmap_stage_seconds_total{stage="..."}` (+ `_invocations_`), and
//! pipeline counters become `ptmap_pipeline_events_total{event="..."}`.

use crate::lock_unpoisoned;
use ptmap_trace::obs::EventLog;
use ptmap_trace::AttrValue;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Histogram bucket upper bounds, in seconds (plus an implicit +Inf).
const BUCKETS: [f64; 9] = [0.005, 0.025, 0.1, 0.25, 1.0, 2.5, 10.0, 30.0, 60.0];

/// A fixed-bucket latency histogram.
#[derive(Debug, Default, Clone)]
pub struct Histogram {
    counts: [u64; BUCKETS.len()],
    sum: f64,
    count: u64,
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&mut self, seconds: f64) {
        for (i, bound) in BUCKETS.iter().enumerate() {
            if seconds <= *bound {
                self.counts[i] += 1;
            }
        }
        self.sum += seconds;
        self.count += 1;
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Estimates the `q`-quantile (`0 < q <= 1`) from the cumulative
    /// bucket counts, interpolating linearly inside the owning bucket
    /// (the same estimator Prometheus's `histogram_quantile` applies
    /// server-side). Observations beyond the last finite bound clamp
    /// to that bound — the histogram cannot see past it. `None` with
    /// no observations or a `q` outside `(0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || q <= 0.0 || q > 1.0 {
            return None;
        }
        // 1-based rank of the target observation in sorted order.
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut prev_count = 0u64;
        let mut prev_bound = 0.0f64;
        for (i, bound) in BUCKETS.iter().enumerate() {
            let c = self.counts[i];
            if rank <= c {
                let in_bucket = (c - prev_count) as f64;
                let frac = if in_bucket == 0.0 {
                    1.0
                } else {
                    (rank - prev_count) as f64 / in_bucket
                };
                return Some(prev_bound + (bound - prev_bound) * frac);
            }
            prev_count = c;
            prev_bound = *bound;
        }
        Some(*BUCKETS.last().expect("BUCKETS is non-empty"))
    }
}

/// The quantiles surfaced as gauge series and in the drain summary.
pub(crate) const QUANTILES: [f64; 3] = [0.5, 0.95, 0.99];

/// Counters and histograms owned by the HTTP layer.
#[derive(Debug, Default)]
pub struct ServiceMetrics {
    /// (endpoint, status) → requests.
    requests: Mutex<BTreeMap<(String, u16), u64>>,
    /// endpoint → latency histogram.
    latency: Mutex<BTreeMap<String, Histogram>>,
    /// Admission rejections by reason (`deadline`, `capacity`,
    /// `queue-full`, `draining`).
    rejects: Mutex<BTreeMap<String, u64>>,
    /// Underlying compiles started (leader flights).
    compiles: AtomicU64,
}

impl ServiceMetrics {
    /// A zeroed metrics registry.
    pub fn new() -> ServiceMetrics {
        ServiceMetrics::default()
    }

    /// Records one handled request.
    pub fn observe_request(&self, endpoint: &str, status: u16, elapsed: Duration) {
        *lock_unpoisoned(&self.requests)
            .entry((endpoint.to_string(), status))
            .or_default() += 1;
        lock_unpoisoned(&self.latency)
            .entry(endpoint.to_string())
            .or_default()
            .observe(elapsed.as_secs_f64());
    }

    /// Records one admission rejection.
    pub fn reject(&self, reason: &str) {
        *lock_unpoisoned(&self.rejects)
            .entry(reason.to_string())
            .or_default() += 1;
    }

    /// Records the start of one underlying (leader) compile.
    pub fn compile_started(&self) {
        self.compiles.fetch_add(1, Ordering::Relaxed);
    }

    /// Underlying compiles started so far.
    pub fn compiles_total(&self) -> u64 {
        self.compiles.load(Ordering::Relaxed)
    }

    /// Total requests handled (any endpoint, any status).
    pub fn requests_total(&self) -> u64 {
        lock_unpoisoned(&self.requests).values().sum()
    }

    /// Per-endpoint `(endpoint, count, p50, p95, p99)` latency summary
    /// for the drain report on stderr.
    pub fn latency_quantiles(&self) -> Vec<(String, u64, f64, f64, f64)> {
        lock_unpoisoned(&self.latency)
            .iter()
            .filter(|(_, h)| h.count() > 0)
            .map(|(endpoint, h)| {
                (
                    endpoint.clone(),
                    h.count(),
                    h.quantile(0.5).unwrap_or(0.0),
                    h.quantile(0.95).unwrap_or(0.0),
                    h.quantile(0.99).unwrap_or(0.0),
                )
            })
            .collect()
    }

    /// Logs one `latency` event per endpoint, then dumps the flight
    /// recorder to stderr: the snapshot a drain leaves behind.
    pub(crate) fn log_drain(&self, log: &EventLog) {
        for (endpoint, count, p50, p95, p99) in self.latency_quantiles() {
            let attrs = [
                ("endpoint", AttrValue::Str(endpoint)),
                ("count", count.into()),
                ("p50_s", p50.into()),
                ("p95_s", p95.into()),
                ("p99_s", p99.into()),
            ];
            log.info("latency", None, "", &attrs);
        }
        log.dump_to_stderr("drain");
    }
}

/// Point-in-time service gauges fed into [`render`].
#[derive(Debug, Default, Clone)]
pub struct ServiceGauges {
    /// Jobs waiting in the async queue.
    pub queue_depth: usize,
    /// Leader compiles currently running.
    pub inflight_compiles: usize,
    /// Flights currently in the coalescer table.
    pub flights_in_flight: usize,
    /// Total coalesced (follower) requests.
    pub coalesced_total: u64,
    /// Async worker threads alive.
    pub workers_alive: usize,
    /// Whether the server is draining.
    pub draining: bool,
    /// Report-cache hits / misses / quarantines since boot.
    pub cache_hits: u64,
    /// See `cache_hits`.
    pub cache_misses: u64,
    /// See `cache_hits`.
    pub cache_quarantines: u64,
    /// Entries resident in the in-memory cache map.
    pub cache_entries: usize,
    /// Compile traces retained in the ring buffer.
    pub trace_entries: usize,
}

/// Escapes a Prometheus label value.
fn escape_label(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Renders a float the Prometheus text parser accepts.
fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}") // keep a decimal point: `2.0`, not `2`
    } else {
        format!("{v}")
    }
}

/// Unix timestamp captured the first time it is asked for. Both bind
/// paths touch it at boot, so by the time `/metrics` is scraped it
/// reflects (approximately) when the process started.
pub(crate) fn process_start_seconds() -> f64 {
    static START: std::sync::OnceLock<f64> = std::sync::OnceLock::new();
    *START.get_or_init(|| {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs_f64())
            .unwrap_or(0.0)
    })
}

/// Build identity and process start gauges, shared by the daemon's
/// `/metrics` and the gateway's (via [`render_http_sections`], which
/// each document includes exactly once).
pub(crate) fn render_build_info(out: &mut String) {
    out.push_str("# HELP ptmap_build_info Build identity (constant 1).\n");
    out.push_str("# TYPE ptmap_build_info gauge\n");
    let _ = writeln!(
        out,
        "ptmap_build_info{{version=\"{}\",git_sha=\"{}\"}} 1",
        escape_label(env!("CARGO_PKG_VERSION")),
        escape_label(option_env!("PTMAP_GIT_SHA").unwrap_or("unknown"))
    );
    out.push_str("# HELP ptmap_process_start_time_seconds Unix time the process started.\n");
    out.push_str("# TYPE ptmap_process_start_time_seconds gauge\n");
    let _ = writeln!(
        out,
        "ptmap_process_start_time_seconds {}",
        fmt_f64(process_start_seconds())
    );
}

/// Renders the HTTP-layer sections (request counters, latency
/// histograms + quantiles, admission rejects) shared by the daemon's
/// `/metrics` and the gateway's, prefixed by the build-identity
/// gauges every service exports.
pub(crate) fn render_http_sections(service: &ServiceMetrics, out: &mut String) {
    render_build_info(out);
    out.push_str("# HELP ptmap_http_requests_total HTTP requests handled.\n");
    out.push_str("# TYPE ptmap_http_requests_total counter\n");
    let requests = lock_unpoisoned(&service.requests).clone();
    for ((endpoint, status), n) in &requests {
        let _ = writeln!(
            out,
            "ptmap_http_requests_total{{endpoint=\"{}\",code=\"{status}\"}} {n}",
            escape_label(endpoint)
        );
    }

    out.push_str("# HELP ptmap_http_request_seconds Request latency by endpoint.\n");
    out.push_str("# TYPE ptmap_http_request_seconds histogram\n");
    let latency = lock_unpoisoned(&service.latency).clone();
    for (endpoint, hist) in &latency {
        let ep = escape_label(endpoint);
        for (i, bound) in BUCKETS.iter().enumerate() {
            let _ = writeln!(
                out,
                "ptmap_http_request_seconds_bucket{{endpoint=\"{ep}\",le=\"{}\"}} {}",
                fmt_f64(*bound),
                hist.counts[i]
            );
        }
        let _ = writeln!(
            out,
            "ptmap_http_request_seconds_bucket{{endpoint=\"{ep}\",le=\"+Inf\"}} {}",
            hist.count
        );
        let _ = writeln!(
            out,
            "ptmap_http_request_seconds_sum{{endpoint=\"{ep}\"}} {}",
            fmt_f64(hist.sum)
        );
        let _ = writeln!(
            out,
            "ptmap_http_request_seconds_count{{endpoint=\"{ep}\"}} {}",
            hist.count
        );
    }

    out.push_str(
        "# HELP ptmap_http_request_quantile_seconds Estimated request latency quantiles \
         by endpoint (bucket-interpolated).\n",
    );
    out.push_str("# TYPE ptmap_http_request_quantile_seconds gauge\n");
    for (endpoint, hist) in &latency {
        let ep = escape_label(endpoint);
        for q in QUANTILES {
            if let Some(v) = hist.quantile(q) {
                let _ = writeln!(
                    out,
                    "ptmap_http_request_quantile_seconds{{endpoint=\"{ep}\",quantile=\"{q}\"}} {}",
                    fmt_f64(v)
                );
            }
        }
    }

    out.push_str("# HELP ptmap_admission_rejects_total Requests refused at admission.\n");
    out.push_str("# TYPE ptmap_admission_rejects_total counter\n");
    let rejects = lock_unpoisoned(&service.rejects).clone();
    for (reason, n) in &rejects {
        let _ = writeln!(
            out,
            "ptmap_admission_rejects_total{{reason=\"{}\"}} {n}",
            escape_label(reason)
        );
    }
}

/// Renders the full `/metrics` document.
pub fn render(
    service: &ServiceMetrics,
    gauges: &ServiceGauges,
    spans: &BTreeMap<String, ptmap_pipeline::SpanStat>,
    counters: &BTreeMap<String, u64>,
) -> String {
    let mut out = String::new();
    render_http_sections(service, &mut out);

    out.push_str(
        "# HELP ptmap_coalesced_requests_total Requests served by attaching to an \
         in-flight compile.\n",
    );
    out.push_str("# TYPE ptmap_coalesced_requests_total counter\n");
    let _ = writeln!(
        out,
        "ptmap_coalesced_requests_total {}",
        gauges.coalesced_total
    );

    out.push_str("# HELP ptmap_compiles_started_total Underlying (leader) compiles started.\n");
    out.push_str("# TYPE ptmap_compiles_started_total counter\n");
    let _ = writeln!(
        out,
        "ptmap_compiles_started_total {}",
        service.compiles_total()
    );

    for (name, help, value) in [
        (
            "ptmap_queue_depth",
            "Async jobs waiting in the bounded queue.",
            gauges.queue_depth as u64,
        ),
        (
            "ptmap_inflight_compiles",
            "Leader compiles currently running.",
            gauges.inflight_compiles as u64,
        ),
        (
            "ptmap_inflight_flights",
            "Coalesced flights currently in the table.",
            gauges.flights_in_flight as u64,
        ),
        (
            "ptmap_workers_alive",
            "Async worker threads alive.",
            gauges.workers_alive as u64,
        ),
        (
            "ptmap_draining",
            "1 while the server is draining for shutdown.",
            u64::from(gauges.draining),
        ),
        (
            "ptmap_cache_entries",
            "Reports resident in the in-memory cache.",
            gauges.cache_entries as u64,
        ),
        (
            "ptmap_trace_store_entries",
            "Compile traces retained in the ring buffer.",
            gauges.trace_entries as u64,
        ),
    ] {
        let _ = writeln!(
            out,
            "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {value}"
        );
    }

    for (name, help, value) in [
        (
            "ptmap_cache_hits_total",
            "Report-cache hits since boot.",
            gauges.cache_hits,
        ),
        (
            "ptmap_cache_misses_total",
            "Report-cache misses since boot.",
            gauges.cache_misses,
        ),
        (
            "ptmap_cache_quarantines_total",
            "Corrupt disk cache entries quarantined since boot.",
            gauges.cache_quarantines,
        ),
    ] {
        let _ = writeln!(
            out,
            "# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}"
        );
    }

    out.push_str("# HELP ptmap_stage_seconds_total Pipeline span time by stage.\n");
    out.push_str("# TYPE ptmap_stage_seconds_total counter\n");
    for (stage, stat) in spans {
        let _ = writeln!(
            out,
            "ptmap_stage_seconds_total{{stage=\"{}\"}} {}",
            escape_label(stage),
            fmt_f64(stat.seconds)
        );
    }
    out.push_str("# HELP ptmap_stage_invocations_total Pipeline span entries by stage.\n");
    out.push_str("# TYPE ptmap_stage_invocations_total counter\n");
    for (stage, stat) in spans {
        let _ = writeln!(
            out,
            "ptmap_stage_invocations_total{{stage=\"{}\"}} {}",
            escape_label(stage),
            stat.count
        );
    }

    out.push_str("# HELP ptmap_pipeline_events_total Pipeline counters (cache, retries, jobs).\n");
    out.push_str("# TYPE ptmap_pipeline_events_total counter\n");
    for (event, n) in counters {
        let _ = writeln!(
            out,
            "ptmap_pipeline_events_total{{event=\"{}\"}} {n}",
            escape_label(event)
        );
    }
    out
}

/// Parses a Prometheus label set body (the text between `{` and `}`)
/// into `(name, value)` pairs, enforcing the text format's escaping
/// rules: label values may contain only the `\\`, `\"`, and `\n`
/// escapes, and a bare `"` inside a value is a syntax error.
fn parse_label_set(body: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut chars = body.chars().peekable();
    loop {
        let mut name = String::new();
        for c in chars.by_ref() {
            if c == '=' {
                break;
            }
            name.push(c);
        }
        let valid_name = !name.is_empty()
            && name
                .chars()
                .enumerate()
                .all(|(i, c)| c.is_ascii_alphabetic() || c == '_' || (i > 0 && c.is_ascii_digit()));
        if !valid_name {
            return Err(format!("bad label name {name:?}"));
        }
        if chars.next() != Some('"') {
            return Err(format!("label {name} value must be quoted"));
        }
        let mut value = String::new();
        loop {
            match chars.next() {
                None => return Err(format!("unterminated value for label {name}")),
                Some('"') => break,
                Some('\\') => match chars.next() {
                    Some('\\') => value.push('\\'),
                    Some('"') => value.push('"'),
                    Some('n') => value.push('\n'),
                    other => return Err(format!("bad escape \\{other:?} in label {name}")),
                },
                Some(c) => value.push(c),
            }
        }
        labels.push((name, value));
        match chars.next() {
            None => return Ok(labels),
            Some(',') => continue,
            Some(c) => return Err(format!("expected ',' between labels, found {c:?}")),
        }
    }
}

/// Validates Prometheus text-format syntax line by line; returns the
/// first offence. Used by tests and the CI smoke check — kept in the
/// library so both share one definition of "parses". Beyond per-line
/// syntax it enforces two cross-line properties:
///
/// * a metric name must not be introduced by two `# HELP` lines
///   (Prometheus treats the exposition as corrupt);
/// * within one metric and one label set, series that differ only in
///   their `quantile` label must be non-decreasing in value as the
///   quantile grows — a p95 below the p50 can only be an estimator or
///   rendering bug.
pub fn check_prometheus_text(text: &str) -> Result<(), String> {
    let mut help_seen: Vec<String> = Vec::new();
    // (metric name + non-quantile labels) → [(quantile, value)]
    let mut quantile_series: BTreeMap<String, Vec<(f64, f64)>> = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with("# TYPE ") {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split(' ').next().unwrap_or("").to_string();
            if help_seen.contains(&name) {
                return Err(format!("duplicate HELP for {name:?}"));
            }
            help_seen.push(name);
            continue;
        }
        let Some((series, value)) = line.rsplit_once(' ') else {
            return Err(format!("no value: {line:?}"));
        };
        if value.parse::<f64>().is_err() && value != "+Inf" && value != "-Inf" && value != "NaN" {
            return Err(format!("bad value {value:?} in {line:?}"));
        }
        let name_end = series.find('{').unwrap_or(series.len());
        let name = &series[..name_end];
        let valid_name = !name.is_empty()
            && name.chars().enumerate().all(|(i, c)| {
                c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit())
            });
        if !valid_name {
            return Err(format!("bad metric name {name:?} in {line:?}"));
        }
        if name_end < series.len() {
            if !series.ends_with('}') {
                return Err(format!("unclosed label set: {line:?}"));
            }
            let body = &series[name_end + 1..series.len() - 1];
            let labels = parse_label_set(body).map_err(|e| format!("{e} in {line:?}"))?;
            let quantile = labels
                .iter()
                .find(|(n, _)| n == "quantile")
                .and_then(|(_, v)| v.parse::<f64>().ok());
            if let (Some(q), Ok(v)) = (quantile, value.parse::<f64>()) {
                let mut key = name.to_string();
                for (n, v) in &labels {
                    if n != "quantile" {
                        key.push_str(&format!(",{n}={v:?}"));
                    }
                }
                quantile_series.entry(key).or_default().push((q, v));
            }
        }
    }
    for (key, mut points) in quantile_series {
        points.sort_by(|a, b| a.0.total_cmp(&b.0));
        for pair in points.windows(2) {
            if pair[1].1 < pair[0].1 {
                return Err(format!(
                    "quantiles not monotone for {key}: q{} = {} > q{} = {}",
                    pair[0].0, pair[0].1, pair[1].0, pair[1].1
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_cumulative() {
        let mut h = Histogram::default();
        h.observe(0.001);
        h.observe(0.05);
        h.observe(120.0); // beyond the last bound: only +Inf (count)
        assert_eq!(h.count(), 3);
        assert_eq!(h.counts[0], 1, "0.005 bucket");
        assert_eq!(h.counts[2], 2, "0.1 bucket holds both finite obs");
        assert_eq!(h.counts[BUCKETS.len() - 1], 2, "60s bucket excludes 120s");
        assert!((h.sum - 120.051).abs() < 1e-9);
    }

    #[test]
    fn histogram_quantiles_interpolate_and_clamp() {
        let empty = Histogram::default();
        assert_eq!(empty.quantile(0.5), None, "no data, no estimate");

        let mut h = Histogram::default();
        for _ in 0..100 {
            h.observe(0.05); // all land in the (0.025, 0.1] bucket
        }
        let p50 = h.quantile(0.5).expect("observations present");
        assert!(p50 > 0.025 && p50 <= 0.1, "p50 {p50} outside owning bucket");

        // Observations beyond the last finite bound clamp to it.
        let mut far = Histogram::default();
        far.observe(500.0);
        assert_eq!(far.quantile(0.99), Some(60.0));

        // Quantiles are monotone in q.
        let mut spread = Histogram::default();
        for i in 0..50 {
            spread.observe(0.002 * i as f64);
        }
        let q = |p: f64| spread.quantile(p).unwrap();
        assert!(q(0.5) <= q(0.95));
        assert!(q(0.95) <= q(0.99));
    }

    #[test]
    fn checker_rejects_duplicate_help() {
        let text = "# HELP m one\n# TYPE m counter\nm 1\n# HELP m again\n";
        let err = check_prometheus_text(text).unwrap_err();
        assert!(err.contains("duplicate HELP"), "{err}");
    }

    #[test]
    fn checker_rejects_bad_label_escapes() {
        // \t is not a sanctioned escape in the text format.
        assert!(check_prometheus_text(r#"m{l="a\t"} 1"#).is_err());
        // An unescaped quote inside a value ends it early.
        assert!(check_prometheus_text(r#"m{l="a"b"} 1"#).is_err());
        // The three sanctioned escapes all pass.
        assert!(check_prometheus_text(r#"m{l="a\"b\\c\n"} 1"#).is_ok());
        // Label names follow metric-name rules.
        assert!(check_prometheus_text(r#"m{9bad="x"} 1"#).is_err());
    }

    #[test]
    fn checker_rejects_non_monotone_quantiles() {
        let bad = "m{endpoint=\"c\",quantile=\"0.5\"} 2.0\n\
                   m{endpoint=\"c\",quantile=\"0.95\"} 1.0\n";
        let err = check_prometheus_text(bad).unwrap_err();
        assert!(err.contains("not monotone"), "{err}");
        // Series differing in other labels are independent groups.
        let ok = "m{endpoint=\"a\",quantile=\"0.5\"} 2.0\n\
                  m{endpoint=\"b\",quantile=\"0.95\"} 1.0\n";
        assert!(check_prometheus_text(ok).is_ok());
    }

    #[test]
    fn render_is_valid_prometheus_text() {
        let service = ServiceMetrics::new();
        service.observe_request("compile", 200, Duration::from_millis(30));
        service.observe_request("compile", 504, Duration::from_millis(1));
        service.observe_request("metrics", 200, Duration::from_micros(90));
        service.reject("deadline");
        service.compile_started();
        let gauges = ServiceGauges {
            queue_depth: 2,
            inflight_compiles: 1,
            coalesced_total: 3,
            workers_alive: 4,
            cache_hits: 7,
            ..ServiceGauges::default()
        };
        let mut spans = BTreeMap::new();
        spans.insert(
            "map".to_string(),
            ptmap_pipeline::SpanStat {
                seconds: 1.25,
                count: 4,
                min_seconds: 0.05,
                max_seconds: 0.75,
            },
        );
        let mut counters = BTreeMap::new();
        counters.insert("jobs_ok".to_string(), 9u64);
        let text = render(&service, &gauges, &spans, &counters);

        check_prometheus_text(&text).expect("must parse");
        assert!(text.contains("ptmap_http_requests_total{endpoint=\"compile\",code=\"200\"} 1"));
        assert!(text.contains("ptmap_http_requests_total{endpoint=\"compile\",code=\"504\"} 1"));
        assert!(
            text.contains("ptmap_http_request_seconds_bucket{endpoint=\"compile\",le=\"+Inf\"} 2")
        );
        assert!(text.contains(
            "ptmap_http_request_quantile_seconds{endpoint=\"compile\",quantile=\"0.5\"}"
        ));
        assert!(text.contains(
            "ptmap_http_request_quantile_seconds{endpoint=\"compile\",quantile=\"0.99\"}"
        ));
        assert!(text.contains("ptmap_coalesced_requests_total 3"));
        assert!(text.contains("ptmap_compiles_started_total 1"));
        assert!(text.contains("ptmap_admission_rejects_total{reason=\"deadline\"} 1"));
        assert!(text.contains("ptmap_queue_depth 2"));
        assert!(text.contains("ptmap_workers_alive 4"));
        assert!(text.contains("ptmap_cache_hits_total 7"));
        assert!(text.contains("ptmap_stage_seconds_total{stage=\"map\"} 1.25"));
        assert!(text.contains("ptmap_stage_invocations_total{stage=\"map\"} 4"));
        assert!(text.contains("ptmap_pipeline_events_total{event=\"jobs_ok\"} 9"));
    }

    #[test]
    fn empty_registry_still_renders_headline_counters() {
        // CI scrapes for presence; zero-valued singletons must render.
        let text = render(
            &ServiceMetrics::new(),
            &ServiceGauges::default(),
            &BTreeMap::new(),
            &BTreeMap::new(),
        );
        check_prometheus_text(&text).expect("must parse");
        assert!(text.contains("ptmap_coalesced_requests_total 0"));
        assert!(text.contains("ptmap_compiles_started_total 0"));
        assert!(text.contains("ptmap_queue_depth 0"));
        assert!(text.contains("ptmap_trace_store_entries 0"));
    }

    #[test]
    fn checker_rejects_malformed_lines() {
        assert!(check_prometheus_text("just words without value structure").is_err());
        assert!(check_prometheus_text("metric_name not-a-number").is_err());
        assert!(check_prometheus_text("9bad_name 1").is_err());
        assert!(check_prometheus_text("unclosed{label=\"x\" 1").is_err());
        assert!(check_prometheus_text("ok_name{label=\"x\"} 1\nok_plain 2.5").is_ok());
    }

    #[test]
    fn label_escaping() {
        assert_eq!(escape_label("plain"), "plain");
        assert_eq!(escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f64(2.0), "2.0");
        assert_eq!(fmt_f64(0.005), "0.005");
        assert_eq!(fmt_f64(1.25), "1.25");
    }
}
