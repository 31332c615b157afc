//! The traced run's span ledger: span trees kept in memory (one per
//! job, request or serve round), the predictor wrapper that times
//! every prediction, and the trees' Chrome trace-event files written
//! at the end of the run.

use crate::report::Outcome;
use crate::{provenance::Provenance, Args};
use ptmap_arch::CgraArch;
use ptmap_core::CompileMetrics;
use ptmap_eval::IiPredictor;
use ptmap_ir::Dfg;
use ptmap_trace::{chrome_trace_json, AttrValue, Trace, Tracer};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Every `REPLAY_EVERY`-th GNN prediction input is kept for the
/// feature/inference replay; a sample keeps the replay cheap.
const REPLAY_EVERY: u64 = 8;

/// Call counts, time and captured inputs of one wrapped predictor.
#[derive(Default)]
pub struct PredictorStats {
    calls: AtomicU64,
    nanos: AtomicU64,
    captured: Mutex<Vec<Dfg>>,
}

/// An [`IiPredictor`] that delegates to the real one, recording a
/// `bench.predict` span and the call's wall time.
pub struct TimedPredictor {
    inner: Box<dyn IiPredictor + Send + Sync>,
    tracer: Tracer,
    stats: Arc<PredictorStats>,
    capture: bool,
}

impl TimedPredictor {
    pub fn new(inner: Box<dyn IiPredictor + Send + Sync>, tracer: &Tracer, capture: bool) -> Self {
        TimedPredictor {
            inner,
            tracer: tracer.clone(),
            stats: Arc::default(),
            capture,
        }
    }

    pub fn stats(&self) -> Arc<PredictorStats> {
        Arc::clone(&self.stats)
    }
}

impl IiPredictor for TimedPredictor {
    fn predict(&self, dfg: &Dfg, arch: &CgraArch) -> (u32, u32) {
        let span = self.tracer.span("bench.predict");
        let t = Instant::now();
        let out = self.inner.predict(dfg, arch);
        let nanos = t.elapsed().as_nanos() as u64;
        drop(span);
        // Statistics only; no other data is published through them.
        let n = self.stats.calls.fetch_add(1, Ordering::Relaxed);
        self.stats.nanos.fetch_add(nanos, Ordering::Relaxed);
        if self.capture && n.is_multiple_of(REPLAY_EVERY) {
            self.stats
                .captured
                .lock()
                .expect("capture lock poisoned by a panicking prediction")
                .push(dfg.clone());
        }
        out
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn version(&self) -> Option<u64> {
        self.inner.version()
    }
}

fn attr_u64(attrs: &[(String, AttrValue)], key: &str) -> u64 {
    attrs
        .iter()
        .find(|(k, _)| k == key)
        .map_or(0, |(_, v)| match v {
            AttrValue::UInt(u) => *u,
            AttrValue::Int(i) => (*i).max(0) as u64,
            _ => 0,
        })
}

/// Per-layer totals of a traced compile pass.
#[derive(Debug, Default)]
pub struct CompileLayers {
    pub compile_seconds: f64,
    job_wall_s: f64,
    explore_s: f64,
    candidates: u64,
    evaluate_s: f64,
    pruned: u64,
    predict_s: f64,
    predict_calls: u64,
    map_s: f64,
    accepts: u64,
    rejects: u64,
    ii_attempts: u64,
    bfs_expansions: u64,
    context_attempts: u64,
    simulate_s: f64,
    replayed: u64,
    features_s: f64,
    infer_s: f64,
}

impl CompileLayers {
    /// Adds one job's compile metrics, span tree and predictor stats.
    pub fn absorb(&mut self, m: &CompileMetrics, trace: &Trace, stats: &PredictorStats) {
        if let Some(job) = trace.spans_named("bench.job").next() {
            self.job_wall_s +=
                job.end_ns_or(trace.wall_ns).saturating_sub(job.start_ns) as f64 / 1e9;
        }
        self.explore_s += m.explore_seconds;
        self.candidates += m.candidates_explored as u64;
        self.evaluate_s += m.evaluate_seconds;
        self.pruned += m.candidates_pruned as u64;
        self.predict_s += stats.nanos.load(Ordering::Relaxed) as f64 / 1e9;
        self.predict_calls += stats.calls.load(Ordering::Relaxed);
        self.map_s += m.map_seconds;
        self.accepts += m.mapper_accepts as u64;
        self.rejects += m.mapper_rejects as u64;
        self.context_attempts += m.context_generation_attempts as u64;
        self.simulate_s += m.simulate_seconds;
        for span in trace.spans_named("ii_attempt") {
            self.ii_attempts += 1;
            self.bfs_expansions += attr_u64(&span.attrs, "bfs_expansions");
        }
    }

    /// Replays the captured prediction inputs through the public
    /// feature builder and the network, timing each part.
    pub fn replay(&mut self, model: &ptmap_gnn::PtMapGnn, arch: &CgraArch, stats: &PredictorStats) {
        let captured = std::mem::take(
            &mut *stats
                .captured
                .lock()
                .expect("capture lock poisoned by a panicking prediction"),
        );
        for dfg in &captured {
            let t = Instant::now();
            let input = ptmap_gnn::build_input(std::hint::black_box(dfg), arch);
            self.features_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            std::hint::black_box(model.predict(&input));
            self.infer_s += t.elapsed().as_secs_f64();
            self.replayed += 1;
        }
    }

    pub fn report(&self, gnn: bool, untraced_compile_s: f64, out: &mut Outcome) {
        let pct = |part: f64| {
            if self.job_wall_s > 0.0 {
                100.0 * part / self.job_wall_s
            } else {
                0.0
            }
        };
        out.set("transform.explore_s", self.explore_s);
        out.set("transform.candidates", self.candidates as f64);
        out.set("eval.evaluate_s", self.evaluate_s);
        out.set("eval.evaluate_pct", pct(self.evaluate_s));
        out.set("eval.predict_s", self.predict_s);
        out.set("eval.predict_pct", pct(self.predict_s));
        out.set("eval.predict_calls", self.predict_calls as f64);
        out.set(
            "eval.predict_us",
            self.predict_s * 1e6 / self.predict_calls.max(1) as f64,
        );
        out.set("eval.rest_s", self.evaluate_s - self.predict_s);
        out.set("eval.pruned", self.pruned as f64);
        out.set("mapper.map_s", self.map_s);
        out.set("mapper.accepts", self.accepts as f64);
        out.set("mapper.rejects", self.rejects as f64);
        out.set("mapper.ii_attempts", self.ii_attempts as f64);
        out.set("mapper.bfs_expansions", self.bfs_expansions as f64);
        out.set("core.context_attempts", self.context_attempts as f64);
        out.set("sim.simulate_s", self.simulate_s);
        if gnn {
            let per = |s: f64| s * 1e6 / self.replayed.max(1) as f64;
            out.set("gnn.features_us", per(self.features_s));
            out.set("gnn.infer_us", per(self.infer_s));
            println!(
                "replayed {} of {} GNN predictions",
                self.replayed, self.predict_calls
            );
        }
        if untraced_compile_s > 0.0 {
            out.set(
                "trace.overhead_pct",
                100.0 * (self.compile_seconds - untraced_compile_s) / untraced_compile_s,
            );
        }
        println!(
            "traced job wall {:.3} s: evaluate {:.1}%, predict {:.1}%, map {:.1}%",
            self.job_wall_s,
            pct(self.evaluate_s),
            pct(self.predict_s),
            pct(self.map_s)
        );
    }
}

/// The span trees of one traced run.
#[derive(Default)]
pub struct Ledger {
    traces: Mutex<Vec<Trace>>,
}

impl Ledger {
    /// Keeps a finished tree.
    pub fn push(&self, trace: Trace) {
        self.traces
            .lock()
            .expect("ledger lock poisoned")
            .push(nest_predictions(trace));
    }

    /// Writes every kept tree as its own Chrome trace-event document,
    /// rendered by `ptmap_trace::chrome_trace_json`, into
    /// `.bench_out/trace-<workload>-seed<seed>/` in the checkout, with
    /// the run's provenance beside them.
    pub fn write(&self, args: &Args, prov: &Provenance) -> Result<(), String> {
        let traces = self.traces.lock().expect("ledger lock poisoned");
        let dir = args
            .root
            .join(".bench_out")
            .join(format!("trace-{}-seed{}", args.workload, args.seed));
        let io = |e: std::io::Error| format!("writing {}: {e}", dir.display());
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(io)?;
        }
        std::fs::create_dir_all(&dir).map_err(io)?;
        std::fs::write(dir.join("provenance.json"), prov.json()).map_err(io)?;
        for (i, trace) in traces.iter().enumerate() {
            let stem: String = trace
                .name
                .chars()
                .map(|c| {
                    if c.is_ascii_alphanumeric() || c == '-' {
                        c
                    } else {
                        '_'
                    }
                })
                .collect();
            std::fs::write(
                dir.join(format!("{i:05}-{stem}.json")),
                chrome_trace_json(trace),
            )
            .map_err(io)?;
        }
        println!("trace {} trees written to {}", traces.len(), dir.display());
        Ok(())
    }
}

/// Moves each `bench.predict` span under the `evaluate` span that
/// encloses it. The wrapper only sees the job's span handle, but
/// evaluation is serial, so the enclosing stage is known from time.
fn nest_predictions(mut trace: Trace) -> Trace {
    let stages: Vec<(u32, u64, u64)> = trace
        .spans_named("evaluate")
        .map(|s| (s.id, s.start_ns, s.end_ns_or(trace.wall_ns)))
        .collect();
    for span in trace.spans.iter_mut().filter(|s| s.name == "bench.predict") {
        if let Some(&(id, _, _)) = stages
            .iter()
            .find(|(_, lo, hi)| *lo <= span.start_ns && span.start_ns <= *hi)
        {
            span.parent = Some(id);
        }
    }
    trace
}
