//! The `compile-*` workloads: the paper's applications compiled in
//! process through `ptmap_pipeline::run_batch`, with an untimed
//! verification pass and, when traced, a span-recording pass through
//! `PtMap::compile_instrumented_traced`.

use crate::ledger::{self, Ledger, TimedPredictor};
use crate::report::Outcome;
use crate::stats::{geomean, hd_quantile, median};
use crate::stream::APPS;
use crate::{provenance, Args};
use ptmap_core::{CompileReport, PtMap, PtMapConfig};
use ptmap_governor::Budget;
use ptmap_pipeline::{run_batch, BatchConfig, Job, Manifest, PredictorSpec};
use ptmap_trace::Tracer;
use std::path::Path;
use std::time::{Duration, Instant};

/// The GNN checkpoint the default PT-Map configuration ranks with.
pub const CHECKPOINT: &str = "results/gnn_full_3000_120.json";

/// `setup_s` is the median of set-ups spread over the whole run, so
/// that it samples the host's speed at the same moments as the timed
/// passes: one set-up before them, then one after any job that leaves
/// set-up below `SETUP_SHARE` of the elapsed run, and at least
/// `SETUP_REPS` in all.
const SETUP_SHARE: f64 = 0.12;
const SETUP_REPS: usize = 5;

/// The quality fields that must repeat exactly: cycles, EDP and each
/// pipelined loop nest's II, MII and transformation.
#[derive(Debug, Clone, PartialEq)]
struct Quality {
    cycles: u64,
    edp_bits: u64,
    pnls: Vec<(u32, u32, String)>,
}

impl Quality {
    fn of(r: &CompileReport) -> Self {
        Quality {
            cycles: r.cycles,
            edp_bits: r.edp.to_bits(),
            pnls: r
                .pnls
                .iter()
                .map(|p| (p.ii, p.mii, p.desc.clone()))
                .collect(),
        }
    }
}

/// The manifest of a compile workload.
fn manifest(workload: &str, root: &Path) -> String {
    let checkpoint = root.join(CHECKPOINT);
    let (archs, predictor): (&[&str], String) = match workload {
        "compile-gnn" => (&["S4", "SL8"], format!("gnn:{}", checkpoint.display())),
        _ => (&["S4"], "oracle".to_string()),
    };
    let jobs: Vec<String> = APPS
        .iter()
        .flat_map(|app| archs.iter().map(move |arch| (app, arch)))
        .map(|(app, arch)| {
            format!(
                r#"{{"kernel":"app:{app}","arch":"{arch}","predictor":{}}}"#,
                serde_json::to_string(&predictor).expect("string serializes")
            )
        })
        .collect();
    format!(r#"{{"jobs":[{}]}}"#, jobs.join(","))
}

/// Resolves the workload's jobs (for `compile-gnn` this loads the
/// checkpoint once per job, as `ptmap batch` does).
fn setup(workload: &str, root: &Path) -> Result<Vec<Job>, String> {
    let jobs = Manifest::from_json(&manifest(workload, root))?.resolve()?;
    if let Some(j) = jobs.iter().find(|j| j.degraded.is_some()) {
        return Err(format!(
            "{}: {}",
            j.name,
            j.degraded.as_deref().unwrap_or("")
        ));
    }
    Ok(jobs)
}

/// One set-up, its time appended to `times`.
fn timed_setup(workload: &str, root: &Path, times: &mut Vec<f64>) -> Result<Vec<Job>, String> {
    let t = Instant::now();
    let jobs = setup(workload, root)?;
    times.push(t.elapsed().as_secs_f64());
    Ok(jobs)
}

/// Per-job samples from the timed passes.
#[derive(Default)]
struct JobSamples {
    wall: Vec<f64>,
    overhead: Vec<f64>,
    evaluate: Vec<f64>,
    map: Vec<f64>,
    compile_seconds: Vec<f64>,
    /// The first pass's report, which every later compile must match.
    report: Option<CompileReport>,
}

fn sum_of_medians(jobs: &[JobSamples], field: impl Fn(&JobSamples) -> &Vec<f64>) -> f64 {
    jobs.iter().filter_map(|j| median(field(j))).sum()
}

/// Counts one attempted job and checks it succeeded with the quality
/// of its first pass; returns whether it passed.
fn check(
    out: &mut Outcome,
    what: &str,
    job: &str,
    report: Option<&CompileReport>,
    error: Option<&str>,
    expected: Option<&CompileReport>,
) -> bool {
    out.attempted += 1;
    match (report, expected) {
        (None, _) => {
            out.fail(format!("{what} {job}: {}", error.unwrap_or("no report")));
            false
        }
        (Some(r), Some(e)) if Quality::of(r) != Quality::of(e) => {
            out.fail(format!("{what} {job}: quality differs from the first pass"));
            false
        }
        _ => true,
    }
}

pub fn run(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let root = &args.root;
    let checkpoint_sha = match args.workload.as_str() {
        "compile-gnn" => Some(provenance::file_sha256(&root.join(CHECKPOINT))?),
        _ => None,
    };
    let prov = provenance::Provenance::capture(root, checkpoint_sha);

    let mut setup_times = Vec::new();
    let jobs = timed_setup(&args.workload, root, &mut setup_times)?;

    // Timed passes: each job through `run_batch` with its own cold
    // in-memory cache, pass after pass until the run time is used up.
    let config = BatchConfig::default();
    let mut samples: Vec<JobSamples> = jobs.iter().map(|_| JobSamples::default()).collect();
    let budget = Duration::from_secs(args.seconds);
    let t0 = Instant::now();
    'passes: for pass in 0.. {
        for (job, s) in jobs.iter().zip(samples.iter_mut()) {
            if pass > 0 && t0.elapsed() >= budget {
                break 'passes;
            }
            let t = Instant::now();
            let batch = run_batch(std::slice::from_ref(job), &config);
            let wall = t.elapsed().as_secs_f64();
            let o = &batch.outcomes[0];
            let m = &batch.metrics.jobs[0];
            if !check(
                out,
                "pass",
                &job.name,
                o.report.as_ref(),
                o.error.as_deref(),
                s.report.as_ref(),
            ) {
                continue;
            }
            let report = o.report.as_ref().expect("checked");
            s.wall.push(wall);
            s.overhead.push(m.wall_seconds - m.stages.staged_seconds());
            s.evaluate.push(m.stages.evaluate_seconds);
            s.map.push(m.stages.map_seconds);
            s.compile_seconds.push(report.compile_seconds);
            if s.report.is_none() {
                s.report = Some(report.clone());
            }
            if setup_times.iter().sum::<f64>() < SETUP_SHARE * t0.elapsed().as_secs_f64() {
                timed_setup(&args.workload, root, &mut setup_times)?;
            }
        }
    }
    while setup_times.len() < SETUP_REPS {
        timed_setup(&args.workload, root, &mut setup_times)?;
    }
    let peak_rss = provenance::peak_rss_mib(std::process::id());

    // Untimed verification pass with the structural mapping validator
    // on; untimed, so it may use both cores.
    let validated = BatchConfig {
        workers: 2,
        base: PtMapConfig {
            mapper: PtMapConfig::default().mapper.with_validation(true),
            ..PtMapConfig::default()
        },
        ..BatchConfig::default()
    };
    let batch = run_batch(&jobs, &validated);
    for ((o, m), s) in batch.outcomes.iter().zip(&batch.metrics.jobs).zip(&samples) {
        if check(
            out,
            "validation",
            &o.name,
            o.report.as_ref(),
            o.error.as_deref(),
            s.report.as_ref(),
        ) && m.stages.mappings_validated == 0
        {
            out.fail(format!("validation {}: no mapping was validated", o.name));
        }
    }

    let medians: Vec<f64> = samples.iter().filter_map(|s| median(&s.wall)).collect();
    let reports: Vec<&CompileReport> = samples.iter().filter_map(|s| s.report.as_ref()).collect();
    let n_samples: usize = samples.iter().map(|s| s.wall.len()).sum();
    let compile_s = medians.iter().sum::<f64>();
    out.set("compile_s", compile_s);
    out.set("setup_s", median(&setup_times).unwrap_or(0.0));
    out.set(
        "sim_cycles_total",
        reports.iter().map(|r| r.cycles as f64).sum(),
    );
    out.set(
        "edp_geomean",
        geomean(&reports.iter().map(|r| r.edp).collect::<Vec<_>>()).unwrap_or(0.0),
    );
    out.set(
        "latency_p50_ms",
        hd_quantile(&medians, 0.5).unwrap_or(0.0) * 1e3,
    );
    out.set(
        "latency_p90_ms",
        hd_quantile(&medians, 0.9).unwrap_or(0.0) * 1e3,
    );
    // Per pass, not per sample: a cut-off pass leaves extra samples on
    // the first jobs, which would skew a sample-weighted rate.
    out.set(
        "throughput_rps",
        if compile_s > 0.0 {
            medians.len() as f64 / compile_s
        } else {
            0.0
        },
    );
    out.set("peak_rss_mb", peak_rss);
    println!(
        "samples jobs={} job_samples={n_samples} setups={} setup_ms={:?} job_median_ms={:?}",
        jobs.len(),
        setup_times.len(),
        setup_times
            .iter()
            .map(|t| (t * 1e4).round() / 10.0)
            .collect::<Vec<_>>(),
        medians
            .iter()
            .map(|t| (t * 1e4).round() / 10.0)
            .collect::<Vec<_>>(),
    );

    if args.trace {
        out.set(
            "pipeline.overhead_s",
            sum_of_medians(&samples, |s| &s.overhead),
        );
        out.set(
            "pipeline.evaluate_s",
            sum_of_medians(&samples, |s| &s.evaluate),
        );
        out.set("pipeline.map_s", sum_of_medians(&samples, |s| &s.map));
        let untraced = sum_of_medians(&samples, |s| &s.compile_seconds);
        traced_pass(args, &jobs, &samples, untraced, &prov, out)?;
    }
    prov.finish_and_print();
    Ok(())
}

/// One pass with every layer instrumented: a span tree per job, the
/// predictor wrapped, and (for the GNN) a replay of sampled predictor
/// inputs through the feature builder and the network.
fn traced_pass(
    args: &Args,
    jobs: &[Job],
    samples: &[JobSamples],
    untraced_compile_s: f64,
    prov: &provenance::Provenance,
    out: &mut Outcome,
) -> Result<(), String> {
    let base = PtMapConfig::default();
    let ledger = Ledger::default();
    let mut layers = ledger::CompileLayers::default();
    for (job, s) in jobs.iter().zip(samples) {
        let tracer = Tracer::root(&job.name);
        let job_span = tracer.span("bench.job");
        job_span.attr("job", job.name.as_str());
        let capture = matches!(job.predictor, PredictorSpec::Gnn(_));
        let predictor =
            TimedPredictor::new(job.predictor.instantiate(), job_span.tracer(), capture);
        let stats = predictor.stats();
        let compiler = PtMap::new(
            Box::new(predictor),
            PtMapConfig {
                mode: job.mode,
                ..base.clone()
            },
        );
        let (result, m) = compiler.compile_instrumented_traced(
            &job.program,
            &job.arch,
            &Budget::unlimited(),
            job_span.tracer(),
        );
        drop(job_span);
        let error = result.as_ref().err().map(|e| e.to_string());
        if let Ok(report) = &result {
            layers.compile_seconds += report.compile_seconds;
        }
        check(
            out,
            "traced",
            &job.name,
            result.as_ref().ok(),
            error.as_deref(),
            s.report.as_ref(),
        );
        let trace = tracer.finish().expect("enabled tracer");
        layers.absorb(&m, &trace, &stats);
        if let PredictorSpec::Gnn(model) = &job.predictor {
            layers.replay(model, &job.arch, &stats);
        }
        ledger.push(trace);
    }
    layers.report(args.workload == "compile-gnn", untraced_compile_s, out);
    ledger.write(args, prov)
}
