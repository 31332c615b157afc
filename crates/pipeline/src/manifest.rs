//! Batch manifests: what to compile, on what, with which predictor.
//!
//! A manifest is a JSON document listing jobs:
//!
//! ```json
//! {
//!   "jobs": [
//!     { "kernel": "app:ATA", "arch": "S4" },
//!     { "kernel": "gemm:32", "arch": "SL8", "mode": "pareto" },
//!     { "name": "mine", "kernel": "file:kernel.c", "arch": "file:arch.json",
//!       "predictor": "oracle" }
//!   ]
//! }
//! ```
//!
//! Kernel references:
//! * `app:<CODE>` — one of the paper's eleven applications (also
//!   accepted bare, e.g. `"ATA"`);
//! * `gemm:<N>` / `vecsum:<N>` — parameterized micro-kernels;
//! * `file:<path>` (or any value ending in `.c`) — a `#pragma PTMAP`
//!   C-dialect source file.
//!
//! Architecture references: a preset name (`S4`, `R4`, `H6`, `SL8`,
//! `HReA4`) or `file:<path>` for a JSON architecture description.
//!
//! Predictors: `analytical` (default), `oracle`, or `gnn:<model.json>`
//! for a trained checkpoint saved by the bench harness.

use crate::hash::{hex, sha256};
use ptmap_arch::{presets, CgraArch};
use ptmap_core::{PtMap, PtMapConfig};
use ptmap_eval::{AnalyticalPredictor, GnnPredictor, IiPredictor, OraclePredictor, RankMode};
use ptmap_gnn::PtMapGnn;
use ptmap_governor::faultpoint;
use ptmap_ir::Program;
use serde::{Deserialize, Serialize};
use serde_json::Value;

/// One job line of a manifest (unresolved references).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Optional display name; defaults to `<kernel>@<arch>`.
    #[serde(default)]
    pub name: Option<String>,
    /// Kernel reference (see module docs).
    pub kernel: String,
    /// Architecture reference.
    pub arch: String,
    /// Predictor reference (`analytical` when omitted).
    #[serde(default)]
    pub predictor: Option<String>,
    /// Ranking mode: `performance` (default) or `pareto`.
    #[serde(default)]
    pub mode: Option<String>,
}

/// A parsed manifest.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Manifest {
    /// The jobs, in submission order.
    pub jobs: Vec<JobSpec>,
}

impl Manifest {
    /// Parses a manifest from JSON text.
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| format!("manifest: {e}"))
    }

    /// Resolves every job reference (kernels, architectures, models).
    pub fn resolve(&self) -> Result<Vec<Job>, String> {
        self.jobs.iter().map(Job::resolve).collect()
    }
}

/// The II predictor a job compiles with.
#[derive(Debug, Clone)]
pub enum PredictorSpec {
    /// MII analytical model.
    Analytical,
    /// The modulo scheduler itself (exact, slow).
    Oracle,
    /// A trained GNN checkpoint.
    Gnn(Box<PtMapGnn>),
}

impl PredictorSpec {
    /// Parses a predictor reference.
    pub fn parse(text: &str) -> Result<Self, String> {
        match text {
            "analytical" => Ok(PredictorSpec::Analytical),
            "oracle" => Ok(PredictorSpec::Oracle),
            other => match other.strip_prefix("gnn:") {
                Some(path) => {
                    faultpoint::fail_point(faultpoint::sites::PREDICTOR_LOAD)
                        .map_err(|e| format!("reading model {path}: {e}"))?;
                    let text = std::fs::read_to_string(path)
                        .map_err(|e| format!("reading model {path}: {e}"))?;
                    let model: PtMapGnn =
                        serde_json::from_str(&text).map_err(|e| format!("model {path}: {e}"))?;
                    Ok(PredictorSpec::Gnn(Box::new(model)))
                }
                None => Err(format!(
                    "unknown predictor {other} (expected analytical, oracle, or gnn:<model.json>)"
                )),
            },
        }
    }

    /// [`PredictorSpec::parse`] with graceful degradation: a GNN
    /// checkpoint that cannot be read or parsed falls back to the
    /// analytical predictor, returning the reason so the caller records
    /// the degradation instead of failing the job. Unknown predictor
    /// *names* still error — a typo must not silently change results.
    pub fn parse_degrading(text: &str) -> Result<(Self, Option<String>), String> {
        match Self::parse(text) {
            Ok(spec) => Ok((spec, None)),
            Err(e) if text.starts_with("gnn:") => Ok((
                PredictorSpec::Analytical,
                Some(format!("predictor=analytical ({e})")),
            )),
            Err(e) => Err(e),
        }
    }

    /// Instantiates the predictor for a compilation.
    pub fn instantiate(&self) -> Box<dyn IiPredictor + Send + Sync> {
        match self {
            PredictorSpec::Analytical => Box::new(AnalyticalPredictor),
            PredictorSpec::Oracle => Box::new(OraclePredictor::default()),
            PredictorSpec::Gnn(model) => Box::new(GnnPredictor::new((**model).clone())),
        }
    }

    /// The predictor's contribution to the cache key. For the GNN this
    /// is a digest of its configuration and parameter bits
    /// (`gnn_key_digest`): two different trainings of the same
    /// architecture must not share cache entries.
    pub fn key_value(&self) -> Value {
        match self {
            PredictorSpec::Analytical => Value::Str("analytical".to_string()),
            PredictorSpec::Oracle => Value::Str("oracle".to_string()),
            PredictorSpec::Gnn(model) => Value::Str(format!("gnn:{}", gnn_key_digest(model))),
        }
    }
}

/// SHA-256 over a model's configuration (canonical JSON) and, for each
/// parameter in [`PtMapGnn::params`] order, its shape and the bits of
/// its values. Exactly what decides the model's predictions enters:
/// Adam moments and the checkpoint's JSON formatting do not, so
/// checkpoints with equal weights share cache entries.
fn gnn_key_digest(model: &PtMapGnn) -> String {
    let config = serde_json::to_value(&model.config)
        .expect("model config serializes")
        .canonicalize();
    let config = serde_json::to_string(&config).expect("canonical value serializes");
    let params = model.params();
    let mut buf =
        Vec::with_capacity(8 + config.len() + 16 * params.len() + 4 * model.param_count());
    buf.extend((config.len() as u64).to_le_bytes());
    buf.extend(config.as_bytes());
    for p in params {
        let m = &p.value;
        buf.extend((m.rows() as u64).to_le_bytes());
        buf.extend((m.cols() as u64).to_le_bytes());
        for x in m.as_slice() {
            buf.extend(x.to_bits().to_le_bytes());
        }
    }
    hex(&sha256(&buf))
}

/// A fully resolved job, ready to schedule.
#[derive(Debug, Clone)]
pub struct Job {
    /// Display name.
    pub name: String,
    /// The kernel to compile.
    pub program: Program,
    /// The target architecture.
    pub arch: CgraArch,
    /// The predictor driving evaluation.
    pub predictor: PredictorSpec,
    /// Ranking mode.
    pub mode: RankMode,
    /// Degradation applied while resolving (e.g. an unreadable GNN
    /// checkpoint replaced by the analytical predictor); surfaces in the
    /// job outcome and in the cache key.
    pub degraded: Option<String>,
}

impl Job {
    /// Resolves one manifest line. An unreadable or unparsable GNN
    /// checkpoint degrades to the analytical predictor (recorded in
    /// [`Job::degraded`]) instead of failing the whole manifest.
    pub fn resolve(spec: &JobSpec) -> Result<Job, String> {
        let program = resolve_kernel(&spec.kernel)?;
        let arch = resolve_arch(&spec.arch)?;
        let (predictor, degraded) =
            PredictorSpec::parse_degrading(spec.predictor.as_deref().unwrap_or("analytical"))?;
        let mode = match spec.mode.as_deref().unwrap_or("performance") {
            "performance" => RankMode::Performance,
            "pareto" => RankMode::Pareto,
            other => return Err(format!("unknown mode {other}")),
        };
        let name = spec
            .name
            .clone()
            .unwrap_or_else(|| format!("{}@{}", spec.kernel, arch.name()));
        Ok(Job {
            name,
            program,
            arch,
            predictor,
            mode,
            degraded,
        })
    }

    /// Builds the compiler this job runs under.
    pub fn compiler(&self, base: &PtMapConfig) -> PtMap {
        let config = PtMapConfig {
            mode: self.mode,
            ..base.clone()
        };
        PtMap::new(self.predictor.instantiate(), config)
    }
}

/// Resolves a kernel reference to a program.
pub fn resolve_kernel(text: &str) -> Result<Program, String> {
    if let Some(path) = text.strip_prefix("file:") {
        return load_kernel_file(path);
    }
    if text.ends_with(".c") {
        return load_kernel_file(text);
    }
    if let Some(n) = text.strip_prefix("gemm:") {
        let n: u64 = n.parse().map_err(|_| format!("bad gemm size in {text}"))?;
        return Ok(ptmap_workloads::micro::gemm(n));
    }
    if let Some(n) = text.strip_prefix("vecsum:") {
        let n: u64 = n
            .parse()
            .map_err(|_| format!("bad vecsum size in {text}"))?;
        return Ok(ptmap_workloads::micro::vec_reduction(n));
    }
    let code = text.strip_prefix("app:").unwrap_or(text);
    ptmap_workloads::apps::all()
        .into_iter()
        .find(|(c, _)| c.eq_ignore_ascii_case(code))
        .map(|(_, p)| p)
        .ok_or_else(|| format!("unknown kernel {text} (try app:ATA, gemm:32, or file:kernel.c)"))
}

fn load_kernel_file(path: &str) -> Result<Program, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let name = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("kernel");
    ptmap_ir::parse::parse_program(name, &text).map_err(|e| format!("{path}: {e}"))
}

/// Resolves an architecture reference.
pub fn resolve_arch(text: &str) -> Result<CgraArch, String> {
    if let Some(path) = text.strip_prefix("file:") {
        return ptmap_arch::io::load(path).map_err(|e| e.to_string());
    }
    match text {
        "S4" => Ok(presets::s4()),
        "R4" => Ok(presets::r4()),
        "H6" => Ok(presets::h6()),
        "SL8" => Ok(presets::sl8()),
        "HReA4" => Ok(presets::hrea4()),
        other => Err(format!("unknown architecture {other} (see `ptmap archs`)")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_round_trips() {
        let m = Manifest {
            jobs: vec![
                JobSpec {
                    name: None,
                    kernel: "app:ATA".into(),
                    arch: "S4".into(),
                    predictor: None,
                    mode: None,
                },
                JobSpec {
                    name: Some("g".into()),
                    kernel: "gemm:32".into(),
                    arch: "SL8".into(),
                    predictor: Some("oracle".into()),
                    mode: Some("pareto".into()),
                },
            ],
        };
        let text = serde_json::to_string(&m).unwrap();
        assert_eq!(Manifest::from_json(&text).unwrap(), m);
    }

    #[test]
    fn defaults_fill_in() {
        let m = Manifest::from_json(r#"{"jobs": [{"kernel": "gemm:24", "arch": "S4"}]}"#).unwrap();
        let jobs = m.resolve().unwrap();
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].name, "gemm:24@S4");
        assert_eq!(jobs[0].mode, RankMode::Performance);
        assert!(matches!(jobs[0].predictor, PredictorSpec::Analytical));
    }

    #[test]
    fn bare_app_codes_resolve() {
        assert!(resolve_kernel("ATA").is_ok());
        assert!(resolve_kernel("app:ata").is_ok());
        assert!(resolve_kernel("nope").is_err());
    }

    #[test]
    fn unknown_references_error() {
        assert!(resolve_arch("Z9").is_err());
        assert!(PredictorSpec::parse("magic").is_err());
        let m = Manifest::from_json(
            r#"{"jobs": [{"kernel": "gemm:24", "arch": "S4", "mode": "fastest"}]}"#,
        )
        .unwrap();
        assert!(m.resolve().is_err());
    }

    fn small_gnn(seed: u64) -> PtMapGnn {
        PtMapGnn::new(ptmap_gnn::ModelConfig {
            hidden: 8,
            seed,
            ..ptmap_gnn::ModelConfig::default()
        })
    }

    fn gnn_key(model: &PtMapGnn) -> Value {
        PredictorSpec::Gnn(Box::new(model.clone())).key_value()
    }

    #[test]
    fn gnn_key_changes_with_the_weights() {
        assert_ne!(gnn_key(&small_gnn(1)), gnn_key(&small_gnn(2)));
        let mut nudged = small_gnn(1);
        let first = &mut nudged.params_mut()[0].value;
        first.set(0, 0, first.get(0, 0) + 1e-6);
        assert_ne!(gnn_key(&small_gnn(1)), gnn_key(&nudged));
    }

    #[test]
    fn gnn_key_ignores_adam_moments() {
        let model = small_gnn(1);
        let samples = ptmap_gnn::dataset::generate_dataset(&ptmap_gnn::DatasetConfig {
            samples: 4,
            archs: vec![presets::s4()],
            ..ptmap_gnn::DatasetConfig::default()
        });
        // A zero learning rate moves the Adam moments but no weight.
        let mut moved = model.clone();
        ptmap_gnn::fine_tune(
            &mut moved,
            &samples,
            &ptmap_gnn::TrainConfig {
                lr: 0.0,
                epochs: 1,
                ..ptmap_gnn::TrainConfig::default()
            },
        );
        assert_ne!(moved.to_bytes(), model.to_bytes(), "moments must differ");
        assert_eq!(gnn_key(&moved), gnn_key(&model));
    }

    #[test]
    fn gnn_key_ignores_checkpoint_formatting() {
        let model = small_gnn(3);
        let path = std::env::temp_dir().join(format!("ptmap-key-{}.json", std::process::id()));
        std::fs::write(&path, serde_json::to_string_pretty(&model).unwrap()).unwrap();
        let parsed = PredictorSpec::parse(&format!("gnn:{}", path.display()));
        let _ = std::fs::remove_file(&path);
        let parsed = parsed.unwrap();
        assert!(matches!(parsed, PredictorSpec::Gnn(_)));
        assert_eq!(parsed.key_value(), gnn_key(&model));
        let reparsed = PtMapGnn::from_bytes(&model.to_bytes()).unwrap();
        assert_eq!(gnn_key(&reparsed), gnn_key(&model));
    }
}
