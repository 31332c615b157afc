//! Where a run's numbers came from: host, toolchain, source revision
//! and checkpoint, plus the load average around the run. Numbers from
//! different hosts are never compared.

use std::path::Path;
use std::process::Command;

#[derive(Debug, Clone)]
pub struct Provenance {
    git_sha: String,
    parallelism: usize,
    rustc: String,
    checkpoint_sha256: Option<String>,
    load_before: String,
}

/// First line of a command's standard output, or `unknown`. Run in
/// `dir`; git may not search above it.
fn first_line(program: &str, args: &[&str], dir: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(dir)
        .env("GIT_CEILING_DIRECTORIES", dir.parent().unwrap_or(dir))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The 1-, 5- and 15-minute load averages.
fn load_average() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".to_string())
}

impl Provenance {
    pub fn capture(root: &Path, checkpoint_sha256: Option<String>) -> Self {
        Provenance {
            git_sha: first_line("git", &["rev-parse", "HEAD"], root),
            parallelism: std::thread::available_parallelism().map_or(0, usize::from),
            rustc: first_line("rustc", &["--version"], root),
            checkpoint_sha256,
            load_before: load_average(),
        }
    }

    pub fn json(&self) -> String {
        format!(
            r#"{{"git_sha":{},"available_parallelism":{},"rustc":{},"checkpoint_sha256":{},"load_before":{},"load_now":{}}}"#,
            json_str(&self.git_sha),
            self.parallelism,
            json_str(&self.rustc),
            self.checkpoint_sha256
                .as_deref()
                .map_or("null".to_string(), json_str),
            json_str(&self.load_before),
            json_str(&load_average()),
        )
    }

    /// Prints the provenance line, with the load average after the run.
    pub fn finish_and_print(&self) {
        println!("provenance {}", self.json());
    }
}

/// SHA-256 of a file's bytes, as lowercase hex.
pub fn file_sha256(path: &Path) -> Result<String, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    Ok(ptmap_pipeline::hash::sha256(&bytes)
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect())
}

/// Peak resident set (`VmHWM`) of a process, in MiB; 0 if unreadable.
pub fn peak_rss_mib(pid: u32) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_str(s: &str) -> String {
    serde_json::to_string(s).expect("string serializes")
}
