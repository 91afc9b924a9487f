//! Percentiles, the run environment and the JSON result lines.

use std::fmt::Write as _;
use std::path::Path;

/// A percentile read from a sample, with the level actually used.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    /// The value at that level.
    pub value: f64,
    /// The level used, in percent.  Below the requested level when the
    /// sample is too small to leave ten samples beyond it.
    pub level: f64,
}

/// The nearest-rank `level`-th percentile of `sorted` (ascending), lowered
/// to the highest level that still has at least ten samples beyond it when
/// `enforce_tail` is set.  `sorted` must not be empty.
pub fn percentile(sorted: &[f64], level: f64, enforce_tail: bool) -> Percentile {
    let n = sorted.len();
    let mut index = ((level / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1;
    if enforce_tail && n >= 11 {
        index = index.min(n - 11);
    }
    Percentile {
        value: sorted[index],
        level: if enforce_tail && index + 1 < n {
            100.0 * (index + 1) as f64 / n as f64
        } else {
            level
        },
    }
}

/// The median of `values` (which it sorts).  `values` must not be empty.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// p50 of the last tenth of `series` over p50 of its first tenth, in
/// sending order (a tenth holds at least one value).  `None` for fewer
/// than two values.
pub fn growth(series: &[f64]) -> Option<f64> {
    if series.len() < 2 {
        return None;
    }
    let tenth = (series.len() / 10).max(1);
    let first = median(&mut series[..tenth].to_vec());
    let last = median(&mut series[series.len() - tenth..].to_vec());
    Some(last / first)
}

/// The median of the per-window p50s of a timed run's second half over
/// that of its first half (the middle window, if odd, in neither).  `None`
/// for fewer than two windows.
pub fn halves_growth(window_p50s: &[f64]) -> Option<f64> {
    if window_p50s.len() < 2 {
        return None;
    }
    let half = window_p50s.len() / 2;
    let first = median(&mut window_p50s[..half].to_vec());
    let last = median(&mut window_p50s[window_p50s.len() - half..].to_vec());
    Some(last / first)
}

/// Position by position, the least value over `series`, up to the length
/// of the shortest.  `series` must not be empty.
pub fn best_of<S: AsRef<[f64]>>(series: &[S]) -> Vec<f64> {
    let len = series.iter().map(|s| s.as_ref().len()).min().unwrap_or(0);
    (0..len)
        .map(|k| {
            series
                .iter()
                .map(|s| s.as_ref()[k])
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// One named metric with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    /// The metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The unit.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// An ordered list of metrics.
#[derive(Clone, Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends a metric.
    pub fn push(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.0.push(Metric {
            name: name.into(),
            unit,
            value,
        });
    }

    /// The JSON object `{name: {"value": v, "unit": u}, …}`.
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(&m.name),
                    json_num(m.value),
                    json_str(m.unit)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit the measurement has (non-finite values,
/// which JSON cannot carry, become `null`).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The machine and build a result was measured on.
#[derive(Clone, Debug)]
pub struct Environment {
    /// Available parallelism.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc -V`.
    pub rustc: String,
    /// `git rev-parse HEAD`, when the tree is a git checkout.
    pub git_commit: String,
    /// FNV-1a digest of the program's sources, which identifies the code
    /// when the tree is not a git checkout.
    pub source_digest: String,
}

impl Environment {
    /// Reads the environment of the current machine and tree.
    pub fn capture() -> Environment {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Environment {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            rustc: command_line("rustc", &["-V"]),
            git_commit: command_line("git", &["rev-parse", "HEAD"]),
            source_digest: source_digest(),
        }
    }

    /// The environment as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu_model\": {}, \"rustc\": {}, \"git_commit\": {}, \"source_digest\": {}}}",
            self.nproc,
            json_str(&self.cpu_model),
            json_str(&self.rustc),
            json_str(&self.git_commit),
            json_str(&self.source_digest)
        )
    }
}

/// The first output line of a command, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| {
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Digest of `Cargo.toml`, `Cargo.lock`, `crates/` and `vendor/` under the
/// working directory, files in sorted path order.
fn source_digest() -> String {
    let mut files = Vec::new();
    for root in ["Cargo.toml", "Cargo.lock", "crates", "vendor"] {
        collect_files(Path::new(root), &mut files);
    }
    files.sort();
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01B3);
        }
    };
    for file in &files {
        eat(file.to_string_lossy().as_bytes());
        if let Ok(bytes) = std::fs::read(file) {
            eat(&bytes);
        }
    }
    format!("{hash:016x}")
}

fn collect_files(path: &Path, out: &mut Vec<std::path::PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
    } else if let Ok(entries) = std::fs::read_dir(path) {
        for entry in entries.flatten() {
            let child = entry.path();
            if child.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_files(&child, out);
        }
    }
}

/// `VmHWM` (peak resident set) of process `pid`, in MiB.
pub fn vm_hwm_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
