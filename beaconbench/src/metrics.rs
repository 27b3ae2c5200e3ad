//! Named metrics, their summaries, and the result line.

use std::fmt::Write as _;
use std::path::Path;

/// `n / d`, or 0 when nothing was counted.
pub fn frac(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

/// The `q` quantile (0..=1) of `xs`, interpolating between order
/// statistics; 0 for no samples.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    /// Samples behind a median, with their quartiles.
    spread: Option<(usize, f64, f64)>,
}

/// An ordered set of named metrics.
#[derive(Default)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.0.push(Metric {
            name,
            unit,
            value,
            spread: None,
        });
    }

    /// Report the median of `samples`, keeping their count and quartiles
    /// for the printed line.
    pub fn sampled(&mut self, name: &'static str, unit: &'static str, samples: &[f64]) {
        self.0.push(Metric {
            name,
            unit,
            value: median(samples),
            spread: Some((
                samples.len(),
                quantile(samples, 0.25),
                quantile(samples, 0.75),
            )),
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Metric by metric, the median over runs that all pushed the same
    /// names in the same order.
    pub fn median_of(runs: &[Metrics]) -> Metrics {
        let mut out = Metrics::default();
        for (i, m) in runs[0].0.iter().enumerate() {
            let xs: Vec<f64> = runs.iter().map(|r| r.0[i].value).collect();
            out.sampled(m.name, m.unit, &xs);
        }
        out
    }

    /// One human-readable line per metric.
    pub fn print_lines(&self) {
        for m in &self.0 {
            match m.spread {
                Some((n, q1, q3)) => println!(
                    "{} {} {} (median of {n} runs; quartiles {q1} .. {q3})",
                    m.name, m.value, m.unit
                ),
                None => println!("{} {} {}", m.name, m.value, m.unit),
            }
        }
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn result_json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut s = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, m) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// This process's peak resident set, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// What was measured: the git commit when the checkout has one, and
/// always an FNV-1a fingerprint of the sources the benchmark builds.
pub fn revision() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let git = git_head(&root.join(".git")).unwrap_or_else(|| "none".into());
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut files = Vec::new();
    for dir in ["crates", "beaconbench", "vendor"] {
        collect_sources(&root.join(dir), &mut files);
    }
    files.push(root.join("Cargo.lock"));
    files.sort();
    for f in &files {
        for &b in std::fs::read(f).unwrap_or_default().iter() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    format!("git:{git} src:{h:016x}")
}

fn git_head(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let Some(reference) = head.trim().strip_prefix("ref: ") else {
        return Some(head.trim().to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
}

fn collect_sources(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            if p.file_name().is_some_and(|n| n != "target") {
                collect_sources(&p, out);
            }
        } else if p
            .extension()
            .is_some_and(|x| x == "rs" || x == "toml" || x == "lock")
        {
            out.push(p);
        }
    }
}
