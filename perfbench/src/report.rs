//! Summary statistics, provenance, and the JSON the benchmark prints.

use std::fmt::Write as _;
use std::time::Duration;

/// Median of `values` (mean of the two middle values for an even count);
/// 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median of durations, in milliseconds.
pub fn median_ms(values: impl IntoIterator<Item = Duration>) -> f64 {
    let ms: Vec<f64> = values.into_iter().map(|d| d.as_secs_f64() * 1e3).collect();
    median(&ms)
}

/// Mean of `values`; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Percentiles the tail metric may report, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile of [`TAIL_LADDER`] with at least ten samples
/// above it, and its nearest-rank value. Falls back to the median when
/// there are too few samples for any of them.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    for p in TAIL_LADDER {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        if rank >= 1 && n - rank >= 10 {
            return (p, v[rank - 1]);
        }
    }
    (50.0, median(values))
}

/// Median run time of each input: `inputs[k]` is the input that run `k`,
/// timed at `values[k]`, was given, out of `cycle` inputs. An input with
/// no run reads 0.
pub fn per_input_medians(values: &[f64], inputs: &[usize], cycle: usize) -> Vec<f64> {
    let mut by_input = vec![Vec::new(); cycle];
    for (&v, &input) in values.iter().zip(inputs) {
        by_input[input].push(v);
    }
    by_input.iter().map(|v| median(v)).collect()
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Where and how a result was measured.
pub struct Provenance {
    /// Workload seed.
    pub seed: u64,
    /// Available hardware threads.
    pub nproc: usize,
    /// CPU model from `/proc/cpuinfo`.
    pub cpu: String,
    /// `rustc -V` of the compiler that built the benchmark.
    pub rustc: String,
    /// Git revision of the checkout, when it is a git checkout.
    pub git_rev: String,
}

impl Provenance {
    /// Collects provenance for a run with `seed`.
    pub fn collect(seed: u64) -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Provenance {
            seed,
            nproc: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            cpu,
            rustc: env!("PERFBENCH_RUSTC_VERSION").to_string(),
            git_rev: git_rev().unwrap_or_else(|| "unknown (not a git checkout)".to_string()),
        }
    }

    /// The provenance as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"seed\": {}, \"nproc\": {}, \"cpu\": {}, \"rustc\": {}, \"git_rev\": {}}}",
            self.seed,
            self.nproc,
            json_str(&self.cpu),
            json_str(&self.rustc),
            json_str(&self.git_rev)
        )
    }
}

/// Reads the checked-out revision from `.git` in the working directory,
/// without running git.
fn git_rev() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|l| {
        let (rev, name) = l.split_once(' ')?;
        (name == reference).then(|| rev.to_string())
    })
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

/// One reported metric.
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// How many samples the value summarises.
    pub samples: usize,
}

impl Metric {
    /// A metric summarising `samples` samples.
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Self {
        Metric {
            name,
            value,
            unit,
            samples,
        }
    }
}

/// The result line: `correct`, `attempted`, `failed` and every metric.
pub fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A JSON number with every digit Rust prints (non-finite values become 0).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond_the_percentile() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&values), (99.0, 990.0));
        let values: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail(&values).0, 95.0);
        assert_eq!(tail(&[1.0, 2.0, 3.0]), (50.0, 2.0));
    }

    #[test]
    fn per_input_medians_group_runs_by_input() {
        let values = [1.0, 10.0, 3.0, 30.0, 2.0, 20.0];
        let inputs = [0, 1, 0, 1, 0, 1];
        assert_eq!(per_input_medians(&values, &inputs, 3), vec![2.0, 20.0, 0.0]);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
