//! Statistics, host facts, the span read-back from the registry, and the
//! JSON the benchmark prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use en_obs::MetricsRegistry;

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank quantile `q` of `values`, or NaN when there are none.
pub fn quantile_f64(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n => v[((q * n as f64).ceil() as usize).clamp(1, n) - 1],
    }
}

/// Nearest-rank quantile `q` of `values`; reorders them.
pub fn quantile(values: &mut [u64], q: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    *values.select_nth_unstable(rank - 1).1
}

/// Units whose metrics are timings or rates: a 0 in one of them means the
/// measured work was optimised away or never ran.
const TIMED_UNITS: [&str; 6] = ["s", "ms", "us", "ns", "1/s", "GB/s"];

/// The metrics of one run, in print order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    /// Names of metrics that are not finite, or are timed and read 0.
    pub fn unmeasured(&self) -> Vec<&'static str> {
        self.0
            .iter()
            .filter(|(_, v, unit)| !v.is_finite() || (*v <= 0.0 && TIMED_UNITS.contains(unit)))
            .map(|(name, _, _)| *name)
            .collect()
    }

    /// The result line: `correct`, `attempted`, `failed` and every metric
    /// with its unit.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { -1.0 };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// A flat JSON object of already-rendered values, for the info line.
#[derive(Debug, Default)]
pub struct Info(Vec<(&'static str, String)>);

impl Info {
    pub fn num(&mut self, key: &'static str, value: impl std::fmt::Display) {
        self.0.push((key, value.to_string()));
    }

    pub fn text(&mut self, key: &'static str, value: &str) {
        let escaped: String = value
            .chars()
            .filter(|c| !c.is_control())
            .map(|c| match c {
                '"' => "\\\"".to_string(),
                '\\' => "\\\\".to_string(),
                c => c.to_string(),
            })
            .collect();
        self.0.push((key, format!("\"{escaped}\"")));
    }

    pub fn line(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{\"perfbench\": {{{}}}}}", fields.join(", "))
    }
}

/// Span aggregates by path: (count, total nanoseconds), read back through
/// the `en-obs/v1` dump.
pub fn span_totals(registry: &MetricsRegistry) -> Result<BTreeMap<String, (u64, u64)>, String> {
    let dump = en_obs::to_jsonl(registry);
    en_obs::validate_jsonl(&dump).map_err(|e| format!("en-obs dump is not schema-clean: {e}"))?;
    let mut spans = BTreeMap::new();
    for line in dump.lines() {
        let json = en_obs::parse_json(line)?;
        let Some(obj) = json.as_object() else {
            continue;
        };
        if obj.get("kind").and_then(|k| k.as_str()) != Some("span") {
            continue;
        }
        let field = |key: &str| obj.get(key).and_then(|v| v.as_u64());
        if let (Some(name), Some(count), Some(total)) = (
            obj.get("name").and_then(|v| v.as_str()),
            field("count"),
            field("total_ns"),
        ) {
            spans.insert(name.to_string(), (count, total));
        }
    }
    Ok(spans)
}

/// The process's peak resident set (VmHWM), in bytes.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// The CPU model name, or "unknown".
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The size of the last-level (L3) cache as the kernel reports it, or
/// "unknown".
pub fn l3_size() -> String {
    std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string())
}
