//! Small shared helpers: quantiles, seeded streams, process inspection
//! through `/proc`, and the result line.

use std::fmt::Write as _;
use std::time::Duration;

/// Quantile `q` in `[0, 1]` of `values` by linear interpolation between
/// order statistics. `values` need not be sorted; empty input gives 0.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// How many samples lie strictly above quantile `q` — the count printed
/// beside every tail percentile.
pub fn beyond(values: &[f64], q: f64) -> usize {
    let cut = quantile(values, q);
    values.iter().filter(|&&v| v > cut).count()
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// SplitMix64: derives independent, reproducible sub-seeds from the
/// workload seed.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The host-speed yardstick: sorting a fixed array of 2^20 random `f64`
/// (8 MiB), code of the benchmark's own that no change to the program
/// touches. On a shared 2-vCPU host (Xeon, KVM) a co-tenant slows whole
/// seconds of a run by up to 40%, with no steal time and with CPU time
/// growing as wall time does, and the host drifts by as much between
/// runs. Over 20-second windows of a 5-minute trace the median
/// `grid_exact` call on 10^6 points moved 0.10 of its median (quartile
/// distance) while its ratio to this sort, timed in the same seconds,
/// moved 0.03; a compute-only loop (0.07) and a random walk over 32 MiB
/// (0.09) tracked it worse.
pub struct Yardstick {
    data: Vec<f64>,
}

impl Default for Yardstick {
    fn default() -> Yardstick {
        let mut s = SplitMix(0x005E_ED0F_50F7);
        Yardstick {
            data: (0..1 << 20).map(|_| s.unit()).collect(),
        }
    }
}

impl Yardstick {
    /// Wall milliseconds of one sort of a fresh copy.
    pub fn time_ms(&self) -> f64 {
        let t = std::time::Instant::now();
        let mut v = self.data.clone();
        v.sort_by(f64::total_cmp);
        std::hint::black_box(&v);
        ms(t.elapsed())
    }
}

/// A `/proc/<pid>/status` field in kibibytes (`VmHWM`, `VmRSS`, ...).
pub fn proc_status_kb(pid: u32, field: &str) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
}

/// `(steal, total)` CPU ticks of the whole machine from `/proc/stat`: the
/// share of time a virtual CPU wanted to run but the host ran someone else.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = text
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Resets this process's peak-RSS mark (`VmHWM`) to its current RSS, so a
/// later `VmHWM` read measures only what was allocated after this point.
pub fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// Pids whose parent is this process. The benchmark starts a daemon and
/// `cargo`; after a workload none of them may remain.
pub fn live_children() -> Vec<u32> {
    let me = std::process::id();
    let Ok(dir) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    dir.filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter(|&pid| {
            std::fs::read_to_string(format!("/proc/{pid}/stat"))
                .ok()
                .and_then(|s| {
                    // The command name may hold spaces; fields resume
                    // after its closing parenthesis: state, then ppid.
                    let rest = &s[s.rfind(')')? + 1..];
                    rest.split_whitespace().nth(1)?.parse::<u32>().ok()
                })
                == Some(me)
        })
        .collect()
}

/// One printed metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Ordered metric list with a builder-style `put`.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        match self.0.iter_mut().find(|m| m.name == name) {
            Some(m) => {
                m.value = value;
                m.unit = unit;
            }
            None => self.0.push(Metric {
                name: name.to_string(),
                value,
                unit,
            }),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// The result line: `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.0.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_num(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

/// A finite f64 as a JSON number with all its digits.
fn json_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(beyond(&hundred, 0.9), 10);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut m = Metrics::default();
        m.put("a_ms", 1.25, "ms");
        m.put("n", 3.0, "count");
        m.put("a_ms", 1.5, "ms");
        let line = result_line(true, 4, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": \
             {\"a_ms\": {\"value\": 1.5, \"unit\": \"ms\"}, \"n\": {\"value\": 3, \"unit\": \"count\"}}}"
        );
        let parsed = dbscan_server::json::parse(&line).unwrap();
        assert!(parsed.get("metrics").unwrap().get("n").is_some());
    }

    #[test]
    fn splitmix_is_reproducible() {
        let (mut a, mut b) = (SplitMix(7), SplitMix(7));
        for _ in 0..8 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert!((0.0..1.0).contains(&SplitMix(9).unit()));
    }
}
