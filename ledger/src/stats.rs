//! Order statistics over timing samples, and the read side of the one
//! JSON shape the ledger itself prints.

/// The `p`-quantile (0..=1) of `sorted`, nearest rank.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), 0.5)
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Geometric mean: every cell of a workload weighs the same whatever
/// its time scale, so a gain on a cheap cell is not drowned by a dear one.
pub fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() || v.iter().any(|&x| x <= 0.0) {
        return 0.0;
    }
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (exclusive method) — the spread rule the acceptance check
/// of `--sets` applies.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let s = sorted(v.to_vec());
    let n = s.len();
    if n < 2 {
        let x = s.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * frac
    };
    (at(1), at(3))
}

/// A sample log of fixed, fully touched memory: once full it keeps every
/// second sample and from then on records every second one, and so on.
/// A closed loop logs as many samples as the program is fast, so a
/// growing log would charge a faster program with a larger `peak_rss_mb`;
/// this one costs the same however many samples arrive. Two logs pushed
/// in lockstep keep the same samples and so stay paired.
pub struct SampleLog {
    buf: Vec<f64>,
    len: usize,
    stride: u64,
    seen: u64,
}

impl SampleLog {
    pub fn new(capacity: usize) -> Self {
        // NaN, not 0: zeroed pages would stay untouched until written.
        SampleLog { buf: vec![f64::NAN; capacity.max(2)], len: 0, stride: 1, seen: 0 }
    }

    pub fn push(&mut self, v: f64) {
        let index = self.seen;
        self.seen += 1;
        if !index.is_multiple_of(self.stride) {
            return;
        }
        if self.len == self.buf.len() {
            for i in 0..self.len / 2 {
                self.buf[i] = self.buf[2 * i];
            }
            self.len /= 2;
            self.stride *= 2;
            if !index.is_multiple_of(self.stride) {
                return;
            }
        }
        self.buf[self.len] = v;
        self.len += 1;
    }

    pub fn samples(&self) -> &[f64] {
        &self.buf[..self.len]
    }

    /// Empties the log, keeping its memory.
    pub fn clear(&mut self) {
        (self.len, self.stride, self.seen) = (0, 1, 0);
    }
}

/// Reads `"<name>": {"value": <number>` out of a result line this
/// program printed. Not a JSON parser: it relies on the exact shape
/// `main::result_line` writes.
pub fn metric_value(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

/// Reads `"<key>": <number>` out of a context line.
pub fn plain_value(line: &str, key: &str) -> Option<f64> {
    let key = format!("\"{key}\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find([',', '}'])?].trim().parse().ok()
}

/// The names of the cell objects of a context line whose first key is
/// `tag` (`"cell"` or `"unbounded_cell"`), in order.
pub fn cell_names(context: &str, tag: &str) -> Vec<String> {
    let opening = format!("{{\"{tag}\": \"");
    context.split(&opening).skip(1).filter_map(|rest| Some(rest.split_once('"')?.0.to_string())).collect()
}

/// One number of one cell's object in a context line.
pub fn cell_value(context: &str, tag: &str, cell: &str, key: &str) -> Option<f64> {
    let object = context.split_once(&format!("{{\"{tag}\": \"{cell}\""))?.1;
    plain_value(&object[..=object.find('}')?], key)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12, "{q1} {q3}");
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v = sorted(vec![5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.95), 5.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
    }

    #[test]
    fn sample_log_decimates_evenly_in_constant_memory() {
        let mut log = SampleLog::new(8);
        for i in 0..100 {
            log.push(f64::from(i));
        }
        // Stride doubled to 16: samples 0, 16, 32, ... survive.
        let want: Vec<f64> = (0..100).step_by(16).map(f64::from).collect();
        assert_eq!(log.samples(), &want[..]);
        log.clear();
        (0..5).for_each(|i| log.push(f64::from(i)));
        assert_eq!(log.samples(), &[0.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn geomean_weighs_cells_equally() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn context_readers_find_counts_and_cells() {
        let line = r#"{"seed": 3, "enum_calls_per_query": 812.5, "cells": [{"cell": "a-q16", "samples": 9, "p50_us": 1.5, "p95_us": 4}, {"unbounded_cell": "b", "samples": 2, "p50_us": 7, "p95_us": 8.25}]}"#;
        assert_eq!(plain_value(line, "enum_calls_per_query"), Some(812.5));
        assert_eq!(cell_names(line, "cell"), ["a-q16"]);
        assert_eq!(cell_names(line, "unbounded_cell"), ["b"]);
        assert_eq!(cell_value(line, "cell", "a-q16", "p95_us"), Some(4.0));
        assert_eq!(cell_value(line, "unbounded_cell", "b", "p50_us"), Some(7.0));
        assert_eq!(cell_value(line, "cell", "b", "p50_us"), None);
    }

    #[test]
    fn metric_value_reads_the_result_shape() {
        let line =
            r#"{"correct": true, "metrics": {"a_b": {"value": 1.25, "unit": "ms"}, "c": {"value": 7, "unit": "s"}}}"#;
        assert_eq!(metric_value(line, "a_b"), Some(1.25));
        assert_eq!(metric_value(line, "c"), Some(7.0));
        assert_eq!(metric_value(line, "missing"), None);
    }
}
