//! `--compare`: a report over recorded result sets.
//!
//! A result set is a file of `--record` lines, one per run. With one
//! set the report gives, per workload and metric, the median, the
//! quartiles and the spread (interquartile distance over the median)
//! against the metric's bound in `BENCHMARK.json`. With two sets (for
//! example parent and change) it adds the second side, the relative
//! delta of the medians, and flags a move beyond the bound in the
//! metric's worse direction. It never fails a run: it is a report.

use crate::stats;
use serde::Value;
use std::collections::BTreeMap;

/// One recorded run, reduced to what the report needs.
struct Record {
    workload: String,
    trace: bool,
    metrics: Vec<(String, f64, String)>,
}

fn load(path: &str) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let mut out = Vec::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let doc = serde_json::parse_value(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        let run = doc.get("run");
        let workload = run
            .get("workload")
            .as_str()
            .ok_or(format!("{path}:{}: record without run.workload", n + 1))?;
        let metrics = doc
            .get("result")
            .get("metrics")
            .as_obj()
            .ok_or(format!("{path}:{}: record without result.metrics", n + 1))?
            .iter()
            .filter_map(|(name, m)| {
                let unit = m.get("unit").as_str().unwrap_or("").to_string();
                m.get("value").as_f64().map(|v| (name.clone(), v, unit))
            })
            .collect();
        out.push(Record {
            workload: workload.to_string(),
            trace: matches!(run.get("trace"), Value::Bool(true)),
            metrics,
        });
    }
    Ok(out)
}

/// `(bound, lower_is_better)` per end-to-end metric.
fn bounds(path: &str) -> BTreeMap<String, (f64, bool)> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return BTreeMap::new();
    };
    let Ok(doc) = serde_json::parse_value(&text) else {
        return BTreeMap::new();
    };
    doc.get("end_to_end")
        .as_arr()
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name").as_str()?.to_string(),
                (
                    m.get("bound").as_f64()?,
                    m.get("better").as_str()? == "lower",
                ),
            ))
        })
        .collect()
}

/// Median, quartiles and spread of one side.
struct Side {
    median: f64,
    q1: f64,
    q3: f64,
    runs: usize,
}

impl Side {
    fn of(values: &[f64]) -> Option<Side> {
        let median = stats::median(values)?;
        let [q1, _, q3] = stats::quartiles(values).unwrap_or([median; 3]);
        Some(Side {
            median,
            q1,
            q3,
            runs: values.len(),
        })
    }

    fn spread(&self) -> f64 {
        if self.median != 0.0 {
            (self.q3 - self.q1) / self.median.abs()
        } else {
            0.0
        }
    }

    fn show(&self) -> String {
        format!(
            "{:.5} [{:.5} .. {:.5}] n={}",
            self.median, self.q1, self.q3, self.runs
        )
    }
}

/// One metric's name, unit and recorded values.
type Series = (String, String, Vec<f64>);

/// Each metric's values per (workload, traced), in first-seen order.
fn group(records: &[Record]) -> Vec<((String, bool), Vec<Series>)> {
    let mut out: Vec<((String, bool), Vec<Series>)> = Vec::new();
    for r in records {
        let key = (r.workload.clone(), r.trace);
        let pos = match out.iter().position(|(k, _)| *k == key) {
            Some(p) => p,
            None => {
                out.push((key, Vec::new()));
                out.len() - 1
            }
        };
        let metrics = &mut out[pos].1;
        for (name, value, unit) in &r.metrics {
            match metrics.iter_mut().find(|(n, _, _)| n == name) {
                Some(m) => m.2.push(*value),
                None => metrics.push((name.clone(), unit.clone(), vec![*value])),
            }
        }
    }
    out
}

pub fn run(args: &[String]) -> Result<(), String> {
    let files = args;
    if files.is_empty() || files.len() > 2 {
        return Err("--compare takes one or two result files".into());
    }
    let bounds = bounds("BENCHMARK.json");
    let a = load(&files[0])?;
    let b = match files.get(1) {
        Some(f) => Some(load(f)?),
        None => None,
    };
    let b_groups = b.as_deref().map(group).unwrap_or_default();
    for ((workload, trace), metrics) in group(&a) {
        println!(
            "== {workload} ({}) ==",
            if trace {
                "per-layer, traced"
            } else {
                "end-to-end"
            }
        );
        let other = b_groups
            .iter()
            .find(|(k, _)| k.0 == workload && k.1 == trace)
            .map(|(_, m)| m);
        for (name, unit, values) in metrics {
            let Some(side_a) = Side::of(&values) else {
                continue;
            };
            let bound = bounds.get(&name).filter(|_| !trace);
            let bound_text = bound.map_or("-".to_string(), |(b, _)| format!("{b}"));
            let side_b = other
                .and_then(|m| m.iter().find(|(n, _, _)| *n == name))
                .and_then(|(_, _, v)| Side::of(v));
            match side_b {
                None => {
                    let flag = match bound {
                        Some((b, _)) if side_a.spread() > *b => "SPREAD ABOVE BOUND",
                        Some((b, _)) if side_a.spread() > b / 3.0 => "spread above bound/3",
                        Some(_) => "steady",
                        None => "",
                    };
                    println!(
                        "  {name:<28} {unit:<6} {}  spread {:.4}  bound {bound_text}  {flag}",
                        side_a.show(),
                        side_a.spread()
                    );
                }
                Some(side_b) => {
                    let delta = if side_a.median != 0.0 {
                        (side_b.median - side_a.median) / side_a.median.abs()
                    } else {
                        0.0
                    };
                    let flag = match bound {
                        Some((b, lower_better)) => {
                            let worse = if *lower_better { delta } else { -delta };
                            if worse > *b {
                                "WORSE BEYOND BOUND"
                            } else if side_a.spread() > *b || side_b.spread() > *b {
                                "unresolved (spread above bound)"
                            } else {
                                "within bound"
                            }
                        }
                        None => "",
                    };
                    println!(
                        "  {name:<28} {unit:<6} A {}  B {}  delta {:+.2}%  bound {bound_text}  {flag}",
                        side_a.show(),
                        side_b.show(),
                        delta * 100.0
                    );
                }
            }
        }
    }
    Ok(())
}
