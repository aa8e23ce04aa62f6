//! `--compare A.json B.json`: the two-sets criterion and later
//! parent-versus-change reviews.  For every workload and end-to-end metric
//! it prints both values, the relative difference, the bound, and a
//! verdict; it fails on any `regressed`.

use crate::metrics::{Better, END_TO_END};
use serde::json::Value;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// B is worse than A by more than the bound.
    Regressed,
    /// A run's own spread is wider than the bound, so the pair decides
    /// nothing.
    Unresolved,
}

/// `worse` is the share of `a` by which `b` is worse (negative = better).
pub fn verdict(
    a: f64,
    b: f64,
    iqr_a: f64,
    iqr_b: f64,
    better: Better,
    bound: f64,
) -> (f64, Verdict) {
    let worse = match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    };
    let verdict = if iqr_a / a > bound || iqr_b / b > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (worse, verdict)
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde::json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Prints the comparison; `Ok(true)` when nothing regressed.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let workloads = |doc: &Value| -> Result<Vec<(String, Value)>, String> {
        match doc.get("workloads") {
            Some(Value::Object(members)) => Ok(members.clone()),
            _ => Err("no \"workloads\" object: not a file written by --out".to_string()),
        }
    };
    let (in_a, in_b) = (workloads(&a)?, workloads(&b)?);
    println!(
        "{:<16} {:<22} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "A", "B", "worse", "bound"
    );
    let mut all_ok = true;
    for (workload, run_a) in &in_a {
        let Some((_, run_b)) = in_b.iter().find(|(name, _)| name == workload) else {
            println!("{workload:<16} only in {path_a}");
            continue;
        };
        for failed in [run_a, run_b].map(|r| r.get("failed").and_then(Value::as_u64)) {
            if failed != Some(0) {
                println!("{workload:<16} a run failed its correctness gate");
                all_ok = false;
            }
        }
        for def in END_TO_END {
            let field = |run: &Value, key: &str| {
                run.get("metrics")
                    .and_then(|m| m.get(def.name))
                    .and_then(|m| m.get(key))
                    .and_then(Value::as_f64)
            };
            let (Some(va), Some(vb)) = (field(run_a, "value"), field(run_b, "value")) else {
                // A traced file holds per-layer metrics only.
                continue;
            };
            let bound = def.bound.expect("end-to-end metrics carry a bound");
            let (iqr_a, iqr_b) = (
                field(run_a, "iqr").unwrap_or(0.0),
                field(run_b, "iqr").unwrap_or(0.0),
            );
            let (worse, verdict) = verdict(va, vb, iqr_a, iqr_b, def.better, bound);
            let word = match verdict {
                Verdict::Ok => "ok".to_string(),
                Verdict::Regressed => "regressed".to_string(),
                Verdict::Unresolved => format!("unresolved (IQR {iqr_a:.4} / {iqr_b:.4})"),
            };
            all_ok &= verdict != Verdict::Regressed;
            println!(
                "{workload:<16} {:<22} {va:>14.4} {vb:>14.4} {:>+8.1}% {:>5.0}%  {word}",
                def.name,
                worse * 100.0,
                bound * 100.0
            );
        }
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        // Throughput fell 20 % against a 10 % bound.
        let (worse, v) = verdict(10.0, 8.0, 0.1, 0.1, Better::Higher, 0.10);
        assert!((worse - 0.2).abs() < 1e-12);
        assert_eq!(v, Verdict::Regressed);
        // Latency fell: better, whatever the size.
        assert_eq!(
            verdict(10.0, 5.0, 0.1, 0.1, Better::Lower, 0.10).1,
            Verdict::Ok
        );
        // Within the bound.
        assert_eq!(
            verdict(10.0, 10.5, 0.1, 0.1, Better::Lower, 0.10).1,
            Verdict::Ok
        );
        // One side's own spread exceeds the bound: the pair decides nothing.
        assert_eq!(
            verdict(10.0, 20.0, 2.0, 0.1, Better::Lower, 0.10).1,
            Verdict::Unresolved
        );
        // An exact metric that moved at all, against a tight bound.
        assert_eq!(
            verdict(1.948, 2.1, 0.0, 0.0, Better::Lower, 0.02).1,
            Verdict::Regressed
        );
    }
}
