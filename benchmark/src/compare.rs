//! `compare BASE.json NEW.json`: the regression gate over two suite
//! summaries. One row per (metric, workload) with base, new, ratio, bound
//! and a verdict; exits nonzero on any `regressed` row or a higher
//! `failed_share`.

use std::path::Path;
use std::process::ExitCode;

use crate::json::Json;
use crate::spec::{self, Better};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The files' own run-to-run spread exceeds the bound, so a move of
    /// that size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// `spread` is the larger of the two files' quartile spreads (0 when a
/// file holds a single run and so states none).
pub fn verdict(better: Better, bound: f64, base: f64, new: f64, spread: f64) -> Verdict {
    if spread > bound {
        return Verdict::Unresolved;
    }
    let worse = better.worsening(base, new);
    if worse > 1.0 + bound {
        Verdict::Regressed
    } else if 1.0 / worse > 1.0 + bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn failed_share(workload: &Json) -> f64 {
    let num = |key| workload.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    num("failed") / num("attempted").max(1.0)
}

pub fn run(base_path: &Path, new_path: &Path) -> Result<ExitCode, String> {
    let (base, new) = (load(base_path)?, load(new_path)?);
    let mut gate_failed = false;
    println!(
        "{:<24} {:<16} {:>14} {:>14} {:>8} {:>6}  verdict",
        "metric", "workload", "base", "new", "ratio", "bound"
    );
    for w in &spec::WORKLOADS {
        let side = |file: &Json| file.get("workloads").and_then(|ws| ws.get(w.name)).cloned();
        let (Some(b), Some(n)) = (side(&base), side(&new)) else {
            return Err(format!("workload {} missing from one file", w.name));
        };
        for m in &spec::END_TO_END {
            let field = |side: &Json, key: &str| {
                side.get("end_to_end")
                    .and_then(|e| e.get(m.name))
                    .and_then(|e| e.get(key))
                    .and_then(Json::as_f64)
            };
            let (Some(bv), Some(nv)) = (field(&b, "value"), field(&n, "value")) else {
                return Err(format!("{} of {} missing from one file", m.name, w.name));
            };
            let spread = field(&b, "spread")
                .unwrap_or(0.0)
                .max(field(&n, "spread").unwrap_or(0.0));
            let v = verdict(m.better, m.bound, bv, nv, spread);
            gate_failed |= v == Verdict::Regressed;
            println!(
                "{:<24} {:<16} {:>14.6} {:>14.6} {:>8.4} {:>6.2}  {}",
                m.name,
                w.name,
                bv,
                nv,
                nv / bv,
                m.bound,
                v.label()
            );
        }
        let (bf, nf) = (failed_share(&b), failed_share(&n));
        let v = if nf > bf {
            gate_failed = true;
            Verdict::Regressed
        } else {
            Verdict::Unchanged
        };
        println!(
            "{:<24} {:<16} {:>14.6} {:>14.6} {:>8} {:>6.2}  {}",
            "failed_share",
            w.name,
            bf,
            nf,
            "-",
            0.0,
            v.label()
        );
    }
    Ok(if gate_failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        use Better::{Higher, Lower};
        // Lower is better, bound 10 %.
        assert_eq!(verdict(Lower, 0.10, 10.0, 10.5, 0.02), Verdict::Unchanged);
        assert_eq!(verdict(Lower, 0.10, 10.0, 11.5, 0.02), Verdict::Regressed);
        assert_eq!(verdict(Lower, 0.10, 10.0, 8.0, 0.02), Verdict::Improved);
        // Higher is better: a drop is the regression.
        assert_eq!(verdict(Higher, 0.10, 100.0, 85.0, 0.0), Verdict::Regressed);
        assert_eq!(verdict(Higher, 0.10, 100.0, 120.0, 0.0), Verdict::Improved);
        assert_eq!(verdict(Higher, 0.10, 100.0, 95.0, 0.0), Verdict::Unchanged);
        // Noise wider than the bound resolves nothing, whatever the move.
        assert_eq!(verdict(Lower, 0.10, 10.0, 20.0, 0.15), Verdict::Unresolved);
    }
}
