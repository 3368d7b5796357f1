//! `compare a.json b.json`: two result sets of the same commit, or of a
//! parent and a change, metric by metric against each metric's own bound.

use crate::json::Json;
use crate::metrics::{self, Better};

/// How much worse `b` is than `a`, as a share of `a`; negative is better.
pub fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Lines of the comparison and whether every pairing is within bounds.
pub fn compare(a: &Json, b: &Json) -> Result<(Vec<String>, bool), String> {
    let mut lines = Vec::new();
    let mut ok = true;
    let (fa, fb) = (a.get("fingerprint"), b.get("fingerprint"));
    let same_host = ["host.nproc", "host.page_bytes"].iter().all(|k| {
        fa.and_then(|f| f.get(k)).and_then(Json::num)
            == fb.and_then(|f| f.get(k)).and_then(Json::num)
    }) && {
        // Measured bandwidth wobbles; a different class of machine does not.
        let bw = |f: Option<&Json>| {
            f.and_then(|f| f.get("host.memcpy_gbps"))
                .and_then(Json::num)
        };
        match (bw(fa), bw(fb)) {
            (Some(x), Some(y)) => (x - y).abs() / x.max(y) <= 0.5,
            _ => false,
        }
    };
    if !same_host {
        lines.push(
            "host fingerprints differ: numbers from different hosts are not compared".to_owned(),
        );
        return Ok((lines, false));
    }
    lines.push(format!(
        "{:<16} {:<26} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "a", "b", "worse by", "bound"
    ));
    for w in &metrics::WORKLOADS {
        let side = |doc: &Json| {
            doc.get("workloads")
                .and_then(|ws| ws.get(w.name))
                .cloned()
                .ok_or_else(|| format!("no workload {} in a result set", w.name))
        };
        let (wa, wb) = (side(a)?, side(b)?);
        let ops = |w: &Json, k: &str| w.get(k).and_then(Json::num).unwrap_or(f64::NAN);
        lines.push(format!(
            "{:<16} ops_failed/ops_attempted  a {}/{}  b {}/{}",
            w.name,
            ops(&wa, "ops_failed"),
            ops(&wa, "ops_attempted"),
            ops(&wb, "ops_failed"),
            ops(&wb, "ops_attempted")
        ));
        ok &= ops(&wa, "ops_failed") == 0.0 && ops(&wb, "ops_failed") == 0.0;
        for m in &metrics::END_TO_END {
            let value = |side: &Json| {
                side.get("end_to_end")
                    .and_then(|e| e.get(m.name))
                    .and_then(|v| v.get("value"))
                    .and_then(Json::num)
                    .ok_or_else(|| format!("{}: no {} in a result set", w.name, m.name))
            };
            let (va, vb) = (value(&wa)?, value(&wb)?);
            let worse = worsening(m.better, va, vb);
            let verdict = if worse <= m.bound {
                ""
            } else {
                "  OUT OF BOUNDS"
            };
            ok &= worse <= m.bound;
            lines.push(format!(
                "{:<16} {:<26} {:>14.4} {:>14.4} {:>+8.1}% {:>6.0}%{verdict}",
                w.name,
                m.name,
                va,
                vb,
                worse * 100.0,
                m.bound * 100.0
            ));
        }
    }
    Ok((lines, ok))
}

pub fn compare_files(a: &str, b: &str) -> Result<(), String> {
    let (lines, ok) = compare(&load(a)?, &load(b)?)?;
    for l in lines {
        println!("{l}");
    }
    if ok {
        Ok(())
    } else {
        Err("result sets disagree beyond the bounds".to_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_direction() {
        assert!((worsening(Better::Lower, 100.0, 112.0) - 0.12).abs() < 1e-12);
        assert!((worsening(Better::Higher, 0.9, 0.81) - 0.1).abs() < 1e-12);
        assert!(worsening(Better::Lower, 100.0, 90.0) < 0.0);
    }
}
