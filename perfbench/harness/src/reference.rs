//! The expected result of every cell a workload can draw, kept in
//! `perfbench/reference/<workload>.txt` (one `key field=value ...` line
//! per cell, regenerated with `perfbench regen`). A run's outputs must
//! equal these exactly: SimStats are deterministic, and so is a sampled
//! estimate, whatever engine the host picks.

use scd_sim::{SampleReport, SimStats};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// What one cell must produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expect {
    /// Guest `emit` checksum (the oracle checks it too).
    pub checksum: u64,
    pub instructions: u64,
    /// Cycles (the scaled estimate for sampled cells).
    pub cycles: u64,
    /// Digest of every SimStats counter.
    pub digest: String,
    /// Sampled cells: the 95% CI half-width in cycles.
    pub ci95: Option<u64>,
    /// Sampled cells: the same cell's exact full-detail cycles.
    pub exact: Option<u64>,
}

impl Expect {
    /// The observed side of a comparison (`exact` is the reference's to
    /// know, so it stays `None`).
    pub fn observed(checksum: u64, stats: &SimStats, sample: Option<&SampleReport>) -> Expect {
        Expect {
            checksum,
            instructions: stats.instructions,
            cycles: stats.cycles,
            digest: digest(stats),
            ci95: sample.map(|r| r.cycles_ci95),
            exact: None,
        }
    }

    /// Whether `got` matches this reference (everything but `exact`).
    pub fn matches(&self, got: &Expect) -> bool {
        self.checksum == got.checksum
            && self.instructions == got.instructions
            && self.cycles == got.cycles
            && self.digest == got.digest
            && self.ci95 == got.ci95
    }
}

/// A stable digest of the SimStats counters that exist today, spelled
/// out field by field so a counter added later does not invalidate the
/// references.
pub fn digest(s: &SimStats) -> String {
    let mut text = String::new();
    let _ = write!(
        text,
        "{} {} {} {} {} {:?} {:?} {:?} {:?} {:?} {} {} {} {} {} {:?} {:?} {:?} {:?} {:?} {:?}",
        s.cycles,
        s.instructions,
        s.dispatch_instructions,
        s.loads,
        s.stores,
        s.cond,
        s.direct,
        s.ret,
        s.indirect_dispatch,
        s.indirect_other,
        s.bop_executed,
        s.bop_hits,
        s.bop_misses,
        s.bop_stall_cycles,
        s.jru_executed,
        s.icache,
        s.dcache,
        s.l2,
        s.itlb,
        s.dtlb,
        s.btb,
    );
    let hex = scd_serve::sha256::sha256_hex(text.as_bytes());
    hex[..16].to_string()
}

pub type Table = BTreeMap<String, Expect>;

/// Renders a reference table.
pub fn render(table: &Table) -> String {
    let mut out = String::new();
    for (key, e) in table {
        let _ = write!(
            out,
            "{key} checksum={} insts={} cycles={} digest={}",
            e.checksum, e.instructions, e.cycles, e.digest
        );
        if let Some(ci) = e.ci95 {
            let _ = write!(out, " ci95={ci}");
        }
        if let Some(x) = e.exact {
            let _ = write!(out, " exact={x}");
        }
        out.push('\n');
    }
    out
}

/// Parses a reference table.
pub fn parse(text: &str) -> Result<Table, String> {
    let mut table = Table::new();
    for (no, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let key = parts.next().expect("non-empty line").to_string();
        let mut fields = BTreeMap::new();
        for p in parts {
            let (k, v) = p
                .split_once('=')
                .ok_or_else(|| format!("line {}: bad field {p:?}", no + 1))?;
            fields.insert(k, v);
        }
        let num = |k: &str| -> Result<Option<u64>, String> {
            fields
                .get(k)
                .map(|v| v.parse().map_err(|_| format!("line {}: bad {k}", no + 1)))
                .transpose()
        };
        let need = |k: &str| num(k)?.ok_or_else(|| format!("line {}: missing {k}", no + 1));
        let e = Expect {
            checksum: need("checksum")?,
            instructions: need("insts")?,
            cycles: need("cycles")?,
            digest: fields
                .get("digest")
                .ok_or_else(|| format!("line {}: missing digest", no + 1))?
                .to_string(),
            ci95: num("ci95")?,
            exact: num("exact")?,
        };
        table.insert(key, e);
    }
    Ok(table)
}

/// Loads `dir/<workload>.txt`.
pub fn load(dir: &Path, workload: &str) -> Result<Table, String> {
    let path = dir.join(format!("{workload}.txt"));
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("reading reference {}: {e}", path.display()))?;
    parse(&text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_round_trips() {
        let mut t = Table::new();
        t.insert(
            "lvm/fibo/20/scd/a5/ideal".into(),
            Expect {
                checksum: 6765,
                instructions: 10,
                cycles: 20,
                digest: "00ff".into(),
                ci95: None,
                exact: None,
            },
        );
        t.insert(
            "svm/fibo/25/baseline/rocket/ideal/sample=1000000:20000:20000".into(),
            Expect {
                checksum: 1,
                instructions: 2,
                cycles: 3,
                digest: "ab".into(),
                ci95: Some(4),
                exact: Some(5),
            },
        );
        assert_eq!(parse(&render(&t)).unwrap(), t);
    }

    #[test]
    fn digest_sees_every_counter() {
        let a = SimStats::default();
        let mut b = a.clone();
        b.dtlb.writebacks = 1;
        assert_ne!(digest(&a), digest(&b));
        let mut c = a.clone();
        c.btb.jte_flushed = 1;
        assert_ne!(digest(&a), digest(&c));
    }
}
