//! The cache entry payload: everything a figure renderer needs from an
//! oracle-validated guest run, encoded as deterministic hand-rolled
//! JSON.
//!
//! The encoding is byte-deterministic (fixed field order, integer
//! literals only), which is what lets the warm-cache sweep reproduce the
//! cold sweep's reports byte-for-byte. Decoding is strict: any missing
//! or mistyped field is a typed error, which the cache layer treats
//! like a checksum failure — quarantine and recompute. Trace sinks are
//! deliberately *not* cached: the [`CycleBreakdown`] aggregate is the
//! only trace product the reports consume, and it is small and
//! deterministic.

use scd_guest::GuestRun;
use scd_sim::json::{self, Value};
use scd_sim::{CycleBreakdown, SampleReport, SamplingPlan, SimStats, COUNTER_NAMES};
use std::fmt::Write as _;
use std::ops::Range;

/// Payload format version; bump on any layout change so stale entries
/// decode-fail into quarantine instead of mis-reading.
const VERSION: u64 = 1;

/// A cached run result: the validated outcome plus its optional cycle
/// decomposition.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedRun {
    /// The guest's `emit` checksum (already oracle-validated when the
    /// entry was stored).
    pub checksum: u64,
    /// Bytecodes dispatched.
    pub dispatches: u64,
    /// Full simulator statistics.
    pub stats: SimStats,
    /// Event-derived cycle decomposition (`None` for untraced runs).
    pub breakdown: Option<CycleBreakdown>,
    /// Sampling metadata (`None` for full-detail runs). Present exactly
    /// when the job ran sampled — the stats above are then the scaled
    /// estimate this report quantifies.
    pub sample: Option<SampleReport>,
}

impl CachedRun {
    /// Captures the cacheable part of a completed run. The sample
    /// report's `self_check` knob is normalized off: it never changes
    /// results, so a checked and an unchecked run must encode (and
    /// compare) identically.
    pub fn from_run(run: &GuestRun, breakdown: Option<&CycleBreakdown>) -> Self {
        let sample = run.sample.clone().map(|mut r| {
            r.plan.self_check = false;
            r
        });
        CachedRun {
            checksum: run.checksum,
            dispatches: run.dispatches,
            stats: run.stats.clone(),
            breakdown: breakdown.cloned(),
            sample,
        }
    }
}

/// The fields of the `"stats"` object, in counter-table order, as
/// `(key, counter indices, is_array)`. A plain counter name is a scalar
/// field; consecutive counters sharing a dotted prefix (`cond.executed`,
/// `cond.mispredicted`) form one array under the prefix (`"cond"`).
fn stats_fields() -> impl Iterator<Item = (&'static str, Range<usize>, bool)> {
    let mut i = 0;
    std::iter::from_fn(move || {
        let start = i;
        let name = *COUNTER_NAMES.get(i)?;
        i += 1;
        let Some((group, _)) = name.split_once('.') else {
            return Some((name, start..i, false));
        };
        while COUNTER_NAMES
            .get(i)
            .is_some_and(|n| n.split_once('.').is_some_and(|(g, _)| g == group))
        {
            i += 1;
        }
        Some((group, start..i, true))
    })
}

/// Encodes a [`CachedRun`] as deterministic JSON.
pub fn encode(run: &CachedRun) -> String {
    let counters = run.stats.counters();
    let mut out = String::with_capacity(1024);
    let _ = write!(out, "{{\"v\":{VERSION},");
    let _ = write!(out, "\"checksum\":{},", run.checksum);
    let _ = write!(out, "\"dispatches\":{},", run.dispatches);
    out.push_str("\"stats\":{");
    for (k, (key, range, array)) in stats_fields().enumerate() {
        if k > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{key}\":");
        if array {
            out.push('[');
            for (j, v) in counters[range].iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{v}");
            }
            out.push(']');
        } else {
            let _ = write!(out, "{}", counters[range.start]);
        }
    }
    out.push('}');
    match &run.breakdown {
        None => out.push_str(",\"breakdown\":null"),
        Some(d) => {
            let _ = write!(
                out,
                ",\"breakdown\":[{},{},{},{},{},{},{},{},{},{}]",
                d.total,
                d.issue,
                d.fetch_stall,
                d.data_stall,
                d.redirect,
                d.bop_stall,
                d.dispatch_total,
                d.dispatch_redirect,
                d.dispatch_fetch_stall,
                d.events
            );
        }
    }
    // The sample object is emitted only when present: full-detail
    // payloads stay byte-identical to entries written before sampling
    // existed, so warm caches survive the format addition. The f64s are
    // carried as IEEE-754 bit patterns to keep the encoding exact and
    // deterministic.
    if let Some(r) = &run.sample {
        let _ = write!(
            out,
            ",\"sample\":{{\"plan\":[{},{},{}],\"intervals\":{},\"total_insts\":{},\
             \"measured_insts\":{},\"measured_cycles\":{},\"ff_insts\":{},\"warm_insts\":{},\
             \"cpi_mean_bits\":{},\"cpi_ci95_bits\":{},\"cycles_est\":{},\"cycles_ci95\":{},\
             \"exact_fallback\":{}}}",
            r.plan.period,
            r.plan.warmup,
            r.plan.measure,
            r.intervals,
            r.total_insts,
            r.measured_insts,
            r.measured_cycles,
            r.ff_insts,
            r.warm_insts,
            r.cpi_mean.to_bits(),
            r.cpi_ci95.to_bits(),
            r.cycles_est,
            r.cycles_ci95,
            r.exact_fallback
        );
    }
    out.push('}');
    out
}

fn field_u64(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("missing or mistyped field '{key}'"))
}

/// The array under `key`, which must hold exactly `want` integers.
fn array_u64(v: &Value, key: &str, want: usize) -> Result<Vec<u64>, String> {
    let arr = v
        .get(key)
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("missing or mistyped field '{key}'"))?;
    if arr.len() != want {
        return Err(format!(
            "field '{key}' has {} entries, want {want}",
            arr.len()
        ));
    }
    arr.iter()
        .map(|item| {
            item.as_u64()
                .ok_or_else(|| format!("non-integer entry in '{key}'"))
        })
        .collect()
}

fn tuple_u64<const N: usize>(v: &Value, key: &str) -> Result<[u64; N], String> {
    Ok(array_u64(v, key, N)?
        .try_into()
        .expect("array_u64 checked the length"))
}

/// Inverse of the `"stats"` object [`encode`] writes.
fn decode_stats(v: &Value) -> Result<SimStats, String> {
    let mut stats = SimStats::default();
    let slots = stats.counters_mut();
    for (key, range, array) in stats_fields() {
        if array {
            for (i, x) in range.clone().zip(array_u64(v, key, range.len())?) {
                *slots[i] = x;
            }
        } else {
            *slots[range.start] = field_u64(v, key)?;
        }
    }
    Ok(stats)
}

/// Decodes a payload produced by [`encode`]. Strict: version or field
/// mismatches are errors (the caller quarantines and recomputes).
pub fn decode(text: &str) -> Result<CachedRun, String> {
    let v = json::parse(text)?;
    let version = field_u64(&v, "v")?;
    if version != VERSION {
        return Err(format!("payload version {version}, want {VERSION}"));
    }
    let stats = decode_stats(v.get("stats").ok_or("missing field 'stats'")?)?;
    let breakdown = match v.get("breakdown") {
        Some(Value::Null) => None,
        Some(_) => {
            let [total, issue, fetch_stall, data_stall, redirect, bop_stall, dispatch_total, dispatch_redirect, dispatch_fetch_stall, events] =
                tuple_u64::<10>(&v, "breakdown")?;
            Some(CycleBreakdown {
                total,
                issue,
                fetch_stall,
                data_stall,
                redirect,
                bop_stall,
                dispatch_total,
                dispatch_redirect,
                dispatch_fetch_stall,
                events,
            })
        }
        None => return Err("missing field 'breakdown'".to_string()),
    };
    // Absent key (not null) means a full-detail run: the sample object
    // is only ever written when the run was sampled, and pre-sampling
    // payloads never carry the key at all.
    let sample = match v.get("sample") {
        None => None,
        Some(s) => Some(decode_sample(s)?),
    };
    Ok(CachedRun {
        checksum: field_u64(&v, "checksum")?,
        dispatches: field_u64(&v, "dispatches")?,
        stats,
        breakdown,
        sample,
    })
}

fn decode_sample(s: &Value) -> Result<SampleReport, String> {
    let [period, warmup, measure] = tuple_u64::<3>(s, "plan")?;
    let plan = SamplingPlan::new(period, warmup, measure)
        .map_err(|e| format!("field 'sample.plan': {e}"))?;
    Ok(SampleReport {
        plan,
        intervals: field_u64(s, "intervals")?,
        total_insts: field_u64(s, "total_insts")?,
        measured_insts: field_u64(s, "measured_insts")?,
        measured_cycles: field_u64(s, "measured_cycles")?,
        ff_insts: field_u64(s, "ff_insts")?,
        warm_insts: field_u64(s, "warm_insts")?,
        cpi_mean: f64::from_bits(field_u64(s, "cpi_mean_bits")?),
        cpi_ci95: f64::from_bits(field_u64(s, "cpi_ci95_bits")?),
        cycles_est: field_u64(s, "cycles_est")?,
        cycles_ci95: field_u64(s, "cycles_ci95")?,
        exact_fallback: s
            .get("exact_fallback")
            .and_then(Value::as_bool)
            .ok_or("missing or mistyped field 'sample.exact_fallback'")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Distinct nonzero values in every field, so a swapped pair of
    /// fields cannot round-trip undetected: the 42 counters are
    /// numbered 1..=42 in `SimStats::counters()` order, then the
    /// run-level fields and the breakdown continue the count.
    fn dense_run() -> CachedRun {
        let mut stats = SimStats::default();
        for (n, c) in (1..).zip(stats.counters_mut()) {
            *c = n;
        }
        CachedRun {
            checksum: 43,
            dispatches: 44,
            stats,
            breakdown: Some(CycleBreakdown {
                total: 45,
                issue: 46,
                fetch_stall: 47,
                data_stall: 48,
                redirect: 49,
                bop_stall: 50,
                dispatch_total: 51,
                dispatch_redirect: 52,
                dispatch_fetch_stall: 53,
                events: 54,
            }),
            sample: None,
        }
    }

    /// A sample report with distinct values in every field (and
    /// non-representable-as-integer f64s, to exercise the bit-pattern
    /// round trip).
    fn dense_sample() -> SampleReport {
        SampleReport {
            plan: SamplingPlan::new(1_000_000, 50_000, 20_000).unwrap(),
            intervals: 101,
            total_insts: 102,
            measured_insts: 103,
            measured_cycles: 104,
            ff_insts: 105,
            warm_insts: 106,
            cpi_mean: 1.375_000_000_1,
            cpi_ci95: 0.031_250_000_7,
            cycles_est: 107,
            cycles_ci95: 108,
            exact_fallback: false,
        }
    }

    /// The stored bytes of the three payload shapes, pinned literally:
    /// cache entries written by any earlier build must keep decoding and
    /// re-encoding to exactly these bytes.
    const STATS_JSON: &str = "\"stats\":{\"cycles\":1,\"instructions\":2,\
        \"dispatch_instructions\":3,\"loads\":4,\"stores\":5,\"cond\":[6,7],\
        \"direct\":[8,9],\"ret\":[10,11],\"indirect_dispatch\":[12,13],\
        \"indirect_other\":[14,15],\"bop_executed\":16,\"bop_hits\":17,\
        \"bop_misses\":18,\"bop_stall_cycles\":19,\"jru_executed\":20,\
        \"icache\":[21,22,23],\"dcache\":[24,25,26],\"l2\":[27,28,29],\
        \"itlb\":[30,31,32],\"dtlb\":[33,34,35],\"btb\":[36,37,38,39,40,41,42]}";

    #[test]
    fn encoded_bytes_are_pinned() {
        let head = "{\"v\":1,\"checksum\":43,\"dispatches\":44,";
        let mut run = dense_run();
        assert_eq!(
            encode(&run),
            format!("{head}{STATS_JSON},\"breakdown\":[45,46,47,48,49,50,51,52,53,54]}}")
        );
        run.breakdown = None;
        assert_eq!(
            encode(&run),
            format!("{head}{STATS_JSON},\"breakdown\":null}}")
        );
        run.sample = Some(dense_sample());
        assert_eq!(
            encode(&run),
            format!(
                "{head}{STATS_JSON},\"breakdown\":null,\"sample\":{{\"plan\":[1000000,50000,20000],\
                 \"intervals\":101,\"total_insts\":102,\"measured_insts\":103,\
                 \"measured_cycles\":104,\"ff_insts\":105,\"warm_insts\":106,\
                 \"cpi_mean_bits\":4608871268660731704,\"cpi_ci95_bits\":4584664420764045560,\
                 \"cycles_est\":107,\"cycles_ci95\":108,\"exact_fallback\":false}}}}"
            )
        );
    }

    #[test]
    fn roundtrip_every_field() {
        let run = dense_run();
        let text = encode(&run);
        let back = decode(&text).expect("decode");
        assert_eq!(back, run);
    }

    #[test]
    fn roundtrip_untraced() {
        let mut run = dense_run();
        run.breakdown = None;
        assert_eq!(decode(&encode(&run)).expect("decode"), run);
    }

    #[test]
    fn encoding_is_deterministic() {
        let run = dense_run();
        assert_eq!(encode(&run), encode(&run));
    }

    #[test]
    fn u64_counters_survive_past_f64_precision() {
        let mut run = dense_run();
        run.stats.cycles = u64::MAX - 1;
        assert_eq!(
            decode(&encode(&run)).expect("decode").stats.cycles,
            u64::MAX - 1
        );
    }

    #[test]
    fn full_detail_payloads_never_carry_the_sample_key() {
        // Byte-compatibility with pre-sampling cache entries: a run
        // without a sample report encodes exactly as version 1 always
        // did, and such payloads decode with `sample: None`.
        let run = dense_run();
        let text = encode(&run);
        assert!(
            !text.contains("sample"),
            "no sample key on full-detail payloads: {text}"
        );
        assert_eq!(decode(&text).expect("decode").sample, None);
    }

    #[test]
    fn roundtrip_sampled() {
        let mut run = dense_run();
        run.breakdown = None;
        run.sample = Some(dense_sample());
        let text = encode(&run);
        let back = decode(&text).expect("decode");
        assert_eq!(back, run);
        // f64s survive bit-exactly, not merely to printed precision.
        let s = back.sample.unwrap();
        assert_eq!(s.cpi_mean.to_bits(), dense_sample().cpi_mean.to_bits());
        assert_eq!(s.cpi_ci95.to_bits(), dense_sample().cpi_ci95.to_bits());
        assert_eq!(encode(&run), text, "sampled encoding is deterministic");
    }

    #[test]
    fn mangled_sample_objects_are_errors() {
        let mut run = dense_run();
        run.sample = Some(dense_sample());
        let text = encode(&run);
        let missing = text.replacen("\"intervals\"", "\"intervals_gone\"", 1);
        assert!(decode(&missing).is_err());
        let bad_plan = text.replacen("\"plan\":[1000000", "\"plan\":[1", 1);
        assert!(
            decode(&bad_plan).is_err(),
            "an impossible plan must not decode"
        );
    }

    #[test]
    fn truncated_and_mangled_payloads_are_errors() {
        let text = encode(&dense_run());
        for cut in [0, 1, text.len() / 2, text.len() - 1] {
            assert!(
                decode(&text[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
        let wrong_version = text.replacen("\"v\":1", "\"v\":999", 1);
        assert!(decode(&wrong_version).is_err());
        let missing = text.replacen("\"cycles\"", "\"cycles_gone\"", 1);
        assert_eq!(
            decode(&missing).unwrap_err(),
            "missing or mistyped field 'cycles'"
        );
        let missing = text.replacen("\"btb\"", "\"btb_gone\"", 1);
        assert_eq!(
            decode(&missing).unwrap_err(),
            "missing or mistyped field 'btb'"
        );
        let short = text.replacen("\"cond\":[6,7]", "\"cond\":[6]", 1);
        assert_eq!(
            decode(&short).unwrap_err(),
            "field 'cond' has 1 entries, want 2"
        );
    }
}
