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
use scd_sim::json::{self, Errors, Step, Value, Wire, Zero::Required};
use scd_sim::{CycleBreakdown, SampleReport, SamplingPlan, SimStats, COUNTER_NAMES};

/// Payload format version; bump on any layout change so stale entries
/// decode-fail into quarantine instead of mis-reading.
const VERSION: u64 = 1;

/// A cached run result: the validated outcome plus its optional cycle
/// decomposition.
#[derive(Debug, Clone, Default, PartialEq)]
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

/// Encodes a [`CachedRun`] as deterministic JSON.
pub fn encode(run: &CachedRun) -> String {
    let mut out = String::with_capacity(1024);
    json::emit(&mut out, |w| walk(&mut run.clone(), w));
    out
}

/// Decodes a payload produced by [`encode`]. Strict: version or field
/// mismatches are errors (the caller quarantines and recomputes).
pub fn decode(text: &str) -> Result<CachedRun, String> {
    let mut run = CachedRun::default();
    json::read(text, "payload", Errors::Lumped, |r| walk(&mut run, r))?;
    Ok(run)
}

/// The payload's one field list, for encoding and decoding alike. The
/// `"stats"` object walks the counter table, a dotted group
/// (`cond.executed`, `cond.mispredicted`) as one array (`"cond"`).
fn walk<W: Wire>(run: &mut CachedRun, w: &mut W) -> Step {
    let mut version = VERSION;
    w.num("v", &mut version, Required)?;
    if version != VERSION {
        return Err(format!("payload version {version}, want {VERSION}"));
    }
    // Written ahead of the stats, checked after everything else.
    w.late(|w| w.num("checksum", &mut run.checksum, Required))?;
    w.late(|w| w.num("dispatches", &mut run.dispatches, Required))?;
    let (mut stats, mut counters) = (Some(()), run.stats.counters_mut());
    w.opt("stats", &mut stats, |w, ()| w.counters(&COUNTER_NAMES, &mut counters))?;
    stats.ok_or("missing field 'stats'")?;
    // An untraced run writes `null`; the key itself is required.
    let traced = if W::READ {
        !matches!(w.get("breakdown").ok_or("missing field 'breakdown'")?, Value::Null)
    } else {
        run.breakdown.is_some()
    };
    let mut d = run.breakdown.unwrap_or_default();
    if traced {
        w.array(
            "breakdown",
            &mut [
                &mut d.total,
                &mut d.issue,
                &mut d.fetch_stall,
                &mut d.data_stall,
                &mut d.redirect,
                &mut d.bop_stall,
                &mut d.dispatch_total,
                &mut d.dispatch_redirect,
                &mut d.dispatch_fetch_stall,
                &mut d.events,
            ],
        )?;
    } else if let Some(out) = w.put("breakdown") {
        out.push_str("null");
    }
    run.breakdown = traced.then_some(d);
    // The sample object is emitted only when present: full-detail
    // payloads stay byte-identical to entries written before sampling
    // existed, so warm caches survive the format addition.
    w.opt("sample", &mut run.sample, |w, r| {
        let p = &mut r.plan;
        w.array("plan", &mut [&mut p.period, &mut p.warmup, &mut p.measure])?;
        if W::READ {
            r.plan = SamplingPlan::new(p.period, p.warmup, p.measure)
                .map_err(|e| format!("field 'sample.plan': {e}"))?;
        }
        w.num("intervals", &mut r.intervals, Required)?;
        w.num("total_insts", &mut r.total_insts, Required)?;
        w.num("measured_insts", &mut r.measured_insts, Required)?;
        w.num("measured_cycles", &mut r.measured_cycles, Required)?;
        w.num("ff_insts", &mut r.ff_insts, Required)?;
        w.num("warm_insts", &mut r.warm_insts, Required)?;
        w.bits("cpi_mean_bits", &mut r.cpi_mean)?;
        w.bits("cpi_ci95_bits", &mut r.cpi_ci95)?;
        w.num("cycles_est", &mut r.cycles_est, Required)?;
        w.num("cycles_ci95", &mut r.cycles_ci95, Required)?;
        w.flag("exact_fallback", &mut r.exact_fallback, Required)
            .map_err(|_| "missing or mistyped field 'sample.exact_fallback'".to_string())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The payload codec as it stood before the one-walk `encode`/
    /// `decode`, kept verbatim as the differential oracle.
    mod old {
        use scd_sim::json::{self, Value};
        use scd_sim::{CycleBreakdown, SampleReport, SamplingPlan, SimStats, COUNTER_NAMES};
        use std::fmt::Write as _;
        use std::ops::Range;

        use super::super::{CachedRun, VERSION};

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
                return Err(format!("field '{key}' has {} entries, want {want}", arr.len()));
            }
            arr.iter()
                .map(|item| item.as_u64().ok_or_else(|| format!("non-integer entry in '{key}'")))
                .collect()
        }

        fn tuple_u64<const N: usize>(v: &Value, key: &str) -> Result<[u64; N], String> {
            Ok(array_u64(v, key, N)?.try_into().expect("array_u64 checked the length"))
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
    }

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

    /// A run built from `words`: counters, breakdown presence and a
    /// sample report with a valid plan, raw f64 bit patterns and either
    /// fallback flag.
    fn run_from(words: &[u64]) -> CachedRun {
        let mut it = words.iter().copied().cycle();
        let mut next = move || it.next().expect("cycled");
        let mut run = CachedRun { checksum: next(), dispatches: next() >> 7, ..Default::default() };
        for c in run.stats.counters_mut() {
            *c = next() >> (next() % 64);
        }
        if next() % 2 == 0 {
            run.breakdown = Some(CycleBreakdown {
                total: next(),
                issue: next() >> 32,
                events: next() % 9,
                ..Default::default()
            });
        }
        if next() % 2 == 0 {
            let period = next() % 1_000_000 + 1;
            let measure = next() % period + 1;
            let warmup = next() % (period - measure + 1);
            run.sample = Some(SampleReport {
                plan: SamplingPlan::new(period, warmup, measure).unwrap(),
                intervals: next(),
                total_insts: next(),
                measured_insts: next(),
                measured_cycles: next(),
                ff_insts: next(),
                warm_insts: next(),
                cpi_mean: f64::from_bits(next()),
                cpi_ci95: f64::from_bits(next()),
                cycles_est: next(),
                cycles_ci95: next(),
                exact_fallback: next() % 2 == 0,
            });
        }
        run
    }

    /// Byte ranges of the JSON tokens of `text`: strings, numbers and
    /// literals, and single punctuation bytes.
    fn tokens(text: &str) -> Vec<std::ops::Range<usize>> {
        let b = text.as_bytes();
        let word = |c: u8| c.is_ascii_alphanumeric() || b"+-.".contains(&c);
        let (mut out, mut i) = (Vec::new(), 0);
        while i < b.len() {
            let start = i;
            i += 1;
            if b[start] == b'"' {
                while b[i] != b'"' {
                    i += 1;
                }
                i += 1;
            } else if word(b[start]) {
                while i < b.len() && word(b[i]) {
                    i += 1;
                }
            }
            out.push(start..i);
        }
        out
    }

    /// Replacement tokens for the mutation sweep: every key of the
    /// payload, edge numbers, literals, punctuation, and deletion.
    fn payload_vocab() -> Vec<String> {
        let keys = "v checksum dispatches stats breakdown sample plan intervals total_insts \
                    measured_insts measured_cycles ff_insts warm_insts cpi_mean_bits \
                    cpi_ci95_bits cycles_est cycles_ci95 exact_fallback nope";
        let mut vocab: Vec<String> = keys
            .split(' ')
            .filter(|k| !k.is_empty())
            .chain(COUNTER_NAMES.iter().map(|n| n.split_once('.').map_or(*n, |(g, _)| g)))
            .map(|k| format!("\"{k}\""))
            .collect();
        let other = "0 1 2 3 10 1000000 -1 1.5 1e2 18446744073709551615 18446744073709551616 \
                     true false null { } [ ] , : {} [] [1,2]";
        vocab.extend(other.split(' ').filter(|t| !t.is_empty()).map(str::to_string));
        vocab.push(String::new());
        vocab
    }

    /// Old and new decode `text` to the same run (compared by its
    /// encoding, which is exact for NaN bit patterns) or the same error.
    fn same_decode(text: &str) -> Result<(), String> {
        let old = old::decode(text).map(|r| encode(&r));
        let new = decode(text).map(|r| encode(&r));
        match old == new {
            true => Ok(()),
            false => Err(format!("{text}\n old: {old:?}\n new: {new:?}")),
        }
    }

    fn mutated(text: &str, t: &std::ops::Range<usize>, with: &str) -> String {
        format!("{}{with}{}", &text[..t.start], &text[t.end..])
    }

    #[test]
    fn every_single_token_mutation_decodes_as_before() {
        let vocab = payload_vocab();
        let mut run = dense_run();
        let mut shapes = vec![encode(&run)];
        run.breakdown = None;
        shapes.push(encode(&run));
        run.sample = Some(dense_sample());
        shapes.push(encode(&run));
        for text in &shapes {
            assert_eq!(*text, old::encode(&decode(text).unwrap()));
            for t in tokens(text) {
                for with in &vocab {
                    same_decode(&mutated(text, &t, with)).unwrap();
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// Generated runs encode to the old bytes, and random single-token
        /// mutations of their payloads decode as before.
        #[test]
        fn codec_matches_the_old_codec(
            words in proptest::collection::vec(proptest::prelude::any::<u64>(), 16..80),
            picks in proptest::collection::vec(proptest::prelude::any::<u64>(), 8..9),
        ) {
            let run = run_from(&words);
            let text = encode(&run);
            proptest::prop_assert_eq!(&text, &old::encode(&run));
            proptest::prop_assert_eq!(decode(&text).map(|r| encode(&r)), Ok(text.clone()));
            let vocab = payload_vocab();
            for (i, t) in tokens(&text).iter().enumerate() {
                let with = &vocab[(picks[i % picks.len()] >> (i % 7)) as usize % vocab.len()];
                let r = same_decode(&mutated(&text, t, with));
                proptest::prop_assert!(r.is_ok(), "{}", r.unwrap_err());
            }
        }
    }

    #[test]
    fn encoded_bytes_are_pinned() {
        let head = "{\"v\":1,\"checksum\":43,\"dispatches\":44,";
        let mut run = dense_run();
        assert_eq!(
            encode(&run),
            format!("{head}{STATS_JSON},\"breakdown\":[45,46,47,48,49,50,51,52,53,54]}}")
        );
        run.breakdown = None;
        assert_eq!(encode(&run), format!("{head}{STATS_JSON},\"breakdown\":null}}"));
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
        assert_eq!(decode(&encode(&run)).expect("decode").stats.cycles, u64::MAX - 1);
    }

    #[test]
    fn full_detail_payloads_never_carry_the_sample_key() {
        // Byte-compatibility with pre-sampling cache entries: a run
        // without a sample report encodes exactly as version 1 always
        // did, and such payloads decode with `sample: None`.
        let run = dense_run();
        let text = encode(&run);
        assert!(!text.contains("sample"), "no sample key on full-detail payloads: {text}");
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
        assert!(decode(&bad_plan).is_err(), "an impossible plan must not decode");
    }

    #[test]
    fn truncated_and_mangled_payloads_are_errors() {
        let text = encode(&dense_run());
        for cut in [0, 1, text.len() / 2, text.len() - 1] {
            assert!(decode(&text[..cut]).is_err(), "truncation at {cut} must fail");
        }
        let wrong_version = text.replacen("\"v\":1", "\"v\":999", 1);
        assert!(decode(&wrong_version).is_err());
        let missing = text.replacen("\"cycles\"", "\"cycles_gone\"", 1);
        assert_eq!(decode(&missing).unwrap_err(), "missing or mistyped field 'cycles'");
        let missing = text.replacen("\"btb\"", "\"btb_gone\"", 1);
        assert_eq!(decode(&missing).unwrap_err(), "missing or mistyped field 'btb'");
        let short = text.replacen("\"cond\":[6,7]", "\"cond\":[6]", 1);
        assert_eq!(decode(&short).unwrap_err(), "field 'cond' has 1 entries, want 2");
    }
}
