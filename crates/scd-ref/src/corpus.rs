//! On-disk reproducer format for fuzz findings.
//!
//! A reproducer pins the *assembled artifact* — text words, rodata bytes,
//! section bases, and the data segment the program expects — not the
//! generator config that produced it. Regenerating from `(seed, blocks)`
//! would silently change the program whenever the generator evolves; a
//! pinned word list keeps `tests/golden/lockstep/` reproducers meaningful
//! forever.
//!
//! The format is a line-oriented text file (easy to diff and review):
//!
//! ```text
//! # scd-ref reproducer v1
//! seed=42
//! text_base=0x10000
//! rodata_base=0x10a40
//! data_base=0x100000
//! data_size=0x800
//! text
//! 00000517
//! ...
//! rodata
//! 00
//! ...
//! ```
//!
//! `seed` is provenance only — loading never re-runs the generator.

use scd_isa::Program;

/// A self-contained reproducer: everything needed to run the program on
/// both executors.
#[derive(Debug, Clone)]
pub struct Repro {
    /// Generator seed that originally produced this program (provenance).
    pub seed: u64,
    /// The pinned program.
    pub program: Program,
    /// Base of the zero-filled scratch segment.
    pub data_base: u64,
    /// Size in bytes of that segment.
    pub data_size: u64,
}

/// Serializes a reproducer to the text format.
pub fn save(repro: &Repro) -> String {
    let mut s = String::new();
    s.push_str("# scd-ref reproducer v1\n");
    s.push_str(&format!("seed={}\n", repro.seed));
    s.push_str(&format!("text_base={:#x}\n", repro.program.text_base));
    s.push_str(&format!("rodata_base={:#x}\n", repro.program.rodata_base));
    s.push_str(&format!("data_base={:#x}\n", repro.data_base));
    s.push_str(&format!("data_size={:#x}\n", repro.data_size));
    s.push_str("text\n");
    for w in &repro.program.words {
        s.push_str(&format!("{w:08x}\n"));
    }
    s.push_str("rodata\n");
    for b in &repro.program.rodata {
        s.push_str(&format!("{b:02x}\n"));
    }
    s
}

fn parse_num(v: &str) -> Result<u64, String> {
    let v = v.trim();
    if let Some(hex) = v.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).map_err(|e| format!("bad hex `{v}`: {e}"))
    } else {
        v.parse().map_err(|e| format!("bad number `{v}`: {e}"))
    }
}

/// Parses a reproducer from the text format.
///
/// # Errors
/// A human-readable message naming the offending line.
pub fn load(text: &str) -> Result<Repro, String> {
    let mut seed = 0u64;
    let mut text_base = None;
    let mut rodata_base = None;
    let mut data_base = None;
    let mut data_size = None;
    let mut words: Vec<u32> = Vec::new();
    let mut rodata: Vec<u8> = Vec::new();
    #[derive(PartialEq)]
    enum Mode {
        Header,
        Text,
        Rodata,
    }
    let mut mode = Mode::Header;
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match line {
            "text" => {
                mode = Mode::Text;
                continue;
            }
            "rodata" => {
                mode = Mode::Rodata;
                continue;
            }
            _ => {}
        }
        match mode {
            Mode::Header => {
                let (k, v) = line
                    .split_once('=')
                    .ok_or_else(|| format!("line {}: expected key=value", i + 1))?;
                let v = parse_num(v).map_err(|e| format!("line {}: {e}", i + 1))?;
                match k.trim() {
                    "seed" => seed = v,
                    "text_base" => text_base = Some(v),
                    "rodata_base" => rodata_base = Some(v),
                    "data_base" => data_base = Some(v),
                    "data_size" => data_size = Some(v),
                    other => return Err(format!("line {}: unknown key `{other}`", i + 1)),
                }
            }
            Mode::Text => {
                let w = u32::from_str_radix(line, 16)
                    .map_err(|e| format!("line {}: bad word: {e}", i + 1))?;
                words.push(w);
            }
            Mode::Rodata => {
                let b = u8::from_str_radix(line, 16)
                    .map_err(|e| format!("line {}: bad byte: {e}", i + 1))?;
                rodata.push(b);
            }
        }
    }
    let text_base = text_base.ok_or("missing text_base")?;
    let insts = words
        .iter()
        .enumerate()
        .map(|(k, w)| {
            scd_isa::decode(*w).map_err(|e| {
                format!("word {k} ({w:08x}) at {:#x}: {e:?}", text_base + 4 * k as u64)
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Repro {
        seed,
        program: Program {
            text_base,
            words,
            insts: insts.into(),
            rodata_base: rodata_base.ok_or("missing rodata_base")?,
            rodata,
            symbols: Default::default(),
        },
        data_base: data_base.ok_or("missing data_base")?,
        data_size: data_size.ok_or("missing data_size")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenConfig};
    use crate::RefCore;

    #[test]
    fn roundtrip_preserves_the_program_and_its_behavior() {
        let g = generate(&GenConfig::from_seed(9));
        let saved = save(&Repro {
            seed: 9,
            program: g.program.clone(),
            data_base: g.data_base,
            data_size: g.data_size,
        });
        let back = load(&saved).unwrap();
        assert_eq!(back.seed, 9);
        assert_eq!(back.program.words, g.program.words);
        assert_eq!(back.program.rodata, g.program.rodata);
        assert_eq!(back.program.text_base, g.program.text_base);
        assert_eq!(back.program.rodata_base, g.program.rodata_base);

        let run = |p: &scd_isa::Program| {
            let mut c = RefCore::from_program(p, true, 4);
            c.mem.add_segment("fuzzdata", g.data_base, g.data_size);
            c.run(2_000_000).unwrap()
        };
        assert_eq!(run(&g.program), run(&back.program));
    }

    #[test]
    fn load_rejects_garbage() {
        assert!(load("nonsense\n").is_err());
        assert!(load("seed=1\ntext\nzz\n").is_err());
    }
}
