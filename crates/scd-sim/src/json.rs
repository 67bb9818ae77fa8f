//! A minimal hand-rolled JSON layer: a recursive-descent parser into a
//! borrowed-nothing [`Value`] tree, the string-escaping helper the
//! renderers share, and the record walk ([`Wire`]) through which each
//! wire record the workspace both writes and reads lists its fields once.
//!
//! The workspace is deliberately serde-free (it must build offline), so
//! every JSON document the workspace reads goes through this one module:
//! retirement-trace lines ([`crate::TraceEvent::from_json`]), `scd serve`
//! job files and cache payloads, and the benchmark records the `simperf`
//! and `sweep` tools compare against. Two properties matter and shape
//! the design:
//!
//! - **u64 exactness.** Simulator counters are `u64` and can exceed
//!   2^53, where `f64` loses integers. [`Value::Num`] therefore keeps
//!   the *literal token text* and reparses it as `u64` or `f64` on
//!   demand, so a cycle counter round-trips bit-exactly.
//! - **Totality.** Parsing is a typed `Result` — a truncated or
//!   corrupted payload must surface as a decode error the cache can
//!   quarantine, never a panic.
//!
//! Two records are both written and read back by the workspace: the
//! retirement-trace event and the `scd serve` cache payload. Each lists
//! its fields once, in one function generic over [`Wire`]: [`emit`] runs
//! it to append the JSON and [`read`] to overwrite each field from the
//! parsed object, the way the checkpoint walk does for snapshot words.
//! Each helper fixes its field's omission rule ([`Zero`]) and enum wire
//! names come from one table per enum ([`WireName`]).

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its literal token text (see module docs).
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order (duplicate keys keep the last).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object field lookup (last occurrence wins, per common practice).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64`, when it is an unsigned integer literal.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The value as `f64`, for any numeric literal.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The value as `&str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses one complete JSON document; trailing non-whitespace is an
/// error (a concatenated or truncated-and-glued payload must not pass).
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected byte {c:#04x} at {}", self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            fields.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        // Validate the token by the loosest reading; the literal text is
        // what gets stored.
        text.parse::<f64>().map_err(|_| format!("bad number at byte {start}"))?;
        Ok(Value::Num(text.to_string()))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair: the low half must follow.
                                if self.peek() != Some(b'\\') {
                                    return Err("lone high surrogate".to_string());
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err("lone high surrogate".to_string());
                                }
                                self.pos += 1;
                                let lo = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err("bad low surrogate".to_string());
                                }
                                let cp = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                                char::from_u32(cp).ok_or("bad surrogate pair")?
                            } else {
                                char::from_u32(hi).ok_or("bad \\u escape")?
                            };
                            out.push(c);
                        }
                        c => return Err(format!("bad escape '\\{}'", c as char)),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the input is &str, so
                    // boundaries are valid by construction).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid UTF-8".to_string())?;
                    let c = rest.chars().next().expect("peeked non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos.checked_add(4).filter(|&e| e <= self.bytes.len());
        let end = end.ok_or("truncated \\u escape")?;
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| "bad \\u escape".to_string())?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape".to_string())?;
        self.pos = end;
        Ok(v)
    }
}

/// Appends `s` as a JSON string literal (quotes included) to `out`.
pub fn push_str_literal(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------
// Record walks
// ---------------------------------------------------------------------

/// How a field's zero (`0`, `false`) is written, and what a read makes
/// of its key's absence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Zero {
    /// Always written; a read without the key is an error.
    Required,
    /// Always written; a read without the key gives zero.
    Written,
    /// Omitted when zero; a read without the key gives zero.
    Omitted,
}

/// How a [`Read`] words a bad field: the trace event and the cache
/// payload word theirs differently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Errors {
    /// `missing field "k"`, `field "k" must be a number`; a non-object
    /// where an object belongs is an error (the trace event).
    Precise,
    /// `missing or mistyped field 'k'`; a non-object where an object
    /// belongs reads as one without fields (the cache payload).
    Lumped,
}

impl Errors {
    /// The error for field `key`: absent when `want` is `None`, else not
    /// `want` ("a number", ...).
    fn bad(self, key: &str, want: Option<&str>) -> String {
        match (self, want) {
            (Errors::Lumped, _) => format!("missing or mistyped field '{key}'"),
            (Errors::Precise, None) => format!("missing field {key:?}"),
            (Errors::Precise, Some(want)) => format!("field {key:?} must be {want}"),
        }
    }
}

/// An enum with one wire name per variant, from one `wire_names!`
/// table.
pub trait WireName: Copy + 'static {
    /// What an unknown name is reported as: `unknown {WHAT} "…"`.
    const WHAT: &'static str;
    /// Every variant with its wire name; a variant with fields appears
    /// once, with empty fields.
    const NAMES: &'static [(Self, &'static str)];

    /// The variant's wire name.
    fn name(self) -> &'static str;

    /// The variant named `s` (with empty fields), if any.
    fn from_name(s: &str) -> Option<Self> {
        Self::NAMES.iter().find(|(_, n)| *n == s).map(|&(v, _)| v)
    }
}

/// Implements [`WireName`] for an enum from one list of
/// `Variant => "name"` pairs; a variant with fields lists their empty
/// values, `Variant { field: value, .. } => "name"`. `name` is one
/// exhaustive `match`, so a variant missing from the list fails to
/// compile.
macro_rules! wire_names {
    ($ty:ident, $what:literal,
     $($variant:ident $({ $($field:ident: $empty:expr),* })? => $name:literal),+ $(,)?) => {
        impl $crate::json::WireName for $ty {
            const WHAT: &'static str = $what;
            const NAMES: &'static [(Self, &'static str)] =
                &[$(($ty::$variant $({ $($field: $empty),* })?, $name)),+];

            fn name(self) -> &'static str {
                match self {
                    $($ty::$variant { .. } => $name),+
                }
            }
        }
    };
}
pub(crate) use wire_names;

/// What a walk step returns; only a read can fail.
pub type Step = Result<(), String>;

/// One side of a wire record's walk. Each record lists its fields once,
/// in one function generic over `Wire`: a `String` appends them as JSON
/// ([`emit`]) and a [`Read`] overwrites them from a parsed object
/// ([`read`]), so the two directions cannot drift apart.
pub trait Wire: Sized {
    /// True for [`Read`]: read-only checks run only then.
    const READ: bool;

    /// Emitting: starts field `key` and returns the buffer its value
    /// goes to. Reading: `None`.
    fn put(&mut self, key: &str) -> Option<&mut String>;

    /// Reading: the value under `key`. Emitting: `None`.
    fn get(&self, key: &str) -> Option<&Value>;

    /// How this walk words a bad field.
    fn errors(&self) -> Errors {
        Errors::Precise
    }

    /// Objects under `key`, one per filled slot, each walked by `walk`:
    /// one bare object, or an `array` whose elements a read names `what`
    /// in its errors. Omitted when no slot is filled; a read fills the
    /// slots in order.
    fn objects<T: Default>(
        &mut self,
        key: &str,
        what: &str,
        array: bool,
        slots: &mut [Option<T>],
        walk: impl FnMut(&mut Self, &mut T) -> Step,
    ) -> Step;

    /// An object present exactly when its key is.
    fn opt<T: Default>(
        &mut self,
        key: &str,
        v: &mut Option<T>,
        walk: impl FnMut(&mut Self, &mut T) -> Step,
    ) -> Step {
        self.objects(key, key, false, std::slice::from_mut(v), walk)
    }

    /// Walks `walk`, but a read error there is returned only once the
    /// rest of the record reads cleanly.
    fn late(&mut self, walk: impl FnOnce(&mut Self) -> Step) -> Step;

    /// A number, written and read as `zero` says.
    fn num(&mut self, key: &str, v: &mut u64, zero: Zero) -> Step {
        scalar(self, key, v, zero, "a number", Value::as_u64)
    }

    /// A flag, written and read as `zero` says.
    fn flag(&mut self, key: &str, v: &mut bool, zero: Zero) -> Step {
        scalar(self, key, v, zero, "a bool", Value::as_bool)
    }

    /// A number present exactly when its key is: its value may be 0.
    fn opt_num(&mut self, key: &str, v: &mut Option<u64>) -> Step {
        if Self::READ {
            *v = self.get(key).map(|_| 0);
        }
        v.as_mut().map_or(Ok(()), |x| self.num(key, x, Zero::Required))
    }

    /// An `f64` carried exactly, as its IEEE-754 bit pattern.
    fn bits(&mut self, key: &str, v: &mut f64) -> Step {
        let mut b = v.to_bits();
        self.num(key, &mut b, Zero::Required)?;
        *v = f64::from_bits(b);
        Ok(())
    }

    /// A register/value pair as two numbers, present exactly when the
    /// register's key is.
    fn pair(&mut self, rkey: &str, vkey: &str, v: &mut Option<(u8, u64)>) -> Step {
        let (mut r, mut x) = (v.map(|(r, _)| u64::from(r)), v.map_or(0, |(_, x)| x));
        self.opt_num(rkey, &mut r)?;
        *v = match r {
            Some(r) => Some((
                u8::try_from(r).map_err(|_| format!("field {rkey:?} out of register range"))?,
                self.num(vkey, &mut x, Zero::Required).map(|()| x)?,
            )),
            None => None,
        };
        Ok(())
    }

    /// A required enum, by its wire name.
    fn name<E: WireName>(&mut self, key: &str, v: &mut E) -> Step {
        if let Some(out) = self.put(key) {
            push_quoted(out, v.name());
        }
        if Self::READ {
            let s = self.get(key).ok_or_else(|| self.errors().bad(key, None))?;
            let s = s.as_str().ok_or_else(|| self.errors().bad(key, Some("a string")))?;
            *v = E::from_name(s).ok_or_else(|| format!("unknown {} {s:?}", E::WHAT))?;
        }
        Ok(())
    }

    /// An enum by its wire name, present exactly when its key is.
    fn opt_name<E: WireName>(&mut self, key: &str, v: &mut Option<E>) -> Step {
        if let Some(e) = *v {
            if let Some(out) = self.put(key) {
                push_quoted(out, e.name());
            }
        }
        if Self::READ {
            *v = match self.get(key) {
                Some(s) => {
                    let s = s.as_str().ok_or_else(|| format!("{key} must be a string"))?;
                    Some(E::from_name(s).ok_or_else(|| format!("unknown {key} kind {s:?}"))?)
                }
                None => None,
            };
        }
        Ok(())
    }

    /// A fixed-length array of integers, one per slot.
    fn array(&mut self, key: &str, slots: &mut [&mut u64]) -> Step {
        if let Some(out) = self.put(key) {
            out.push('[');
            for (i, x) in slots.iter().enumerate() {
                let _ = write!(out, "{}{x}", if i > 0 { "," } else { "" });
            }
            out.push(']');
        }
        if Self::READ {
            let (e, n) = (self.errors(), slots.len());
            let arr = self.get(key).ok_or_else(|| e.bad(key, None))?;
            let arr = arr.as_arr().ok_or_else(|| e.bad(key, Some("an array")))?;
            if arr.len() != n {
                return Err(format!("field '{key}' has {} entries, want {n}", arr.len()));
            }
            for (slot, x) in slots.iter_mut().zip(arr) {
                **slot = x.as_u64().ok_or_else(|| format!("non-integer entry in '{key}'"))?;
            }
        }
        Ok(())
    }

    /// Counters by their dotted names (`cycles`, `cond.executed`): a
    /// plain name is one number, and a run of names under one prefix is
    /// one array under the prefix (`"cond":[…]`).
    fn counters(&mut self, names: &[&str], slots: &mut [&mut u64]) -> Step {
        fn group(name: &str) -> Option<&str> {
            name.split_once('.').map(|(g, _)| g)
        }
        let mut i = 0;
        while let Some(&name) = names.get(i) {
            let Some(g) = group(name) else {
                self.num(name, slots[i], Zero::Required)?;
                i += 1;
                continue;
            };
            let end = i + names[i..].iter().take_while(|n| group(n) == Some(g)).count();
            self.array(g, &mut slots[i..end])?;
            i = end;
        }
        Ok(())
    }
}

/// A number or flag under `key`, written and read as `zero` says.
fn scalar<W: Wire, T: Copy + Default + PartialEq + std::fmt::Display>(
    w: &mut W,
    key: &str,
    v: &mut T,
    zero: Zero,
    want: &str,
    read: fn(&Value) -> Option<T>,
) -> Step {
    if zero != Zero::Omitted || *v != T::default() {
        if let Some(out) = w.put(key) {
            let _ = write!(out, "{v}");
        }
    }
    if W::READ {
        *v = match w.get(key) {
            Some(x) => read(x).ok_or_else(|| w.errors().bad(key, Some(want)))?,
            None if zero == Zero::Required => return Err(w.errors().bad(key, None)),
            None => T::default(),
        };
    }
    Ok(())
}

/// Appends `s`, which needs no escaping, in quotes.
fn push_quoted(out: &mut String, s: &str) {
    out.push('"');
    out.push_str(s);
    out.push('"');
}

/// The emitting walk: appends each field to the JSON object the buffer
/// ends in.
impl Wire for String {
    const READ: bool = false;

    fn put(&mut self, key: &str) -> Option<&mut String> {
        self.push_str(if self.ends_with('{') { "\"" } else { ",\"" });
        self.push_str(key);
        self.push_str("\":");
        Some(self)
    }

    fn get(&self, _: &str) -> Option<&Value> {
        None
    }

    fn objects<T: Default>(
        &mut self,
        key: &str,
        _: &str,
        array: bool,
        slots: &mut [Option<T>],
        mut walk: impl FnMut(&mut Self, &mut T) -> Step,
    ) -> Step {
        if slots.iter().all(Option::is_none) {
            return Ok(());
        }
        self.put(key);
        for (i, t) in slots.iter_mut().flatten().enumerate() {
            if array {
                self.push(if i > 0 { ',' } else { '[' });
            }
            emit(self, |w| walk(w, t));
        }
        if array {
            self.push(']');
        }
        Ok(())
    }

    fn late(&mut self, walk: impl FnOnce(&mut Self) -> Step) -> Step {
        walk(self)
    }
}

/// The reading walk: overwrites each field from a parsed object.
pub struct Read<'v> {
    obj: &'v Value,
    errors: Errors,
    late: Option<String>,
}

impl<'v> Read<'v> {
    /// Walks `walk` over `v`, the sub-object or element named `what`,
    /// and then returns to the current object.
    fn within(&mut self, v: &'v Value, what: &str, walk: impl FnOnce(&mut Self) -> Step) -> Step {
        if self.errors == Errors::Precise && !matches!(v, Value::Obj(_)) {
            return Err(format!("{what} must be an object"));
        }
        let outer = std::mem::replace(&mut self.obj, v);
        let r = walk(self);
        self.obj = outer;
        r
    }
}

impl Wire for Read<'_> {
    const READ: bool = true;

    fn put(&mut self, _: &str) -> Option<&mut String> {
        None
    }

    fn get(&self, key: &str) -> Option<&Value> {
        self.obj.get(key)
    }

    fn errors(&self) -> Errors {
        self.errors
    }

    fn objects<T: Default>(
        &mut self,
        key: &str,
        what: &str,
        array: bool,
        slots: &mut [Option<T>],
        mut walk: impl FnMut(&mut Self, &mut T) -> Step,
    ) -> Step {
        slots.fill_with(|| None);
        let Some(v) = self.obj.get(key) else { return Ok(()) };
        let items = if array {
            v.as_arr().ok_or_else(|| format!("{key} must be an array"))?
        } else {
            std::slice::from_ref(v)
        };
        for (i, v) in items.iter().enumerate() {
            let mut t = T::default();
            self.within(v, what, |w| walk(w, &mut t))?;
            if let Some(slot) = slots.get_mut(i) {
                *slot = Some(t);
            }
        }
        Ok(())
    }

    fn late(&mut self, walk: impl FnOnce(&mut Self) -> Step) -> Step {
        if let Err(e) = walk(self) {
            self.late.get_or_insert(e);
        }
        Ok(())
    }
}

/// Appends the record `walk` emits to `out`, as one JSON object.
///
/// # Panics
/// Panics if `walk` fails, which only a read check run while emitting
/// can do.
pub fn emit(out: &mut String, walk: impl FnOnce(&mut String) -> Step) {
    out.push('{');
    walk(out).expect("only a read can fail");
    out.push('}');
}

/// Parses `text` and reads one record from it through `walk`; `what`
/// names the document when [`Errors::Precise`] finds it is no object.
///
/// # Errors
/// The first syntax error, or the first bad field in `walk`'s order.
pub fn read(
    text: &str,
    what: &str,
    errors: Errors,
    walk: impl FnOnce(&mut Read<'_>) -> Step,
) -> Step {
    let v = parse(text)?;
    let mut r = Read { obj: &v, errors, late: None };
    r.within(&v, what, walk)?;
    r.late.map_or(Ok(()), Err)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse(" false ").unwrap(), Value::Bool(false));
        assert_eq!(parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(parse("-1.5e3").unwrap().as_f64(), Some(-1500.0));
    }

    #[test]
    fn u64_exactness_beyond_f64() {
        // 2^63 + 1 is not representable as f64; the literal must still
        // round-trip as u64.
        let v = parse("9223372036854775809").unwrap();
        assert_eq!(v.as_u64(), Some(9_223_372_036_854_775_809));
    }

    #[test]
    fn nested_and_lookup() {
        let v = parse(r#"{"a": [1, {"b": "x"}], "n": null}"#).unwrap();
        assert_eq!(v.get("n"), Some(&Value::Null));
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].get("b").unwrap().as_str(), Some("x"));
    }

    #[test]
    fn escapes_roundtrip() {
        let original = "line1\nline2\t\"quoted\" \\ \u{8} \u{1F600} ünïcode";
        let mut lit = String::new();
        push_str_literal(&mut lit, original);
        assert_eq!(parse(&lit).unwrap().as_str(), Some(original));
    }

    #[test]
    fn surrogate_pair_escape() {
        assert_eq!(parse(r#""😀""#).unwrap().as_str(), Some("\u{1F600}"));
        assert!(parse(r#""\ud83d""#).is_err(), "lone high surrogate must fail");
    }

    #[test]
    fn malformed_inputs_are_typed_errors() {
        for bad in
            ["", "{", "[1,", r#"{"a"}"#, "tru", "1 2", r#"{"a":1}x"#, "\"unterminated", "[1,]"]
        {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    /// A record with one field per [`Zero`] rule, a counter group and a
    /// late field.
    fn walk_rec<W: Wire>(w: &mut W, r: &mut [u64; 6]) -> Step {
        let [late, req, written, omitted, a, b] = r;
        w.late(|w| w.num("late", late, Zero::Required))?;
        w.num("req", req, Zero::Required)?;
        w.num("written", written, Zero::Written)?;
        w.num("omitted", omitted, Zero::Omitted)?;
        w.counters(&["g.a", "g.b"], &mut [a, b])
    }

    fn read_rec(text: &str, errors: Errors) -> Result<[u64; 6], String> {
        let mut r = [9; 6];
        read(text, "rec", errors, |w| walk_rec(w, &mut r)).map(|()| r)
    }

    #[test]
    fn walk_keeps_each_zero_rule_and_the_late_order() {
        let mut out = String::new();
        emit(&mut out, |w| walk_rec(w, &mut [1, 0, 0, 0, 2, 3]));
        assert_eq!(out, r#"{"late":1,"req":0,"written":0,"g":[2,3]}"#);
        assert_eq!(read_rec(&out, Errors::Precise), Ok([1, 0, 0, 0, 2, 3]));
        // Written and omitted zeros read as 0 when absent; required ones
        // are errors, the late one only after every other field.
        let text = r#"{"late":1,"req":4,"g":[2,3]}"#;
        assert_eq!(read_rec(text, Errors::Precise), Ok([1, 4, 0, 0, 2, 3]));
        let text = r#"{"written":"x","g":[2,3]}"#;
        assert_eq!(read_rec(text, Errors::Precise), Err(r#"missing field "req""#.into()));
        let text = r#"{"req":4,"written":"x","g":[2,3]}"#;
        let err = read_rec(text, Errors::Precise);
        assert_eq!(err, Err(r#"field "written" must be a number"#.into()));
        let text = r#"{"req":4,"g":[2,3]}"#;
        assert_eq!(read_rec(text, Errors::Precise), Err(r#"missing field "late""#.into()));
        assert_eq!(read_rec(text, Errors::Lumped), Err("missing or mistyped field 'late'".into()));
        let text = r#"{"late":1,"req":4,"g":[2]}"#;
        assert_eq!(read_rec(text, Errors::Lumped), Err("field 'g' has 1 entries, want 2".into()));
        assert_eq!(read_rec("[]", Errors::Precise), Err("rec must be an object".into()));
    }
}
