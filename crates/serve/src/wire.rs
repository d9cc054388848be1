//! Wire-level request scanner: the front half of the gateway's raw-byte
//! hot-line cache.
//!
//! Fleet traffic is dominated by *repeats* — the same DAG/system/algorithm
//! line arriving again (retries, fan-out duplicates, periodic
//! re-planning). A shard's reply memo collapses the scheduling work for
//! those, but every repeat still pays a full `serde_json` parse,
//! DAG/system construction, a fingerprint fold and a hop to the shard
//! before it can even ask the memo. This module lets the gateway skip
//! that: a shallow byte scanner walks the incoming NDJSON line **without
//! building any values**, masks out the fields that may differ between
//! repeats without changing the reply bytes (the *volatile* fields), and
//! hashes the rest into a 64-bit **wire digest**. The gateway maps
//! digests to preserialized reply lines, so a repeat answers with one
//! hash-map probe and one `write`. Shards do not scan: a repeat sent to a
//! shard directly is a memo hit.
//!
//! ## Safety over coverage
//!
//! A wrong fast-path reply is a correctness bug; a missed fast path is a
//! few microseconds. The scanner therefore **refuses** (returns `None`,
//! falling back to the full parse) on anything it cannot vouch for
//! byte-for-byte:
//!
//! * lines that are not a single compact `{...}` object — any whitespace
//!   outside string literals disqualifies the line (two spellings of one
//!   request digest differently and simply both miss; correctness never
//!   depends on canonicalization);
//! * any `\` escape inside any string — escape-aware key comparison is
//!   where shallow scanners historically go wrong, so we don't do it;
//! * a `deadline_ms` or `jobs` key anywhere **except** directly inside
//!   the top-level `"options"` member — those are the only positions the
//!   protocol treats as volatile; the same spelling nested inside a DAG
//!   payload must stay part of the digest (it would change the parse);
//! * a `trace_ctx` or `trace_id` key anywhere — traced requests take the
//!   slow path by design (they journal spans and attach timing);
//! * an `op` that is not one of the four scheduling operations, nesting
//!   deeper than `MAX_DEPTH`, duplicate volatile keys, a top-level
//!   `options` that is repeated or not an object, or a `deadline_ms`
//!   value that is not a plain integer.
//!
//! ## Volatile-field exclusion
//!
//! `options.deadline_ms` and `options.jobs` never change reply bytes:
//! the memo key excludes them (deadlines only shed, jobs only pick a
//! thread count for a bit-identical computation). Their byte ranges —
//! each widened to absorb one adjacent comma so the remainder stays
//! syntactically coherent — are cut from the digest, which is an FNV-1a
//! fold over every byte outside the excluded ranges. `deadline_ms`'s
//! *value* is additionally parsed out of the raw bytes, because the
//! gateway still enforces deadlines on wire hits (it sheds expired
//! requests before answering). Its byte range and the offset
//! inside the `options` object are reported too: the gateway forwards a
//! scanned line as the client's own bytes with only the deadline
//! rewritten, instead of re-serializing the parsed request.

/// Maximum nesting depth the scanner will walk before giving up. Real
/// requests nest a handful of levels; anything deeper is hostile or
/// broken and belongs on the slow path.
const MAX_DEPTH: usize = 32;

/// The scheduling operations eligible for the wire fast path. Control
/// operations (`stats`, `shutdown`, ...) are cheap to parse and must
/// never be cached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireOp {
    /// `{"op":"schedule", ...}`
    Schedule,
    /// `{"op":"portfolio", ...}`
    Portfolio,
    /// `{"op":"schedule_many", ...}`
    ScheduleMany,
    /// `{"op":"patch", ...}`
    Patch,
}

impl WireOp {
    fn from_bytes(b: &[u8]) -> Option<WireOp> {
        match b {
            b"schedule" => Some(WireOp::Schedule),
            b"portfolio" => Some(WireOp::Portfolio),
            b"schedule_many" => Some(WireOp::ScheduleMany),
            b"patch" => Some(WireOp::Patch),
            _ => None,
        }
    }

    /// The protocol spelling, for metrics labels.
    pub fn as_str(&self) -> &'static str {
        match self {
            WireOp::Schedule => "schedule",
            WireOp::Portfolio => "portfolio",
            WireOp::ScheduleMany => "schedule_many",
            WireOp::Patch => "patch",
        }
    }
}

/// A successfully scanned request line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireScan {
    /// FNV-1a 64 digest over the line with volatile ranges excluded.
    pub digest: u64,
    /// Which scheduling operation the line carries.
    pub op: WireOp,
    /// The raw `options.deadline_ms` value, when present.
    pub deadline_ms: Option<u64>,
    /// Byte range of the `options.deadline_ms` value, when present.
    pub deadline_range: Option<(usize, usize)>,
    /// Offset just inside the top-level `options` object's `{`, when the
    /// line has one. Together with [`WireScan::deadline_range`] this is
    /// what a forwarder needs to rewrite the deadline in the client's own
    /// bytes.
    pub options_body: Option<usize>,
}

/// Scanner state threaded through the recursive descent.
struct Scanner<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Byte ranges excluded from the digest (volatile members).
    excluded: Vec<(usize, usize)>,
    op: Option<WireOp>,
    deadline_ms: Option<u64>,
    deadline_range: Option<(usize, usize)>,
    options_body: Option<usize>,
}

/// Scan one trimmed request line. Returns `None` whenever the line is
/// not eligible for the wire fast path — the caller falls back to the
/// full parse, never to an error.
pub fn scan(line: &[u8]) -> Option<WireScan> {
    if line.first() != Some(&b'{') {
        return None;
    }
    let mut s = Scanner {
        bytes: line,
        pos: 0,
        excluded: Vec::new(),
        op: None,
        deadline_ms: None,
        deadline_range: None,
        options_body: None,
    };
    s.value(0, false)?;
    if s.pos != line.len() {
        return None; // trailing bytes after the closing brace
    }
    let op = s.op?;
    let digest = digest_excluding(line, &mut s.excluded);
    Some(WireScan {
        digest,
        op,
        deadline_ms: s.deadline_ms,
        deadline_range: s.deadline_range,
        options_body: s.options_body,
    })
}

/// Whether a reply line may enter the wire cache: it must be exactly the
/// shape every future repeat of the same digest will get from the slow
/// path. That means a memo-hit reply: status `ok`, no `cached: false`
/// anywhere (single bodies and batch entries all served from the memo),
/// and for batches a `computed` count of zero. First computations fail
/// this (their `cached: false` flips to `true` on the next repeat), so
/// the cache warms on the *second* repeat — when the reply shape has
/// reached its fixed point.
pub fn reply_stable(bytes: &[u8]) -> bool {
    fn contains(hay: &[u8], needle: &[u8]) -> bool {
        hay.windows(needle.len()).any(|w| w == needle)
    }
    bytes.starts_with(b"{\"status\":\"ok\"")
        && !contains(bytes, b"\"cached\":false")
        && (!contains(bytes, b"\"computed\":") || contains(bytes, b"\"computed\":0"))
}

/// FNV-1a 64 over `bytes` with the (merged) `ranges` cut out.
fn digest_excluding(bytes: &[u8], ranges: &mut [(usize, usize)]) -> u64 {
    ranges.sort_unstable();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut pos = 0;
    let mut fold = |b: &[u8]| {
        for &x in b {
            h ^= u64::from(x);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for &(lo, hi) in ranges.iter() {
        if lo > pos {
            fold(&bytes[pos..lo]);
        }
        pos = pos.max(hi);
    }
    fold(&bytes[pos..]);
    h
}

impl Scanner<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// Consume one string literal (opening quote at `self.pos`), returning
    /// the content range. `None` on escapes or an unterminated string.
    fn string(&mut self) -> Option<(usize, usize)> {
        debug_assert_eq!(self.peek(), Some(b'"'));
        self.pos += 1;
        let start = self.pos;
        loop {
            match self.peek()? {
                b'"' => {
                    let end = self.pos;
                    self.pos += 1;
                    return Some((start, end));
                }
                b'\\' => return None, // escapes: slow path
                _ => self.pos += 1,
            }
        }
    }

    /// Consume one non-string, non-container scalar (number / bool /
    /// null): bytes up to the next `,`, `}`, or `]`. Whitespace inside
    /// disqualifies the line like everywhere else.
    fn scalar(&mut self) -> Option<(usize, usize)> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            match b {
                b',' | b'}' | b']' => break,
                b' ' | b'\t' | b'\r' | b'\n' => return None,
                _ => self.pos += 1,
            }
        }
        (self.pos > start).then_some((start, self.pos))
    }

    /// Consume one JSON value. `in_options` is true exactly when this
    /// value is a direct member of the top-level `"options"` object —
    /// the only scope where volatile keys are legal.
    fn value(&mut self, depth: usize, in_options: bool) -> Option<()> {
        if depth > MAX_DEPTH {
            return None;
        }
        match self.peek()? {
            b'{' => self.object(depth, in_options),
            b'[' => self.array(depth),
            b'"' => self.string().map(|_| ()),
            b' ' | b'\t' | b'\r' | b'\n' => None,
            _ => self.scalar().map(|_| ()),
        }
    }

    fn array(&mut self, depth: usize) -> Option<()> {
        self.pos += 1; // '['
        if self.peek()? == b']' {
            self.pos += 1;
            return Some(());
        }
        loop {
            self.value(depth + 1, false)?;
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Some(());
                }
                _ => return None,
            }
        }
    }

    fn object(&mut self, depth: usize, in_options: bool) -> Option<()> {
        self.pos += 1; // '{'
        if self.peek()? == b'}' {
            self.pos += 1;
            return Some(());
        }
        loop {
            // `member_start` points at the key's opening quote; the comma
            // *before* it (if any) was consumed on the previous round and
            // recorded in `prev_comma` for exclusion widening.
            let member_start = self.pos;
            if self.peek()? != b'"' {
                return None;
            }
            let (klo, khi) = self.string()?;
            let key = &self.bytes[klo..khi];
            // Trace keys poison the line anywhere: traced requests take
            // the slow path, and `trace_id` inside payloads is rare
            // enough that refusing costs nothing.
            if key == b"trace_ctx" || key == b"trace_id" {
                return None;
            }
            let volatile = key == b"deadline_ms" || key == b"jobs";
            if volatile && !in_options {
                // The same spelling outside `options` is payload data —
                // excluding it would merge lines that parse differently.
                return None;
            }
            if self.peek()? != b':' {
                return None;
            }
            self.pos += 1;
            let top_level = depth == 0;
            let entering_options = top_level && key == b"options";
            if volatile {
                if key == b"deadline_ms" {
                    if self.deadline_ms.is_some() {
                        return None; // duplicate key: refuse
                    }
                    let (vlo, vhi) = match self.peek()? {
                        b'{' | b'[' | b'"' => return None, // not an integer
                        _ => self.scalar()?,
                    };
                    let mut v: u64 = 0;
                    for &d in &self.bytes[vlo..vhi] {
                        if !d.is_ascii_digit() {
                            return None; // null / float / negative: refuse
                        }
                        v = v.checked_mul(10)?.checked_add(u64::from(d - b'0'))?;
                    }
                    self.deadline_ms = Some(v);
                    self.deadline_range = Some((vlo, vhi));
                } else {
                    self.value(depth + 1, false)?;
                }
            } else if top_level && key == b"op" {
                if self.op.is_some() || self.peek()? != b'"' {
                    return None;
                }
                let (vlo, vhi) = self.string()?;
                self.op = Some(WireOp::from_bytes(&self.bytes[vlo..vhi])?);
            } else {
                if entering_options {
                    // One `options` object: a forwarder splices the
                    // deadline into it, which a second `options` or a
                    // non-object value would make ambiguous.
                    if self.options_body.is_some() || self.peek()? != b'{' {
                        return None;
                    }
                    self.options_body = Some(self.pos + 1);
                }
                self.value(depth + 1, entering_options)?;
            }
            let member_end = self.pos;
            match self.peek()? {
                b',' => {
                    self.pos += 1;
                    if volatile {
                        // absorb the *following* comma: `a,VOLATILE,b`
                        // digests as `a,b`
                        self.excluded.push((member_start, self.pos));
                    }
                }
                b'}' => {
                    self.pos += 1;
                    if volatile {
                        // last member: absorb the *preceding* comma
                        let lo = member_start
                            - usize::from(
                                self.bytes.get(member_start.wrapping_sub(1)) == Some(&b','),
                            );
                        self.excluded.push((lo, member_end));
                    }
                    return Some(());
                }
                _ => return None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(line: &str) -> WireScan {
        scan(line.as_bytes()).expect("line should scan")
    }

    #[test]
    fn compact_schedule_line_scans_with_op_and_deadline() {
        let s = ok(
            r#"{"op":"schedule","dag":{"weights":[1.0]},"algorithm":"HEFT","options":{"deadline_ms":250,"jobs":4}}"#,
        );
        assert_eq!(s.op, WireOp::Schedule);
        assert_eq!(s.deadline_ms, Some(250));
    }

    #[test]
    fn volatile_fields_do_not_change_the_digest() {
        let base =
            ok(r#"{"op":"schedule","dag":{"w":[1.0]},"options":{"deadline_ms":250,"jobs":4}}"#);
        for variant in [
            r#"{"op":"schedule","dag":{"w":[1.0]},"options":{"deadline_ms":9999,"jobs":1}}"#,
            r#"{"op":"schedule","dag":{"w":[1.0]},"options":{"jobs":2,"deadline_ms":9999}}"#,
            r#"{"op":"schedule","dag":{"w":[1.0]},"options":{"jobs":8}}"#,
            r#"{"op":"schedule","dag":{"w":[1.0]},"options":{"deadline_ms":1}}"#,
            r#"{"op":"schedule","dag":{"w":[1.0]},"options":{}}"#,
        ] {
            assert_eq!(ok(variant).digest, base.digest, "line: {variant}");
        }
    }

    #[test]
    fn payload_differences_change_the_digest() {
        let a = ok(r#"{"op":"schedule","dag":{"w":[1.0]},"options":{}}"#);
        let b = ok(r#"{"op":"schedule","dag":{"w":[2.0]},"options":{}}"#);
        let c = ok(r#"{"op":"schedule","dag":{"w":[1.0]},"options":{"simulate":true}}"#);
        assert_ne!(a.digest, b.digest);
        assert_ne!(a.digest, c.digest);
    }

    #[test]
    fn whitespace_and_escapes_fall_back() {
        assert!(
            scan(br#"{"op": "schedule"}"#).is_none(),
            "space after colon"
        );
        assert!(
            scan(b"{\"op\":\"schedule\",\n\"x\":1}").is_none(),
            "newline"
        );
        assert!(
            scan(br#"{"op":"schedule","s":"a\"b"}"#).is_none(),
            "escape in string"
        );
        // whitespace *inside* strings is fine
        assert!(scan(br#"{"op":"schedule","s":"a b"}"#).is_some());
    }

    #[test]
    fn non_scheduling_and_malformed_lines_fall_back() {
        assert!(scan(br#"{"op":"stats"}"#).is_none(), "control op");
        assert!(scan(br#"{"op":"shutdown"}"#).is_none());
        assert!(scan(br#"{"dag":{}}"#).is_none(), "no op");
        assert!(scan(br#"[1,2,3]"#).is_none(), "not an object");
        assert!(scan(br#"{"op":"schedule""#).is_none(), "truncated");
        assert!(scan(br#"{"op":"schedule"}x"#).is_none(), "trailing bytes");
        assert!(
            scan(br#"{"op":"schedule","op":"patch"}"#).is_none(),
            "dup op"
        );
        assert!(scan(b"").is_none());
    }

    #[test]
    fn volatile_keys_outside_options_fall_back() {
        assert!(scan(br#"{"op":"schedule","deadline_ms":5}"#).is_none());
        assert!(scan(br#"{"op":"schedule","dag":{"jobs":3},"options":{}}"#).is_none());
        // nested one level deeper inside options is payload too
        assert!(
            scan(br#"{"op":"schedule","options":{"x":{"deadline_ms":5}}}"#).is_none(),
            "deadline_ms below options.x is not the volatile position"
        );
    }

    #[test]
    fn trace_keys_anywhere_fall_back() {
        assert!(scan(br#"{"op":"schedule","options":{"trace_ctx":{"trace_id":"t"}}}"#).is_none());
        assert!(scan(br#"{"op":"schedule","dag":{"trace_id":"x"}}"#).is_none());
    }

    #[test]
    fn bad_deadline_values_fall_back() {
        assert!(scan(br#"{"op":"schedule","options":{"deadline_ms":null}}"#).is_none());
        assert!(scan(br#"{"op":"schedule","options":{"deadline_ms":-1}}"#).is_none());
        assert!(scan(br#"{"op":"schedule","options":{"deadline_ms":1.5}}"#).is_none());
        assert!(scan(br#"{"op":"schedule","options":{"deadline_ms":"5"}}"#).is_none());
        assert!(
            scan(br#"{"op":"schedule","options":{"deadline_ms":1,"deadline_ms":2}}"#).is_none(),
            "duplicate deadline"
        );
    }

    #[test]
    fn deep_nesting_falls_back() {
        let mut line = String::from(r#"{"op":"schedule","x":"#);
        for _ in 0..40 {
            line.push_str(r#"{"y":"#);
        }
        line.push('1');
        for _ in 0..40 {
            line.push('}');
        }
        line.push('}');
        assert!(scan(line.as_bytes()).is_none());
    }

    #[test]
    fn deadline_and_options_positions_are_reported() {
        let line = r#"{"op":"schedule","dag":{"w":[1.0]},"options":{"jobs":2,"deadline_ms":250}}"#;
        let s = ok(line);
        let (lo, hi) = s.deadline_range.expect("deadline present");
        assert_eq!(&line[lo..hi], "250");
        let body = s.options_body.expect("options present");
        assert_eq!(&line[body - 1..body + 6], r#"{"jobs""#);
        let empty = r#"{"op":"patch","options":{}}"#;
        let s = ok(empty);
        assert_eq!(s.deadline_range, None);
        assert_eq!(&empty[s.options_body.unwrap()..], "}}");
        let absent = ok(r#"{"op":"patch","x":{"options":1}}"#);
        assert_eq!((absent.deadline_range, absent.options_body), (None, None));
    }

    #[test]
    fn ambiguous_options_fall_back() {
        assert!(scan(br#"{"op":"schedule","options":null}"#).is_none());
        assert!(scan(br#"{"op":"schedule","options":[]}"#).is_none());
        assert!(scan(br#"{"op":"schedule","options":{},"options":{}}"#).is_none());
    }

    #[test]
    fn all_four_scheduling_ops_are_eligible() {
        for (op, want) in [
            ("schedule", WireOp::Schedule),
            ("portfolio", WireOp::Portfolio),
            ("schedule_many", WireOp::ScheduleMany),
            ("patch", WireOp::Patch),
        ] {
            let line = format!(r#"{{"op":"{op}","x":1}}"#);
            assert_eq!(ok(&line).op, want);
            assert_eq!(want.as_str(), op);
        }
    }

    #[test]
    fn exclusion_absorbs_exactly_one_comma_each_side() {
        // volatile in the middle, at the end, and the only member
        let mid = ok(r#"{"op":"patch","options":{"jobs":1,"simulate":true}}"#);
        let mid2 = ok(r#"{"op":"patch","options":{"simulate":true}}"#);
        assert_eq!(mid.digest, mid2.digest);
        let tail = ok(r#"{"op":"patch","options":{"simulate":true,"jobs":1}}"#);
        assert_eq!(tail.digest, mid2.digest);
        let only = ok(r#"{"op":"patch","options":{"jobs":1}}"#);
        let empty = ok(r#"{"op":"patch","options":{}}"#);
        assert_eq!(only.digest, empty.digest);
    }
}
