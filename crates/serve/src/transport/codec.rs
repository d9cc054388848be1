//! NDJSON framing: the one line codec and the one reply writer behind
//! every socket and pipe of both tiers.
//!
//! The codec does no I/O. Its caller reads into [`LineCodec::spare`],
//! commits the count with [`LineCodec::filled`], then takes lines from
//! [`LineCodec::next_line`] until it returns `None`. Blocking sockets,
//! pipes and the gateway's non-blocking sockets all drive it the same
//! way, and keep their own error handling and stopping rules.

use std::io::{self, ErrorKind, Read, Write};
use std::time::{Duration, Instant};

/// Bytes offered to each read.
const READ_CHUNK: usize = 16 * 1024;

/// Longest line a client may send, counted in bytes before its newline;
/// it bounds every read buffer a client fills. Shard replies on the
/// gateway's backend hop are not capped: a traced reply can be twice its
/// request (a 16-member ILS-H `schedule_many` at n = 1600 is a 4.2 MB
/// request and an 8.4 MB reply), and the shard is a handshaken peer.
pub const MAX_LINE_BYTES: usize = 8 * 1024 * 1024;

/// How long a session cut off by an over-long line goes on reading, and
/// discarding, its peer's input after the `error` reply. Closing a socket
/// with input unread resets the connection, so a client still writing
/// the line would fail its write and never read the `error`; the linger
/// lets it finish, and a peer that keeps sending is reset after it.
pub const OVERLONG_LINGER: Duration = Duration::from_secs(2);

/// How long a reply write may make no progress before the peer is given
/// up on and its connection dropped. A reader that is merely slow
/// (descheduled, paging, paused) drains its socket well within it; a
/// peer that stopped reading frees the thread writing to it, and the
/// shutdown drain, after it.
pub const WRITE_STALL: Duration = Duration::from_secs(5);

/// Retry interval while a non-blocking socket's send buffer is full.
const WRITE_RETRY: Duration = Duration::from_millis(2);

/// One framed line.
#[derive(Debug, PartialEq, Eq)]
pub enum Line<'a> {
    /// A line, trimmed; never blank.
    Text(&'a str),
    /// A line whose bytes are not valid UTF-8.
    InvalidUtf8,
    /// More bytes than the codec's cap without a newline. The stream
    /// cannot be framed past it: answer, then end the session.
    OverLong,
}

/// Splits a byte stream into NDJSON lines.
#[derive(Debug)]
pub struct LineCodec {
    /// `buf[start..end]` is unconsumed input; `buf[end..]` is read space.
    buf: Vec<u8>,
    start: usize,
    /// The newline search resumes here: `buf[start..scanned]` has none.
    scanned: usize,
    end: usize,
    /// Longest line accepted, in bytes before its newline.
    max_line: usize,
}

impl LineCodec {
    /// A codec whose lines may hold up to `max_line` bytes: the client
    /// side passes [`MAX_LINE_BYTES`], a reader of shard replies
    /// `usize::MAX`.
    pub fn new(max_line: usize) -> LineCodec {
        LineCodec {
            buf: Vec::new(),
            start: 0,
            scanned: 0,
            end: 0,
            max_line,
        }
    }

    /// Space for the next read. Consumed bytes are compacted away here,
    /// once per read rather than once per line.
    pub fn spare(&mut self) -> &mut [u8] {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.scanned -= self.start;
            self.end -= self.start;
            self.start = 0;
        }
        if self.buf.len() < self.end + READ_CHUNK {
            self.buf.resize(self.end + READ_CHUNK, 0);
        }
        &mut self.buf[self.end..]
    }

    /// Commit the `n` bytes a read placed at the front of
    /// [`spare`](Self::spare).
    pub fn filled(&mut self, n: usize) {
        assert!(self.end + n <= self.buf.len(), "read past the spare space");
        self.end += n;
    }

    /// End of input: a final line that lacks its newline becomes a line.
    pub fn finish(&mut self) {
        self.spare()[0] = b'\n';
        self.filled(1);
    }

    /// The next line, or `None` until more bytes arrive. Blank lines are
    /// skipped; an over-long line is reported on every call after it.
    pub fn next_line(&mut self) -> Option<Line<'_>> {
        loop {
            let Some(i) = self.buf[self.scanned..self.end]
                .iter()
                .position(|&b| b == b'\n')
            else {
                self.scanned = self.end;
                return (self.end - self.start > self.max_line).then_some(Line::OverLong);
            };
            let (from, to) = (self.start, self.scanned + i);
            if to - from > self.max_line {
                return Some(Line::OverLong);
            }
            self.start = to + 1;
            self.scanned = self.start;
            match std::str::from_utf8(&self.buf[from..to]).map(str::trim) {
                Ok("") => {}
                Ok(text) => return Some(Line::Text(text)),
                Err(_) => return Some(Line::InvalidUtf8),
            }
        }
    }
}

/// Write `reply` and its newline in one write call (one packet under
/// `TCP_NODELAY`), assembled in the caller's reusable `scratch`. Fails
/// with `WriteZero` once the peer has taken no byte for `stall`.
///
/// A non-blocking socket's full buffer is retried every 2 ms. Give a
/// blocking socket a write timeout well below `stall`, or a stalled
/// write waits in the kernel instead of here.
pub fn write_line(
    w: &mut impl Write,
    scratch: &mut Vec<u8>,
    reply: &[u8],
    stall: Duration,
) -> io::Result<()> {
    scratch.clear();
    scratch.extend_from_slice(reply);
    scratch.push(b'\n');
    let (mut rest, mut progress_at) = (&scratch[..], Instant::now());
    while !rest.is_empty() {
        match w.write(rest) {
            Ok(n) if n > 0 => (rest, progress_at) = (&rest[n..], Instant::now()),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return Err(e)
            }
            _ if progress_at.elapsed() < stall => std::thread::sleep(WRITE_RETRY),
            _ => return Err(io::Error::new(ErrorKind::WriteZero, "peer stopped reading")),
        }
    }
    w.flush()
}

/// Read and drop what `input` has ready. True while it would block or
/// timed out, so the caller may call again; false once it ends or fails,
/// or `until` passes.
pub fn discard_input(mut input: impl Read, until: Instant) -> bool {
    let mut sink = [0u8; READ_CHUNK];
    while Instant::now() < until {
        match input.read(&mut sink) {
            Ok(0) => return false,
            Ok(_) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return true
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every line the codec yields for `chunks` read in order (a chunk
    /// larger than one read arrives over several).
    fn frame(chunks: &[&[u8]]) -> Vec<String> {
        let mut codec = LineCodec::new(MAX_LINE_BYTES);
        let mut out = Vec::new();
        for read in chunks.iter().flat_map(|c| c.chunks(READ_CHUNK)) {
            codec.spare()[..read.len()].copy_from_slice(read);
            codec.filled(read.len());
            while let Some(line) = codec.next_line() {
                out.push(match line {
                    Line::Text(text) => text.to_string(),
                    other => format!("{other:?}"),
                });
                if out.last().is_some_and(|l| l == "OverLong") {
                    return out; // as every caller does: the session ends
                }
            }
        }
        out
    }

    #[test]
    fn a_line_split_at_every_byte_boundary_comes_out_once() {
        let wire = b"{\"op\":\"hello\",\"pad\":\"\xc3\xa9\"}\n";
        let want = vec![String::from_utf8(wire[..wire.len() - 1].to_vec()).unwrap()];
        for cut in 0..=wire.len() {
            assert_eq!(frame(&[&wire[..cut], &wire[cut..]]), want, "cut at {cut}");
        }
        let bytes: Vec<&[u8]> = wire.chunks(1).collect();
        assert_eq!(frame(&bytes), want, "one byte per read");
    }

    #[test]
    fn many_lines_in_one_read_come_out_in_order() {
        let wire: String = (0..100).map(|i| format!("{{\"n\":{i}}}\n")).collect();
        let lines = frame(&[wire.as_bytes()]);
        assert_eq!(lines.len(), 100);
        assert!(lines
            .iter()
            .enumerate()
            .all(|(i, l)| *l == format!("{{\"n\":{i}}}")));
    }

    #[test]
    fn blank_and_crlf_lines_are_trimmed_and_skipped() {
        let lines = frame(&[b"\n  \r\n{\"a\":1}\r\n\t\n  {\"b\":2}  \n\r\n"]);
        assert_eq!(lines, ["{\"a\":1}", "{\"b\":2}"]);
    }

    #[test]
    fn invalid_utf8_is_reported_in_order() {
        let lines = frame(&[b"{\"a\":1}\n{\"x\":\"\xff\"}\n{\"b\":2}\n"]);
        assert_eq!(lines, ["{\"a\":1}", "InvalidUtf8", "{\"b\":2}"]);
    }

    #[test]
    fn the_line_cap_is_exact() {
        // exactly MAX_LINE_BYTES before the newline passes...
        let mut line = vec![b' '; MAX_LINE_BYTES];
        line[0] = b'x';
        line.push(b'\n');
        assert_eq!(frame(&[&line]), ["x"]);
        // ...one byte more is over-long, with or without its newline
        line.insert(0, b'y');
        assert_eq!(frame(&[&line]), ["OverLong"]);
        assert_eq!(frame(&[&line[..MAX_LINE_BYTES + 1]]), ["OverLong"]);
        assert!(
            frame(&[&line[..MAX_LINE_BYTES]]).is_empty(),
            "still waiting"
        );
    }

    #[test]
    fn the_cap_is_the_codecs_own() {
        let mut codec = LineCodec::new(usize::MAX);
        let mut line = vec![b'x'; MAX_LINE_BYTES + 1];
        line.push(b'\n');
        for read in line.chunks(READ_CHUNK) {
            codec.spare()[..read.len()].copy_from_slice(read);
            codec.filled(read.len());
        }
        let framed = codec.next_line();
        assert!(
            matches!(framed, Some(Line::Text(text)) if text.len() == MAX_LINE_BYTES + 1),
            "an uncapped codec frames a line past MAX_LINE_BYTES"
        );
    }

    #[test]
    fn finish_frames_an_unterminated_final_line() {
        let mut codec = LineCodec::new(MAX_LINE_BYTES);
        codec.spare()[..7].copy_from_slice(b"{\"a\":1}");
        codec.filled(7);
        assert_eq!(codec.next_line(), None);
        codec.finish();
        assert_eq!(codec.next_line(), Some(Line::Text("{\"a\":1}")));
        codec.finish();
        assert_eq!(codec.next_line(), None, "nothing left to finish");
    }

    /// Accepts `room` bytes, then reports a full buffer forever.
    struct Stalls {
        room: usize,
        got: Vec<u8>,
    }

    impl Write for Stalls {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = buf.len().min(self.room);
            if n == 0 {
                return Err(ErrorKind::WouldBlock.into());
            }
            self.room -= n;
            self.got.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn writer_appends_the_newline_and_gives_up_on_a_stall() {
        let mut scratch = Vec::new();
        let mut w = Stalls {
            room: 1 << 20,
            got: Vec::new(),
        };
        write_line(&mut w, &mut scratch, b"{\"a\":1}", WRITE_STALL).unwrap();
        assert_eq!(w.got, b"{\"a\":1}\n");

        let mut w = Stalls {
            room: 3,
            got: Vec::new(),
        };
        let stall = Duration::from_millis(30);
        let started = Instant::now();
        let err = write_line(&mut w, &mut scratch, b"{\"a\":1}", stall).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::WriteZero);
        assert!(started.elapsed() >= stall);
        assert_eq!(w.got, b"{\"a");
    }
}
