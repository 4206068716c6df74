//! A small, dependency-free CSV reader/writer.
//!
//! The paper's datasets are distributed as delimited text; downstream users
//! will want to load their own clustered (or raw) data the same way. The
//! sanctioned dependency list has no CSV crate, so this module implements the
//! subset of RFC 4180 the dataset formats need: comma separation, `"`-quoted
//! fields, doubled quotes as escapes, and quoted fields that span newlines.
//! Both `\n` and `\r\n` record terminators are accepted.
//!
//! The workhorse is the **incremental** [`CsvReader`]: it pulls bytes from any
//! [`std::io::Read`] in fixed-size chunks and yields one record at a time, so
//! inputs larger than RAM never have to be materialized. [`parse`] and
//! [`write()`] are thin whole-document adapters over [`CsvReader`] and
//! [`CsvWriter`] for callers that already hold the text in memory.

use std::fmt;
use std::io::{Read, Write};

/// How many bytes [`CsvReader`] requests from the underlying reader at a
/// time. Together with the length of the current record this bounds the
/// reader's buffered lookahead, independent of the input size.
const READ_CHUNK: usize = 8 * 1024;

/// An error produced while parsing CSV text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsvError {
    /// 1-based line number where the error was detected.
    pub line: usize,
    /// What went wrong.
    pub kind: CsvErrorKind,
}

/// The kinds of CSV parse errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsvErrorKind {
    /// A quoted field was still open when the input ended.
    UnterminatedQuote,
    /// A closing quote was followed by something other than a separator,
    /// record end, or another quote.
    InvalidQuoteEscape,
    /// A record had a different number of fields than the header/first record.
    FieldCountMismatch {
        /// Number of fields expected (from the first record).
        expected: usize,
        /// Number of fields found.
        found: usize,
    },
    /// A field was not valid UTF-8 (only possible when reading raw bytes).
    InvalidUtf8,
    /// The underlying reader failed.
    Io(String),
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            CsvErrorKind::UnterminatedQuote => {
                write!(f, "line {}: unterminated quoted field", self.line)
            }
            CsvErrorKind::InvalidQuoteEscape => {
                write!(
                    f,
                    "line {}: invalid character after closing quote",
                    self.line
                )
            }
            CsvErrorKind::FieldCountMismatch { expected, found } => write!(
                f,
                "line {}: expected {} fields, found {}",
                self.line, expected, found
            ),
            CsvErrorKind::InvalidUtf8 => {
                write!(f, "line {}: field is not valid UTF-8", self.line)
            }
            CsvErrorKind::Io(msg) => write!(f, "line {}: read failed: {msg}", self.line),
        }
    }
}

impl std::error::Error for CsvError {}

/// An incremental RFC-4180 reader over any [`Read`].
///
/// Records are yielded one at a time via [`Iterator`]; the reader holds at
/// most one refill chunk (`READ_CHUNK` bytes) plus the bytes of the record
/// currently being assembled, so peak memory is independent of the input
/// length. Empty input yields no records; a trailing newline does not produce
/// a trailing empty record; completely empty lines between records are
/// skipped. Every record must have the same number of fields as the first
/// one. After the first error the iterator is fused and yields nothing more.
pub struct CsvReader<R: Read> {
    input: R,
    buf: Vec<u8>,
    pos: usize,
    len: usize,
    eof: bool,
    /// 1-based line number of the byte about to be consumed.
    line: usize,
    /// Field count locked in by the first record.
    expected: Option<usize>,
    /// Set after EOF or an error; the iterator then stays exhausted.
    finished: bool,
}

impl<R: Read> CsvReader<R> {
    /// Creates a reader over `input`.
    pub fn new(input: R) -> Self {
        CsvReader {
            input,
            buf: vec![0u8; READ_CHUNK],
            pos: 0,
            len: 0,
            eof: false,
            line: 1,
            expected: None,
            finished: false,
        }
    }

    /// The next byte of the input, refilling the chunk buffer as needed.
    fn next_byte(&mut self) -> Result<Option<u8>, CsvError> {
        if self.pos == self.len {
            if self.eof {
                return Ok(None);
            }
            loop {
                match self.input.read(&mut self.buf) {
                    Ok(0) => {
                        self.eof = true;
                        return Ok(None);
                    }
                    Ok(n) => {
                        self.pos = 0;
                        self.len = n;
                        break;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(e) => {
                        return Err(CsvError {
                            line: self.line,
                            kind: CsvErrorKind::Io(e.to_string()),
                        })
                    }
                }
            }
        }
        let b = self.buf[self.pos];
        self.pos += 1;
        Ok(Some(b))
    }

    /// Converts the accumulated field bytes into a `String`.
    fn take_field(&self, bytes: &mut Vec<u8>) -> Result<String, CsvError> {
        String::from_utf8(std::mem::take(bytes)).map_err(|_| CsvError {
            line: self.line,
            kind: CsvErrorKind::InvalidUtf8,
        })
    }

    /// Validates a completed record's field count against the first record's.
    /// Returns `None` for a blank line (a record of one empty field).
    fn finish_record(
        &mut self,
        record: Vec<String>,
        line: usize,
    ) -> Result<Option<Vec<String>>, CsvError> {
        if record.len() == 1 && record[0].is_empty() {
            return Ok(None);
        }
        match self.expected {
            None => self.expected = Some(record.len()),
            Some(n) if n != record.len() => {
                return Err(CsvError {
                    line,
                    kind: CsvErrorKind::FieldCountMismatch {
                        expected: n,
                        found: record.len(),
                    },
                })
            }
            Some(_) => {}
        }
        Ok(Some(record))
    }

    /// Parses the next record. `Ok(None)` means clean end of input.
    fn read_record(&mut self) -> Result<Option<Vec<String>>, CsvError> {
        let mut record: Vec<String> = Vec::new();
        let mut field: Vec<u8> = Vec::new();
        let mut field_started = false; // saw any content (or a quote) for this field
        let mut in_quotes = false;
        // Saw a `"` inside a quoted field; the next byte decides whether it
        // was an escape (another `"`) or the closing quote.
        let mut quote_pending = false;
        loop {
            let Some(b) = self.next_byte()? else {
                // End of input: a pending quote closes cleanly at EOF.
                if quote_pending {
                    in_quotes = false;
                }
                if in_quotes {
                    return Err(CsvError {
                        line: self.line,
                        kind: CsvErrorKind::UnterminatedQuote,
                    });
                }
                if field_started || !field.is_empty() || !record.is_empty() {
                    record.push(self.take_field(&mut field)?);
                    let line = self.line;
                    return self.finish_record(record, line);
                }
                return Ok(None);
            };
            if quote_pending {
                quote_pending = false;
                match b {
                    b'"' => {
                        field.push(b'"');
                        continue;
                    }
                    // The quote closed; fall through and process the byte as
                    // unquoted content (separator, record end, or swallowed
                    // carriage return).
                    b',' | b'\n' | b'\r' => in_quotes = false,
                    _ => {
                        return Err(CsvError {
                            line: self.line,
                            kind: CsvErrorKind::InvalidQuoteEscape,
                        })
                    }
                }
            }
            if in_quotes {
                match b {
                    b'"' => quote_pending = true,
                    b'\n' => {
                        field.push(b'\n');
                        self.line += 1;
                    }
                    other => field.push(other),
                }
                continue;
            }
            match b {
                b'"' if field.is_empty() && !field_started => {
                    in_quotes = true;
                    field_started = true;
                }
                b',' => {
                    record.push(self.take_field(&mut field)?);
                    field_started = false;
                }
                b'\r' => {
                    // Swallow; the following '\n' (if any) ends the record.
                }
                b'\n' => {
                    record.push(self.take_field(&mut field)?);
                    field_started = false;
                    let line = self.line;
                    self.line += 1;
                    if let Some(rec) = self.finish_record(record, line)? {
                        return Ok(Some(rec));
                    }
                    record = Vec::new(); // blank line: keep scanning
                }
                other => {
                    field.push(other);
                    field_started = true;
                }
            }
        }
    }
}

impl<R: Read> Iterator for CsvReader<R> {
    type Item = Result<Vec<String>, CsvError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.finished {
            return None;
        }
        match self.read_record() {
            Ok(Some(record)) => Some(Ok(record)),
            Ok(None) => {
                self.finished = true;
                None
            }
            Err(e) => {
                self.finished = true;
                Some(Err(e))
            }
        }
    }
}

/// Parses CSV text into records of fields — the whole-document adapter over
/// [`CsvReader`]. Empty input yields no records; a trailing newline does not
/// produce a trailing empty record. Every record must have the same number of
/// fields as the first one.
pub fn parse(text: &str) -> Result<Vec<Vec<String>>, CsvError> {
    CsvReader::new(text.as_bytes()).collect()
}

/// True when a field needs quoting on output.
fn needs_quoting(field: &str) -> bool {
    field.contains(',') || field.contains('"') || field.contains('\n') || field.contains('\r')
}

/// A record-at-a-time CSV writer over any [`Write`].
///
/// Each record is assembled in an internal scratch buffer and written with a
/// single `write_all`, so wrapping the destination in a
/// [`std::io::BufWriter`] is only needed for destinations where even
/// per-record writes are expensive (files, sockets). Fields are quoted only
/// when necessary; every record ends with `\n`.
pub struct CsvWriter<W: Write> {
    out: W,
    scratch: String,
}

impl<W: Write> CsvWriter<W> {
    /// Creates a writer over `out`.
    pub fn new(out: W) -> Self {
        CsvWriter {
            out,
            scratch: String::new(),
        }
    }

    /// Writes one record.
    pub fn write_record<I, S>(&mut self, fields: I) -> std::io::Result<()>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        self.scratch.clear();
        for (i, field) in fields.into_iter().enumerate() {
            if i > 0 {
                self.scratch.push(',');
            }
            let field = field.as_ref();
            if needs_quoting(field) {
                self.scratch.push('"');
                for ch in field.chars() {
                    if ch == '"' {
                        self.scratch.push('"');
                    }
                    self.scratch.push(ch);
                }
                self.scratch.push('"');
            } else {
                self.scratch.push_str(field);
            }
        }
        self.scratch.push('\n');
        self.out.write_all(self.scratch.as_bytes())
    }

    /// Flushes the underlying writer.
    pub fn flush(&mut self) -> std::io::Result<()> {
        self.out.flush()
    }

    /// Consumes the writer, returning the destination.
    pub fn into_inner(self) -> W {
        self.out
    }
}

/// Serializes records to CSV text with a trailing newline after every record —
/// the whole-document adapter over [`CsvWriter`]. Fields are quoted only when
/// necessary.
pub fn write(records: &[Vec<String>]) -> String {
    let mut writer = CsvWriter::new(Vec::new());
    for record in records {
        writer
            .write_record(record)
            .expect("writing to a Vec cannot fail");
    }
    String::from_utf8(writer.into_inner()).expect("CSV output is valid UTF-8")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_plain_records() {
        let records = parse("a,b,c\nd,e,f\n").unwrap();
        assert_eq!(records, vec![vec!["a", "b", "c"], vec!["d", "e", "f"]]);
    }

    #[test]
    fn missing_trailing_newline_is_fine() {
        let records = parse("a,b\nc,d").unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[1], vec!["c", "d"]);
    }

    #[test]
    fn quoted_fields_with_commas_quotes_and_newlines() {
        let text = "name,note\n\"Lee, Mary\",\"said \"\"hi\"\"\"\n\"multi\nline\",x\n";
        let records = parse(text).unwrap();
        assert_eq!(records[1][0], "Lee, Mary");
        assert_eq!(records[1][1], "said \"hi\"");
        assert_eq!(records[2][0], "multi\nline");
    }

    #[test]
    fn crlf_line_endings() {
        let records = parse("a,b\r\nc,d\r\n").unwrap();
        assert_eq!(records, vec![vec!["a", "b"], vec!["c", "d"]]);
    }

    #[test]
    fn empty_fields_and_blank_lines() {
        let records = parse("a,,c\n\n,x,\n").unwrap();
        assert_eq!(records, vec![vec!["a", "", "c"], vec!["", "x", ""]]);
        assert!(parse("").unwrap().is_empty());
        assert!(parse("\n\n").unwrap().is_empty());
    }

    #[test]
    fn unterminated_quote_is_an_error() {
        let err = parse("a,\"oops\n").unwrap_err();
        assert_eq!(err.kind, CsvErrorKind::UnterminatedQuote);
    }

    #[test]
    fn garbage_after_closing_quote_is_an_error() {
        let err = parse("\"a\"b,c\n").unwrap_err();
        assert_eq!(err.kind, CsvErrorKind::InvalidQuoteEscape);
    }

    #[test]
    fn field_count_mismatch_reports_the_line() {
        let err = parse("a,b\nc\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert_eq!(
            err.kind,
            CsvErrorKind::FieldCountMismatch {
                expected: 2,
                found: 1
            }
        );
        assert!(err.to_string().contains("line 2"));
    }

    #[test]
    fn write_round_trips_through_parse() {
        let records = vec![
            vec!["plain".to_string(), "with,comma".to_string()],
            vec!["with \"quote\"".to_string(), "multi\nline".to_string()],
            vec!["".to_string(), "x".to_string()],
        ];
        let text = write(&records);
        assert_eq!(parse(&text).unwrap(), records);
    }

    #[test]
    fn write_quotes_only_when_needed() {
        let text = write(&[vec!["plain".to_string(), "a,b".to_string()]]);
        assert_eq!(text, "plain,\"a,b\"\n");
    }

    /// A reader that hands out at most `chunk` bytes per `read` call, forcing
    /// the incremental parser across every possible refill boundary.
    struct Throttled<'a> {
        bytes: &'a [u8],
        pos: usize,
        chunk: usize,
    }

    impl Read for Throttled<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.chunk.min(buf.len()).min(self.bytes.len() - self.pos);
            buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    fn parse_chunked(text: &str, chunk: usize) -> Result<Vec<Vec<String>>, CsvError> {
        CsvReader::new(Throttled {
            bytes: text.as_bytes(),
            pos: 0,
            chunk,
        })
        .collect()
    }

    #[test]
    fn chunk_boundaries_are_invisible() {
        let texts = [
            "a,b,c\nd,e,f\n",
            "name,note\n\"Lee, Mary\",\"said \"\"hi\"\"\"\n\"multi\nline\",x\n",
            "a,b\r\nc,d\r\n",
            "a,,c\n\n,x,\n",
            "a,\"oops\n",
            "\"a\"b,c\n",
            "a,b\nc\n",
            "\"closes at eof\",\"x\"",
            "über,naïve\n\"schön\",ok\n",
        ];
        for text in texts {
            let whole = parse(text);
            for chunk in 1..=7 {
                assert_eq!(whole, parse_chunked(text, chunk), "chunk={chunk}: {text:?}");
            }
        }
    }

    #[test]
    fn reader_is_fused_after_an_error() {
        let mut reader = CsvReader::new("a,b\nc\nd,e\n".as_bytes());
        assert!(reader.next().unwrap().is_ok());
        assert!(reader.next().unwrap().is_err());
        assert!(reader.next().is_none());
    }

    #[test]
    fn invalid_utf8_is_reported_with_the_line() {
        let bytes: &[u8] = b"a,b\nc,\xff\xfe\n";
        let result: Result<Vec<_>, _> = CsvReader::new(bytes).collect();
        let err = result.unwrap_err();
        assert_eq!(err.kind, CsvErrorKind::InvalidUtf8);
        assert_eq!(err.line, 2);
    }

    #[test]
    fn read_errors_surface_as_csv_errors() {
        struct Failing;
        impl Read for Failing {
            fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk on fire"))
            }
        }
        let result: Result<Vec<_>, _> = CsvReader::new(Failing).collect();
        let err = result.unwrap_err();
        assert!(matches!(err.kind, CsvErrorKind::Io(ref m) if m.contains("disk on fire")));
    }

    #[test]
    fn csv_writer_streams_records() {
        let mut writer = CsvWriter::new(Vec::new());
        writer.write_record(["a", "b,c"]).unwrap();
        writer.write_record(["\"q\"", ""]).unwrap();
        let text = String::from_utf8(writer.into_inner()).unwrap();
        assert_eq!(text, "a,\"b,c\"\n\"\"\"q\"\"\",\n");
        assert_eq!(
            text,
            write(&[
                vec!["a".to_string(), "b,c".to_string()],
                vec!["\"q\"".to_string(), "".to_string()],
            ])
        );
    }
}
