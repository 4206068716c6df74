//! A hand-rolled, std-only HTTP/1.1 subset.
//!
//! The service needs exactly four things from HTTP: a request line with a
//! query string, `Content-Length`-delimited request bodies it can *stream*
//! (CSV records are parsed straight off the socket), chunked responses so CSV
//! can be written cluster-at-a-time without knowing the total size, and
//! chunked **trailers** so apply statistics can follow a streamed body. No
//! external dependency provides a smaller attack surface than ~300 lines of
//! `TcpStream` plumbing, and nothing here is async — connections are handled
//! by the shared worker pool.
//!
//! Both sides of the protocol live here: the server-side [`Request`] parser
//! and [`ChunkedWriter`], and the client-side [`request`]/[`read_response`]
//! used by the `serve_probe` binary, the CI smoke job and the integration
//! tests (std-only clients, per the repo's no-new-dependencies rule).

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// Cap on one header line (and the request line).
const MAX_LINE: usize = 16 * 1024;
/// Cap on the number of headers per message.
const MAX_HEADERS: usize = 100;

/// Header `(name, value)` pairs as parsed off the wire, names lowercased.
pub type Headers = Vec<(String, String)>;

/// A parsed request head (the body stays on the socket for streaming).
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercased method.
    pub method: String,
    /// Path without the query string.
    pub path: String,
    /// Decoded query parameters, in order of appearance.
    pub query: Vec<(String, String)>,
    /// The request target exactly as received (path plus raw query string) —
    /// what a proxy forwards so the upstream sees identical bytes.
    pub raw_target: String,
    /// Header `(name, value)` pairs, names lowercased.
    pub headers: Vec<(String, String)>,
    /// True for `HTTP/1.1` (and later 1.x) requests, which default to
    /// persistent connections; `HTTP/1.0` defaults to close.
    pub http11: bool,
}

impl Request {
    /// The first query parameter named `key`.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The first header named `name` (lowercase).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The declared body length, if any. A message with more than one
    /// `Content-Length` header is rejected outright — even when the copies
    /// agree — because duplicate framing headers are the classic request
    /// smuggling vector: a proxy that picks the first and a server that picks
    /// the second disagree on where this request ends and the next begins.
    pub fn content_length(&self) -> io::Result<Option<u64>> {
        let mut values = self
            .headers
            .iter()
            .filter(|(k, _)| k == "content-length")
            .map(|(_, v)| v.as_str());
        let Some(first) = values.next() else {
            return Ok(None);
        };
        if values.next().is_some() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "multiple Content-Length headers",
            ));
        }
        first
            .trim()
            .parse()
            .map(Some)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad Content-Length header"))
    }

    /// Whether the client asked to keep the connection open after this
    /// request: the HTTP/1.1 default unless `Connection: close`, opt-in via
    /// `Connection: keep-alive` for HTTP/1.0.
    pub fn keep_alive(&self) -> bool {
        let connection = self.header("connection").unwrap_or("");
        let mentions = |token: &str| {
            connection
                .split(',')
                .any(|t| t.trim().eq_ignore_ascii_case(token))
        };
        if self.http11 {
            !mentions("close")
        } else {
            mentions("keep-alive")
        }
    }
}

fn bad(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.to_string())
}

/// Reads one `\r\n`-terminated line, enforcing [`MAX_LINE`]. Returns `None`
/// on clean EOF before any byte.
fn read_line(reader: &mut impl BufRead) -> io::Result<Option<String>> {
    let mut raw = Vec::new();
    let mut limited = reader.take(MAX_LINE as u64 + 1);
    let n = limited.read_until(b'\n', &mut raw)?;
    if n == 0 {
        return Ok(None);
    }
    if raw.len() > MAX_LINE {
        return Err(bad("header line too long"));
    }
    while raw.last() == Some(&b'\n') || raw.last() == Some(&b'\r') {
        raw.pop();
    }
    String::from_utf8(raw)
        .map(Some)
        .map_err(|_| bad("header line is not UTF-8"))
}

/// Minimal `%XX` (and `+` as space) decoding for query parameters.
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => out.push(b' '),
            b'%' => {
                // Exactly two hex digits (`from_str_radix` would also take a
                // sign, decoding `%+1` as 0x01).
                let digit = |b: u8| char::from(b).to_digit(16);
                let hex = match bytes.get(i + 1..i + 3) {
                    Some(&[hi, lo]) => digit(hi)
                        .zip(digit(lo))
                        .map(|(hi, lo)| (hi * 16 + lo) as u8),
                    _ => None,
                };
                match hex {
                    Some(b) => {
                        out.push(b);
                        i += 2;
                    }
                    None => out.push(b'%'),
                }
            }
            b => out.push(b),
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Parses a request head off the reader. `Ok(None)` means the peer closed
/// the connection before sending anything.
pub fn read_request(reader: &mut impl BufRead) -> io::Result<Option<Request>> {
    let Some(line) = read_line(reader)? else {
        return Ok(None);
    };
    let mut parts = line.split_whitespace();
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(bad("malformed request line"));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(bad("unsupported HTTP version"));
    }
    let http11 = version != "HTTP/1.0";
    let (path, query_text) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let query = query_text
        .split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(kv), String::new()),
        })
        .collect();
    let mut headers = Vec::new();
    loop {
        let Some(line) = read_line(reader)? else {
            return Err(bad("connection closed inside headers"));
        };
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(bad("too many headers"));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(bad("malformed header line"));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    Ok(Some(Request {
        method: method.to_ascii_uppercase(),
        path: path.to_string(),
        query,
        raw_target: target.to_string(),
        headers,
        http11,
    }))
}

/// The standard reason phrase for the status codes the service uses.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        401 => "Unauthorized",
        404 => "Not Found",
        405 => "Method Not Allowed",
        411 => "Length Required",
        413 => "Content Too Large",
        500 => "Internal Server Error",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// The `Connection` answer a response advertises. Both response framings the
/// service uses (`Content-Length` and chunked) are self-delimiting, so any
/// response may keep the connection alive; handlers answer `Close` when the
/// server intends to hang up (errors, shutdown, or a client that asked).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Persistence {
    /// `Connection: keep-alive` — the server will read another request.
    KeepAlive,
    /// `Connection: close` — the server hangs up after this response.
    Close,
}

impl Persistence {
    fn header_value(self) -> &'static str {
        match self {
            Persistence::KeepAlive => "keep-alive",
            Persistence::Close => "close",
        }
    }
}

/// Writes a complete small response with `Content-Length`, leaving the
/// flush to the caller: the connection loop counts the request first, so a
/// client never sees a response its server has not counted yet.
pub fn write_response(
    out: &mut impl Write,
    status: u16,
    content_type: &str,
    extra_headers: &[(String, String)],
    persistence: Persistence,
    body: &[u8],
) -> io::Result<()> {
    write!(
        out,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        reason(status),
        body.len(),
        persistence.header_value()
    )?;
    for (name, value) in extra_headers {
        write!(out, "{name}: {value}\r\n")?;
    }
    out.write_all(b"\r\n")?;
    // A buffering `out` keeps the last byte until that flush even when the
    // rest of the body is large enough to go straight through.
    let (front, last) = body.split_at(body.len().saturating_sub(1));
    out.write_all(front)?;
    out.write_all(last)
}

/// Writes the head of a chunked response; the body follows through a
/// [`ChunkedWriter`]. `trailer_names` must announce any trailer written at
/// [`ChunkedWriter::finish`] time.
pub fn write_chunked_head(
    out: &mut impl Write,
    status: u16,
    content_type: &str,
    extra_headers: &[(String, String)],
    persistence: Persistence,
    trailer_names: &[&str],
) -> io::Result<()> {
    write!(
        out,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nTransfer-Encoding: chunked\r\nConnection: {}\r\n",
        reason(status),
        persistence.header_value()
    )?;
    for (name, value) in extra_headers {
        write!(out, "{name}: {value}\r\n")?;
    }
    if !trailer_names.is_empty() {
        write!(out, "Trailer: {}\r\n", trailer_names.join(", "))?;
    }
    out.write_all(b"\r\n")
}

/// An `io::Write` that frames every `write` call as one HTTP chunk. Wrap it
/// in a `BufWriter` so records coalesce into reasonably sized chunks; memory
/// use stays bounded by the buffer, never by the response size.
pub struct ChunkedWriter<W: Write> {
    inner: W,
}

impl<W: Write> ChunkedWriter<W> {
    /// Starts the chunked body (the head must already be written).
    pub fn new(inner: W) -> Self {
        ChunkedWriter { inner }
    }

    /// Terminates the body, appending `trailers` after the last chunk. Like
    /// [`write_response`], leaves the final flush to the caller.
    pub fn finish(mut self, trailers: &[(String, String)]) -> io::Result<W> {
        self.inner.write_all(b"0\r\n")?;
        for (name, value) in trailers {
            write!(self.inner, "{name}: {value}\r\n")?;
        }
        self.inner.write_all(b"\r\n")?;
        Ok(self.inner)
    }
}

impl<W: Write> Write for ChunkedWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        write!(self.inner, "{:x}\r\n", buf.len())?;
        self.inner.write_all(buf)?;
        self.inner.write_all(b"\r\n")?;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// A reader that hands out exactly `remaining` bytes of its inner reader —
/// how request bodies are streamed without ever buffering them whole.
pub struct LimitedReader<R: Read> {
    inner: R,
    remaining: u64,
}

impl<R: Read> LimitedReader<R> {
    /// Wraps `inner`, exposing its next `limit` bytes.
    pub fn new(inner: R, limit: u64) -> Self {
        LimitedReader {
            inner,
            remaining: limit,
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }
}

impl<R: Read> Read for LimitedReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.remaining == 0 {
            return Ok(0);
        }
        let cap = buf
            .len()
            .min(self.remaining.min(usize::MAX as u64) as usize);
        let n = self.inner.read(&mut buf[..cap])?;
        self.remaining -= n as u64;
        Ok(n)
    }
}

// ---------------------------------------------------------------------------
// Client side (probe binary, CI smoke, integration tests).
// ---------------------------------------------------------------------------

/// A fully read client-side response.
#[derive(Debug, Clone)]
pub struct Response {
    /// The status code.
    pub status: u16,
    /// Headers, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The de-chunked (or length-delimited) body bytes.
    pub body: Vec<u8>,
    /// Trailers that followed a chunked body, names lowercased.
    pub trailers: Vec<(String, String)>,
}

impl Response {
    /// The first header named `name` (lowercase).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The first trailer named `name` (lowercase).
    pub fn trailer(&self, name: &str) -> Option<&str> {
        self.trailers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Reads a response head (status line + headers) off a buffered reader,
/// leaving the body bytes in place — the streaming half of
/// [`read_response`], used by the router to relay bodies without buffering.
pub fn read_response_head(reader: &mut impl BufRead) -> io::Result<(u16, Headers)> {
    let Some(status_line) = read_line(reader)? else {
        return Err(bad("connection closed before the status line"));
    };
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut headers = Vec::new();
    loop {
        let Some(line) = read_line(reader)? else {
            return Err(bad("connection closed inside headers"));
        };
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
    }
    Ok((status, headers))
}

/// Whether a response head declares a chunked body.
pub fn is_chunked(headers: &[(String, String)]) -> bool {
    headers
        .iter()
        .any(|(k, v)| k == "transfer-encoding" && v.eq_ignore_ascii_case("chunked"))
}

/// An `io::Read` that de-chunks a chunked body as it streams by. After the
/// terminal chunk (`read` returning 0), [`ChunkedReader::trailers`] holds
/// any trailers and [`ChunkedReader::is_done`] turns true — a `read` hitting
/// EOF mid-body errors instead, so truncated upstream streams are never
/// mistaken for complete ones.
pub struct ChunkedReader<R: BufRead> {
    inner: R,
    chunk_remaining: usize,
    done: bool,
    trailers: Vec<(String, String)>,
}

impl<R: BufRead> ChunkedReader<R> {
    /// Starts de-chunking at the current position of `inner` (the response
    /// head must already be consumed).
    pub fn new(inner: R) -> Self {
        ChunkedReader {
            inner,
            chunk_remaining: 0,
            done: false,
            trailers: Vec::new(),
        }
    }

    /// True once the terminal chunk (and its trailers) have been read.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Trailers that followed the body, names lowercased. Complete only once
    /// [`ChunkedReader::is_done`] is true.
    pub fn trailers(&self) -> &[(String, String)] {
        &self.trailers
    }
}

impl<R: BufRead> Read for ChunkedReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.done || buf.is_empty() {
            return Ok(0);
        }
        if self.chunk_remaining == 0 {
            let Some(size_line) = read_line(&mut self.inner)? else {
                return Err(bad("connection closed inside chunked body"));
            };
            let size = usize::from_str_radix(size_line.trim(), 16)
                .map_err(|_| bad("malformed chunk size"))?;
            if size == 0 {
                // Trailers until the blank line.
                loop {
                    let Some(line) = read_line(&mut self.inner)? else {
                        return Err(bad("connection closed inside trailers"));
                    };
                    if line.is_empty() {
                        break;
                    }
                    if let Some((name, value)) = line.split_once(':') {
                        self.trailers
                            .push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
                    }
                }
                self.done = true;
                return Ok(0);
            }
            self.chunk_remaining = size;
        }
        let want = buf.len().min(self.chunk_remaining);
        let n = self.inner.read(&mut buf[..want])?;
        if n == 0 {
            return Err(bad("connection closed inside a chunk"));
        }
        self.chunk_remaining -= n;
        if self.chunk_remaining == 0 {
            let mut crlf = [0u8; 2];
            self.inner.read_exact(&mut crlf)?;
        }
        Ok(n)
    }
}

/// Reads a response body (and trailers) whose head declared `headers` —
/// chunked, `Content-Length`-delimited, or read-to-close.
pub fn read_response_body(
    reader: &mut impl BufRead,
    headers: &[(String, String)],
) -> io::Result<(Vec<u8>, Headers)> {
    let mut body = Vec::new();
    if is_chunked(headers) {
        let mut chunks = ChunkedReader::new(reader);
        chunks.read_to_end(&mut body)?;
        let trailers = chunks.trailers().to_vec();
        Ok((body, trailers))
    } else {
        let length: Option<u64> = headers
            .iter()
            .find(|(k, _)| k == "content-length")
            .and_then(|(_, v)| v.trim().parse().ok());
        match length {
            Some(n) => {
                body.resize(n as usize, 0);
                reader.read_exact(&mut body)?;
            }
            None => {
                reader.read_to_end(&mut body)?;
            }
        }
        Ok((body, Vec::new()))
    }
}

/// Reads a response (status line, headers, body; `Content-Length` or
/// chunked + trailers) off a buffered reader.
pub fn read_response(reader: &mut impl BufRead) -> io::Result<Response> {
    let (status, headers) = read_response_head(reader)?;
    let (body, trailers) = read_response_body(reader, &headers)?;
    Ok(Response {
        status,
        headers,
        body,
        trailers,
    })
}

/// Performs one request against `addr` and reads the whole response — the
/// std-only client used by the probe binary and the tests.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path_and_query: &str,
    body: &[u8],
) -> io::Result<Response> {
    let mut responses = request_many(addr, method, path_and_query, body, 1)?;
    Ok(responses.remove(0))
}

/// [`request`] with extra request headers — how tests and the probe binary
/// present a bearer token to an `--auth-token` server.
pub fn request_with_headers(
    addr: SocketAddr,
    method: &str,
    path_and_query: &str,
    body: &[u8],
    extra_headers: &[(String, String)],
) -> io::Result<Response> {
    let mut conn = ClientConn::connect(addr, None)?;
    conn.request_with_headers(method, path_and_query, body, false, extra_headers)
}

/// Performs the same request `count` times over **one** connection,
/// advertising `Connection: keep-alive` on every request but the last.
/// Fails if the server closes the socket early, so a successful call proves
/// the connection was actually reused — which is what the keep-alive probe
/// and the CI smoke job check.
pub fn request_many(
    addr: SocketAddr,
    method: &str,
    path_and_query: &str,
    body: &[u8],
    count: usize,
) -> io::Result<Vec<Response>> {
    let mut conn = ClientConn::connect(addr, None)?;
    let count = count.max(1);
    let mut responses = Vec::with_capacity(count);
    for i in 0..count {
        responses.push(conn.request(method, path_and_query, body, i + 1 < count)?);
    }
    Ok(responses)
}

/// Writes a request head. `keep_alive` picks the advertised `Connection`
/// answer; the `Content-Length` body (possibly empty) follows on the caller.
pub fn write_request_head(
    out: &mut impl Write,
    method: &str,
    path_and_query: &str,
    host: SocketAddr,
    content_length: u64,
    keep_alive: bool,
) -> io::Result<()> {
    write_request_head_ext(
        out,
        method,
        path_and_query,
        host,
        content_length,
        keep_alive,
        &[],
    )
}

/// [`write_request_head`] plus arbitrary extra headers — how clients attach
/// `Authorization: Bearer …` (and the router forwards it to backends).
#[allow(clippy::too_many_arguments)]
pub fn write_request_head_ext(
    out: &mut impl Write,
    method: &str,
    path_and_query: &str,
    host: SocketAddr,
    content_length: u64,
    keep_alive: bool,
    extra_headers: &[(String, String)],
) -> io::Result<()> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    write!(
        out,
        "{method} {path_and_query} HTTP/1.1\r\nHost: {host}\r\nContent-Length: {content_length}\r\nConnection: {connection}\r\n",
    )?;
    for (name, value) in extra_headers {
        write!(out, "{name}: {value}\r\n")?;
    }
    out.write_all(b"\r\n")
}

/// A persistent (keep-alive) client connection to one server — the router
/// keeps a pool of these per backend, and perfbench's `apply` workload
/// drives one per client. Requests and responses interleave strictly (send
/// one, read one); the response may also be consumed in streaming halves via
/// [`ClientConn::read_head`] + [`ClientConn::reader`].
pub struct ClientConn {
    write_half: TcpStream,
    reader: BufReader<TcpStream>,
    peer: SocketAddr,
}

impl ClientConn {
    /// Connects (optionally with a timeout) and disables Nagle, like every
    /// socket in this crate.
    pub fn connect(addr: SocketAddr, timeout: Option<std::time::Duration>) -> io::Result<Self> {
        let stream = match timeout {
            Some(t) => TcpStream::connect_timeout(&addr, t)?,
            None => TcpStream::connect(addr)?,
        };
        stream.set_nodelay(true)?;
        let write_half = stream.try_clone()?;
        Ok(ClientConn {
            write_half,
            reader: BufReader::new(stream),
            peer: addr,
        })
    }

    /// The server address this connection talks to.
    pub fn peer(&self) -> SocketAddr {
        self.peer
    }

    /// Caps how long a blocked response read may wait (`None` blocks
    /// forever).
    pub fn set_read_timeout(&self, timeout: Option<std::time::Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// Sends one request (head + `Content-Length` body) without reading the
    /// response.
    pub fn send_request(
        &mut self,
        method: &str,
        path_and_query: &str,
        body: &[u8],
        keep_alive: bool,
    ) -> io::Result<()> {
        self.send_request_with_headers(method, path_and_query, body, keep_alive, &[])
    }

    /// [`ClientConn::send_request`] with extra request headers (e.g. an
    /// `Authorization: Bearer` token).
    pub fn send_request_with_headers(
        &mut self,
        method: &str,
        path_and_query: &str,
        body: &[u8],
        keep_alive: bool,
        extra_headers: &[(String, String)],
    ) -> io::Result<()> {
        write_request_head_ext(
            &mut self.write_half,
            method,
            path_and_query,
            self.peer,
            body.len() as u64,
            keep_alive,
            extra_headers,
        )?;
        self.write_half.write_all(body)?;
        self.write_half.flush()
    }

    /// Reads the response head, leaving the body on [`ClientConn::reader`].
    pub fn read_head(&mut self) -> io::Result<(u16, Headers)> {
        read_response_head(&mut self.reader)
    }

    /// The buffered read half, positioned at the response body after
    /// [`ClientConn::read_head`] — wrap it in a [`ChunkedReader`] for
    /// chunked bodies.
    pub fn reader(&mut self) -> &mut BufReader<TcpStream> {
        &mut self.reader
    }

    /// One full request/response round trip.
    pub fn request(
        &mut self,
        method: &str,
        path_and_query: &str,
        body: &[u8],
        keep_alive: bool,
    ) -> io::Result<Response> {
        self.request_with_headers(method, path_and_query, body, keep_alive, &[])
    }

    /// [`ClientConn::request`] with extra request headers.
    pub fn request_with_headers(
        &mut self,
        method: &str,
        path_and_query: &str,
        body: &[u8],
        keep_alive: bool,
        extra_headers: &[(String, String)],
    ) -> io::Result<Response> {
        self.send_request_with_headers(method, path_and_query, body, keep_alive, extra_headers)?;
        let (status, headers) = self.read_head()?;
        let (body, trailers) = read_response_body(&mut self.reader, &headers)?;
        Ok(Response {
            status,
            headers,
            body,
            trailers,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn request_parsing_extracts_query_and_headers() {
        let raw = "POST /pipeline?budget=15&mode=approve-all&name=a%20b HTTP/1.1\r\n\
                   Host: x\r\nContent-Length: 5\r\n\r\nhello";
        let mut reader = BufReader::new(Cursor::new(raw.as_bytes()));
        let req = read_request(&mut reader).unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/pipeline");
        assert_eq!(req.query_param("budget"), Some("15"));
        assert_eq!(req.query_param("name"), Some("a b"));
        assert_eq!(req.query_param("missing"), None);
        assert_eq!(req.content_length().unwrap(), Some(5));
        let mut body = String::new();
        LimitedReader::new(&mut reader, 5)
            .read_to_string(&mut body)
            .unwrap();
        assert_eq!(body, "hello");
    }

    #[test]
    fn content_length_rejects_duplicate_conflicting_and_non_numeric_headers() {
        let parse = |raw: &str| {
            let mut reader = BufReader::new(Cursor::new(raw.as_bytes().to_vec()));
            read_request(&mut reader).unwrap().unwrap()
        };
        // Conflicting copies are an obvious rejection...
        let conflicting =
            parse("POST /apply HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 9\r\n\r\n");
        assert!(conflicting.content_length().is_err());
        // ...but even *identical* duplicates are refused: two framing headers
        // mean two possible message boundaries, whatever their values.
        let duplicate =
            parse("POST /apply HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\n");
        assert!(duplicate.content_length().is_err());
        let non_numeric = parse("POST /apply HTTP/1.1\r\nContent-Length: five\r\n\r\n");
        assert!(non_numeric.content_length().is_err());
        let single = parse("POST /apply HTTP/1.1\r\nContent-Length: 5\r\n\r\n");
        assert_eq!(single.content_length().unwrap(), Some(5));
        let none = parse("GET /healthz HTTP/1.1\r\n\r\n");
        assert_eq!(none.content_length().unwrap(), None);
    }

    #[test]
    fn request_parsing_rejects_garbage() {
        for raw in [
            "nonsense\r\n\r\n",
            "GET /x SPDY/3\r\n\r\n",
            "GET /x HTTP/1.1\r\nbroken\r\n\r\n",
        ] {
            let mut reader = BufReader::new(Cursor::new(raw.as_bytes()));
            assert!(read_request(&mut reader).is_err(), "{raw:?}");
        }
        let mut empty = BufReader::new(Cursor::new(b"" as &[u8]));
        assert!(read_request(&mut empty).unwrap().is_none());
    }

    #[test]
    fn chunked_round_trip_with_trailers() {
        let mut wire = Vec::new();
        write_chunked_head(
            &mut wire,
            200,
            "text/csv",
            &[],
            Persistence::KeepAlive,
            &["x-ec-records"],
        )
        .unwrap();
        let mut body = ChunkedWriter::new(&mut wire);
        body.write_all(b"first,").unwrap();
        body.write_all(b"second").unwrap();
        body.finish(&[("X-Ec-Records".to_string(), "2".to_string())])
            .unwrap();
        let mut reader = BufReader::new(Cursor::new(wire));
        let response = read_response(&mut reader).unwrap();
        assert_eq!(response.status, 200);
        assert_eq!(response.body, b"first,second");
        assert_eq!(response.trailer("x-ec-records"), Some("2"));
    }

    #[test]
    fn content_length_responses_round_trip() {
        let mut wire = Vec::new();
        write_response(
            &mut wire,
            404,
            "text/plain",
            &[],
            Persistence::Close,
            b"nope\n",
        )
        .unwrap();
        let mut reader = BufReader::new(Cursor::new(wire));
        let response = read_response(&mut reader).unwrap();
        assert_eq!(response.status, 404);
        assert_eq!(response.body, b"nope\n");
        assert_eq!(response.header("content-length"), Some("5"));
        assert_eq!(response.header("connection"), Some("close"));
    }

    #[test]
    fn keep_alive_follows_version_and_connection_header() {
        let parse = |raw: &str| {
            let mut reader = BufReader::new(Cursor::new(raw.as_bytes().to_vec()));
            read_request(&mut reader).unwrap().unwrap()
        };
        assert!(parse("GET /x HTTP/1.1\r\n\r\n").keep_alive());
        assert!(parse("GET /x HTTP/1.1\r\nConnection: Keep-Alive\r\n\r\n").keep_alive());
        assert!(!parse("GET /x HTTP/1.1\r\nConnection: close\r\n\r\n").keep_alive());
        assert!(!parse("GET /x HTTP/1.0\r\n\r\n").keep_alive());
        assert!(parse("GET /x HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").keep_alive());
    }

    #[test]
    fn request_parsing_preserves_the_raw_target() {
        let raw = "POST /pipeline?name=a%20b HTTP/1.1\r\n\r\n";
        let mut reader = BufReader::new(Cursor::new(raw.as_bytes()));
        let req = read_request(&mut reader).unwrap().unwrap();
        assert_eq!(req.raw_target, "/pipeline?name=a%20b");
        assert_eq!(req.query_param("name"), Some("a b"));
    }

    #[test]
    fn chunked_reader_streams_and_exposes_trailers() {
        let wire = b"6\r\nfirst,\r\n6\r\nsecond\r\n0\r\nX-Ec-Records: 2\r\n\r\n";
        let mut chunks = ChunkedReader::new(BufReader::new(Cursor::new(wire.as_ref())));
        let mut body = Vec::new();
        // One byte at a time to exercise reads that straddle chunk frames.
        let mut byte = [0u8; 1];
        loop {
            match chunks.read(&mut byte).unwrap() {
                0 => break,
                n => body.extend_from_slice(&byte[..n]),
            }
        }
        assert_eq!(body, b"first,second");
        assert!(chunks.is_done());
        assert_eq!(
            chunks.trailers(),
            &[("x-ec-records".to_string(), "2".to_string())]
        );
    }

    #[test]
    fn chunked_reader_rejects_truncated_streams() {
        for wire in [b"6\r\nfir".as_ref(), b"6\r\nfirst,\r\n".as_ref()] {
            let mut chunks = ChunkedReader::new(BufReader::new(Cursor::new(wire)));
            let mut body = Vec::new();
            assert!(
                chunks.read_to_end(&mut body).is_err(),
                "an upstream hangup mid-body must surface as an error"
            );
        }
    }

    #[test]
    fn limited_reader_stops_at_the_limit() {
        let mut r = LimitedReader::new(Cursor::new(b"abcdef".to_vec()), 4);
        let mut out = String::new();
        r.read_to_string(&mut out).unwrap();
        assert_eq!(out, "abcd");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn percent_decoding() {
        assert_eq!(percent_decode("a%20b+c"), "a b c");
        assert_eq!(percent_decode("100%"), "100%");
        assert_eq!(percent_decode("%zz"), "%zz");
        // A sign is not a hex digit: these stay literal.
        assert_eq!(percent_decode("%+1"), "% 1");
        assert_eq!(percent_decode("%+f"), "% f");
        // Short and trailing escapes stay literal too.
        assert_eq!(percent_decode("%1"), "%1");
        assert_eq!(percent_decode("a%"), "a%");
        assert_eq!(percent_decode("%4A%4a"), "JJ");
    }
}
