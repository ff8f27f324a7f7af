//! A hardened, zero-dependency blocking HTTP/1.1 layer: the one
//! request reader behind both the embedded
//! [`MetricsServer`](crate::MetricsServer) and the `paydemand serve`
//! daemon.
//!
//! Both face real sockets, so the reader assumes the peer is hostile
//! until proven otherwise:
//!
//! * every read honours a *total* deadline, not just a per-read socket
//!   timeout — a slow-loris client dripping one byte per second is cut
//!   off when the deadline lapses, no matter how alive the socket
//!   looks. The head and the body each get the full
//!   [`HttpLimits::deadline`];
//! * the request line ([`MAX_REQUEST_LINE_BYTES`]), the head
//!   ([`MAX_HEAD_BYTES`]) and the body ([`HttpLimits::max_body_bytes`])
//!   each have a size cap; exceeded caps map to typed 4xx statuses
//!   (414 / 431 / 413) rather than truncated parses;
//! * malformed framing (bad request line, unparsable or conflicting
//!   `Content-Length`, non-numeric garbage) is a 400, never a panic;
//! * a peer that closes early is a clean [`ParseError::ClientClosed`]
//!   — the connection is dropped without a response, and without
//!   counting as a server failure.
//!
//! [`serve_telemetry`] answers the routes both servers share
//! (`GET /metrics`, `GET /profile`). The module also carries
//! [`request`], the minimal blocking client the tests, the load
//! generator and the benchmarks drive the servers with.

use std::io::{ErrorKind, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::prof::CaptureRequest;
use crate::recorder::Recorder;

/// Content type of every JSON body, error documents included.
pub const JSON: &str = "application/json; charset=utf-8";
/// Default [`HttpLimits::deadline`].
pub const DEFAULT_DEADLINE: Duration = Duration::from_secs(2);
/// Longest accepted request head (request line + headers); more is 431.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;
/// Longest accepted request line (method + target + version); more is
/// 414.
pub const MAX_REQUEST_LINE_BYTES: usize = 2 * 1024;

/// Size and time limits enforced while serving one request.
#[derive(Debug, Clone, Copy)]
pub struct HttpLimits {
    /// Longest accepted body; a larger `Content-Length` is 413.
    pub max_body_bytes: usize,
    /// Total wall-clock budget for the head, and again for the body;
    /// also the socket write timeout for the response.
    pub deadline: Duration,
}

impl Default for HttpLimits {
    fn default() -> Self {
        HttpLimits { max_body_bytes: 256 * 1024, deadline: DEFAULT_DEADLINE }
    }
}

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The HTTP method, upper-cased as received.
    pub method: String,
    /// The request target up to the first `?` (no normalisation).
    pub path: String,
    /// The target after the first `?`; empty without one.
    pub query: String,
    /// The body, exactly `Content-Length` bytes (empty without one).
    pub body: Vec<u8>,
}

/// Why a request could not be read. Each variant maps to one wire
/// behaviour via [`ParseError::status`].
#[derive(Debug)]
pub enum ParseError {
    /// The peer closed (or reset) before a complete request arrived.
    /// No response is owed; drop the connection.
    ClientClosed,
    /// The head or body did not arrive within its deadline.
    Timeout,
    /// The request line exceeded [`MAX_REQUEST_LINE_BYTES`].
    RequestLineTooLong,
    /// The head exceeded [`MAX_HEAD_BYTES`].
    HeadTooLarge,
    /// The declared body exceeds [`HttpLimits::max_body_bytes`].
    BodyTooLarge,
    /// Unparsable framing (request line, header syntax, content length).
    Malformed(&'static str),
    /// A socket error other than timeout/close.
    Io(std::io::Error),
}

impl ParseError {
    /// The response status this error earns, or `None` when the
    /// connection should simply be dropped (peer gone / socket error).
    #[must_use]
    pub fn status(&self) -> Option<(u16, &'static str)> {
        match self {
            ParseError::ClientClosed | ParseError::Io(_) => None,
            ParseError::Timeout => Some((408, "request timed out")),
            ParseError::RequestLineTooLong => Some((414, "request line too long")),
            ParseError::HeadTooLarge => Some((431, "request head too large")),
            ParseError::BodyTooLarge => Some((413, "request body too large")),
            ParseError::Malformed(what) => Some((400, what)),
        }
    }
}

/// Reads one complete request from `stream` under `limits`, and arms
/// the stream's write timeout for the response.
///
/// # Errors
///
/// [`ParseError`] describing the violated limit or framing rule; see
/// [`ParseError::status`] for the wire mapping.
pub fn read_request(stream: &mut TcpStream, limits: &HttpLimits) -> Result<Request, ParseError> {
    stream.set_write_timeout(Some(limits.deadline)).map_err(ParseError::Io)?;
    let head = read_head(stream, limits.deadline)?;
    let head_text = std::str::from_utf8(&head.bytes[..head.len])
        .map_err(|_| ParseError::Malformed("request head is not UTF-8"))?;
    let mut lines = head_text.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    if request_line.len() > MAX_REQUEST_LINE_BYTES {
        return Err(ParseError::RequestLineTooLong);
    }
    let mut parts = request_line.split_whitespace();
    let method = parts.next().ok_or(ParseError::Malformed("empty request line"))?;
    let target = parts.next().ok_or(ParseError::Malformed("request line has no target"))?;
    let version = parts.next().ok_or(ParseError::Malformed("request line has no version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(ParseError::Malformed("unsupported HTTP version"));
    }
    if !method.chars().all(|c| c.is_ascii_uppercase()) || method.is_empty() {
        return Err(ParseError::Malformed("invalid method"));
    }

    let mut content_length: Option<usize> = None;
    for line in lines {
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(ParseError::Malformed("header line without a colon"));
        };
        if name.trim().eq_ignore_ascii_case("content-length") {
            let value = value
                .trim()
                .parse::<usize>()
                .map_err(|_| ParseError::Malformed("unparsable content length"))?;
            // RFC 9112 §6.3: differing duplicates make the framing
            // ambiguous, so the request is refused outright.
            if content_length.is_some_and(|seen| seen != value) {
                return Err(ParseError::Malformed("conflicting content lengths"));
            }
            content_length = Some(value);
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > limits.max_body_bytes {
        return Err(ParseError::BodyTooLarge);
    }

    // Bytes past the head separator already read belong to the body.
    let mut body = head.bytes[head.len..].to_vec();
    if body.len() > content_length {
        // Pipelined garbage after the declared body: take what was
        // declared, ignore the rest (the connection closes after one
        // response anyway).
        body.truncate(content_length);
    }
    read_exact_deadline(stream, &mut body, content_length, limits.deadline)?;
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    Ok(Request { method: method.to_owned(), path: path.to_owned(), query: query.to_owned(), body })
}

/// The raw head buffer plus where the `\r\n\r\n` separator ended.
struct Head {
    bytes: Vec<u8>,
    /// Byte offset one past the head separator (start of body bytes).
    len: usize,
}

/// Maps a failed or empty read to its [`ParseError`]: `partial` says
/// whether some of the request had already arrived.
fn read_failure(result: std::io::Result<usize>, partial: bool) -> ParseError {
    let stalled = if partial { ParseError::Timeout } else { ParseError::ClientClosed };
    match result {
        Ok(_) => stalled,
        Err(e) => match e.kind() {
            ErrorKind::WouldBlock | ErrorKind::TimedOut => stalled,
            ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted | ErrorKind::BrokenPipe => {
                ParseError::ClientClosed
            }
            _ => ParseError::Io(e),
        },
    }
}

fn read_head(stream: &mut TcpStream, deadline: Duration) -> Result<Head, ParseError> {
    let start = Instant::now();
    let mut bytes: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    loop {
        // The socket timeout is re-armed with the *remaining* deadline
        // each iteration, so the total wait is bounded regardless of
        // how slowly the peer dribbles bytes.
        let Some(remaining) = deadline.checked_sub(start.elapsed()).filter(|d| !d.is_zero()) else {
            // Out of time: the same verdict as a read that stalled.
            return Err(read_failure(Ok(0), !bytes.is_empty()));
        };
        stream.set_read_timeout(Some(remaining)).map_err(ParseError::Io)?;
        let n = match stream.read(&mut chunk) {
            Ok(n) if n > 0 => n,
            result => return Err(read_failure(result, !bytes.is_empty())),
        };
        bytes.extend_from_slice(&chunk[..n]);
        if let Some(pos) = find_head_end(&bytes) {
            return Ok(Head { bytes, len: pos });
        }
        // No separator yet: a head this large is rejected before more
        // is buffered. An overlong first line fails even earlier.
        if bytes.len() > MAX_HEAD_BYTES {
            return Err(ParseError::HeadTooLarge);
        }
        if !bytes.contains(&b'\n') && bytes.len() > MAX_REQUEST_LINE_BYTES {
            return Err(ParseError::RequestLineTooLong);
        }
    }
}

fn find_head_end(bytes: &[u8]) -> Option<usize> {
    bytes.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
}

/// Grows `body` to exactly `want` bytes, bounded by `deadline`.
fn read_exact_deadline(
    stream: &mut TcpStream,
    body: &mut Vec<u8>,
    want: usize,
    deadline: Duration,
) -> Result<(), ParseError> {
    let start = Instant::now();
    let mut chunk = [0u8; 4096];
    while body.len() < want {
        let Some(remaining) = deadline.checked_sub(start.elapsed()).filter(|d| !d.is_zero()) else {
            return Err(ParseError::Timeout);
        };
        stream.set_read_timeout(Some(remaining)).map_err(ParseError::Io)?;
        let n = match stream.read(&mut chunk) {
            Ok(0) => return Err(ParseError::ClientClosed),
            Ok(n) => n,
            result => return Err(read_failure(result, true)),
        };
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(want);
    Ok(())
}

/// Answers the routes every server shares, `GET /metrics` and
/// `GET /profile`, from `recorder`. Returns `false` (having written
/// nothing) for any other request.
///
/// A profile capture blocks the calling thread for its window, which
/// [`CaptureRequest`] bounds; the capture is folded into `recorder` so
/// the sampler's self-accounting shows on the next `/metrics` scrape.
/// A bad `/profile` query is a 400.
pub fn serve_telemetry(stream: &mut TcpStream, request: &Request, recorder: &Recorder) -> bool {
    if request.method != "GET" {
        return false;
    }
    match request.path.as_str() {
        "/metrics" => {
            let body = recorder.snapshot().to_prometheus();
            respond(stream, 200, "text/plain; version=0.0.4; charset=utf-8", &body);
        }
        "/profile" => match CaptureRequest::parse_query(&request.query) {
            Ok(capture) => {
                let profile = capture.capture();
                recorder.record_profile(&profile);
                respond(stream, 200, capture.content_type(), &capture.render(&profile));
            }
            Err(message) => respond_error(stream, 400, &message),
        },
        _ => return false,
    }
    true
}

/// Writes a complete response and flushes. Write errors are swallowed:
/// if the peer is gone there is nobody left to tell.
pub fn respond(stream: &mut TcpStream, status: u16, content_type: &str, body: &str) {
    respond_with(stream, status, content_type, body, &[]);
}

/// [`respond`] with the JSON [`error_body`] for `message`.
pub fn respond_error(stream: &mut TcpStream, status: u16, message: &str) {
    respond(stream, status, JSON, &error_body(message));
}

/// [`respond`] with extra headers (e.g. `Retry-After`).
pub fn respond_with(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
    extra_headers: &[(&str, String)],
) {
    let reason = reason_phrase(status);
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

/// A JSON error document: `{"error": "<message>"}` with escaping.
#[must_use]
pub fn error_body(message: &str) -> String {
    format!("{{\"error\": \"{}\"}}\n", crate::json_escape(message))
}

/// The reason phrase sent with `status` (`"Error"` for codes the
/// servers never send).
#[must_use]
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        414 => "URI Too Long",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Error",
    }
}

/// A parsed response from the blocking test/load client.
#[derive(Debug, Clone)]
pub struct Response {
    /// The status code.
    pub status: u16,
    /// Raw header lines (after the status line, before the body).
    pub headers: Vec<String>,
    /// The body as text.
    pub body: String,
}

impl Response {
    /// The value of `name` (case-insensitive), if present.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find_map(|l| {
            let (n, v) = l.split_once(':')?;
            n.trim().eq_ignore_ascii_case(name).then(|| v.trim())
        })
    }
}

/// A minimal blocking HTTP client for loopback use: sends one request,
/// reads until close, parses the status line and headers.
///
/// # Errors
///
/// Propagates socket errors (connect, write, read) and malformed
/// responses as `InvalidData`.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
    timeout: Duration,
) -> std::io::Result<Response> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: paydemand\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw);
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| std::io::Error::new(ErrorKind::InvalidData, "response without head"))?;
    let mut lines = head.lines();
    let status_line = lines.next().unwrap_or("");
    let status: u16 =
        status_line.split_whitespace().nth(1).and_then(|s| s.parse().ok()).ok_or_else(|| {
            std::io::Error::new(ErrorKind::InvalidData, "response without status")
        })?;
    Ok(Response { status, headers: lines.map(str::to_owned).collect(), body: body.to_owned() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Sends `raw` over loopback and parses it server-side.
    fn parse(raw: &[u8]) -> Result<Request, ParseError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        client.write_all(raw).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        let limits = HttpLimits { deadline: Duration::from_millis(500), ..HttpLimits::default() };
        read_request(&mut server, &limits)
    }

    #[test]
    fn error_body_escapes_controls_and_quotes() {
        let body = error_body("bad \"json\"\nline\t\u{1}");
        assert!(body.contains("\\\"json\\\""));
        assert!(body.contains("\\n"));
        assert!(body.contains("\\t"));
        assert!(body.contains("\\u0001"));
    }

    #[test]
    fn head_end_is_found_across_chunk_joins() {
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\n"), Some(18));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\nBODY"), Some(18));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n"), None);
    }

    #[test]
    fn parse_error_statuses_are_typed() {
        assert_eq!(ParseError::Timeout.status(), Some((408, "request timed out")));
        assert_eq!(ParseError::BodyTooLarge.status().map(|s| s.0), Some(413));
        assert_eq!(ParseError::HeadTooLarge.status().map(|s| s.0), Some(431));
        assert_eq!(ParseError::RequestLineTooLong.status().map(|s| s.0), Some(414));
        assert!(ParseError::ClientClosed.status().is_none());
    }

    #[test]
    fn target_splits_into_path_and_query() {
        let request = parse(b"GET /profile?seconds=1&format=folded HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(request.path, "/profile");
        assert_eq!(request.query, "seconds=1&format=folded");
        let request = parse(b"GET /events/7 HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!((request.path.as_str(), request.query.as_str()), ("/events/7", ""));
    }

    #[test]
    fn conflicting_content_lengths_are_refused() {
        let conflicting = parse(
            b"POST /events HTTP/1.1\r\nContent-Length: 500000\r\nContent-Length: 5\r\n\r\nhello",
        );
        assert!(
            matches!(conflicting, Err(ParseError::Malformed("conflicting content lengths"))),
            "{conflicting:?}"
        );
        // Repeating the same value is harmless and stays accepted.
        let repeated =
            parse(b"POST /events HTTP/1.1\r\nContent-Length: 5\r\ncontent-length: 5\r\n\r\nhello")
                .unwrap();
        assert_eq!(repeated.body, b"hello");
    }
}
