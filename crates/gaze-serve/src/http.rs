//! Minimal HTTP/1.1 request parsing and response writing on plain
//! `std::io` streams.
//!
//! The service only needs `GET`/`POST` with query strings, so that is
//! all this module speaks: requests are parsed up to the blank line
//! after the headers (bodies are ignored), targets are split into a
//! percent-decoded path and query parameters, and every response carries
//! `Content-Length` and `Connection: close` so clients never wait on a
//! kept-alive socket.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Read, Write};

use gaze_obs::json::json_string;

/// Upper bound on the request head (request line + headers) we accept.
pub const MAX_REQUEST_HEAD_BYTES: usize = 16 * 1024;

/// A parsed HTTP request head.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method (`GET`, `POST`, ...), uppercase as sent.
    pub method: String,
    /// Percent-decoded path component of the target (always starts with
    /// `/`).
    pub path: String,
    /// Percent-decoded query parameters, in a deterministic (sorted)
    /// order. Repeated keys keep the last value.
    pub query: BTreeMap<String, String>,
}

/// A response about to be written: status, content type, extra headers
/// and body.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Additional headers (name, value), e.g. `Retry-After` on `429`.
    pub headers: Vec<(&'static str, String)>,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A `200 OK` JSON response.
    pub fn json(body: String) -> Response {
        Response {
            status: 200,
            content_type: "application/json",
            headers: Vec::new(),
            body: body.into_bytes(),
        }
    }

    /// A `200 OK` CSV response.
    pub fn csv(body: String) -> Response {
        Response {
            status: 200,
            content_type: "text/csv; charset=utf-8",
            headers: Vec::new(),
            body: body.into_bytes(),
        }
    }

    /// An error response with a small JSON body.
    pub fn error(status: u16, message: &str) -> Response {
        Response {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body: format!("{{\"error\":{}}}\n", json_string(message)).into_bytes(),
        }
    }

    /// The same response with a different status code (e.g. a JSON body
    /// on `202 Accepted`).
    pub fn with_status(mut self, status: u16) -> Response {
        self.status = status;
        self
    }

    /// The same response with one more header appended.
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Response {
        self.headers.push((name, value.into()));
        self
    }

    /// The standard reason phrase for the statuses this service emits.
    pub fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            202 => "Accepted",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            409 => "Conflict",
            414 => "URI Too Long",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "",
        }
    }

    /// Serialises status line, headers and body into one buffer and
    /// hands it to `out` with a single `write_all`: on an unbuffered
    /// `TcpStream` that is one `write` syscall per response, not one per
    /// formatted fragment.
    pub fn write_to(&self, out: &mut impl Write) -> io::Result<()> {
        let mut buf = Vec::with_capacity(128 + self.body.len());
        write!(
            buf,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len()
        )?;
        for (name, value) in &self.headers {
            write!(buf, "{name}: {value}\r\n")?;
        }
        buf.extend_from_slice(b"\r\n");
        buf.extend_from_slice(&self.body);
        out.write_all(&buf)?;
        out.flush()
    }
}

/// Decodes `%XX` escapes and `+`-as-space in a target component. A `%`
/// not followed by two ASCII hex digits is passed through literally
/// (lenient, like most servers).
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let hex = |at: usize| {
        bytes
            .get(at)
            .and_then(|&b| char::from(b).to_digit(16))
            .map(|d| d as u8)
    };
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                if let (Some(hi), Some(lo)) = (hex(i + 1), hex(i + 2)) {
                    out.push(hi << 4 | lo);
                    i += 3;
                } else {
                    out.push(b'%');
                    i += 1;
                }
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Splits a request target into its decoded path and query map.
pub fn parse_target(target: &str) -> (String, BTreeMap<String, String>) {
    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let mut query = BTreeMap::new();
    if let Some(raw_query) = raw_query {
        for pair in raw_query.split('&').filter(|p| !p.is_empty()) {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            query.insert(percent_decode(k), percent_decode(v));
        }
    }
    (percent_decode(raw_path), query)
}

/// Reads and parses one request head from `stream`.
///
/// Returns an error response (to send back) on malformed input rather
/// than an `io::Error`, so protocol mistakes never kill a worker.
pub fn read_request(stream: &mut impl Read) -> Result<Request, Response> {
    let mut reader = BufReader::new(stream.take(MAX_REQUEST_HEAD_BYTES as u64));
    let mut request_line = String::new();
    match reader.read_line(&mut request_line) {
        Ok(0) => return Err(Response::error(400, "empty request")),
        Ok(_) => {}
        Err(_) => return Err(Response::error(400, "unreadable request")),
    }
    if !request_line.ends_with('\n') {
        return Err(Response::error(414, "request line too long"));
    }
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(Response::error(400, "malformed request line"));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(Response::error(400, "unsupported HTTP version"));
    }
    // Drain (and discard) headers up to the blank line; the routes need
    // none of them.
    loop {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) if line == "\r\n" || line == "\n" => break,
            Ok(_) if line.ends_with('\n') => {}
            _ => return Err(Response::error(400, "malformed headers")),
        }
    }
    let (path, query) = parse_target(target);
    Ok(Request {
        method: method.to_string(),
        path,
        query,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_parsing_splits_path_and_query() {
        let (path, query) = parse_target("/runs?prefetcher=gaze&workload=bwaves_s&limit=10");
        assert_eq!(path, "/runs");
        assert_eq!(query.get("prefetcher").map(String::as_str), Some("gaze"));
        assert_eq!(query.get("workload").map(String::as_str), Some("bwaves_s"));
        assert_eq!(query.get("limit").map(String::as_str), Some("10"));
    }

    #[test]
    fn percent_decoding_handles_escapes_and_plus() {
        assert_eq!(percent_decode("a%20b+c"), "a b c");
        assert_eq!(percent_decode("100%"), "100%"); // lenient on bad escapes
        assert_eq!(percent_decode("%zz"), "%zz");
        assert_eq!(percent_decode("%4a%4A"), "JJ");
        // A sign is not a hex digit: `%+a` and `%-1` stay literal (the
        // `+` then decodes to a space as usual).
        assert_eq!(percent_decode("%+a"), "% a");
        assert_eq!(percent_decode("%-1"), "%-1");
        assert_eq!(percent_decode("%a"), "%a");
        let (_, query) = parse_target("/runs?workload=cloud%2Dstreaming");
        assert_eq!(
            query.get("workload").map(String::as_str),
            Some("cloud-streaming")
        );
    }

    #[test]
    fn request_head_parses_and_rejects() {
        let mut ok = "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n".as_bytes();
        let req = read_request(&mut ok).expect("valid request");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.query.is_empty());

        let mut bad = "NOT-HTTP\r\n\r\n".as_bytes();
        assert!(read_request(&mut bad).is_err());

        let mut empty = "".as_bytes();
        assert!(read_request(&mut empty).is_err());
    }

    #[test]
    fn responses_carry_length_and_close() {
        let mut out = Vec::new();
        Response::json("{}".into())
            .write_to(&mut out)
            .expect("write");
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn extra_headers_and_status_overrides_serialize() {
        let mut out = Vec::new();
        Response::error(429, "queue full")
            .with_header("Retry-After", "10")
            .write_to(&mut out)
            .expect("write");
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Retry-After: 10\r\n"));

        let accepted = Response::json("{}".into()).with_status(202);
        assert_eq!(accepted.status, 202);
        assert_eq!(accepted.reason(), "Accepted");
    }

    /// A writer that takes every buffer whole and counts `write` calls.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_response_goes_out_in_one_write() {
        let response = Response::error(429, "queue full").with_header("Retry-After", "10");
        let mut out = CountingWriter::default();
        response.write_to(&mut out).expect("write");
        assert_eq!(out.writes, 1, "status line, headers and body in one write");
        let body = String::from_utf8(response.body.clone()).expect("utf8");
        let expected = format!(
            "HTTP/1.1 429 Too Many Requests\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nConnection: close\r\nRetry-After: 10\r\n\r\n{body}",
            body.len()
        );
        assert_eq!(String::from_utf8(out.bytes).expect("utf8"), expected);
    }
}
