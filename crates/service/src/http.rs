//! `std::net` HTTP/1.1 transport: accept loop + thread per connection,
//! keep-alive, `Content-Length` bodies. Deliberately minimal — the
//! workspace builds offline (no tokio/hyper), and a blocking
//! thread-per-connection model is exactly right for a simulation
//! service whose requests each burn a worker anyway. Backpressure
//! lives in [`crate::pool`], not in the accept path: accepting is
//! cheap, and a full worker queue answers 429 immediately.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::api::ApiError;
use crate::Service;

/// Largest accepted request body. Inline `.sys` programs are a few KB;
/// anything near this limit is abuse, answered with a structured 413.
pub const MAX_BODY: usize = 1 << 20;

/// Largest accepted head (request line, headers, blank line). Without a
/// bound a client that never sends a newline grows a `String` for ever.
const MAX_HEAD: u64 = 16 << 10;

/// A running server: its bound address and a shutdown handle.
pub struct ServerHandle {
    pub addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// Stop accepting and join the accept loop. In-flight connections
    /// finish their current response and close.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

/// Serve `service` on `listener` until [`ServerHandle::shutdown`].
pub fn serve(service: Arc<Service>, listener: TcpListener) -> std::io::Result<ServerHandle> {
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop_accept = Arc::clone(&stop);
    let accept_thread = std::thread::Builder::new()
        .name("http-accept".into())
        .spawn(move || {
            for conn in listener.incoming() {
                if stop_accept.load(Ordering::SeqCst) {
                    return;
                }
                let Ok(stream) = conn else { continue };
                let svc = Arc::clone(&service);
                let stop_conn = Arc::clone(&stop_accept);
                // Connection threads are cheap (small stacks, mostly
                // blocked on read); 1000+ concurrent clients are fine
                // under the default fd limit.
                let _ = std::thread::Builder::new()
                    .name("http-conn".into())
                    .stack_size(128 * 1024)
                    .spawn(move || handle_connection(svc, stream, stop_conn));
            }
        })?;
    Ok(ServerHandle {
        addr,
        stop,
        accept_thread: Some(accept_thread),
    })
}

fn handle_connection(service: Arc<Service>, stream: TcpStream, stop: Arc<AtomicBool>) {
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut stream = stream;
    while !stop.load(Ordering::SeqCst) {
        let (method, path, body, keep_alive) = match read_request(&mut reader) {
            Ok(Some(r)) => r,
            Ok(None) => return, // clean EOF between requests
            Err(e) => {
                let _ = write_response(&mut stream, e.status, &e.to_json(), false);
                return;
            }
        };
        let (status, response) = route(&service, &method, &path, &body);
        if write_response(&mut stream, status, &response, keep_alive).is_err() || !keep_alive {
            return;
        }
    }
}

/// Dispatch one request. Unknown routes are structured 404s.
pub fn route(service: &Arc<Service>, method: &str, path: &str, body: &str) -> (u16, String) {
    match (method, path) {
        ("POST", "/v1/run") => service.handle_run(body),
        ("POST", "/v1/replay") => service.handle_replay(body),
        ("GET", "/stats") => (200, service.stats_json()),
        ("GET", "/healthz") => (200, "{\"ok\":true}".to_string()),
        ("POST", "/debug/panic") if service.config.debug_panic_route => {
            service.handle_debug_panic()
        }
        _ => {
            let e = ApiError::new(404, "not-found", format!("no route {method} {path}"));
            (e.status, e.to_json())
        }
    }
}

type Request = (String, String, String, bool);

/// Read one HTTP/1.1 request. `Ok(None)` is a clean close before the
/// request line (keep-alive ending).
fn read_request(reader: &mut BufReader<TcpStream>) -> Result<Option<Request>, ApiError> {
    // Read through a `Take`: a line that stops short of its newline with
    // the allowance spent was ended by the cap, not by the client.
    let mut head = reader.by_ref().take(MAX_HEAD);
    let within_cap = |head: &std::io::Take<_>, line: &str| {
        if head.limit() > 0 || line.ends_with('\n') {
            return Ok(());
        }
        Err(ApiError::new(
            431,
            "headers-too-large",
            format!("request line and headers exceed {MAX_HEAD} bytes"),
        ))
    };
    let mut line = String::new();
    match head.read_line(&mut line) {
        Ok(0) => return Ok(None),
        Ok(_) => {}
        Err(_) => return Ok(None),
    }
    within_cap(&head, &line)?;
    let mut parts = line.split_whitespace();
    let (Some(method), Some(path)) = (parts.next(), parts.next()) else {
        return Err(ApiError::bad_request("malformed request line"));
    };
    let (method, path) = (method.to_string(), path.to_string());
    let mut content_length = 0usize;
    let mut keep_alive = true; // HTTP/1.1 default
    loop {
        let mut h = String::new();
        let read = head.read_line(&mut h);
        within_cap(&head, &h)?;
        match read {
            Ok(0) => return Err(ApiError::bad_request("connection closed mid-headers")),
            Ok(_) => {}
            Err(_) => return Err(ApiError::bad_request("unreadable headers")),
        }
        let h = h.trim_end();
        if h.is_empty() {
            break;
        }
        if let Some((name, value)) = h.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .parse()
                    .map_err(|_| ApiError::bad_request("bad Content-Length"))?;
            } else if name.eq_ignore_ascii_case("connection") && value.eq_ignore_ascii_case("close")
            {
                keep_alive = false;
            }
        }
    }
    if content_length > MAX_BODY {
        return Err(ApiError::new(
            413,
            "body-too-large",
            format!("request body {content_length} exceeds {MAX_BODY} bytes"),
        ));
    }
    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|_| ApiError::bad_request("short request body"))?;
    let body = String::from_utf8(body).map_err(|_| ApiError::bad_request("body is not UTF-8"))?;
    Ok(Some((method, path, body, keep_alive)))
}

fn write_response(
    stream: &mut TcpStream,
    status: u16,
    body: &str,
    keep_alive: bool,
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "OK",
    };
    let conn = if keep_alive { "keep-alive" } else { "close" };
    write!(
        stream,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {conn}\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()
}
