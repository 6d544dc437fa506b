//! A minimal HTTP/1.1 client for `simc serve`, and the daemon's process
//! handle. The daemon answers one request per connection.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use simc_obs::json::{self, Value};

/// Client-side timeout: a request slower than this counts as failed.
pub const TIMEOUT: Duration = Duration::from_secs(30);

/// A parsed response.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// The `X-Simc-Flight` header (`led` / `joined`), if present.
    pub flight: Option<String>,
    /// The response body.
    pub body: String,
    /// When the last byte arrived.
    pub received: Instant,
}

/// Sends one request to `addr` and reads the whole response.
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &str,
) -> std::io::Result<Response> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(TIMEOUT))?;
    stream.set_write_timeout(Some(TIMEOUT))?;
    let mut raw = format!("{method} {path} HTTP/1.1\r\nHost: perfbench\r\n");
    for (name, value) in headers {
        raw.push_str(&format!("{name}: {value}\r\n"));
    }
    raw.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
    raw.push_str(body);
    stream.write_all(raw.as_bytes())?;
    let mut response = Vec::new();
    stream.read_to_end(&mut response)?;
    let received = Instant::now();
    parse_response(&String::from_utf8_lossy(&response), received)
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed response"))
}

fn parse_response(text: &str, received: Instant) -> Option<Response> {
    let (head, body) = text.split_once("\r\n\r\n")?;
    let mut lines = head.lines();
    let status = lines.next()?.split_whitespace().nth(1)?.parse().ok()?;
    let flight = lines.find_map(|line| {
        let (name, value) = line.split_once(':')?;
        name.eq_ignore_ascii_case("x-simc-flight")
            .then(|| value.trim().to_string())
    });
    Some(Response {
        status,
        flight,
        body: body.to_string(),
        received,
    })
}

/// A running `simc serve --port 0` child with a cache directory of its
/// own. Dropping it kills a still-running child and removes the cache;
/// [`Daemon::shutdown`] drains it first.
pub struct Daemon {
    child: Child,
    /// Held open so the daemon never writes into a closed pipe.
    _stdout: BufReader<std::process::ChildStdout>,
    /// `host:port` the daemon announced.
    pub addr: String,
    cache_dir: PathBuf,
}

impl Daemon {
    /// Spawns the daemon with `threads` workers and waits for its
    /// `listening on http://…` announcement.
    pub fn spawn(simc: &Path, threads: usize, cache_dir: PathBuf) -> std::io::Result<Daemon> {
        let _ = std::fs::remove_dir_all(&cache_dir);
        std::fs::create_dir_all(&cache_dir)?;
        let mut child = Command::new(simc)
            .args([
                "serve",
                "--port",
                "0",
                "--threads",
                &threads.to_string(),
                "--cache-dir",
            ])
            .arg(&cache_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut stdout = BufReader::new(stdout);
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        let Some(addr) = line.trim().strip_prefix("listening on http://") else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(std::io::Error::other(format!(
                "unexpected announcement `{line}`"
            )));
        };
        Ok(Daemon {
            addr: addr.to_string(),
            child,
            _stdout: stdout,
            cache_dir,
        })
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// `GET` a JSON document (`/stats`, `/healthz`).
    pub fn get_json(&self, path: &str) -> Option<Value> {
        let response = request(&self.addr, "GET", path, &[], "").ok()?;
        (response.status == 200)
            .then(|| json::parse(&response.body).ok())
            .flatten()
    }

    /// Drains the daemon and waits for it; `true` on a clean exit.
    pub fn shutdown(mut self) -> bool {
        let asked =
            request(&self.addr, "POST", "/shutdown", &[], "").is_ok_and(|r| r.status == 200);
        let exited = self.child.wait().is_ok_and(|s| s.success());
        asked && exited
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.cache_dir);
    }
}

/// One counter out of a `/stats` document (0 when absent).
pub fn counter(stats: &Value, name: &str) -> u64 {
    stats
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(Value::as_u64)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_flight_and_body() {
        let raw = "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nX-Simc-Flight: joined\r\n\r\n{\"a\":1}";
        let response = parse_response(raw, Instant::now()).expect("parses");
        assert_eq!(response.status, 200);
        assert_eq!(response.flight.as_deref(), Some("joined"));
        assert_eq!(response.body, "{\"a\":1}");
        assert!(parse_response("garbage", Instant::now()).is_none());
    }
}
