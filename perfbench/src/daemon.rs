//! The spawned `dbscan serve` child, behind a guard that kills and reaps it
//! (and removes its socket) on every exit path, including a panic or an
//! early `?` return in the workload code.

use dbscan_server::json::{parse, Value};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

pub struct Daemon {
    child: Option<Child>,
    socket: PathBuf,
    pid: u32,
}

impl Daemon {
    /// Spawns `bin serve --socket socket --workers workers [--journal dir
    /// --journal-sync always]` and waits for its first successful `health`.
    /// Returns the guard and the spawn-to-health time.
    pub fn start(
        bin: &Path,
        socket: &Path,
        workers: usize,
        journal: Option<&Path>,
        log: &Path,
    ) -> Result<(Daemon, Duration), String> {
        let _ = std::fs::remove_file(socket);
        let log_file = std::fs::File::create(log).map_err(|e| format!("daemon log: {e}"))?;
        let mut cmd = Command::new(bin);
        cmd.arg("serve")
            .arg("--socket")
            .arg(socket)
            .arg("--workers")
            .arg(workers.to_string());
        if let Some(dir) = journal {
            cmd.arg("--journal")
                .arg(dir)
                .arg("--journal-sync")
                .arg("always");
        }
        cmd.stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::from(log_file));
        let t0 = Instant::now();
        let child = cmd
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let mut d = Daemon {
            pid: child.id(),
            child: Some(child),
            socket: socket.to_path_buf(),
        };
        let limit = Duration::from_secs(20);
        loop {
            if let Ok(mut c) = LineConn::connect(socket) {
                if c.call_value(b"{\"verb\":\"health\"}\n")
                    .ok()
                    .and_then(|v| v.get("ok").and_then(Value::as_bool))
                    == Some(true)
                {
                    return Ok((d, t0.elapsed()));
                }
            }
            if let Some(Ok(Some(status))) = d.child.as_mut().map(Child::try_wait) {
                return Err(format!("daemon exited during start-up: {status}"));
            }
            if t0.elapsed() > limit {
                return Err("daemon did not answer health within 20 s".to_string());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    pub fn socket(&self) -> &Path {
        &self.socket
    }

    /// Peak resident memory of the daemon so far, in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        crate::util::proc_status_kb(self.pid, "VmHWM").unwrap_or(0) as f64 / 1024.0
    }

    /// Graceful stop: the `shutdown` verb, then a bounded wait for the
    /// drain; a daemon that does not exit in time is killed. Either way the
    /// child is reaped before this returns.
    pub fn stop(mut self) -> Result<(), String> {
        if let Ok(mut c) = LineConn::connect(&self.socket) {
            let _ = c.call_value(b"{\"verb\":\"shutdown\"}\n");
        }
        let mut child = self.child.take().expect("child present until stop");
        let t0 = Instant::now();
        loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if t0.elapsed() < Duration::from_secs(15) => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("daemon did not drain within 15 s; killed".to_string());
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// One client connection speaking the newline-delimited protocol with
/// pre-serialized frames.
pub struct LineConn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl LineConn {
    pub fn connect(socket: &Path) -> std::io::Result<LineConn> {
        let s = UnixStream::connect(socket)?;
        s.set_read_timeout(Some(Duration::from_secs(60)))?;
        let w = s.try_clone()?;
        Ok(LineConn {
            reader: BufReader::with_capacity(1 << 16, s),
            writer: w,
        })
    }

    /// Writes a frame given as parts (the last one ends in `\n`).
    pub fn send(&mut self, parts: &[&[u8]]) -> std::io::Result<()> {
        for p in parts {
            self.writer.write_all(p)?;
        }
        Ok(())
    }

    /// Reads one response line, without its newline.
    pub fn read_line(&mut self) -> std::io::Result<Vec<u8>> {
        let mut line = Vec::new();
        self.reader.read_until(b'\n', &mut line)?;
        if line.last() != Some(&b'\n') {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        line.pop();
        Ok(line)
    }

    pub fn call_value(&mut self, frame: &[u8]) -> std::io::Result<Value> {
        self.send(&[frame])?;
        let line = self.read_line()?;
        parse_line(&line)
    }
}

pub fn parse_line(line: &[u8]) -> std::io::Result<Value> {
    let text = std::str::from_utf8(line)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    parse(text).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

/// Error code of a response, if it is an error.
pub fn error_code(v: &Value) -> Option<String> {
    if v.get("ok").and_then(Value::as_bool) == Some(true) {
        return None;
    }
    Some(
        v.get("error")
            .and_then(|e| e.get("code"))
            .and_then(Value::as_str)
            .unwrap_or("malformed_response")
            .to_string(),
    )
}
