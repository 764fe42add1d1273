//! The system under test: the real `annoda-serve` binary as a child
//! process, its address read from its stdout, stopped with `quit` on
//! its stdin, and observed from outside through `/proc` and `/metrics`.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use crate::client::{encode_get, Conn};

/// A running `annoda-serve`.
pub struct Sut {
    child: Child,
    stdin: Option<ChildStdin>,
    /// Held open (and unread) for the child's lifetime: a closed pipe
    /// would turn its next `println!` into a panic.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    /// When the process was exec'd (the origin of `setup_s`).
    pub started: Instant,
}

impl Sut {
    /// Spawns `binary` with `args` plus an ephemeral `--addr`, and
    /// waits for the line that names the bound address.
    pub fn spawn(binary: &Path, args: &[String]) -> io::Result<Sut> {
        let started = Instant::now();
        let mut child = Command::new(binary)
            .args(["--addr", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdin = child.stdin.take();
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if stdout.read_line(&mut line)? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "annoda-serve exited before listening",
                ));
            }
            if let Some(addr) = line
                .trim()
                .strip_prefix("annoda-serve listening on http://")
            {
                break addr
                    .parse::<SocketAddr>()
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            }
        };
        // The route listing that follows is short and fits the pipe;
        // nothing else is ever written to stdout.
        Ok(Sut {
            child,
            stdin,
            _stdout: stdout,
            addr,
            started,
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Graceful stop: `quit` on stdin, then wait; kill after 15 s.
    pub fn stop(mut self) -> io::Result<()> {
        if let Some(mut stdin) = self.stdin.take() {
            let _ = stdin.write_all(b"quit\n");
        }
        let deadline = Instant::now() + Duration::from_secs(15);
        loop {
            if self.child.try_wait()?.is_some() {
                return Ok(());
            }
            if Instant::now() >= deadline {
                self.child.kill()?;
                self.child.wait()?;
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "annoda-serve did not stop on quit",
                ));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Sut {
    fn drop(&mut self) {
        // Only reached on an error path; `stop` consumes the value.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Clock ticks per second, for `/proc/<pid>/stat` times.
fn clock_ticks_per_second() -> f64 {
    extern "C" {
        fn sysconf(name: i32) -> i64;
    }
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: `sysconf` takes an integer selector and returns a value
    // or -1; it reads no memory of ours.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    if ticks > 0 {
        ticks as f64
    } else {
        100.0
    }
}

/// CPU milliseconds (`utime + stime`, all threads) a process has used.
pub fn cpu_ms(pid: &str) -> io::Result<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // The command name may contain spaces; fields resume after `)`.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or(&stat);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: f64 = [11, 12]
        .iter()
        .filter_map(|&i| fields.get(i)?.parse::<f64>().ok())
        .sum();
    Ok(ticks * 1000.0 / clock_ticks_per_second())
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib(pid: u32) -> io::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM"))
}

/// One `/metrics` scrape: metric name → value, labelled series of one
/// name summed.
pub type Scrape = BTreeMap<String, f64>;

pub fn scrape(conn: &mut Conn) -> io::Result<Scrape> {
    let reply = conn.exchange(&encode_get("/metrics", false, None))?;
    if reply.status != 200 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("/metrics answered {}", reply.status),
        ));
    }
    let mut out = Scrape::new();
    for line in String::from_utf8_lossy(&reply.body).lines() {
        if line.starts_with('#') {
            continue;
        }
        let Some((series, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let Ok(value) = value.parse::<f64>() else {
            continue;
        };
        let name = series.split('{').next().unwrap_or(series);
        *out.entry(name.to_string()).or_insert(0.0) += value;
    }
    Ok(out)
}

/// `after − before` of one counter (0 when absent).
pub fn delta(before: &Scrape, after: &Scrape, name: &str) -> f64 {
    after.get(name).copied().unwrap_or(0.0) - before.get(name).copied().unwrap_or(0.0)
}
