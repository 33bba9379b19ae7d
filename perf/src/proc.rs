//! Child processes of the real `typefuse` binary: one-shot runs reaped
//! with `wait4` (per-run CPU time and peak RSS), and the serve daemon
//! behind a guard that never leaves a process running.

use crate::cpus::{Cpus, Pace, Placed};
use std::io::{self, BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// `struct rusage` on 64-bit Linux: two `timeval`s and fourteen `long`s.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime_sec: i64,
    utime_usec: i64,
    stime_sec: i64,
    stime_usec: i64,
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// What one finished child cost.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// Spawn → exit, seconds.
    pub wall_s: f64,
    /// User + system CPU, seconds.
    pub cpu_s: f64,
    /// The child's `ru_maxrss`, MB.
    pub peak_rss_mb: f64,
    /// Exited normally with status 0.
    pub success: bool,
    /// How disturbed its CPU was meanwhile.
    pub pace: Pace,
}

/// Spawn `command` on the fastest CPU and block until it exits,
/// collecting its own rusage (not the cumulative `RUSAGE_CHILDREN`, which
/// only ever grows).
pub fn run_to_exit(command: &mut Command, cpus: &Cpus) -> io::Result<Usage> {
    let ((start, child), placed) = cpus.on_fastest(|| (Instant::now(), command.spawn()));
    let child = child?;
    let mut status = 0i32;
    let mut usage = Rusage::default();
    // SAFETY: `status` and `usage` are live, writable and laid out as
    // wait4(2) expects on 64-bit Linux; the pid is our own unreaped
    // child. `Child` is never waited on afterwards (its drop does not
    // wait), so the pid is reaped exactly once.
    let reaped = unsafe { wait4(child.id() as i32, &mut status, 0, &mut usage) };
    let wall_s = start.elapsed().as_secs_f64();
    let pace = cpus.pace(&placed);
    if reaped < 0 {
        return Err(io::Error::last_os_error());
    }
    let secs = |sec: i64, usec: i64| sec as f64 + usec as f64 / 1e6;
    Ok(Usage {
        wall_s,
        cpu_s: secs(usage.utime_sec, usage.utime_usec) + secs(usage.stime_sec, usage.stime_usec),
        peak_rss_mb: usage.maxrss_kb as f64 / 1024.0,
        // WIFEXITED && WEXITSTATUS == 0.
        success: status & 0x7f == 0 && (status >> 8) & 0xff == 0,
        pace,
    })
}

/// Peak resident set (`VmHWM`) of a live process, MB.
pub fn vm_hwm_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// A running `typefuse serve` child. Dropping it kills and reaps the
/// process, so no exit path of the harness leaves a daemon behind.
pub struct Daemon {
    child: Child,
    /// The address from the daemon's `listening` line.
    pub addr: String,
    /// When the `listening` line was read.
    pub listening_at: Instant,
    /// The CPU it is confined to.
    pub placed: Placed,
}

impl Daemon {
    /// Start `typefuse serve` tailing `file` as source `s` on the fastest
    /// CPU, with the flags the benchmark fixes, and wait for its
    /// `listening` line.
    pub fn spawn(
        bin: &Path,
        file: &Path,
        checkpoint_dir: &Path,
        stderr: &Path,
        cpus: &Cpus,
    ) -> io::Result<Self> {
        let mut command = Command::new(bin);
        command
            .arg("serve")
            .args(["--listen", "127.0.0.1:0", "--poll-ms", "5"])
            .args(["--on-error", "skip"])
            .arg("--watch")
            .arg(format!("s={}", file.display()))
            .arg("--checkpoint-dir")
            .arg(checkpoint_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(std::fs::File::create(stderr)?);
        let (child, placed) = cpus.on_fastest(|| command.spawn());
        let mut child = child?;
        let mut line = String::new();
        let stdout = child.stdout.take().expect("stdout was piped");
        let read = BufReader::new(stdout).read_line(&mut line);
        let listening_at = Instant::now();
        let addr = read.ok().and_then(|_| {
            let envelope = typefuse::json::Envelope::expect_kind(&line, "listening").ok()?;
            Some(envelope.payload.get("addr")?.as_str()?.to_string())
        });
        // From here on the guard owns the child: an early return kills it.
        let daemon = Daemon {
            child,
            addr: addr.clone().unwrap_or_default(),
            listening_at,
            placed,
        };
        if addr.is_none() {
            return Err(io::Error::other(format!(
                "serve did not print a listening line (got {line:?}; see {})",
                stderr.display()
            )));
        }
        Ok(daemon)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Wait for the daemon to exit after a protocol `shutdown`; true if
    /// it exited with status 0 within ten seconds.
    pub fn wait_exit(mut self) -> bool {
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) => return status.success(),
                Ok(None) => std::thread::sleep(Duration::from_millis(2)),
                Err(_) => return false,
            }
        }
        false
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Errors mean the child is already gone, which is the goal.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
