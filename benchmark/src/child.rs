//! Child hygiene: scratch directories, timed child processes with
//! resource usage, and a daemon guard that never lets `repro serve`
//! outlive the driver.
//!
//! The driver runs one child at a time. Every child gets a fresh working
//! directory under `benchmark/out/tmp/`, so nothing lands in the
//! repository; its stdout and stderr go to files there (no pipe can fill
//! up and stall it).

use std::fs::{self, File};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// `struct rusage` of 64-bit Linux: two `timeval`s, then 14 `long`s of
/// which `ru_maxrss` (KiB) is the first.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kib: i64,
    rest: [i64; 13],
}

const WNOHANG: i32 = 1;

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
}

/// Reap `pid` if it has exited (or block until it does), returning its
/// wait status and resource usage. `None` while it is still running.
fn reap(pid: u32, block: bool) -> std::io::Result<Option<(i32, RUsage)>> {
    let mut status = 0i32;
    let mut usage = RUsage::default();
    // SAFETY: `status` and `usage` are live, writable, and laid out as
    // wait4(2) expects on 64-bit Linux (`RUsage` is repr(C), 144 bytes);
    // `pid` is a child this process spawned and has not reaped yet, so
    // the call cannot collect an unrelated process.
    let got =
        unsafe { wait4(pid as i32, &mut status, if block { 0 } else { WNOHANG }, &mut usage) };
    match got {
        0 => Ok(None),
        n if n > 0 => Ok(Some((status, usage))),
        _ => Err(std::io::Error::last_os_error()),
    }
}

/// How a child ended.
#[derive(Clone, Debug, PartialEq)]
pub enum Exit {
    Code(i32),
    Signal(i32),
    TimedOut,
}

/// A finished child: how it ended, what it cost, what it printed.
#[derive(Clone, Debug)]
pub struct Finished {
    pub exit: Exit,
    /// Spawn to reaped exit.
    pub wall_s: f64,
    /// User + system CPU seconds.
    pub cpu_s: f64,
    /// `ru_maxrss`.
    pub peak_rss_mb: f64,
    pub stdout: String,
    pub stderr: String,
}

impl Finished {
    pub fn ok(&self) -> bool {
        self.exit == Exit::Code(0)
    }

    /// Why this child counts as a failed op, if it does.
    pub fn failure(&self, what: &str) -> Option<String> {
        match self.exit {
            Exit::Code(0) => None,
            Exit::Code(c) => Some(format!("{what}: exit code {c}: {}", self.stderr.trim())),
            Exit::Signal(s) => Some(format!("{what}: killed by signal {s}")),
            Exit::TimedOut => Some(format!("{what}: timed out after {:.0} s", self.wall_s)),
        }
    }
}

static SCRATCH_SERIAL: AtomicU64 = AtomicU64::new(0);

/// A fresh directory under `<out>/tmp/`, removed when dropped.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(out_dir: &Path) -> std::io::Result<Scratch> {
        let serial = SCRATCH_SERIAL.fetch_add(1, Ordering::Relaxed);
        let dir = out_dir.join("tmp").join(format!("{}-{serial}", std::process::id()));
        fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// A spawned child that is killed and reaped if dropped unreaped, so no
/// error path leaves a process behind.
struct Running {
    child: Child,
    started: Instant,
    reaped: bool,
    log_stem: PathBuf,
}

impl Running {
    /// Spawn `program args…` in `cwd`, output to `<cwd>/<tag>.{out,err}`.
    fn spawn(program: &Path, args: &[&str], cwd: &Path, tag: &str) -> Result<Running, String> {
        let log_stem = cwd.join(tag);
        let file = |ext: &str| {
            File::create(log_stem.with_extension(ext))
                .map_err(|e| format!("create {tag}.{ext}: {e}"))
        };
        let started = Instant::now();
        let child = Command::new(program)
            .args(args)
            .current_dir(cwd)
            .stdin(Stdio::null())
            .stdout(file("out")?)
            .stderr(file("err")?)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", program.display()))?;
        Ok(Running { child, started, reaped: false, log_stem })
    }

    fn finish(&self, exit: Exit, usage: &RUsage) -> Finished {
        let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 / 1e6;
        let read =
            |ext: &str| fs::read_to_string(self.log_stem.with_extension(ext)).unwrap_or_default();
        Finished {
            exit,
            wall_s: self.started.elapsed().as_secs_f64(),
            cpu_s: secs(usage.utime) + secs(usage.stime),
            peak_rss_mb: usage.maxrss_kib as f64 / 1024.0,
            stdout: read("out"),
            stderr: read("err"),
        }
    }

    /// Wait for the child, killing it once `timeout` from now has passed.
    fn wait(&mut self, timeout: Duration) -> Result<Finished, String> {
        let pid = self.child.id();
        let deadline = Instant::now() + timeout;
        let mut timed_out = false;
        // A blocking wait is exact; it is only safe when the child cannot
        // hang, so poll (0.5 ms) until the deadline and block after the kill.
        loop {
            let block = timed_out;
            if let Some((status, usage)) = reap(pid, block).map_err(|e| format!("wait4: {e}"))? {
                self.reaped = true;
                let exit = if timed_out {
                    Exit::TimedOut
                } else if status & 0x7f == 0 {
                    Exit::Code((status >> 8) & 0xff)
                } else {
                    Exit::Signal(status & 0x7f)
                };
                return Ok(self.finish(exit, &usage));
            }
            if Instant::now() >= deadline {
                let _ = self.child.kill();
                timed_out = true;
            } else {
                std::thread::sleep(Duration::from_micros(500));
            }
        }
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        if !self.reaped {
            let _ = self.child.kill();
            let _ = reap(self.child.id(), true);
        }
    }
}

/// Run one child to completion (or `timeout`) in `cwd`.
pub fn run(
    program: &Path,
    args: &[&str],
    cwd: &Path,
    tag: &str,
    timeout: Duration,
) -> Result<Finished, String> {
    Running::spawn(program, args, cwd, tag)?.wait(timeout)
}

const SOCKET: &str = "s.sock";
const CTL_TIMEOUT: Duration = Duration::from_secs(10);

/// A `repro serve` daemon bound to `<cwd>/s.sock`, single-threaded
/// (`--threads 1 --sim-threads 1`). `shutdown` is the normal path;
/// dropping it on any other path kills the daemon.
pub struct Daemon {
    running: Running,
    repro: PathBuf,
    cwd: PathBuf,
    /// Spawn until `ctl status` first answered.
    pub ready_s: f64,
}

impl Daemon {
    /// Start the daemon in `cwd` and wait until `ctl status` answers.
    pub fn start(repro: &Path, cwd: &Path, timeout: Duration) -> Result<Daemon, String> {
        let args = ["serve", "--socket", SOCKET, "--threads", "1", "--sim-threads", "1"];
        let running = Running::spawn(repro, &args, cwd, "serve")?;
        let mut daemon =
            Daemon { running, repro: repro.to_path_buf(), cwd: cwd.to_path_buf(), ready_s: 0.0 };
        loop {
            // The socket file appears once the daemon has bound it; only
            // then is a status request worth a process.
            if cwd.join(SOCKET).exists() && daemon.ctl("status")?.ok() {
                daemon.ready_s = daemon.running.started.elapsed().as_secs_f64();
                return Ok(daemon);
            }
            if daemon.running.started.elapsed() >= timeout {
                return Err(format!("daemon did not answer `ctl status` within {timeout:?}"));
            }
            if let Some((status, _)) =
                reap(daemon.running.child.id(), false).map_err(|e| e.to_string())?
            {
                daemon.running.reaped = true;
                return Err(format!("daemon exited during start-up (wait status {status})"));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// The socket path clients pass, relative to the daemon's directory.
    pub fn socket(&self) -> &'static str {
        SOCKET
    }

    pub fn ctl(&self, verb: &str) -> Result<Finished, String> {
        run(
            &self.repro,
            &["ctl", verb, "--socket", SOCKET],
            &self.cwd,
            &format!("ctl-{verb}"),
            CTL_TIMEOUT,
        )
    }

    /// Ask the daemon to shut down and reap it; returns what it cost.
    pub fn shutdown(mut self) -> Result<Finished, String> {
        let asked = self.ctl("shutdown")?;
        if let Some(why) = asked.failure("ctl shutdown") {
            return Err(why);
        }
        self.running.wait(CTL_TIMEOUT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn out_dir() -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
    }

    #[test]
    fn a_child_reports_exit_output_and_usage() {
        let scratch = Scratch::new(&out_dir()).unwrap();
        let sh = Path::new("/bin/sh");
        let done =
            run(sh, &["-c", "echo hello; echo oops >&2; exit 3"], scratch.path(), "t", CTL_TIMEOUT)
                .unwrap();
        assert_eq!(done.exit, Exit::Code(3));
        assert_eq!((done.stdout.as_str(), done.stderr.as_str()), ("hello\n", "oops\n"));
        assert!(done.peak_rss_mb > 0.0 && done.wall_s > 0.0);
        assert!(done.failure("sh").unwrap().contains("exit code 3: oops"));
    }

    #[test]
    fn a_hung_child_is_killed_at_its_timeout() {
        let scratch = Scratch::new(&out_dir()).unwrap();
        let done = run(
            Path::new("/bin/sh"),
            &["-c", "sleep 30"],
            scratch.path(),
            "t",
            Duration::from_millis(50),
        )
        .unwrap();
        assert_eq!(done.exit, Exit::TimedOut);
        assert!(done.wall_s < 5.0);
        assert!(done.failure("sleep").unwrap().contains("timed out"));
    }

    #[test]
    fn scratch_directories_are_fresh_and_removed() {
        let (a, b) = (Scratch::new(&out_dir()).unwrap(), Scratch::new(&out_dir()).unwrap());
        assert_ne!(a.path(), b.path());
        let kept = a.path().to_path_buf();
        fs::write(kept.join("f"), "x").unwrap();
        drop(a);
        assert!(!kept.exists());
    }

    #[test]
    fn dropping_a_running_child_kills_it() {
        let scratch = Scratch::new(&out_dir()).unwrap();
        let running =
            Running::spawn(Path::new("/bin/sh"), &["-c", "sleep 30"], scratch.path(), "t").unwrap();
        let pid = running.child.id();
        drop(running);
        // Reaped by the drop: the pid is no longer our child.
        assert!(reap(pid, false).is_err());
    }
}
