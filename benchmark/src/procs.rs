//! Child-process hygiene: every `sam-cli` the harness starts runs in its own
//! process group on an ephemeral port and is killed and reaped when its
//! guard drops — on success, on a failed check, and while a panic unwinds.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}
const SIGKILL: i32 = 9;
const PR_SET_PDEATHSIG: i32 = 1;

/// How long a child may take to print its `listening on` banner.
const BANNER_TIMEOUT: Duration = Duration::from_secs(60);

/// A running `sam-cli serve` or `sam-cli router` and everything it spawned.
pub struct ChildGuard {
    child: std::process::Child,
    stdout_drain: Option<JoinHandle<()>>,
    /// Address parsed from the child's `listening on http://ADDR` line.
    pub addr: SocketAddr,
    /// Spawn → banner.
    pub startup: Duration,
}

impl ChildGuard {
    /// Start `exe args…`, wait for the banner, and return the bound address.
    /// The child's stderr goes to `stderr_log`.
    pub fn spawn(exe: &Path, args: &[String], stderr_log: &Path) -> Result<ChildGuard, String> {
        let log = std::fs::File::create(stderr_log)
            .map_err(|e| format!("create {}: {e}", stderr_log.display()))?;
        let started = Instant::now();
        let mut command = Command::new(exe);
        command
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log)
            // Own group: a router's workers inherit it, so one signal to the
            // group reaches processes the harness never saw spawn.
            .process_group(0);
        // SAFETY: the closure runs in the forked child before exec and makes
        // one raw system call with integer arguments — no allocation, no
        // locks, nothing that is unsafe after fork. It asks the kernel to
        // kill the child if the harness dies without dropping its guard
        // (a signal, a timeout kill), so no server outlives a run.
        unsafe {
            command.pre_exec(|| {
                prctl(PR_SET_PDEATHSIG, SIGKILL as u64, 0, 0, 0);
                Ok(())
            });
        }
        let mut child = command
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        let stdout = child.stdout.take().expect("stdout was piped");

        // The reader thread reports the banner, then keeps draining so the
        // child never blocks on a full pipe; it ends at EOF when the child
        // dies.
        let (tx, rx) = mpsc::channel::<String>();
        let drain = std::thread::spawn(move || {
            let mut announced = false;
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if !announced {
                    if let Some(rest) = line.split("listening on http://").nth(1) {
                        if let Some(token) = rest.split_whitespace().next() {
                            announced = tx.send(token.to_string()).is_ok();
                        }
                    }
                }
            }
        });
        let mut guard = ChildGuard {
            child,
            stdout_drain: Some(drain),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            startup: Duration::ZERO,
        };
        // On any error below the guard drops and reaps the child.
        let banner = rx.recv_timeout(BANNER_TIMEOUT).map_err(|_| {
            format!(
                "{} {} did not announce an address (see {})",
                exe.display(),
                args.first().map_or("", String::as_str),
                stderr_log.display()
            )
        })?;
        guard.startup = started.elapsed();
        guard.addr = banner
            .parse()
            .map_err(|e| format!("child announced {banner:?}: {e}"))?;
        Ok(guard)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        let pgid = self.child.id() as i32;
        // SAFETY: `kill(2)` takes two integers and touches no memory. The
        // group id is this child's pid (it was spawned with
        // `process_group(0)` and has not been waited on, so the id cannot
        // have been reused); a negative pid addresses the whole group.
        unsafe {
            kill(-pgid, SIGKILL);
        }
        let _ = self.child.wait();
        if let Some(drain) = self.stdout_drain.take() {
            // Ends once every holder of the pipe's write end (the child and
            // any worker that inherited it) is gone.
            let _ = drain.join();
        }
    }
}

/// Block until none of `pids` exists any more (workers of a killed router
/// are reaped by init, not by the harness, so their exit is observed here).
pub fn wait_gone(pids: &[u32], timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    loop {
        let alive = pids.iter().any(|pid| {
            // A zombie still has a /proc entry; its state letter says so.
            std::fs::read_to_string(format!("/proc/{pid}/stat"))
                .map(|stat| {
                    !stat
                        .rsplit(") ")
                        .next()
                        .is_some_and(|rest| rest.starts_with('Z'))
                })
                .unwrap_or(false)
        });
        if !alive {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// One field of `/proc/<pid>/status` in kB (`VmHWM`, `VmRSS`).
fn proc_status_kb(pid: &str, field: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of a process in MB (`VmHWM`), 0 if it is gone.
pub fn peak_rss_mb(pid: u32) -> f64 {
    proc_status_kb(&pid.to_string(), "VmHWM:").unwrap_or(0.0) / 1024.0
}

/// Peak resident set of this process in MB.
pub fn own_peak_rss_mb() -> f64 {
    proc_status_kb("self", "VmHWM:").unwrap_or(0.0) / 1024.0
}

/// User + system CPU seconds of this process and its reaped children.
/// `/proc/self/stat` counts in clock ticks, which Linux fixes at 100 per
/// second for user space.
pub fn own_cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime is field 14 overall.
    let Some(rest) = stat.rsplit(") ").next() else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12) + tick(13) + tick(14)) / 100.0
}
