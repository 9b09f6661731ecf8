//! Worker pool primitives: model placement specs, the job-id partition, and
//! supervised `sam-serve` worker processes.
//!
//! Every worker slot owns a disjoint `u64` job-id range (slot `s` mints ids
//! in `(s·2³², (s+1)·2³²]` via the serve side's `--job-id-base`), so
//! `/jobs/{id}` requests route to the shard that accepted the job with no
//! shared state — the id itself is the routing key. A slot's range, journal
//! store, and model set survive the worker *process*: a restarted (or
//! replacement) process on the same slot resumes from the shared per-shard
//! store directory and keeps minting from the same range.
//!
//! A worker does not outlive its router, however the router ends: on
//! Linux each worker asks the kernel for SIGKILL when the thread that
//! forked it exits (`PR_SET_PDEATHSIG`). That is a thread's exit, not the
//! process's, and workers are spawned from the starting thread, the health
//! thread and admin request threads, which end with their connection; so
//! every worker is forked on one spawner thread that lives as long as the
//! process.

use std::io::{BufRead, BufReader, Read};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::{mpsc, OnceLock};
use std::time::Instant;

/// Job-id range width per worker slot. Large enough that no shard exhausts
/// its range (2³² jobs), small enough that `u64` fits 2³² slots.
pub const JOB_ID_STRIDE: u64 = 1 << 32;

/// First id (exclusive base) of `slot`'s job-id range; passed to the worker
/// as `--job-id-base` so its registry mints `base+1, base+2, ...`.
pub fn job_id_base(slot: usize) -> u64 {
    (slot as u64) * JOB_ID_STRIDE
}

/// The slot whose range contains job `id` (the inverse of
/// [`job_id_base`]).
pub fn slot_for_job(id: u64) -> usize {
    (id.saturating_sub(1) / JOB_ID_STRIDE) as usize
}

/// One model placement: registry name, checkpoint path, optional reference
/// data directory, and an optional pinned slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelSpec {
    /// Registry name the model serves under.
    pub name: String,
    /// Checkpoint path (`sam-cli train --model-out` format) the owning
    /// worker loads — and re-loads on every restart or move.
    pub path: String,
    /// Optional directory of `{table}.csv` reference relations.
    pub data: Option<String>,
    /// Explicit slot pin (`name@slot=path`); `None` places by ring.
    pub pin: Option<usize>,
}

impl ModelSpec {
    /// Parse `name[@slot]=path[=data_dir]` (the `--models` list element).
    /// Whitespace around each part is dropped, and an empty `data_dir`
    /// (`name=path=`) means none.
    ///
    /// # Errors
    ///
    /// A human-readable message for an empty name/path or an unparsable
    /// slot pin.
    pub fn parse(spec: &str) -> Result<ModelSpec, String> {
        let mut parts = spec.splitn(3, '=').map(str::trim);
        let name_part = parts.next().unwrap_or("");
        let path = parts
            .next()
            .filter(|p| !p.is_empty())
            .ok_or_else(|| format!("model spec '{spec}' must be name[@slot]=path[=data_dir]"))?;
        let data = parts.next().filter(|d| !d.is_empty()).map(str::to_string);
        let (name, pin) = match name_part.split_once('@') {
            Some((n, slot)) => {
                let slot: usize = slot
                    .parse()
                    .map_err(|_| format!("model spec '{spec}': bad slot pin '@{slot}'"))?;
                (n, Some(slot))
            }
            None => (name_part, None),
        };
        if name.is_empty() {
            return Err(format!("model spec '{spec}' has an empty model name"));
        }
        Ok(ModelSpec {
            name: name.to_string(),
            path: path.to_string(),
            data,
            pin,
        })
    }

    /// An unpinned placement of `name` (a `POST /models` through the
    /// router). An empty `data` means none.
    ///
    /// # Errors
    ///
    /// When the worker command line could not carry the spec back unchanged
    /// on a restart: [`ModelSpec::to_serve_spec`] must parse back to the
    /// same spec and hold no `,` (the `--models` list separator).
    pub fn placed(name: &str, path: &str, data: Option<&str>) -> Result<ModelSpec, String> {
        let spec = ModelSpec {
            name: name.to_string(),
            path: path.to_string(),
            data: data.filter(|d| !d.is_empty()).map(str::to_string),
            pin: None,
        };
        let line = spec.to_serve_spec();
        if line.contains(',') || ModelSpec::parse(&line).as_ref() != Ok(&spec) {
            return Err(format!(
                "model '{name}' at '{path}' cannot be placed: a name holds no '@', '=' or ',', \
                 a path no '=' or ',', and neither starts or ends with whitespace"
            ));
        }
        Ok(spec)
    }

    /// Render as the `name=path[=data]` element a `sam-cli serve --models`
    /// list accepts (pin dropped — the worker doesn't know about slots).
    pub fn to_serve_spec(&self) -> String {
        match &self.data {
            Some(data) => format!("{}={}={data}", self.name, self.path),
            None => format!("{}={}", self.name, self.path),
        }
    }
}

/// Where a worker is in its lifecycle, as the supervisor sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerHealth {
    /// Process running (or externally managed) but not yet confirmed ready.
    Starting,
    /// Health probes pass and all placed models are loaded.
    Healthy,
    /// Probes fail but no restart is scheduled (external worker, or a
    /// managed process that is alive but unresponsive).
    Down,
    /// Dead managed process; respawn scheduled with exponential backoff.
    Restarting {
        /// Consecutive failed/pending restart attempts.
        attempt: u32,
    },
    /// Deliberately stopped (left the pool); never restarted.
    Stopped,
}

impl WorkerHealth {
    /// Short lower-case label for JSON surfaces.
    pub fn label(&self) -> &'static str {
        match self {
            WorkerHealth::Starting => "starting",
            WorkerHealth::Healthy => "healthy",
            WorkerHealth::Down => "down",
            WorkerHealth::Restarting { .. } => "restarting",
            WorkerHealth::Stopped => "stopped",
        }
    }
}

/// A spawned worker process and the address it bound.
#[derive(Debug)]
pub struct WorkerProcess {
    /// The child process handle (SIGKILL via [`Child::kill`], reap via
    /// [`Child::try_wait`]).
    pub child: Child,
    /// Address parsed from the worker's startup banner (workers bind port
    /// 0, so every spawn gets a fresh ephemeral port).
    pub addr: String,
}

/// Spawn one `sam-serve` worker process and wait for its startup banner.
///
/// `cmd` is the program plus leading arguments (e.g. `["sam-cli",
/// "serve"]`); `args` the per-worker flags. `env` is applied verbatim;
/// the crash-point arming variable [`sam_fault::CRASH_ENV`] is explicitly
/// *removed* first, so a worker only inherits a crash point when its spec
/// asks for one — in particular a supervisor-restarted worker never
/// re-arms the point that just killed its predecessor (which would be a
/// deterministic crash loop).
///
/// # Errors
///
/// `std::io::Error` if the process cannot be spawned or exits before
/// announcing `listening on http://...`.
pub fn spawn_worker(
    cmd: &[String],
    args: &[String],
    env: &[(String, String)],
) -> std::io::Result<WorkerProcess> {
    let (program, leading) = cmd.split_first().ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "empty worker command")
    })?;
    let mut command = Command::new(program);
    command
        .args(leading)
        .args(args)
        .env_remove(sam_fault::CRASH_ENV)
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    for (key, value) in env {
        command.env(key, value);
    }
    let mut child = spawn_on_spawner(command)?;
    let stdout = child.stdout.take().ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::BrokenPipe, "worker stdout not piped")
    })?;
    let mut reader = BufReader::new(stdout);
    let addr = loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            let _ = child.kill();
            let _ = child.wait();
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "worker exited before announcing its address",
            ));
        }
        if let Some(rest) = line.split("listening on http://").nth(1) {
            match rest.split_whitespace().next() {
                Some(token) => break token.to_string(),
                None => continue,
            }
        }
    };
    // Keep draining stdout forever so the worker can never block on a full
    // pipe mid-request.
    std::thread::Builder::new()
        .name("sam-router-worker-stdout".to_string())
        .spawn(move || {
            let mut sink = Vec::new();
            let _ = reader.read_to_end(&mut sink);
        })
        .ok();
    Ok(WorkerProcess { child, addr })
}

/// A command to fork and where to send the child.
type SpawnRequest = (Command, mpsc::Sender<std::io::Result<Child>>);

/// Fork `command` on the spawner thread (see the module docs), started on
/// first use; on Linux the child dies with that thread, which is to say
/// with the process.
fn spawn_on_spawner(mut command: Command) -> std::io::Result<Child> {
    static SPAWNER: OnceLock<Option<mpsc::Sender<SpawnRequest>>> = OnceLock::new();
    let spawner = SPAWNER.get_or_init(|| {
        let (requests, incoming) = mpsc::channel::<SpawnRequest>();
        std::thread::Builder::new()
            .name("sam-router-spawner".to_string())
            .spawn(move || {
                for (mut command, reply) in incoming {
                    let _ = reply.send(command.spawn());
                }
            })
            .ok()
            .map(|_| requests)
    });
    let spawner = spawner
        .as_ref()
        .ok_or_else(|| std::io::Error::other("the worker spawner thread could not be started"))?;
    die_with_parent(&mut command);
    let (reply, answer) = mpsc::channel();
    spawner
        .send((command, reply))
        .map_err(|_| std::io::Error::other("the worker spawner thread is gone"))?;
    answer
        .recv()
        .map_err(|_| std::io::Error::other("the worker spawner thread is gone"))?
}

/// Have the kernel SIGKILL `command`'s child when the thread that forks it
/// exits, and refuse to start a child whose router died before it could
/// ask. Linux only; elsewhere a worker outlives a router killed outright.
#[cfg(target_os = "linux")]
fn die_with_parent(command: &mut Command) {
    use std::ffi::{c_int, c_ulong};
    use std::os::unix::process::CommandExt;
    extern "C" {
        fn prctl(
            option: c_int,
            arg2: c_ulong,
            arg3: c_ulong,
            arg4: c_ulong,
            arg5: c_ulong,
        ) -> c_int;
        fn getppid() -> c_int;
    }
    const PR_SET_PDEATHSIG: c_int = 1;
    const SIGKILL: c_ulong = 9;
    let router = std::process::id() as c_int;
    // SAFETY: the closure runs in the forked child before exec. It makes two
    // raw system calls with integer arguments and builds an `io::Error`
    // without allocating: no locks, nothing that is unsafe after fork.
    unsafe {
        command.pre_exec(move || {
            if prctl(PR_SET_PDEATHSIG, SIGKILL, 0, 0, 0) != 0 {
                return Err(std::io::Error::last_os_error());
            }
            // Reparented already: the router died between fork and prctl.
            if getppid() != router {
                return Err(std::io::ErrorKind::Other.into());
            }
            Ok(())
        });
    }
}

#[cfg(not(target_os = "linux"))]
fn die_with_parent(_command: &mut Command) {}

/// Exponential restart backoff: `base · 2^attempt`, capped. Attempt 0 is
/// the first retry after a death.
pub fn restart_backoff(base_ms: u64, cap_ms: u64, attempt: u32) -> std::time::Duration {
    let exp = base_ms.saturating_mul(1u64 << attempt.min(16));
    std::time::Duration::from_millis(exp.min(cap_ms.max(base_ms)))
}

/// Bookkeeping for a scheduled restart.
#[derive(Debug, Clone, Copy)]
pub struct RestartPlan {
    /// Don't attempt the respawn before this instant.
    pub not_before: Instant,
}

/// Per-worker configuration the router holds on to across restarts.
#[derive(Debug, Clone, Default)]
pub struct WorkerSpec {
    /// Per-shard job store directory (`--journal-dir`); required for
    /// managed workers, the durable half of the shard.
    pub store_dir: Option<PathBuf>,
    /// For an externally managed worker: its address. The router routes
    /// and health-checks it but never spawns or restarts it.
    pub external_addr: Option<String>,
    /// Extra environment applied to the **first** spawn only — the hook
    /// deterministic failover tests use to arm `SAM_FAULT_CRASH` in one
    /// worker generation without crash-looping its successors.
    pub env: Vec<(String, String)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_id_partition_round_trips() {
        assert_eq!(job_id_base(0), 0);
        assert_eq!(job_id_base(3), 3 << 32);
        // First and last id of a few slots map back to the slot.
        for slot in [0usize, 1, 2, 7] {
            let base = job_id_base(slot);
            assert_eq!(slot_for_job(base + 1), slot);
            assert_eq!(slot_for_job(base + JOB_ID_STRIDE), slot);
        }
        // id 0 never minted; degrade to slot 0 rather than panic.
        assert_eq!(slot_for_job(0), 0);
    }

    #[test]
    fn model_spec_parses_all_shapes() {
        let plain = ModelSpec::parse("m=path.json").unwrap();
        assert_eq!(plain.name, "m");
        assert_eq!(plain.path, "path.json");
        assert_eq!(plain.data, None);
        assert_eq!(plain.pin, None);
        assert_eq!(plain.to_serve_spec(), "m=path.json");

        let with_data = ModelSpec::parse("m=path.json=data-dir").unwrap();
        assert_eq!(with_data.data.as_deref(), Some("data-dir"));
        assert_eq!(with_data.to_serve_spec(), "m=path.json=data-dir");

        let pinned = ModelSpec::parse("m@2=path.json=d").unwrap();
        assert_eq!(pinned.pin, Some(2));
        assert_eq!(pinned.to_serve_spec(), "m=path.json=d");
    }

    #[test]
    fn model_spec_trims_parts_and_reads_an_empty_data_dir_as_none() {
        let spaced = ModelSpec::parse(" m = path.json = d ").unwrap();
        assert_eq!(spaced.to_serve_spec(), "m=path.json=d");
        let no_data = ModelSpec::parse("m=path.json=").unwrap();
        assert_eq!(no_data.data, None);
        assert!(ModelSpec::parse(" = path.json").is_err());
    }

    #[test]
    fn a_placement_is_only_what_the_worker_command_line_carries_back() {
        let placed = ModelSpec::placed("m", "path.json", Some("d")).unwrap();
        assert_eq!(ModelSpec::parse(&placed.to_serve_spec()), Ok(placed));
        let no_data = ModelSpec::placed("m", "path.json", Some("")).unwrap();
        assert_eq!(no_data.data, None);
        for (name, path, data) in [
            ("a@b", "p", None),
            ("m@1", "p", None),
            ("a=b", "p", None),
            ("a,b", "p", None),
            (" a", "p", None),
            ("a ", "p", None),
            ("", "p", None),
            ("m", "p=q", None),
            ("m", "p,q", None),
            ("m", " p", None),
            ("m", "", None),
            ("m", "p", Some("d,e")),
            ("m", "p", Some(" d")),
        ] {
            assert!(
                ModelSpec::placed(name, path, data).is_err(),
                "{name:?} {path:?} {data:?} placed"
            );
        }
    }

    #[test]
    fn model_spec_rejects_garbage() {
        assert!(ModelSpec::parse("nopath").is_err());
        assert!(ModelSpec::parse("=path").is_err());
        assert!(ModelSpec::parse("m=").is_err());
        assert!(ModelSpec::parse("m@x=path").is_err());
    }

    #[test]
    fn backoff_doubles_and_caps() {
        assert_eq!(restart_backoff(100, 5000, 0).as_millis(), 100);
        assert_eq!(restart_backoff(100, 5000, 1).as_millis(), 200);
        assert_eq!(restart_backoff(100, 5000, 3).as_millis(), 800);
        assert_eq!(restart_backoff(100, 5000, 10).as_millis(), 5000);
        // Pathological config (cap below base) still yields base.
        assert_eq!(restart_backoff(100, 1, 0).as_millis(), 100);
    }
}
