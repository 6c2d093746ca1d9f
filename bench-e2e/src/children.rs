//! The programs under test: building them, the cached fixture bundle,
//! spawning a topology, reading its CPU and memory from `/proc`, and
//! shutting it down with its exit checked.

use crate::workload::Topology;
use lre_artifact::{crc32, ArtifactRead};
use lre_serve::{Client, SystemBundle};
use std::fs;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How long a child may take to print its address, or to exit after an
/// acknowledged shutdown.
const CHILD_TIMEOUT: Duration = Duration::from_secs(30);

/// Linux reports `utime`/`stime` in `USER_HZ` ticks, which is 100 on every
/// architecture.
const TICKS_PER_SECOND: f64 = 100.0;

/// Where everything the benchmark builds or writes lives: the target
/// directory this executable was built into (`<target>/release/e2e`), so
/// the servers land beside it.
pub struct Dirs {
    pub repo: PathBuf,
    pub target: PathBuf,
    /// `<target>/bench-e2e`: fixtures, results, scratch.
    pub out: PathBuf,
}

impl Dirs {
    pub fn locate() -> Result<Dirs, String> {
        let repo = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .ok_or("benchmark package has no parent directory")?
            .to_path_buf();
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let target = exe
            .parent()
            .and_then(Path::parent)
            .ok_or("executable is not under <target>/<profile>/")?
            .to_path_buf();
        let out = target.join("bench-e2e");
        fs::create_dir_all(&out).map_err(|e| format!("creating {}: {e}", out.display()))?;
        Ok(Dirs { repo, target, out })
    }

    fn bin(&self, name: &str) -> PathBuf {
        self.target.join("release").join(name)
    }
}

/// Build the shipped binaries from the repository's own workspace into the
/// directory this executable runs from. A no-op when they are up to date.
pub fn build_servers(dirs: &Dirs) -> Result<(), String> {
    let out = Command::new("cargo")
        .args(["build", "--release", "--quiet"])
        .args(["-p", "lre-serve", "-p", "lre-router", "-p", "lre-adapt"])
        .arg("--target-dir")
        .arg(&dirs.target)
        .current_dir(&dirs.repo)
        .output()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "building the servers failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(())
}

/// The trained smoke bundle and its guard set.
pub struct Fixture {
    pub bundle: PathBuf,
    pub guard: PathBuf,
    /// Seconds spent training in this run; 0 when the cache was used.
    pub train_s: f64,
}

/// Train-or-reuse the fixture. The cache key is a CRC of the trainer's
/// executable, so a rebuilt tree retrains once and repeated runs of one
/// build reuse. A cached bundle that fails to load is retrained.
pub fn ensure_fixture(dirs: &Dirs) -> Result<Fixture, String> {
    let trainer = dirs.bin("lre-train-bundle");
    let exe = fs::read(&trainer).map_err(|e| format!("reading {}: {e}", trainer.display()))?;
    let key = format!("fixture-{:08x}", crc32(&exe));
    let bundle = dirs.out.join(format!("{key}.bundle"));
    let guard = dirs.out.join(format!("{key}.guard"));
    let loads = |p: &Path| {
        fs::read(p)
            .ok()
            .is_some_and(|b| SystemBundle::from_artifact_bytes(&b).is_ok())
    };
    if loads(&bundle) && guard.exists() {
        return Ok(Fixture {
            bundle,
            guard,
            train_s: 0.0,
        });
    }
    // Fixtures of other builds are dead weight.
    for entry in fs::read_dir(&dirs.out)
        .map_err(|e| e.to_string())?
        .flatten()
    {
        if entry.file_name().to_string_lossy().starts_with("fixture-") {
            let _ = fs::remove_file(entry.path());
        }
    }
    eprintln!("[e2e] training the fixture bundle (about a minute, cached afterwards)");
    let started = Instant::now();
    let tmp_bundle = bundle.with_extension("bundle.tmp");
    let tmp_guard = guard.with_extension("guard.tmp");
    let out = Command::new(&trainer)
        .args(["--scale", "smoke", "--seed", "42", "--out"])
        .arg(&tmp_bundle)
        .arg("--guard-out")
        .arg(&tmp_guard)
        .output()
        .map_err(|e| format!("running {}: {e}", trainer.display()))?;
    if !out.status.success() {
        return Err(format!(
            "lre-train-bundle failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    fs::rename(&tmp_guard, &guard).map_err(|e| e.to_string())?;
    fs::rename(&tmp_bundle, &bundle).map_err(|e| e.to_string())?;
    if !loads(&bundle) {
        return Err("freshly trained bundle does not load".into());
    }
    Ok(Fixture {
        bundle,
        guard,
        train_s: started.elapsed().as_secs_f64(),
    })
}

struct Proc {
    name: &'static str,
    child: Child,
    addr: SocketAddr,
    stderr_path: PathBuf,
    /// Kept open so the child's later `println!` cannot hit a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

/// Spawn one binary on an ephemeral port and wait for the `listening on
/// ADDR` line every serving binary prints once it accepts connections.
fn spawn(
    dirs: &Dirs,
    scratch: &Path,
    name: &'static str,
    tag: &str,
    args: &[&str],
) -> Result<Proc, String> {
    let stderr_path = scratch.join(format!("{tag}.stderr"));
    let stderr = fs::File::create(&stderr_path).map_err(|e| e.to_string())?;
    let mut child = Command::new(dirs.bin(name))
        .args(args)
        .args(["--addr", "127.0.0.1:0"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(stderr)
        .spawn()
        .map_err(|e| format!("spawning {name}: {e}"))?;
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
    // Read on a thread so that a child that never prints cannot hang the
    // run; the thread ends with the line, or with the pipe when the child
    // is killed below.
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let mut line = String::new();
        let _ = stdout.read_line(&mut line);
        let _ = tx.send((line, stdout));
    });
    let listening = rx
        .recv_timeout(CHILD_TIMEOUT)
        .ok()
        .and_then(|(line, stdout)| {
            let addr = line.trim().strip_prefix("listening on ")?.parse().ok()?;
            Some((addr, stdout))
        });
    let Some((addr, stdout)) = listening else {
        let _ = child.kill();
        let _ = child.wait();
        return Err(format!(
            "{name} did not report an address; stderr:\n{}",
            fs::read_to_string(&stderr_path).unwrap_or_default()
        ));
    };
    Ok(Proc {
        name,
        child,
        addr,
        stderr_path,
        _stdout: stdout,
    })
}

/// CPU seconds (`utime + stime`) from the text of `/proc/<pid>/stat`.
/// The command name may contain spaces and parentheses, so fields are
/// counted from the last `)`.
pub fn parse_stat_cpu_s(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // After the name: state is field 3, utime 14, stime 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_SECOND)
}

/// Peak resident set (`VmHWM`) in MB from the text of `/proc/<pid>/status`.
pub fn parse_status_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// CPU seconds this process has used.
pub fn self_cpu_s() -> f64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu_s(&s))
        .unwrap_or(0.0)
}

/// A running topology.
pub struct Fleet {
    procs: Vec<Proc>,
    scratch: PathBuf,
    /// Where load is sent: the router, or the only server.
    pub front: SocketAddr,
    /// The scoring processes, for probes and counter scrapes.
    pub servers: Vec<SocketAddr>,
}

impl Fleet {
    /// Spawn `topology` and return once every process accepts connections.
    /// `scratch` is a fresh directory for logs and the WAL.
    pub fn spawn(
        dirs: &Dirs,
        fixture: &Fixture,
        topology: Topology,
        scratch: PathBuf,
    ) -> Result<Fleet, String> {
        fs::create_dir_all(&scratch).map_err(|e| e.to_string())?;
        let bundle = fixture.bundle.to_string_lossy().into_owned();
        let guard = fixture.guard.to_string_lossy().into_owned();
        let wal = scratch.join("wal").to_string_lossy().into_owned();
        let mut fleet = Fleet {
            procs: Vec::new(),
            scratch,
            front: SocketAddr::from(([127, 0, 0, 1], 0)),
            servers: Vec::new(),
        };
        // Pushed one by one so a failed spawn still kills the earlier ones.
        match topology {
            Topology::Serve => {
                let args = ["--bundle", &bundle, "--workers", "2"];
                fleet.push(spawn(dirs, &fleet.scratch, "lre-serve", "serve", &args)?);
            }
            Topology::Adaptd => {
                let args = [
                    "--bundle",
                    &bundle,
                    "--guard",
                    &guard,
                    "--workers",
                    "2",
                    "--wal-dir",
                    &wal,
                    "--log-capacity",
                    "8192",
                ];
                fleet.push(spawn(dirs, &fleet.scratch, "lre-adaptd", "adaptd", &args)?);
            }
            Topology::Routed => {
                let args = ["--bundle", &bundle, "--workers", "1", "--fleet"];
                for tag in ["replica0", "replica1"] {
                    fleet.push(spawn(dirs, &fleet.scratch, "lre-serve", tag, &args)?);
                }
                let replicas: Vec<String> = fleet.servers.iter().map(|a| a.to_string()).collect();
                let args = ["--replica", &replicas[0], "--replica", &replicas[1]];
                let router = spawn(dirs, &fleet.scratch, "lre-router", "router", &args)?;
                fleet.front = router.addr;
                fleet.procs.push(router);
            }
        }
        Ok(fleet)
    }

    fn push(&mut self, server: Proc) {
        self.front = server.addr;
        self.servers.push(server.addr);
        self.procs.push(server);
    }

    fn read_proc<T>(&self, file: &str, parse: fn(&str) -> Option<T>) -> Result<Vec<T>, String> {
        self.procs
            .iter()
            .map(|p| {
                let path = format!("/proc/{}/{file}", p.child.id());
                fs::read_to_string(&path)
                    .ok()
                    .and_then(|s| parse(&s))
                    .ok_or_else(|| format!("reading {path} of {}", p.name))
            })
            .collect()
    }

    /// CPU seconds used so far, summed over every process of the topology.
    pub fn cpu_s(&self) -> Result<f64, String> {
        Ok(self.read_proc("stat", parse_stat_cpu_s)?.iter().sum())
    }

    /// Peak resident memory in MB, summed over every process.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        Ok(self.read_proc("status", parse_status_hwm_mb)?.iter().sum())
    }

    /// Bytes on disk under the WAL directory (0 without one).
    pub fn wal_bytes(&self) -> u64 {
        fn size(dir: &Path) -> u64 {
            fs::read_dir(dir)
                .into_iter()
                .flatten()
                .flatten()
                .fold(0, |sum, e| {
                    let p = e.path();
                    sum + if p.is_dir() {
                        size(&p)
                    } else {
                        e.metadata().map_or(0, |m| m.len())
                    }
                })
        }
        size(&self.scratch.join("wal"))
    }

    /// Graceful shutdown: the front acknowledges (a router relays it to
    /// its replicas), every process must then exit 0 by itself and must
    /// not have panicked.
    pub fn shutdown(mut self) -> Result<(), String> {
        Client::connect(self.front)
            .and_then(|mut c| c.shutdown())
            .map_err(|e| format!("shutdown request: {e}"))?;
        let deadline = Instant::now() + CHILD_TIMEOUT;
        let mut problems = Vec::new();
        for p in &mut self.procs {
            let status = loop {
                match p.child.try_wait() {
                    Ok(Some(status)) => break Some(status),
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    _ => break None,
                }
            };
            let stderr = fs::read_to_string(&p.stderr_path).unwrap_or_default();
            match status {
                Some(s) if s.success() => {}
                Some(s) => problems.push(format!("{} exited with {s}:\n{stderr}", p.name)),
                None => problems.push(format!("{} did not exit after shutdown", p.name)),
            }
            if stderr.contains("panicked at") {
                problems.push(format!("{} panicked:\n{stderr}", p.name));
            }
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems.join("\n"))
        }
    }
}

impl Drop for Fleet {
    /// Whatever path ends the run, no child outlives it.
    fn drop(&mut self) {
        for p in &mut self.procs {
            if let Ok(None) = p.child.try_wait() {
                let _ = p.child.kill();
            }
            let _ = p.child.wait();
        }
        let _ = fs::remove_dir_all(&self.scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_parsers_read_fixture_text() {
        // A command name with spaces and a parenthesis, as the kernel
        // prints it.
        let stat = "4242 (lre serve) x) S 1 4242 4242 0 -1 4194304 1234 0 0 0 \
                    1517 233 0 0 20 0 3 0 99 1000 200 18446744073709551615";
        assert_eq!(parse_stat_cpu_s(stat), Some(17.5));
        assert_eq!(parse_stat_cpu_s("4242 (x) S 1 2"), None);
        let status =
            "Name:\tlre-serve\nVmPeak:\t  900000 kB\nVmHWM:\t  51200 kB\nVmRSS:\t 4096 kB\n";
        assert_eq!(parse_status_hwm_mb(status), Some(50.0));
        assert_eq!(parse_status_hwm_mb("Name:\tx\n"), None);
        assert!(self_cpu_s() >= 0.0);
    }
}
