//! The processes a scenario runs against, owned by the driver.
//!
//! A scenario names them as command lines: any number of `replica =`
//! lines and one `front =` line, for example
//!
//! ```text
//! replica = lre-serve --bundle {bundle} --fleet
//! front = lre-router {replicas} --bundle {bundle} --guard {guard}
//! ```
//!
//! Placeholders: `{bundle}`, `{guard}` and `{work}` are the driver's
//! `--bundle`, `--guard` and `--work-dir`; `{replicas}` expands to one
//! `--replica ADDR` pair per replica. The binary is taken from the
//! driver's own directory, and the driver appends `--addr
//! 127.0.0.1:PORT` (port 0 the first time, the port it had on a
//! restart). A process is ready when it prints its `listening on ADDR`
//! line, which must come within [`READY_BOUND`]; its stderr goes to
//! `{work}/NAME.log` (`replica0`, …, `front`), and its `TMPDIR` is
//! `{work}`, so whatever a SIGKILLed process leaves in its temp directory
//! (a scratch vote WAL) goes away with the work directory. Replicas start
//! first, in order, so the front's `{replicas}` can name them.

use lre_serve::Client;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How long a spawned process has to print its `listening on` line.
pub const READY_BOUND: Duration = Duration::from_secs(60);
/// How long every process has to exit after the closing shutdown.
pub const EXIT_BOUND: Duration = Duration::from_secs(30);

const PLACEHOLDERS: [&str; 4] = ["bundle", "guard", "work", "replicas"];

/// Refuse a process line with no binary or with an unknown placeholder.
pub fn check_line(line: &str) -> Result<(), String> {
    if line.split_whitespace().next().is_none() {
        return Err("empty process line".into());
    }
    let mut names = line
        .split('{')
        .skip(1)
        .map(|p| p.split_once('}').map_or(p, |(n, _)| n));
    match names.find(|n| !PLACEHOLDERS.contains(n)) {
        Some(name) => Err(format!("unknown placeholder {{{name}}}")),
        None => Ok(()),
    }
}

/// Where the processes come from and what their placeholders stand for.
#[derive(Clone, Debug)]
pub struct Deployment {
    /// Directory holding the serving binaries.
    pub bin_dir: PathBuf,
    pub bundle: Option<PathBuf>,
    pub guard: Option<PathBuf>,
    /// Process logs and any `{work}/…` state; must be empty or absent.
    pub work_dir: PathBuf,
}

struct Proc {
    name: String,
    argv: Vec<String>,
    addr: Option<SocketAddr>,
    child: Option<Child>,
}

/// The live processes of one run. Dropping it SIGKILLs any still running.
pub struct Topology {
    procs: Vec<Proc>,
    /// A front door the driver does not own (a scenario without process
    /// lines).
    external: Option<SocketAddr>,
    dep: Deployment,
}

impl Topology {
    /// Start every process of `replicas` then `front`, each ready before
    /// the next starts. Without a `front` line, `external` is the front.
    pub fn start(
        replicas: &[String],
        front: Option<&str>,
        dep: &Deployment,
        external: Option<SocketAddr>,
    ) -> Result<Topology, String> {
        let (procs, dep) = (Vec::new(), dep.clone());
        let external = external.filter(|_| front.is_none());
        let mut topo = Topology {
            procs,
            external,
            dep,
        };
        let Some(front) = front else {
            return match external {
                Some(_) => Ok(topo),
                None => Err("the scenario starts no front process".into()),
            };
        };
        let work = topo.dep.work_dir.display().to_string();
        if std::fs::read_dir(&work).is_ok_and(|mut d| d.next().is_some()) {
            return Err(format!("work dir {work} is not empty"));
        }
        std::fs::create_dir_all(&work).map_err(|e| format!("creating {work}: {e}"))?;
        let lines = replicas.iter().map(String::as_str).chain([front]);
        for (i, line) in lines.enumerate() {
            let name = match i < replicas.len() {
                true => format!("replica{i}"),
                false => "front".to_string(),
            };
            let (argv, addr, child) = (topo.expand(line)?, None, None);
            topo.procs.push(Proc {
                name,
                argv,
                addr,
                child,
            });
            topo.spawn(i, 0)?;
        }
        Ok(topo)
    }

    fn expand(&self, line: &str) -> Result<Vec<String>, String> {
        let dep = &self.dep;
        let mut argv = Vec::new();
        for token in line.split_whitespace() {
            if token == "{replicas}" {
                for addr in self.procs.iter().filter_map(|p| p.addr) {
                    argv.extend(["--replica".to_string(), addr.to_string()]);
                }
                continue;
            }
            let mut arg = token.replace("{work}", &dep.work_dir.display().to_string());
            for (key, path, flag) in [
                ("{bundle}", &dep.bundle, "--bundle"),
                ("{guard}", &dep.guard, "--guard"),
            ] {
                if arg.contains(key) {
                    let path = path.as_ref().ok_or(format!("{line:?} needs {flag} PATH"))?;
                    arg = arg.replace(key, &path.display().to_string());
                }
            }
            argv.push(arg);
        }
        Ok(argv)
    }

    /// Spawn process `i` on `port` and wait for its `listening on` line.
    fn spawn(&mut self, i: usize, port: u16) -> Result<(), String> {
        let log_path = self
            .dep
            .work_dir
            .join(format!("{}.log", self.procs[i].name));
        let p = &mut self.procs[i];
        let log = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&log_path)
            .map_err(|e| format!("opening {}: {e}", log_path.display()))?;
        let mut child = Command::new(self.dep.bin_dir.join(&p.argv[0]))
            .args(&p.argv[1..])
            .arg("--addr")
            .arg(format!("127.0.0.1:{port}"))
            .env("TMPDIR", &self.dep.work_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("starting {}: {e}", p.argv[0]))?;
        // A reader thread hands over the address and keeps the pipe
        // drained; it ends at EOF, when the process exits.
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let mut tx = Some(tx);
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                let addr = line.strip_prefix("listening on ").map(str::trim);
                if let Some(addr) = addr.and_then(|a| a.parse::<SocketAddr>().ok()) {
                    tx.take().map(|tx| tx.send(addr));
                }
            }
        });
        p.child = Some(child);
        let log = log_path.display();
        let not_ready = |_| format!("{} not listening within {READY_BOUND:?}; see {log}", p.name);
        p.addr = Some(rx.recv_timeout(READY_BOUND).map_err(not_ready)?);
        Ok(())
    }

    pub fn front(&self) -> Option<SocketAddr> {
        self.external.or_else(|| self.procs.last()?.addr)
    }

    /// The front's process index (the last one started).
    pub fn front_index(&self) -> usize {
        self.procs.len().saturating_sub(1)
    }

    /// How many replica processes the scenario runs.
    pub fn replicas(&self) -> usize {
        self.front_index()
    }

    /// `(name, addr)` of replica `r`.
    pub fn replica(&self, r: usize) -> Option<(&str, SocketAddr)> {
        let p = self.procs.get(r).filter(|_| r < self.replicas())?;
        Some((p.name.as_str(), p.addr?))
    }

    /// `(name, addr)` of every replica still running.
    pub fn live_replicas(&self) -> Vec<(String, SocketAddr)> {
        let live = self.procs.iter().take(self.replicas());
        let live = live.filter(|p| p.child.is_some());
        live.filter_map(|p| Some((p.name.clone(), p.addr?)))
            .collect()
    }

    /// SIGKILL process `i` (replicas first, then the front).
    pub fn kill(&mut self, i: usize) -> String {
        let Some(p) = self.procs.get_mut(i) else {
            return format!("no process {i}");
        };
        match p.child.take().map(|mut c| c.kill().and_then(|()| c.wait())) {
            Some(Ok(status)) => format!("{} SIGKILLed ({status})", p.name),
            Some(Err(e)) => format!("{} SIGKILL failed: {e}", p.name),
            None => format!("{} was not running", p.name),
        }
    }

    /// Respawn process `i`, killed before, on the port it had.
    pub fn restart(&mut self, i: usize) -> Result<SocketAddr, String> {
        let p = self.procs.get(i).ok_or(format!("no process {i}"))?;
        if p.child.is_some() {
            return Err(format!("{} is still running", p.name));
        }
        self.spawn(i, p.addr.map_or(0, |a| a.port()))?;
        Ok(self.procs[i].addr.expect("a ready process has an address"))
    }

    /// Send the front door a shutdown, then require every live process to
    /// exit 0 within [`EXIT_BOUND`], leaving no scratch vote window
    /// (`lre-votes-<its pid>-*`) and no scratch bundle chain
    /// (`lre-bundles-<its pid>-*`) in `{work}`, and every log to hold no
    /// panic; each miss is a note. A process SIGKILLed before is not
    /// judged on its scratch state. Any process still running is
    /// SIGKILLed on drop.
    pub fn stop(mut self, notes: &mut Vec<String>) -> bool {
        let before = notes.len();
        match self
            .front()
            .map(|a| Client::connect(a).and_then(|mut c| c.shutdown()))
        {
            Some(Ok(())) => {}
            other => notes.push(format!("shutdown not acknowledged: {other:?}")),
        }
        let deadline = Instant::now() + EXIT_BOUND;
        let work_dir = &self.dep.work_dir;
        for p in &mut self.procs {
            if let Some(mut child) = p.child.take() {
                // A bounded poll: std offers no wait with a timeout.
                let status = loop {
                    match child.try_wait() {
                        Ok(None) if Instant::now() < deadline => {
                            std::thread::sleep(Duration::from_millis(20))
                        }
                        Ok(status) => break status,
                        Err(_) => break None,
                    }
                };
                if !status.is_some_and(|s| s.success()) {
                    let within = format!("{EXIT_BOUND:?} after shutdown");
                    notes.push(format!("{} not exited 0 {within}: {status:?}", p.name));
                    p.child = Some(child);
                } else if let Some(left) = scratch_left(work_dir, child.id()) {
                    notes.push(format!("{} exited 0 but left {left}", p.name));
                }
            }
            let log = std::fs::read_to_string(work_dir.join(format!("{}.log", p.name)));
            if log.is_ok_and(|log| log.contains("panicked at")) {
                notes.push(format!("{} log holds a panic", p.name));
            }
        }
        notes.len() == before
    }
}

/// Name prefixes of the private directories a serving process keeps under
/// `TMPDIR` and removes when it exits cleanly: a scratch vote window and a
/// scratch bundle chain.
const SCRATCH_PREFIXES: [&str; 2] = ["lre-votes", lre_wal::SCRATCH_PREFIX];

/// The scratch directory process `pid` left in `dir`, if any.
fn scratch_left(dir: &Path, pid: u32) -> Option<String> {
    SCRATCH_PREFIXES
        .iter()
        .find_map(|prefix| entry_named(dir, &format!("{prefix}-{pid}-")))
}

/// The name of an entry of `dir` that starts with `prefix`, if any.
fn entry_named(dir: &Path, prefix: &str) -> Option<String> {
    let names = std::fs::read_dir(dir).ok()?.filter_map(|e| e.ok());
    let mut names = names.map(|e| e.file_name().to_string_lossy().into_owned());
    names.find(|name| name.starts_with(prefix))
}

impl Drop for Topology {
    fn drop(&mut self) {
        for p in &mut self.procs {
            if let Some(mut child) = p.child.take() {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A process's scratch vote window and scratch bundle chain both count
    /// as left behind; another process's, or a name that only starts
    /// alike, do not.
    #[test]
    fn a_scratch_window_or_bundle_chain_is_left_behind() {
        let dir = std::env::temp_dir().join(format!("lre_topology_left_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mk = |name: &str| std::fs::create_dir(dir.join(name)).unwrap();
        mk("lre-votes-77-0");
        mk("lre-bundles-770-0");
        mk("lre-bundles-7");
        assert_eq!(scratch_left(&dir, 77).as_deref(), Some("lre-votes-77-0"));
        assert_eq!(
            scratch_left(&dir, 770).as_deref(),
            Some("lre-bundles-770-0")
        );
        assert_eq!(scratch_left(&dir, 7), None);
        mk("lre-bundles-7-3");
        assert_eq!(scratch_left(&dir, 7).as_deref(), Some("lre-bundles-7-3"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
