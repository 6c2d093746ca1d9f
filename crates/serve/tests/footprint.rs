//! What `lre-serve` holds once it listens, read from Linux `/proc` right
//! after start-up and held to the size of the bundle file it loaded.
//!
//! The server streams its bundle: a checking pass, then a decode section
//! by section through one reused buffer, so the file is never held beside
//! the model it becomes. Two bounds hold that:
//!
//! - `VmHWM − VmRSS ≤ 1 MiB`: start-up left no transient above what stays
//!   resident (a whole-file buffer beside the decoded model shows here as
//!   ≈ the file size);
//! - `RssAnon ≤ bundle file + 1 MiB`: the model, and nothing else of size.
//!
//! It builds the smoke experiment and spawns the server this package
//! builds, so it is `#[ignore]` by default:
//!
//! ```text
//! cargo test --release -p lre-serve --test footprint -- --ignored --nocapture
//! ```

use lre_artifact::ArtifactWrite;
use lre_corpus::Scale;
use lre_dba::{Experiment, ExperimentConfig};
use lre_serve::{Client, SystemBundle};
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

const KIB: u64 = 1024;
const MIB: u64 = 1024 * KIB;

/// One `kB` field of `/proc/<pid>/status`, in bytes.
fn status_bytes(status: &str, field: &str) -> u64 {
    let line = status
        .lines()
        .find(|l| l.starts_with(field))
        .unwrap_or_else(|| panic!("{field} missing from /proc status"));
    let kb = line[field.len()..].trim().trim_end_matches("kB").trim();
    kb.parse::<u64>().expect("a kB count") * KIB
}

#[test]
#[ignore = "builds the smoke experiment and spawns lre-serve; run with --release -- --ignored"]
fn serve_holds_the_model_and_no_startup_transient() {
    let exp = Experiment::build(&ExperimentConfig::new(Scale::Smoke, 42));
    let bytes = SystemBundle::from_experiment(exp).to_artifact_bytes();
    let dir = std::env::temp_dir().join(format!("lre_serve_footprint_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let bundle = dir.join("smoke.bundle");
    std::fs::write(&bundle, &bytes).expect("bundle written");

    let mut child = Command::new(env!("CARGO_BIN_EXE_lre-serve"))
        .arg("--bundle")
        .arg(&bundle)
        .args(["--addr", "127.0.0.1:0", "--workers", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("lre-serve spawns");
    let stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
    let addr = stdout
        .lines()
        .map(|l| l.expect("stdout reads"))
        .find_map(|l| {
            l.strip_prefix("listening on ")
                .map(|a| a.trim().to_string())
        })
        .expect("lre-serve listens");
    let status = std::fs::read_to_string(format!("/proc/{}/status", child.id()))
        .expect("/proc status reads");
    let [hwm, rss, anon] = ["VmHWM:", "VmRSS:", "RssAnon:"].map(|f| status_bytes(&status, f));
    let file_len = bytes.len() as u64;
    eprintln!(
        "VmHWM {} kB, VmRSS {} kB, gap {} kB; RssAnon {} kB against {} + 1024 = {} kB",
        hwm / KIB,
        rss / KIB,
        hwm.saturating_sub(rss) / KIB,
        anon / KIB,
        file_len / KIB,
        (file_len + MIB) / KIB
    );
    let mut client = Client::connect(addr.as_str()).expect("client connects");
    client.shutdown().expect("shutdown acknowledged");
    assert!(child.wait().expect("server exits").success());
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        hwm.saturating_sub(rss) <= MIB,
        "start-up peaked {} kB above what stays resident",
        (hwm - rss) / KIB
    );
    assert!(
        anon <= file_len + MIB,
        "anonymous RSS {} kB exceeds the model ({} kB + 1 MiB)",
        anon / KIB,
        file_len / KIB
    );
}
