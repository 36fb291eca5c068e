//! The serving host under test: spawning `grgad_server`, connecting to it,
//! reading its peak RSS and draining it, plus the closed-loop drift client
//! and the serial `Session` replay its responses are checked against.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use grgad_graph::Graph;
use grgad_serve::protocol::parse_request;
use grgad_serve::Session;
use grgad_server::{GrgadError, HostClient};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::gen::{drift_round, FeatureMirror};

/// The `grgad_server` binary, built next to this benchmark's executable.
pub fn server_binary() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let bin = exe.with_file_name(format!("grgad_server{}", std::env::consts::EXE_SUFFIX));
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{} not found; build it first", bin.display()))
    }
}

/// A running host process.
pub struct Host {
    child: Option<Child>,
    socket: PathBuf,
}

impl Host {
    /// Spawns the host on a Unix socket with `workers` scheduler shards;
    /// every engine it loads scores with `threads` threads.
    pub fn spawn(socket: &Path, workers: usize, threads: usize) -> Result<Host, String> {
        let bin = server_binary()?;
        let _ = std::fs::remove_file(socket);
        let child = Command::new(&bin)
            .args([
                "--listen",
                &format!("unix:{}", socket.display()),
                "--workers",
                &workers.to_string(),
            ])
            .env("GRGAD_THREADS", threads.to_string())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        Ok(Host {
            child: Some(child),
            socket: socket.to_path_buf(),
        })
    }

    /// Connects a client, retrying while the host is still binding.
    pub fn connect(&self) -> Result<HostClient, String> {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match HostClient::connect_unix(&self.socket) {
                Ok(client) => return Ok(client),
                Err(GrgadError::Transport { .. }) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => return Err(format!("connecting {}: {e}", self.socket.display())),
            }
        }
    }

    /// Peak resident set (`VmHWM`) of the host process, in bytes.
    pub fn peak_rss_bytes(&self) -> Option<u64> {
        let pid = self.child.as_ref()?.id();
        vm_hwm_bytes(&format!("/proc/{pid}/status"))
    }

    /// SIGTERMs the host and waits for its drain; a non-zero exit is an
    /// error.
    pub fn shutdown(mut self) -> Result<(), String> {
        let Some(mut child) = self.child.take() else {
            return Ok(());
        };
        let signalled = Command::new("kill")
            .arg(child.id().to_string())
            .status()
            .map_err(|e| format!("kill: {e}"));
        if signalled.is_err() {
            let _ = child.kill();
        }
        let deadline = Instant::now() + Duration::from_secs(60);
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break Ok(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    break Err("host did not drain within 60s".to_string());
                }
                Err(e) => break Err(format!("waiting for host: {e}")),
            }
        };
        let _ = std::fs::remove_file(&self.socket);
        signalled?;
        match status? {
            s if s.success() => Ok(()),
            s => Err(format!("host exited with {s}")),
        }
    }
}

impl Drop for Host {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
            let _ = std::fs::remove_file(&self.socket);
        }
    }
}

/// `VmHWM` from a `/proc/<pid>/status` file, in bytes.
pub fn vm_hwm_bytes(status_path: &str) -> Option<u64> {
    let status = std::fs::read_to_string(status_path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib * 1024)
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    serde_json::to_string(&s.to_string()).unwrap_or_else(|_| "\"\"".to_string())
}

/// What one drift client is told to do.
pub struct DriftPlan<'a> {
    /// Tenant the client owns.
    pub tenant: String,
    /// Saved model the tenant loads.
    pub model: &'a Path,
    /// Graph file (dataset JSON) the tenant loads.
    pub graph: &'a Path,
    /// The graph as saved, to seed the client's feature mirror.
    pub initial: &'a Graph,
    /// Seed of the client's delta stream.
    pub seed: u64,
    /// Feature nudges per round.
    pub nudges: usize,
    /// Nudge magnitude.
    pub nudge: f32,
    /// Stop after this many rounds ...
    pub max_rounds: usize,
    /// ... or once this much time has passed since the loop started.
    pub budget: Duration,
}

/// Everything one drift client sent, received and timed.
#[derive(Default)]
pub struct DriftLog {
    /// Engine-op request lines, in order (host ops excluded).
    pub lines: Vec<String>,
    /// The response to each line.
    pub responses: Vec<String>,
    /// `load` round trip plus the first (cold) `score` round trip, ms.
    pub load_ms: f64,
    /// `apply_delta` round trips of the timed loop, ms.
    pub delta_ms: Vec<f64>,
    /// `score` round trips of the timed loop, ms.
    pub score_ms: Vec<f64>,
    /// Wall time of the timed loop.
    pub loop_wall: Duration,
    /// Requests sent.
    pub attempted: u64,
    /// Requests answered `ok:false` or lost to a transport error.
    pub failed: u64,
}

impl DriftLog {
    fn send(&mut self, client: &mut HostClient, line: String) -> Result<f64, String> {
        self.attempted += 1;
        let t = Instant::now();
        let response = client.send_line(&line).map_err(|e| {
            self.failed += 1;
            format!("transport: {e}")
        })?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if !response.starts_with(r#"{"ok":true"#) {
            self.failed += 1;
        }
        self.lines.push(line);
        self.responses.push(response);
        Ok(ms)
    }
}

/// One closed-loop drift client: create the tenant, load it, score it
/// cold, read its `stats`, then `apply_delta` + `score` until the plan's
/// budget is spent, then read `stats` again. `start` lines the clients up
/// so their timed loops overlap.
pub fn drift_client(host: &Host, plan: &DriftPlan<'_>, start: &Barrier) -> DriftLog {
    let mut log = DriftLog::default();
    if let Err(e) = drift_client_inner(host, plan, start, &mut log) {
        eprintln!("drift client {}: {e}", plan.tenant);
        log.failed = log.failed.max(1);
    }
    log
}

fn drift_client_inner(
    host: &Host,
    plan: &DriftPlan<'_>,
    start: &Barrier,
    log: &mut DriftLog,
) -> Result<(), String> {
    let connected = host.connect();
    let tenant = json_str(&plan.tenant);
    let prepared = connected.and_then(|mut client| {
        let created = client
            .send_line(&format!(r#"{{"op":"create","tenant":{tenant}}}"#))
            .map_err(|e| format!("create: {e}"))?;
        if !created.starts_with(r#"{"ok":true"#) {
            return Err(format!("create rejected: {created}"));
        }
        let load = format!(
            r#"{{"op":"load","tenant":{tenant},"model":{},"graph":{}}}"#,
            json_str(&plan.model.display().to_string()),
            json_str(&plan.graph.display().to_string())
        );
        let score = format!(r#"{{"op":"score","tenant":{tenant},"top":5}}"#);
        let load_ms = log.send(&mut client, load)?;
        let cold_ms = log.send(&mut client, score)?;
        log.load_ms = load_ms + cold_ms;
        log.send(
            &mut client,
            format!(r#"{{"op":"stats","tenant":{tenant}}}"#),
        )?;
        Ok(client)
    });
    // Every client reaches the barrier, even a failed one, so the others
    // are never left waiting.
    start.wait();
    let mut client = prepared?;

    let mut mirror = FeatureMirror::of(plan.initial);
    let mut rng = StdRng::seed_from_u64(plan.seed);
    let score = format!(r#"{{"op":"score","tenant":{tenant},"top":5}}"#);
    let began = Instant::now();
    while log.delta_ms.len() < plan.max_rounds && began.elapsed() < plan.budget {
        let deltas = drift_round(&mut rng, &mut mirror, plan.nudges, plan.nudge);
        let deltas = serde_json::to_string(&deltas).map_err(|e| format!("deltas: {e}"))?;
        let apply = format!(r#"{{"op":"apply_delta","tenant":{tenant},"deltas":{deltas}}}"#);
        let delta_ms = log.send(&mut client, apply)?;
        let score_ms = log.send(&mut client, score.clone())?;
        log.delta_ms.push(delta_ms);
        log.score_ms.push(score_ms);
    }
    log.loop_wall = began.elapsed();
    log.send(
        &mut client,
        format!(r#"{{"op":"stats","tenant":{tenant}}}"#),
    )?;
    Ok(())
}

/// Times what a restart costs one tenant: `load` plus the first (cold)
/// `score`, in ms, for a fresh tenant that is dropped afterwards.
pub fn load_probe(host: &Host, tenant: &str, model: &Path, graph: &Path) -> Result<f64, String> {
    let mut client = host.connect()?;
    let tenant = json_str(tenant);
    let mut send = |line: String| -> Result<f64, String> {
        let t = Instant::now();
        let response = client
            .send_line(&line)
            .map_err(|e| format!("transport: {e}"))?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if response.starts_with(r#"{"ok":true"#) {
            Ok(ms)
        } else {
            Err(format!("load probe: {response}"))
        }
    };
    send(format!(r#"{{"op":"create","tenant":{tenant}}}"#))?;
    let load = send(format!(
        r#"{{"op":"load","tenant":{tenant},"model":{},"graph":{}}}"#,
        json_str(&model.display().to_string()),
        json_str(&graph.display().to_string())
    ))?;
    let cold = send(format!(r#"{{"op":"score","tenant":{tenant},"top":5}}"#))?;
    send(format!(r#"{{"op":"drop","tenant":{tenant}}}"#))?;
    Ok(load + cold)
}

/// Index of the first timed-loop line of a drift log: `load`, the cold
/// `score` and the first `stats` come before it.
pub const LOOP_START: usize = 3;

/// A client's script replayed serially through an in-process `Session`.
pub struct Replay {
    /// Whether every response matched the served one byte for byte.
    pub identical: bool,
    /// Index of the first mismatching line, if any.
    pub first_mismatch: Option<usize>,
    /// `Session::handle_line` time of each timed-loop `score` line, ms.
    pub score_ms: Vec<f64>,
    /// `Session::handle_line` time of each `apply_delta` line, µs.
    pub delta_us: Vec<f64>,
    /// `parse_request` time of each timed-loop line, µs.
    pub parse_us: Vec<f64>,
}

/// Replays `log` through a fresh `Session` and compares responses.
pub fn replay(log: &DriftLog) -> Replay {
    let mut session = Session::new();
    let mut out = Replay {
        identical: log.lines.len() == log.responses.len(),
        first_mismatch: None,
        score_ms: Vec::new(),
        delta_us: Vec::new(),
        parse_us: Vec::new(),
    };
    for (i, (line, served)) in log.lines.iter().zip(&log.responses).enumerate() {
        let timed_loop = i >= LOOP_START && i + 1 < log.lines.len();
        if timed_loop {
            let t = Instant::now();
            let parsed = parse_request(line);
            out.parse_us.push(t.elapsed().as_secs_f64() * 1e6);
            drop(parsed);
        }
        let t = Instant::now();
        let response = session.handle_line(line).to_json_line();
        let elapsed = t.elapsed();
        if timed_loop {
            if line.contains(r#""op":"score""#) {
                out.score_ms.push(elapsed.as_secs_f64() * 1e3);
            } else {
                out.delta_us.push(elapsed.as_secs_f64() * 1e6);
            }
        }
        if &response != served && out.first_mismatch.is_none() {
            out.first_mismatch = Some(i);
            out.identical = false;
        }
    }
    out
}

/// How much engine counter `key` grew over the timed loop: the last
/// `stats` response minus the one read before the loop.
pub fn stat_growth(log: &DriftLog, key: &str) -> f64 {
    let read = |response: Option<&String>| -> Option<f64> {
        let value: serde::Value = serde_json::from_str(response?).ok()?;
        match value.field("stats").ok()?.field(key).ok()? {
            serde::Value::Num(x) => Some(*x),
            _ => None,
        }
    };
    let before = read(log.responses.get(LOOP_START - 1)).unwrap_or(0.0);
    read(log.responses.last()).map_or(0.0, |after| after - before)
}

/// Share of the timed loop's `score` responses served incrementally.
pub fn incremental_share(log: &DriftLog) -> f64 {
    let scores: Vec<&String> = log
        .lines
        .iter()
        .zip(&log.responses)
        .skip(LOOP_START)
        .filter(|(line, _)| line.contains(r#""op":"score""#))
        .map(|(_, response)| response)
        .collect();
    let incremental = scores
        .iter()
        .filter(|r| r.contains(r#""mode":"incremental""#))
        .count();
    incremental as f64 / scores.len().max(1) as f64
}
