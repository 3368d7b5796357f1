//! A leaf in a process of its own, driven over stdin/stdout.
//!
//! The driver re-executes its own binary with the role `leaf-child`; the
//! child prints `hello` as soon as `main` runs, builds or recovers its
//! leaf, prints `started`, then answers one line per command:
//!
//! ```text
//! ingest <table> <shape> <stream> <first-row> <rows> <now>  -> ok <wall> <ns>
//! query <spec>                                              -> ok <wall> <ns> <answer>
//! sync | checkpoint | hydrate                               -> ok <wall> <ns>
//! stats                                                     -> ok k=v ...
//! shutdown                                                  -> done <wall> <ns> k=v ...   (then exits)
//! ```
//!
//! `<wall>`/`<ns>` are the wall-clock start and monotonic length of the
//! product call alone, so the driver can lay the child's span inside its
//! own. A failed call answers `err <message>`.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, Command, ExitStatus, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::gen::{Answer, QuerySpec, Records, Shape};
use crate::hygiene::Children;
use crate::sut::{self, Leaf, LeafOpts, Recovery};
use crate::trace::wall_ns;
use crate::workloads::LOAD_CHUNK;

/// Every wait on a child gives up after this long; the child is then
/// killed and the operation counts as failed.
pub const DEADLINE: Duration = Duration::from_secs(60);

// ---- the child's side ----

fn vm_hwm_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Peak resident set of this process, MiB.
pub fn own_peak_rss_mib() -> f64 {
    vm_hwm_kb() as f64 / 1024.0
}

fn timed<T>(f: impl FnOnce() -> Result<T, String>) -> Result<(u64, u64, T), String> {
    let wall = wall_ns();
    let started = Instant::now();
    let out = f()?;
    Ok((wall, started.elapsed().as_nanos() as u64, out))
}

/// Entry point of the `leaf-child` role. `args` are
/// `<fresh|start> <leaf-id> <shm-prefix> <disk-root> <checkpoint-rows> <shm-recovery> <seed> <now>`.
pub fn child_main(args: &[String]) -> Result<(), String> {
    let out = std::io::stdout();
    let say = |line: String| -> Result<(), String> {
        let mut out = out.lock();
        writeln!(out, "{line}")
            .and_then(|()| out.flush())
            .map_err(|e| format!("driver went away: {e}"))
    };
    say(format!("hello pid={}", std::process::id()))?;
    let [mode, leaf_id, prefix, root, checkpoint_rows, shm_recovery, seed, now] = args else {
        return Err("leaf-child takes eight arguments".to_owned());
    };
    let bad = |what: &str| format!("leaf-child: bad {what}");
    let mut opts = LeafOpts::new(
        leaf_id.parse().map_err(|_| bad("leaf id"))?,
        prefix,
        Path::new(root),
    );
    let rows: usize = checkpoint_rows
        .parse()
        .map_err(|_| bad("checkpoint rows"))?;
    opts.checkpoint_interval_rows = (rows > 0).then_some(rows);
    opts.shm_recovery = shm_recovery == "1";
    let seed: u64 = seed.parse().map_err(|_| bad("seed"))?;
    let now: i64 = now.parse().map_err(|_| bad("now"))?;

    let (wall, ns, (mut leaf, recovery)) = timed(|| match mode.as_str() {
        "fresh" => Ok((Leaf::fresh(&opts)?, None)),
        "start" => Leaf::start(&opts, now).map(|(l, r)| (l, Some(r))),
        _ => Err(bad("mode")),
    })?;
    let recovery = match recovery {
        None => "recovery=none".to_owned(),
        Some(Recovery::Memory) => "recovery=memory".to_owned(),
        Some(Recovery::Attached { heap_bytes_copied }) => {
            format!("recovery=attached heap_bytes_copied={heap_bytes_copied}")
        }
        Some(Recovery::Disk {
            reason,
            read,
            translate,
            rows,
        }) => format!(
            "recovery=disk disk_read_ns={} disk_translate_ns={} disk_rows={rows} reason={}",
            read.as_nanos(),
            translate.as_nanos(),
            reason.replace(char::is_whitespace, "_")
        ),
    };
    say(format!(
        "started {wall} {ns} {recovery} replayed={}",
        leaf.sizes().wal_replayed_records
    ))?;

    let stdin = std::io::stdin();
    let mut line = String::new();
    loop {
        line.clear();
        if stdin
            .lock()
            .read_line(&mut line)
            .map_err(|e| e.to_string())?
            == 0
        {
            // The driver closed the pipe without a shutdown: it is gone.
            return Err("stdin closed".to_owned());
        }
        let (cmd, rest) = line.trim().split_once(' ').unwrap_or((line.trim(), ""));
        let reply = match cmd {
            "ingest" => ingest(&mut leaf, seed, rest),
            "query" => QuerySpec::from_line(rest)
                .ok_or_else(|| "bad query".to_owned())
                .and_then(|q| timed(|| leaf.query(&q)))
                .map(|(w, ns, a)| format!("ok {w} {ns} {}", a.to_line())),
            "sync" => timed(|| leaf.sync_disk()).map(|(w, ns, _)| format!("ok {w} {ns}")),
            "checkpoint" => {
                timed(|| leaf.checkpoint_and_wait()).map(|(w, ns, ())| format!("ok {w} {ns}"))
            }
            "hydrate" => {
                timed(|| leaf.finish_hydration()).map(|(w, ns, ())| format!("ok {w} {ns}"))
            }
            "stats" => {
                let s = leaf.sizes();
                Ok(format!(
                    "ok total_rows={} memory_used={} shm_resident={} wal_bytes={} vm_hwm_kb={}",
                    s.total_rows,
                    s.memory_used,
                    s.shm_resident,
                    s.wal_bytes,
                    vm_hwm_kb()
                ))
            }
            "shutdown" => {
                let (w, ns, s) = timed(|| leaf.shutdown_to_shm(now))?;
                say(format!(
                    "done {w} {ns} bytes_copied={} peak_footprint={} initial_footprint={} vm_hwm_kb={}",
                    s.bytes_copied,
                    s.peak_footprint,
                    s.initial_footprint,
                    vm_hwm_kb()
                ))?;
                return Ok(());
            }
            other => Err(format!("unknown command {other}")),
        };
        say(reply.unwrap_or_else(|e| format!("err {}", e.replace('\n', " "))))?;
    }
}

fn ingest(leaf: &mut Leaf, seed: u64, rest: &str) -> Result<String, String> {
    let f: Vec<&str> = rest.split_whitespace().collect();
    let [table, shape, stream, first, rows, now] = f[..] else {
        return Err("ingest takes six fields".to_owned());
    };
    let shape = Shape::parse(shape).ok_or("bad shape")?;
    let stream: u64 = stream.parse().map_err(|_| "bad stream")?;
    let first: u64 = first.parse().map_err(|_| "bad first row")?;
    let rows: usize = rows.parse().map_err(|_| "bad row count")?;
    let now: i64 = now.parse().map_err(|_| "bad now")?;
    let wall = wall_ns();
    let mut busy = 0u64;
    let mut at = first;
    let end = first + rows as u64;
    while at < end {
        let n = LOAD_CHUNK.min((end - at) as usize);
        // Rows exist before the clock starts.
        let batch = sut::RowBatch::from_records(&Records::generate(shape, seed, stream, at, n));
        let (_, ns, ()) = timed(|| leaf.add_rows(table, &batch, now))?;
        busy += ns;
        at += n as u64;
    }
    Ok(format!("ok {wall} {busy}"))
}

// ---- the driver's side ----

/// How the child is to come up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Fresh,
    Start,
}

/// `key=value` fields of a reply line.
#[derive(Debug, Clone, Default)]
pub struct Fields(BTreeMap<String, String>);

impl Fields {
    fn parse<'a>(tokens: impl Iterator<Item = &'a str>) -> Fields {
        Fields(
            tokens
                .filter_map(|t| t.split_once('='))
                .map(|(k, v)| (k.to_owned(), v.to_owned()))
                .collect(),
        )
    }

    pub fn str(&self, key: &str) -> &str {
        self.0.get(key).map_or("", String::as_str)
    }

    pub fn num(&self, key: &str) -> f64 {
        self.0.get(key).and_then(|v| v.parse().ok()).unwrap_or(0.0)
    }
}

/// A timed reply: where the child's product call sat and how long it ran.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChildSpan {
    pub wall_ns: u64,
    pub dur_ns: u64,
}

impl ChildSpan {
    /// The `<wall> <ns>` pair that leads a `started` or `done` line.
    fn take<'a>(tokens: &mut impl Iterator<Item = &'a str>) -> ChildSpan {
        let mut number = || tokens.next().and_then(|v| v.parse().ok()).unwrap_or(0);
        ChildSpan {
            wall_ns: number(),
            dur_ns: number(),
        }
    }
}

/// What the `started` line said.
#[derive(Debug, Clone, Default)]
pub struct Started {
    pub span: ChildSpan,
    pub fields: Fields,
    /// Driver-side: spawn call to `hello`, and `hello` to `started`.
    pub spawn: Duration,
    pub start: Duration,
}

/// What a clean shutdown looked like from the driver.
#[derive(Debug, Clone, Default)]
pub struct Stopped {
    /// The child's own copy-out call.
    pub span: ChildSpan,
    pub fields: Fields,
    /// `shutdown` written to the `done` line read.
    pub shutdown: Duration,
    /// `done` read to the process reaped: the kernel tearing down the old
    /// address space.
    pub exit: Duration,
}

pub struct LeafChild {
    child: Child,
    stdin: Option<ChildStdin>,
    lines: Receiver<String>,
    reader: Option<std::thread::JoinHandle<()>>,
    pid: u32,
    reaped: bool,
    ledger: Arc<Children>,
}

impl LeafChild {
    /// Spawn a child and wait for its `started` line.
    pub fn spawn(
        ledger: &Arc<Children>,
        mode: Mode,
        opts: &LeafOpts,
        seed: u64,
        now: i64,
    ) -> Result<(LeafChild, Started), String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut cmd = Command::new(exe);
        cmd.arg("leaf-child")
            .arg(match mode {
                Mode::Fresh => "fresh",
                Mode::Start => "start",
            })
            .arg(opts.leaf_id.to_string())
            .arg(&opts.shm_prefix)
            .arg(&opts.disk_root)
            .arg(opts.checkpoint_interval_rows.unwrap_or(0).to_string())
            .arg(if opts.shm_recovery { "1" } else { "0" })
            .arg(seed.to_string())
            .arg(now.to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        for var in sut::PRODUCT_ENV {
            cmd.env_remove(var);
        }
        let spawned = Instant::now();
        let mut child = cmd.spawn().map_err(|e| format!("spawn leaf child: {e}"))?;
        ledger.spawned();
        let stdout = child.stdout.take().expect("stdout was piped");
        let (tx, lines) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        let mut me = LeafChild {
            pid: child.id(),
            stdin: child.stdin.take(),
            child,
            lines,
            reader: Some(reader),
            reaped: false,
            ledger: Arc::clone(ledger),
        };
        let hello = me.line()?;
        let hello_at = Instant::now();
        if !hello.starts_with("hello ") {
            return Err(me.give_up(format!("expected hello, got {hello:?}")));
        }
        let line = me.line()?;
        let start = hello_at.elapsed();
        let mut tok = line.split_whitespace();
        if tok.next() != Some("started") {
            return Err(me.give_up(format!("leaf child did not start: {line}")));
        }
        let span = ChildSpan::take(&mut tok);
        let started = Started {
            span,
            fields: Fields::parse(tok),
            spawn: hello_at - spawned,
            start,
        };
        Ok((me, started))
    }

    pub fn pid(&self) -> u32 {
        self.pid
    }

    fn line(&mut self) -> Result<String, String> {
        match self.lines.recv_timeout(DEADLINE) {
            Ok(l) => Ok(l),
            Err(RecvTimeoutError::Timeout) => {
                let _ = self.child.kill();
                Err(format!(
                    "leaf child {} missed its {DEADLINE:?} deadline",
                    self.pid
                ))
            }
            Err(RecvTimeoutError::Disconnected) => {
                Err(format!("leaf child {} closed its pipe", self.pid))
            }
        }
    }

    fn give_up(mut self, why: String) -> String {
        let _ = self.kill_and_reap();
        why
    }

    pub fn send(&mut self, line: &str) -> Result<(), String> {
        let stdin = self.stdin.as_mut().ok_or("leaf child's stdin is closed")?;
        writeln!(stdin, "{line}")
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("write to leaf child {}: {e}", self.pid))
    }

    /// Read one `ok <wall> <ns> ...` reply; the rest of the line follows.
    pub fn reply(&mut self) -> Result<(ChildSpan, String), String> {
        let line = self.line()?;
        let mut tok = line.splitn(4, ' ');
        match tok.next() {
            Some("ok") => {}
            _ => return Err(format!("leaf child {}: {line}", self.pid)),
        }
        let wall_ns = tok.next().and_then(|v| v.parse().ok());
        let dur_ns = tok.next().and_then(|v| v.parse().ok());
        match (wall_ns, dur_ns) {
            (Some(wall_ns), Some(dur_ns)) => Ok((
                ChildSpan { wall_ns, dur_ns },
                tok.next().unwrap_or("").to_owned(),
            )),
            _ => Err(format!("leaf child {}: malformed reply {line:?}", self.pid)),
        }
    }

    pub fn call(&mut self, line: &str) -> Result<(ChildSpan, String), String> {
        self.send(line)?;
        self.reply()
    }

    pub fn ingest(
        &mut self,
        table: &str,
        shape: Shape,
        stream: u64,
        first: u64,
        rows: usize,
        now: i64,
    ) -> Result<ChildSpan, String> {
        self.send_ingest(table, shape, stream, first, rows, now)?;
        self.reply().map(|(span, _)| span)
    }

    /// The ingest command without waiting for its acknowledgement.
    pub fn send_ingest(
        &mut self,
        table: &str,
        shape: Shape,
        stream: u64,
        first: u64,
        rows: usize,
        now: i64,
    ) -> Result<(), String> {
        self.send(&format!(
            "ingest {table} {} {stream} {first} {rows} {now}",
            shape.name()
        ))
    }

    pub fn query(&mut self, q: &QuerySpec) -> Result<(ChildSpan, Answer), String> {
        let (span, rest) = self.call(&format!("query {}", q.to_line()))?;
        let answer = Answer::from_line(&rest)
            .ok_or_else(|| format!("leaf child {}: malformed answer {rest:?}", self.pid))?;
        Ok((span, answer))
    }

    pub fn stats(&mut self) -> Result<Fields, String> {
        self.send("stats")?;
        let line = self.line()?;
        match line.strip_prefix("ok ") {
            Some(rest) => Ok(Fields::parse(rest.split_whitespace())),
            None => Err(format!("leaf child {}: {line}", self.pid)),
        }
    }

    /// Clean shutdown, as the driver saw it.
    pub fn shutdown(mut self) -> Result<Stopped, String> {
        let asked = Instant::now();
        self.send("shutdown")?;
        let line = self.line()?;
        let done_at = Instant::now();
        let mut tok = line.split_whitespace();
        if tok.next() != Some("done") {
            return Err(self.give_up(format!("shutdown failed: {line}")));
        }
        let span = ChildSpan::take(&mut tok);
        let fields = Fields::parse(tok);
        let status = self.reap()?;
        if !status.success() {
            return Err(format!("leaf child {} exited with {status}", self.pid));
        }
        Ok(Stopped {
            span,
            fields,
            shutdown: done_at - asked,
            exit: done_at.elapsed(),
        })
    }

    /// SIGKILL, then reap; `Ok` only if the child really died of signal 9.
    pub fn kill_and_reap(&mut self) -> Result<(), String> {
        use std::os::unix::process::ExitStatusExt;
        self.child
            .kill()
            .map_err(|e| format!("kill {}: {e}", self.pid))?;
        let status = self.reap()?;
        match status.signal() {
            Some(9) => Ok(()),
            _ => Err(format!("leaf child {} was not killed: {status}", self.pid)),
        }
    }

    fn reap(&mut self) -> Result<ExitStatus, String> {
        // Our end of its stdin goes first, or a child blocked on a read
        // would never see the end of the pipe.
        self.stdin = None;
        let started = Instant::now();
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if started.elapsed() > DEADLINE => {
                    let _ = self.child.kill();
                    break self
                        .child
                        .wait()
                        .map_err(|e| format!("wait {}: {e}", self.pid))?;
                }
                Ok(None) => std::thread::sleep(Duration::from_micros(100)),
                Err(e) => return Err(format!("wait {}: {e}", self.pid)),
            }
        };
        if !self.reaped {
            self.reaped = true;
            self.ledger.reaped();
        }
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
        Ok(status)
    }
}

impl Drop for LeafChild {
    fn drop(&mut self) {
        if !self.reaped {
            // An error path let go of a live child: it must not outlive
            // the run.
            let _ = self.child.kill();
            let _ = self.reap();
        }
    }
}
